// YIELD: the acceptance benchmark for the statistical yield engine.
//
// Two estimates of the same 4Kx64 sigma-to-yield curve:
//   * reference — statistical blockade over `--trials` full array instances
//     (tens of millions of nominal samples, exact solves only for the
//     surrogate-gated tail candidates). At the gate point its failure count
//     is large enough to serve as ground truth.
//   * importance — the mean-shifted defensive-mixture importance sampler
//     with a few thousand samples.
//
// The headline claim (gated by tools/check_bench_yield.py): at the gate
// point Vreg = 0.40 V the per-cell tail is so rare that a naive brute-force
// Monte Carlo would need >= 10^7 exact DRV solves to pin it to the
// importance sampler's reported relative CI — and the importance sampler
// reaches a statistically indistinguishable estimate (95% CIs overlap)
// with <= 1/20 of that exact-solve budget.
//
// A second gated claim covers the candidate exact-solve path
// (BM_CandidateExact): the same Blockade curve is timed under both exact-
// batch kinds — OneAtATime (the scalar oracle loop) and LaneBatch (cross-cell
// SoA lanes through drv_hold_cross_batched) — at two candidate densities. At
// heavy density (the gate swallows every sampled cell) the lane batch must be
// >= 2x faster; at sparse density (surrogate evaluation dominates, few exact
// solves) it must at least not regress. Both runs must produce bit-identical
// curves, or the speedup is meaningless.
//
// Both curve sections record their executor task count; the check script
// fails an importance curve cut into fewer than 8 tasks (its samples mostly
// take exact solves, so too few blocks leave cores idle).
//
// Writes BENCH_yield.json with the `lpsram_build_type` stamp; the check
// script refuses debug-build reports.
//
// Usage: bench_yield [--trials N] [--samples N] [--threads N]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "build_type_warning.hpp"
#include "lpsram/stats/yield/engine.hpp"

using namespace lpsram;

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void print_curve(const char* label, const YieldResult& r) {
  std::printf("%s: %llu samples, %llu exact solves\n", label,
              static_cast<unsigned long long>(r.samples),
              static_cast<unsigned long long>(r.exact_solves));
  for (const YieldPoint& pt : r.points) {
    std::printf(
        "  vreg %.2f V: p %.3e +/- %.3e (rel %.3f, ess %.0f, sigma %.2f, "
        "failures %llu)\n",
        pt.vreg, pt.tail.p, pt.tail.ci95, pt.tail.rel_ci, pt.tail.ess,
        pt.sigma, static_cast<unsigned long long>(pt.failures));
  }
}

bool curves_bit_identical(const YieldResult& a, const YieldResult& b) {
  if (a.points.size() != b.points.size() || a.exact_solves != b.exact_solves)
    return false;
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    if (a.points[k].failures != b.points[k].failures) return false;
    if (std::memcmp(&a.points[k].tail.p, &b.points[k].tail.p,
                    sizeof(double)) != 0)
      return false;
  }
  return true;
}

// BM_CandidateExact{Scalar,LaneBatch}: one Blockade configuration timed under
// both exact-batch kinds on one worker thread (kernel speedup, not executor
// scaling), plus the bit-identity cross-check the speedup is conditional on.
struct CandidateExactSection {
  double margin = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t candidates = 0;
  std::uint64_t exact_solves = 0;
  double one_wall = 0.0;   // BM_CandidateExactScalar
  double lane_wall = 0.0;  // BM_CandidateExactLaneBatch
  double speedup = 0.0;
  bool identical = false;
};

CandidateExactSection bench_candidate_exact(const Technology& tech,
                                            const DrvSurrogate& surrogate,
                                            const YieldEngineOptions& opts) {
  CandidateExactSection s;
  s.margin = opts.blockade_margin;
  YieldResult one, lane;
  {
    ScopedYieldExactBatchDefault scoped(YieldExactBatchKind::OneAtATime);
    const YieldPlan plan(tech, surrogate, opts);
    const auto t0 = std::chrono::steady_clock::now();
    one = run_yield(plan);
    s.one_wall = wall_seconds(t0);
  }
  {
    ScopedYieldExactBatchDefault scoped(YieldExactBatchKind::LaneBatch);
    const YieldPlan plan(tech, surrogate, opts);
    const auto t0 = std::chrono::steady_clock::now();
    lane = run_yield(plan);
    s.lane_wall = wall_seconds(t0);
  }
  s.samples = lane.samples;
  s.candidates = lane.candidates;
  s.exact_solves = lane.exact_solves;
  s.speedup = s.lane_wall > 0.0 ? s.one_wall / s.lane_wall : 0.0;
  s.identical = curves_bit_identical(one, lane);
  return s;
}

void print_candidate_exact(const char* label, const CandidateExactSection& s) {
  std::printf("BM_CandidateExact (%s, margin %.2f V): %llu of %llu cells "
              "gated, %llu exact solves\n",
              label, s.margin, static_cast<unsigned long long>(s.candidates),
              static_cast<unsigned long long>(s.samples),
              static_cast<unsigned long long>(s.exact_solves));
  std::printf("  one-at-a-time %.3f s, lane-batch %.3f s -> %.2fx, curves %s\n",
              s.one_wall, s.lane_wall, s.speedup,
              s.identical ? "bit-identical" : "DIVERGED (BUG?)");
}

}  // namespace

int main(int argc, char** argv) {
  lpsram::bench::warn_if_debug_build();
  int trials = 128;
  std::size_t samples = 20000;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc)
      trials = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc)
      samples = static_cast<std::size_t>(std::atoll(argv[++i]));
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = std::atoi(argv[++i]);
  }

  const Technology tech = Technology::lp40nm();
  const DrvSurrogate surrogate = DrvSurrogate::train(tech);

  YieldEngineOptions base;
  base.rows = 4096;
  base.cols = 64;
  base.vreg_grid = {0.38, 0.40, 0.42};
  base.threads = threads;
  const double gate_vreg = base.vreg_grid[1];
  const std::size_t gate_k = 1;

  std::printf("YIELD — blockade reference vs importance-sampled tails on a "
              "%zux%zu array\n",
              base.rows, base.cols);
  std::printf("lpsram_build_type: %s\n\n",
              lpsram::bench::kReleaseBuild ? "release" : "debug");

  YieldEngineOptions ref_options = base;
  ref_options.mode = YieldMode::Blockade;
  ref_options.trials = trials;
  const YieldPlan ref_plan(tech, surrogate, ref_options);
  auto t0 = std::chrono::steady_clock::now();
  const YieldResult reference = run_yield(ref_plan);
  const double ref_wall = wall_seconds(t0);
  print_curve("reference (blockade)", reference);

  YieldEngineOptions is_options = base;
  is_options.mode = YieldMode::ImportanceSampled;
  is_options.is_samples = samples;
  is_options.is_shift = 4.5;
  const YieldPlan is_plan(tech, surrogate, is_options);
  t0 = std::chrono::steady_clock::now();
  const YieldResult importance = run_yield(is_plan);
  const double is_wall = wall_seconds(t0);
  print_curve("importance (shifted mixture)", importance);

  const TailEstimate& ref_tail = reference.points[gate_k].tail;
  const TailEstimate& is_tail = importance.points[gate_k].tail;
  // Exact solves a naive brute-force Monte Carlo would need to pin the gate
  // point to the importance sampler's achieved relative CI.
  const double bf_needed =
      brute_force_solves_needed(is_tail.p, is_tail.rel_ci);
  const double combined_ci =
      std::sqrt(ref_tail.ci95 * ref_tail.ci95 + is_tail.ci95 * is_tail.ci95);
  const bool ci_overlap = std::fabs(is_tail.p - ref_tail.p) <= combined_ci;
  const double solve_ratio =
      bf_needed > 0.0
          ? static_cast<double>(importance.exact_solves) / bf_needed
          : 1.0;

  std::printf("\nat the gate point vreg %.2f V:\n", gate_vreg);
  std::printf("  brute force would need %.3e exact solves for rel CI %.3f\n",
              bf_needed, is_tail.rel_ci);
  std::printf("  importance sampler spent %llu (%.5f of brute force)\n",
              static_cast<unsigned long long>(importance.exact_solves),
              solve_ratio);
  std::printf("  |p_is - p_ref| = %.3e vs combined CI %.3e: %s\n",
              std::fabs(is_tail.p - ref_tail.p), combined_ci,
              ci_overlap ? "OVERLAP" : "DISJOINT (BUG?)");
  std::printf("  wall: reference %.1f s (%zu tasks), importance %.1f s "
              "(%zu tasks)\n",
              ref_wall, ref_plan.task_count(), is_wall, is_plan.task_count());

  // Candidate exact-solve batching at two densities, one worker thread.
  // Sparse: the default gate margin — surrogate evaluation dominates, exact
  // solves are rare; lane batching must simply not regress. Heavy: the gate
  // sits below 0 V so every sampled cell takes an exact solve — this is the
  // configuration the cross-cell lane kernel exists for.
  std::printf("\n");
  YieldEngineOptions ce = base;
  ce.mode = YieldMode::Blockade;
  ce.rows = 256;
  ce.cols = 64;
  ce.trials = 8;
  ce.threads = 1;
  const CandidateExactSection sparse =
      bench_candidate_exact(tech, surrogate, ce);
  print_candidate_exact("sparse", sparse);
  ce.rows = 64;
  ce.cols = 64;
  ce.trials = 2;
  ce.blockade_margin = 0.40;  // gate < 0 V: every cell is a candidate
  const CandidateExactSection heavy =
      bench_candidate_exact(tech, surrogate, ce);
  print_candidate_exact("heavy", heavy);
  const bool batch_sound = sparse.identical && heavy.identical;

  FILE* json = std::fopen("BENCH_yield.json", "w");
  if (json) {
    std::fprintf(
        json,
        "{\n"
        "  \"context\": {\n"
        "    \"lpsram_build_type\": \"%s\",\n"
        "    \"threads\": %d\n"
        "  },\n"
        "  \"rows\": %zu,\n"
        "  \"cols\": %zu,\n"
        "  \"gate_vreg\": %.2f,\n"
        "  \"reference\": {\"mode\": \"blockade\", \"trials\": %d, "
        "\"samples\": %llu, \"exact_solves\": %llu, \"p\": %.9e, "
        "\"ci95\": %.9e, \"rel_ci\": %.6f, \"ess\": %.1f, "
        "\"failures\": %llu, \"tasks\": %zu, \"wall_s\": %.3f},\n"
        "  \"importance\": {\"mode\": \"importance\", \"shift\": %.2f, "
        "\"samples\": %llu, \"exact_solves\": %llu, \"p\": %.9e, "
        "\"ci95\": %.9e, \"rel_ci\": %.6f, \"ess\": %.1f, "
        "\"failures\": %llu, \"tasks\": %zu, \"wall_s\": %.3f},\n"
        "  \"bf_solves_needed\": %.6e,\n"
        "  \"solve_ratio\": %.8f,\n"
        "  \"ci_overlap\": %s,\n"
        "  \"candidate_exact\": {\n"
        "    \"sparse\": {\"blockade_margin\": %.3f, \"samples\": %llu, "
        "\"candidates\": %llu, \"exact_solves\": %llu, "
        "\"one_at_a_time_wall_s\": %.6f, \"lane_batch_wall_s\": %.6f, "
        "\"speedup\": %.4f, \"curves_identical\": %s},\n"
        "    \"heavy\": {\"blockade_margin\": %.3f, \"samples\": %llu, "
        "\"candidates\": %llu, \"exact_solves\": %llu, "
        "\"one_at_a_time_wall_s\": %.6f, \"lane_batch_wall_s\": %.6f, "
        "\"speedup\": %.4f, \"curves_identical\": %s}\n"
        "  }\n"
        "}\n",
        lpsram::bench::kReleaseBuild ? "release" : "debug", threads,
        base.rows, base.cols, gate_vreg, trials,
        static_cast<unsigned long long>(reference.samples),
        static_cast<unsigned long long>(reference.exact_solves), ref_tail.p,
        ref_tail.ci95, ref_tail.rel_ci, ref_tail.ess,
        static_cast<unsigned long long>(reference.points[gate_k].failures),
        ref_plan.task_count(), ref_wall, is_options.is_shift,
        static_cast<unsigned long long>(importance.samples),
        static_cast<unsigned long long>(importance.exact_solves), is_tail.p,
        is_tail.ci95, is_tail.rel_ci, is_tail.ess,
        static_cast<unsigned long long>(importance.points[gate_k].failures),
        is_plan.task_count(), is_wall, bf_needed, solve_ratio,
        ci_overlap ? "true" : "false",
        sparse.margin, static_cast<unsigned long long>(sparse.samples),
        static_cast<unsigned long long>(sparse.candidates),
        static_cast<unsigned long long>(sparse.exact_solves), sparse.one_wall,
        sparse.lane_wall, sparse.speedup, sparse.identical ? "true" : "false",
        heavy.margin, static_cast<unsigned long long>(heavy.samples),
        static_cast<unsigned long long>(heavy.candidates),
        static_cast<unsigned long long>(heavy.exact_solves), heavy.one_wall,
        heavy.lane_wall, heavy.speedup, heavy.identical ? "true" : "false");
    std::fclose(json);
    std::printf("\nwrote BENCH_yield.json\n");
  }
  return ci_overlap && batch_sound ? 0 : 1;
}
