// Yield-engine suite: counter-RNG properties, surrogate-vs-exact and
// lane-vs-scalar equivalence on sampled variation fields, estimator algebra,
// statistical acceptance of the fast estimators against brute-force ground
// truth, and the determinism contracts — bit-identical results across
// thread counts, kill-at-every-record-boundary campaign resume, and a
// fabric-sharded fleet reduced from its merged journal.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <utility>
#include <vector>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/runtime/fabric/fabric.hpp"
#include "lpsram/stats/yield/counter_rng.hpp"
#include "lpsram/stats/yield/engine.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/simd.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LPSRAM_YIELD_POSIX 1
#endif

namespace lpsram {
namespace {

namespace fs = std::filesystem;

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

const DrvSurrogate& surrogate() {
  static const DrvSurrogate s = DrvSurrogate::train(tech());
  return s;
}

std::string journal_path(const std::string& name) {
  fs::create_directories("yield-journals");
  return (fs::path("yield-journals") / name).string();
}

// Bitwise equality of two yield results (the determinism contract: every
// double must match exactly, not approximately).
void expect_bit_identical(const YieldResult& a, const YieldResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.exact_solves, b.exact_solves);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    EXPECT_EQ(key_bits(a.points[k].tail.p), key_bits(b.points[k].tail.p));
    EXPECT_EQ(key_bits(a.points[k].tail.ci95), key_bits(b.points[k].tail.ci95));
    EXPECT_EQ(key_bits(a.points[k].tail.ess), key_bits(b.points[k].tail.ess));
    EXPECT_EQ(a.points[k].failures, b.points[k].failures);
    EXPECT_EQ(key_bits(a.points[k].sigma), key_bits(b.points[k].sigma));
    EXPECT_EQ(key_bits(a.points[k].array_yield),
              key_bits(b.points[k].array_yield));
  }
  ASSERT_EQ(a.array_dist.samples.size(), b.array_dist.samples.size());
  for (std::size_t i = 0; i < a.array_dist.samples.size(); ++i)
    EXPECT_EQ(key_bits(a.array_dist.samples[i]),
              key_bits(b.array_dist.samples[i]));
  EXPECT_EQ(key_bits(a.array_dist.mean), key_bits(b.array_dist.mean));
  EXPECT_EQ(key_bits(a.array_dist.gumbel_mu), key_bits(b.array_dist.gumbel_mu));
}

// ---------- counter RNG ----------------------------------------------------

TEST(CounterRng, PureFunctionOfCoordinates) {
  const std::uint64_t a = counter_u64(1, 2, 3, 4);
  // Same coordinates, any call order: same draw.
  (void)counter_u64(9, 9, 9, 9);
  EXPECT_EQ(counter_u64(1, 2, 3, 4), a);
  // Every coordinate matters.
  EXPECT_NE(counter_u64(2, 2, 3, 4), a);
  EXPECT_NE(counter_u64(1, 3, 3, 4), a);
  EXPECT_NE(counter_u64(1, 2, 4, 4), a);
  EXPECT_NE(counter_u64(1, 2, 3, 5), a);
  // Argument order matters (trial/cell/lane are not interchangeable).
  EXPECT_NE(counter_u64(1, 3, 2, 4), a);
}

TEST(CounterRng, UniformStrictlyInsideUnitInterval) {
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = counter_uniform(42, 0, static_cast<std::uint64_t>(i), 0);
    ASSERT_GT(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sq += u * u;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

// The uniforms at both ends of counter_uniform's grid: (0 + 0.5) * 2^-53,
// and the largest double below 1, where the top grid point is clamped.
constexpr double kMinUniform = 0x1p-54;
constexpr double kMaxUniform = 0x1.fffffffffffffp-1;

// AS241's branch edges: |p - 0.5| = 0.425 splits central from tail, and
// r = sqrt(-log(min(p, 1 - p))) = 5 splits the near tail from the far one.
std::vector<double> quantile_edge_points() {
  std::vector<double> points = {kMinUniform, kMaxUniform};
  const double r5 = std::exp(-25.0);
  for (const double edge : {0.075, 0.925, r5, 1.0 - r5}) {
    points.push_back(std::nextafter(edge, 0.0));
    points.push_back(edge);
    points.push_back(std::nextafter(edge, 1.0));
  }
  return points;
}

TEST(CounterRng, NormalQuantileInvertsCdf) {
  std::vector<double> points = {1e-12, 1e-9,    1e-6,  1e-3,  0.02,
                                0.02425, 0.1,   0.3,   0.5,   0.7,
                                0.9,   0.97575, 0.999, 1.0 - 1e-9};
  for (const double p : quantile_edge_points()) points.push_back(p);
  for (const double p : points) {
    const double x = normal_quantile(p);
    EXPECT_NEAR(normal_cdf(x), p, 1e-15 + 1e-12 * p) << "p=" << p;
    // Antisymmetry of the inverse CDF — only where 1-p is representable to
    // the tail's own precision (below ~1e-9 the rounding of 1-p dominates).
    if (p >= 1e-9)
      EXPECT_NEAR(normal_quantile(1.0 - p), -x, 1e-8 * (1.0 + std::fabs(x)))
          << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(normal_quantile(0.5), 0.0);
  EXPECT_NEAR(normal_quantile(normal_cdf(-4.0)), -4.0, 1e-10);
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(-0.5), InvalidArgument);
}

TEST(CounterRng, NormalMoments) {
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double z = counter_normal(7, 1, static_cast<std::uint64_t>(i), 2);
    sum += z;
    sq += z * z;
  }
  const double mean = sum / kN;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(sq / kN - mean * mean), 1.0, 0.01);
}

TEST(CounterRng, SampleCellVariationMatchesLanes) {
  const CellVariation v = sample_cell_variation(11, 3, 17);
  for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
    EXPECT_DOUBLE_EQ(v.get(kAllCellTransistors[lane]),
                     counter_normal(11, 3, 17, lane));
}

TEST(CounterRng, UniformNeverReachesOne) {
  // The top 53-bit grid point rounds to 1.0 before the clamp; every draw,
  // whatever its bits, stays strictly inside (0, 1).
  EXPECT_EQ((static_cast<double>((~0ULL) >> 11) + 0.5) * 0x1p-53, 1.0);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = counter_uniform(5, 0, i, 0);
    EXPECT_GE(u, kMinUniform);
    EXPECT_LE(u, kMaxUniform);
  }
}

// Block sampler + block surrogate against the scalar oracles, bit for bit:
// >= 2^20 cells in chunks of uneven sizes (remainders of every native
// width) at nonzero first cells, and the surrogate on a field scaled past
// both ends of its knot table.
TEST(CounterRng, BlockMatchesScalar) {
  constexpr std::uint64_t kSeed = 0xB10CULL;
  constexpr std::uint64_t kTrial = 3;
  constexpr std::size_t kChunks[] = {1, 3, 7, 8, 9, 63, 64, 65, 255, 1000, 4097};
  constexpr std::size_t kMaxChunk = 4097;
  std::vector<double> store(6 * kMaxChunk), scaled_store(6 * kMaxChunk);
  std::vector<double> drv(kMaxChunk), scaled_drv(kMaxChunk);
  const CellVariationLanes z = CellVariationLanes::over(store.data(), kMaxChunk);
  const CellVariationLanes zs =
      CellVariationLanes::over(scaled_store.data(), kMaxChunk);

  std::uint64_t first = 12345, cells = 0, mismatches = 0;
  for (std::size_t c = 0; cells < (1u << 20); ++c) {
    const std::size_t n = kChunks[c % std::size(kChunks)];
    sample_cell_variation_block(kSeed, kTrial, first, n, z);
    for (std::size_t l = 0; l < 6; ++l)
      for (std::size_t i = 0; i < n; ++i) zs.lane[l][i] = 4.0 * z.lane[l][i];
    surrogate().predict_drv_block(z, n, drv.data());
    surrogate().predict_drv_block(zs, n, scaled_drv.data());
    for (std::size_t i = 0; i < n; ++i) {
      const CellVariation v = sample_cell_variation(kSeed, kTrial, first + i);
      const CellVariation block = z.cell(i);
      CellVariation scaled;
      for (const CellTransistor t : kAllCellTransistors) {
        mismatches += key_bits(block.get(t)) != key_bits(v.get(t));
        scaled.set(t, 4.0 * v.get(t));
      }
      mismatches += key_bits(drv[i]) != key_bits(surrogate().predict_drv(v));
      mismatches +=
          key_bits(scaled_drv[i]) != key_bits(surrogate().predict_drv(scaled));
    }
    first += n + 17;  // skip a few cells: chunks start anywhere
    cells += n;
  }
  EXPECT_EQ(mismatches, 0u) << "over " << cells << " cells";

  // The inverse CDF alone at its branch edges and the extreme uniforms, at
  // every count up to two full vectors plus one.
  const std::vector<double> edges = quantile_edge_points();
  for (std::size_t n = 1; n <= 2 * simd::kNativeWidth + 1; ++n) {
    std::vector<double> p(n), x(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = edges[(i + n) % edges.size()];
    normal_quantile_block(p.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(key_bits(x[i]), key_bits(normal_quantile(p[i])))
          << "p=" << p[i] << " n=" << n;
  }
}

// Cross-backend gate: a digest of the raw bits of z and surrogate DRV over
// the first 2^20 cells at a fixed seed. Every operation behind them is
// exact or single-rounded, so the native, sanitizer and forced-scalar
// (-DLPSRAM_SIMD=off) builds must all land on this one constant.
TEST(CounterRng, FieldDigestPinned) {
  constexpr std::size_t kChunk = 4096;
  std::vector<double> store(6 * kChunk), drv(kChunk);
  const CellVariationLanes z = CellVariationLanes::over(store.data(), kChunk);
  std::uint64_t digest = 0x46494C44ULL;  // "FILD"
  for (std::size_t c0 = 0; c0 < (1u << 20); c0 += kChunk) {
    sample_cell_variation_block(0x5EEDULL, 0, c0, kChunk, z);
    surrogate().predict_drv_block(z, kChunk, drv.data());
    for (std::size_t i = 0; i < kChunk; ++i) {
      for (std::size_t l = 0; l < 6; ++l)
        digest = fold_key(digest, key_bits(z.lane[l][i]));
      digest = fold_key(digest, key_bits(drv[i]));
    }
  }
  EXPECT_EQ(digest, 0x804204ffc117ad8dULL) << std::hex << "0x" << digest;
}

// ---------- surrogate / lane-kernel equivalence -----------------------------

TEST(YieldEquivalence, SurrogateErrorBoundedOnSampledFields) {
  // The blockade gate trusts the surrogate to classify sub-gate cells; its
  // error on nominally-sampled fields must stay within the blockade margin.
  double sq = 0.0, worst = 0.0;
  constexpr int kN = 48;
  for (int i = 0; i < kN; ++i) {
    const CellVariation v =
        sample_cell_variation(0xE0u, 0, static_cast<std::uint64_t>(i));
    const CoreCell cell(tech(), v);
    const double exact = drv_ds(cell, 25.0).drv();
    const double err = surrogate().predict_drv(v) - exact;
    sq += err * err;
    worst = std::max(worst, std::fabs(err));
  }
  EXPECT_LT(std::sqrt(sq / kN), 0.030);  // RMS under 30 mV on nominal fields
  EXPECT_LT(worst, 0.060);               // worst under the blockade margin
}

TEST(YieldEquivalence, LaneKernelAgreesWithScalarOnSampledFields) {
  for (int i = 0; i < 12; ++i) {
    const CellVariation v =
        sample_cell_variation(0xE1u, 0, static_cast<std::uint64_t>(i));
    const CoreCell cell(tech(), v);
    double scalar, batched;
    {
      const ScopedCellKernelDefault k(CellKernelKind::Scalar);
      scalar = drv_ds(cell, 25.0).drv();
    }
    {
      const ScopedCellKernelDefault k(CellKernelKind::Batched);
      batched = drv_ds(cell, 25.0).drv();
    }
    EXPECT_NEAR(scalar, batched, 0.005 * scalar + 1e-6) << "sample " << i;
  }
}

// ---------- estimator algebra ----------------------------------------------

TEST(TailEstimator, CollapsesToExactBinomialAtUnitWeights) {
  BlockAccum acc;
  acc.points.resize(1);
  constexpr std::uint64_t kN = 5000, kFails = 37;
  for (std::uint64_t i = 0; i < kN; ++i) {
    acc.points[0].add(1.0, i < kFails);
    acc.sum_w += 1.0;
    acc.sum_w2 += 1.0;
    ++acc.samples;
  }
  const TailEstimate est = estimate_tail(acc, 0);
  const double p = static_cast<double>(kFails) / kN;
  EXPECT_DOUBLE_EQ(est.p, p);
  EXPECT_DOUBLE_EQ(est.ess, static_cast<double>(kN));
  EXPECT_NEAR(est.ci95, 1.96 * std::sqrt(p * (1.0 - p) / kN), 1e-12);
  EXPECT_NEAR(est.rel_ci, est.ci95 / p, 1e-15);
}

TEST(TailEstimator, ZeroFailuresFallsBackToRuleOfThree) {
  BlockAccum acc;
  acc.points.resize(1);
  acc.samples = 1000;
  acc.sum_w = 1000.0;
  acc.sum_w2 = 1000.0;
  const TailEstimate est = estimate_tail(acc, 0);
  EXPECT_DOUBLE_EQ(est.p, 0.0);
  EXPECT_DOUBLE_EQ(est.ci95, 3.0 / 1000.0);
  EXPECT_DOUBLE_EQ(est.rel_ci, 0.0);
}

TEST(TailEstimator, MergeAndValidation) {
  BlockAccum a, b;
  a.points.resize(2);
  b.points.resize(2);
  a.points[0].add(2.0, true);
  a.sum_w = 2.0;
  a.sum_w2 = 4.0;
  a.samples = 1;
  a.max_drv = 0.3;
  b.points[1].add(0.5, true);
  b.sum_w = 0.5;
  b.sum_w2 = 0.25;
  b.samples = 1;
  b.max_drv = 0.4;
  a.merge(b);
  EXPECT_EQ(a.samples, 2u);
  EXPECT_DOUBLE_EQ(a.sum_w, 2.5);
  EXPECT_DOUBLE_EQ(a.max_drv, 0.4);
  EXPECT_EQ(a.points[0].fail_raw, 1u);
  EXPECT_EQ(a.points[1].fail_raw, 1u);

  BlockAccum wrong;
  wrong.points.resize(3);
  EXPECT_THROW(a.merge(wrong), InvalidArgument);
  EXPECT_THROW(estimate_tail(a, 5), InvalidArgument);
  BlockAccum empty;
  empty.points.resize(1);
  EXPECT_THROW(estimate_tail(empty, 0), InvalidArgument);
}

TEST(TailEstimator, BruteForceBudgetAndSigma) {
  // N = z^2 (1-p) / (p rel^2): pinning p = 1e-5 to +/-10% at 95% needs
  // ~3.8e7 exact solves.
  const double n = brute_force_solves_needed(1e-5, 0.1);
  EXPECT_NEAR(n, 1.96 * 1.96 * (1.0 - 1e-5) / (1e-5 * 0.01), 1e3);
  EXPECT_THROW(brute_force_solves_needed(0.0, 0.1), InvalidArgument);
  EXPECT_THROW(brute_force_solves_needed(0.5, 0.0), InvalidArgument);

  EXPECT_NEAR(sigma_of_tail(normal_cdf(-3.0)), 3.0, 1e-9);
  EXPECT_NEAR(sigma_of_tail(0.5), 0.0, 1e-12);
  EXPECT_THROW(sigma_of_tail(0.0), InvalidArgument);
}

// ---------- engine: plan mechanics ------------------------------------------

YieldEngineOptions small_options(YieldMode mode) {
  YieldEngineOptions options;
  options.rows = 64;
  options.cols = 16;
  options.trials = 2;
  options.vreg_grid = {0.25, 0.30};
  options.block_cells = 512;
  options.mode = mode;
  options.is_samples = 3000;
  options.is_shift = 2.5;
  options.threads = 1;
  return options;
}

// An auto-shifted importance-sampled curve cut into four 512-sample blocks,
// so the determinism contracts cover a multi-block IS reduce as well as the
// blockade one.
YieldEngineOptions multi_block_is_options() {
  YieldEngineOptions options = small_options(YieldMode::ImportanceSampled);
  options.is_samples = 2000;
  options.auto_shift = true;
  return options;
}

// |actual - expected| <= 1e-12 |expected|: a re-associated float sum.
void expect_rel_near(double actual, double expected, const char* what) {
  EXPECT_LE(std::fabs(actual - expected), 1e-12 * std::fabs(expected))
      << what << ": " << actual << " vs " << expected;
}

TEST(YieldPlan, ValidatesOptions) {
  YieldEngineOptions bad = small_options(YieldMode::Blockade);
  bad.trials = 0;
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::Blockade);
  bad.vreg_grid = {};
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::Blockade);
  bad.vreg_grid = {0.4, 0.3};  // descending
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::ImportanceSampled);
  bad.is_defensive = 1.0;
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
  bad = small_options(YieldMode::Blockade);
  bad.blockade_margin = -0.01;
  EXPECT_THROW(YieldPlan(tech(), surrogate(), bad), InvalidArgument);
}

TEST(YieldPlan, BlocksNeverSpanTrialsAndCoverEveryCell) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 10;
  options.cols = 10;  // 100 cells/trial, not a multiple of block_cells
  options.trials = 3;
  options.block_cells = 32;
  const YieldPlan plan(tech(), surrogate(), options);
  EXPECT_EQ(plan.blocks_per_trial(), 4u);
  EXPECT_EQ(plan.task_count(), 12u);
  const YieldResult result = run_yield(plan);
  EXPECT_EQ(result.samples, 300u);
  EXPECT_EQ(result.array_dist.samples.size(), 3u);
}

TEST(YieldPlan, ExactHeavyModesCapBlockSize) {
  // Default options: a 20k-sample IS curve runs in 512-sample blocks.
  YieldEngineOptions is_options;
  is_options.mode = YieldMode::ImportanceSampled;
  const YieldPlan is_plan(tech(), surrogate(), is_options);
  EXPECT_EQ(is_plan.options().block_cells, 512u);
  EXPECT_EQ(is_plan.task_count(), 40u);
  // The cap resolves before the fingerprint: asking for 512 is the same plan.
  is_options.block_cells = 512;
  EXPECT_EQ(YieldPlan(tech(), surrogate(), is_options).fingerprint(),
            is_plan.fingerprint());

  // Brute force is capped the same way: 4096x64 cells per trial, 4 trials.
  YieldEngineOptions brute;
  brute.mode = YieldMode::BruteForceExact;
  const YieldPlan brute_plan(tech(), surrogate(), brute);
  EXPECT_EQ(brute_plan.options().block_cells, 512u);
  EXPECT_EQ(brute_plan.blocks_per_trial(), 512u);
  EXPECT_EQ(brute_plan.task_count(), 2048u);

  // Blockade keeps its 16384-cell blocks and a fingerprint that still tells
  // them apart from 512-cell ones.
  const YieldEngineOptions blockade;
  const YieldPlan blockade_plan(tech(), surrogate(), blockade);
  EXPECT_EQ(blockade_plan.options().block_cells, 16384u);
  EXPECT_EQ(blockade_plan.blocks_per_trial(), 16u);
  EXPECT_EQ(blockade_plan.task_count(), 64u);
  YieldEngineOptions small_blocks = blockade;
  small_blocks.block_cells = 512;
  EXPECT_NE(YieldPlan(tech(), surrogate(), small_blocks).fingerprint(),
            blockade_plan.fingerprint());

  // Sample coordinates are global, so another decomposition samples the
  // same field: every integer counter matches, and the float sums only
  // re-associate.
  const YieldEngineOptions coarse = multi_block_is_options();
  YieldEngineOptions fine = coarse;
  fine.block_cells = 64;
  const YieldPlan coarse_plan(tech(), surrogate(), coarse);
  const YieldPlan fine_plan(tech(), surrogate(), fine);
  ASSERT_EQ(coarse_plan.task_count(), 4u);
  ASSERT_EQ(fine_plan.task_count(), 32u);
  const YieldResult a = run_yield(coarse_plan);
  const YieldResult b = run_yield(fine_plan);
  EXPECT_EQ(b.samples, a.samples);
  EXPECT_EQ(b.candidates, a.candidates);
  EXPECT_EQ(b.exact_solves, a.exact_solves);
  ASSERT_EQ(b.points.size(), a.points.size());
  for (std::size_t k = 0; k < a.points.size(); ++k) {
    SCOPED_TRACE("vreg " + std::to_string(a.points[k].vreg));
    EXPECT_GT(a.points[k].failures, 0u);
    EXPECT_EQ(b.points[k].failures, a.points[k].failures);
    expect_rel_near(b.points[k].tail.p, a.points[k].tail.p, "p");
    expect_rel_near(b.points[k].tail.ci95, a.points[k].tail.ci95, "ci95");
    expect_rel_near(b.points[k].tail.ess, a.points[k].tail.ess, "ess");
  }
}

TEST(YieldPlan, FingerprintSeparatesConfigurations) {
  const YieldPlan base(tech(), surrogate(), small_options(YieldMode::Blockade));
  YieldEngineOptions other = small_options(YieldMode::Blockade);
  other.seed ^= 1;
  EXPECT_NE(base.fingerprint(),
            YieldPlan(tech(), surrogate(), other).fingerprint());
  other = small_options(YieldMode::Blockade);
  other.vreg_grid.push_back(0.35);
  EXPECT_NE(base.fingerprint(),
            YieldPlan(tech(), surrogate(), other).fingerprint());
  EXPECT_NE(base.fingerprint(),
            YieldPlan(tech(), surrogate(), small_options(YieldMode::BruteForceExact))
                .fingerprint());
  // Same configuration: same fingerprint (it must be stable, not salted).
  EXPECT_EQ(base.fingerprint(),
            YieldPlan(tech(), surrogate(), small_options(YieldMode::Blockade))
                .fingerprint());
}

TEST(YieldPlan, ImportanceWeightIsMirrorSymmetricAndBounded) {
  YieldEngineOptions options = small_options(YieldMode::ImportanceSampled);
  const YieldPlan plan(tech(), surrogate(), options);
  for (int i = 0; i < 32; ++i) {
    const CellVariation v =
        sample_cell_variation(0xE2u, 0, static_cast<std::uint64_t>(i));
    const double w = plan.importance_weight(v);
    EXPECT_GT(w, 0.0);
    // Defensive component bounds every likelihood ratio at 1/alpha.
    EXPECT_LE(w, 1.0 / options.is_defensive + 1e-12);
    // The mixture proposal is symmetric under the cell mirror.
    EXPECT_DOUBLE_EQ(plan.importance_weight(v.mirrored()), w);
  }
}

// ---------- statistical acceptance ------------------------------------------

TEST(YieldAcceptance, BlockadeMatchesBruteForceGroundTruth) {
  const YieldPlan brute(tech(), surrogate(),
                        small_options(YieldMode::BruteForceExact));
  const YieldPlan blockade(tech(), surrogate(),
                           small_options(YieldMode::Blockade));
  const YieldResult exact = run_yield(brute);
  const YieldResult gated = run_yield(blockade);
  ASSERT_EQ(exact.points.size(), gated.points.size());
  EXPECT_EQ(exact.samples, gated.samples);
  EXPECT_LT(gated.exact_solves, exact.exact_solves);
  for (std::size_t k = 0; k < exact.points.size(); ++k) {
    // Same sampled cells; the only divergence channel is a surrogate
    // misclassification of a sub-gate cell, bounded by the margin.
    const double combined = std::sqrt(
        exact.points[k].tail.ci95 * exact.points[k].tail.ci95 +
        gated.points[k].tail.ci95 * gated.points[k].tail.ci95);
    EXPECT_NEAR(gated.points[k].tail.p, exact.points[k].tail.p, combined)
        << "vreg " << exact.points[k].vreg;
  }
}

TEST(YieldAcceptance, ImportanceSamplingMatchesBruteForceWithinCi) {
  const YieldPlan brute(tech(), surrogate(),
                        small_options(YieldMode::BruteForceExact));
  const YieldPlan is_plan(tech(), surrogate(),
                          small_options(YieldMode::ImportanceSampled));
  const YieldResult exact = run_yield(brute);
  const YieldResult shifted = run_yield(is_plan);
  ASSERT_EQ(exact.points.size(), shifted.points.size());
  for (std::size_t k = 0; k < exact.points.size(); ++k) {
    const double combined = std::sqrt(
        exact.points[k].tail.ci95 * exact.points[k].tail.ci95 +
        shifted.points[k].tail.ci95 * shifted.points[k].tail.ci95);
    EXPECT_NEAR(shifted.points[k].tail.p, exact.points[k].tail.p, combined)
        << "vreg " << exact.points[k].vreg;
    EXPECT_GT(shifted.points[k].tail.ess, 100.0);
  }
}

// ---------- determinism contracts -------------------------------------------

TEST(YieldDeterminism, BitIdenticalAcrossThreadCounts) {
  YieldEngineOptions blockade = small_options(YieldMode::Blockade);
  blockade.rows = 128;
  blockade.block_cells = 256;
  for (YieldEngineOptions options : {blockade, multi_block_is_options()}) {
    SCOPED_TRACE(yield_mode_name(options.mode));
    options.threads = 1;
    const YieldPlan plan1(tech(), surrogate(), options);
    ASSERT_GE(plan1.task_count(), 4u);
    const YieldResult r1 = run_yield(plan1);
    for (const int threads : {2, 8}) {
      options.threads = threads;
      const YieldPlan plan(tech(), surrogate(), options);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_bit_identical(run_yield(plan), r1);
    }
  }
}

// Kills a journaled run of `plan` at every record append, resumes each torn
// journal in a fresh Campaign and expects the uninterrupted curve bit for
// bit. Returns the first append boundary the run completes before.
std::uint64_t expect_resume_at_every_boundary(const YieldPlan& plan,
                                              const std::string& name) {
  const YieldResult golden = run_yield(plan);
  const std::string path = journal_path(name);
  bool killed = true;
  std::uint64_t boundary = 1;
  for (; killed; ++boundary) {
    SCOPED_TRACE("killed at append " + std::to_string(boundary));
    fs::remove(path);
    {
      Campaign campaign(path);
      const ScopedJournalCrash crash(boundary);
      try {
        run_yield(plan, &campaign);
        killed = false;  // boundary beyond the run's total appends
      } catch (const JournalCrash&) {
        killed = true;
      }
    }
    // The "restarted process": a fresh Campaign replays the torn journal.
    Campaign campaign(path);
    expect_bit_identical(run_yield(plan, &campaign), golden);
  }
  return boundary - 1;
}

TEST(YieldDeterminism, KillAtEveryRecordBoundaryResumesBitIdentical) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  options.block_cells = 256;  // 512 cells/trial -> 2 blocks/trial, 4 tasks
  const YieldPlan plan(tech(), surrogate(), options);
  ASSERT_EQ(plan.task_count(), 4u);
  // Manifest + 4 task records = 5 appends; first crash-free boundary is 6.
  EXPECT_EQ(expect_resume_at_every_boundary(plan, "kill_resume.journal"), 6u);

  const YieldPlan is_plan(tech(), surrogate(), multi_block_is_options());
  ASSERT_EQ(is_plan.task_count(), 4u);
  EXPECT_EQ(expect_resume_at_every_boundary(is_plan, "kill_resume_is.journal"),
            6u);
}

TEST(YieldDeterminism, CampaignRefusesMismatchedConfiguration) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  const YieldPlan plan(tech(), surrogate(), options);
  const std::string path = journal_path("manifest_refusal.journal");
  fs::remove(path);
  {
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  // Same journal, different grid: the manifest fingerprint must refuse.
  options.vreg_grid = {0.32};
  const YieldPlan other(tech(), surrogate(), options);
  Campaign campaign(path);
  EXPECT_THROW(run_yield(other, &campaign), InvalidArgument);
}

TEST(YieldDeterminism, JournalOfAnotherDecompositionIsRefused) {
  // An IS journal recorded in four 512-sample blocks...
  const YieldPlan plan(tech(), surrogate(), multi_block_is_options());
  const std::string path = journal_path("decomposition_refusal.journal");
  fs::remove(path);
  {
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  // ...against the same curve cut into 256-sample blocks. Task keys depend
  // only on (mode, index), so blocks 0-3 of the journal would replay as
  // blocks 0-3 of this plan and blend two decompositions; the manifest
  // must refuse them on resume and on reduce alike.
  YieldEngineOptions options = multi_block_is_options();
  options.block_cells = 256;
  const YieldPlan other(tech(), surrogate(), options);
  ASSERT_EQ(other.task_count(), 8u);
  EXPECT_EQ(other.key_of(0), plan.key_of(0));
  EXPECT_NE(other.fingerprint(), plan.fingerprint());
  {
    Campaign campaign(path);
    EXPECT_THROW(run_yield(other, &campaign), InvalidArgument);
  }
  EXPECT_THROW(reduce_yield_journal(other, path), InvalidArgument);
  // The journal is untouched by the refusals and still reduces under its
  // own plan.
  expect_bit_identical(reduce_yield_journal(plan, path), run_yield(plan));
}

TEST(YieldDeterminism, ReduceJournalRequiresMatchingFingerprintAndAllTasks) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  options.block_cells = 256;
  const YieldPlan plan(tech(), surrogate(), options);
  const std::string path = journal_path("reduce_validation.journal");
  fs::remove(path);
  {
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  // A full journal reduces to the same result without re-sampling.
  expect_bit_identical(reduce_yield_journal(plan, path), run_yield(plan));

  // A plan with another configuration must be refused.
  YieldEngineOptions other = options;
  other.seed ^= 0xBEEF;
  EXPECT_THROW(
      reduce_yield_journal(YieldPlan(tech(), surrogate(), other), path),
      InvalidArgument);

  // A journal missing tasks must be refused, not silently under-reduced.
  const std::string partial = journal_path("reduce_partial.journal");
  fs::remove(partial);
  {
    Campaign campaign(partial);
    campaign.bind_sweep(YieldPlan::kSalt, plan.fingerprint());
    campaign.record_result(plan.key_of(0),
                           plan.encode_block(plan.run_block(0)));
  }
  EXPECT_THROW(reduce_yield_journal(plan, partial), InvalidArgument);
}

// ---------- cross-cell candidate batching ------------------------------------

// Sampled variation fields for the cross-kernel equivalence matrix; the
// seeds deliberately span weak and strong fields so lanes retire at
// different rounds inside one batch.
std::vector<CellVariation> cross_fields(std::uint64_t seed, int n) {
  std::vector<CellVariation> fields;
  fields.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    fields.push_back(sample_cell_variation(seed, 0, static_cast<std::uint64_t>(i)));
  return fields;
}

TEST(CrossBatch, AgreesWithSoloKernelOnSampledFields) {
  const std::vector<CellVariation> fields = cross_fields(0xC5u, 13);
  std::vector<CoreCell> cells;
  cells.reserve(fields.size());
  std::vector<const CoreCell*> ptrs;
  for (const CellVariation& v : fields) {
    cells.emplace_back(tech(), v);
    ptrs.push_back(&cells.back());
  }
  std::vector<DrvResult> cross(cells.size());
  drv_ds_cross_batched(ptrs.data(), ptrs.size(), 25.0, CrossDrvOptions{},
                       cross.data());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DrvResult solo = drv_ds(cells[i], 25.0);
    // Cross and solo lanes run on one engine with one expression tree
    // (gathered vs broadcast constants of equal value) and per-lane state
    // only, so the native backend owes bit equality, not closeness.
    EXPECT_EQ(key_bits(cross[i].drv1), key_bits(solo.drv1)) << "cell " << i;
    EXPECT_EQ(key_bits(cross[i].drv0), key_bits(solo.drv0)) << "cell " << i;
  }
}

TEST(CrossBatch, BitIdenticalToSoloUnderForcedScalarSimd) {
  const ScopedSimdDefault simd(SimdKind::Scalar);
  const std::vector<CellVariation> fields = cross_fields(0xC6u, 7);
  std::vector<CoreCell> cells;
  cells.reserve(fields.size());
  std::vector<const CoreCell*> ptrs;
  for (const CellVariation& v : fields) {
    cells.emplace_back(tech(), v);
    ptrs.push_back(&cells.back());
  }
  std::vector<DrvResult> cross(cells.size());
  drv_ds_cross_batched(ptrs.data(), ptrs.size(), 25.0, CrossDrvOptions{},
                       cross.data());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DrvResult solo = drv_ds(cells[i], 25.0);
    EXPECT_EQ(key_bits(cross[i].drv1), key_bits(solo.drv1)) << "cell " << i;
    EXPECT_EQ(key_bits(cross[i].drv0), key_bits(solo.drv0)) << "cell " << i;
  }
}

TEST(CrossBatch, StragglerEvictionIsResultNeutral) {
  const std::vector<CellVariation> fields = cross_fields(0xC7u, 9);
  std::vector<CoreCell> cells;
  cells.reserve(fields.size());
  std::vector<const CoreCell*> ptrs;
  for (const CellVariation& v : fields) {
    cells.emplace_back(tech(), v);
    ptrs.push_back(&cells.back());
  }
  CrossDrvOptions starved;
  starved.scan_round_budget = 1;  // no lane can finish its scan in one round
  CrossDrvStats stats;
  std::vector<DrvResult> evicted(cells.size());
  drv_ds_cross_batched(ptrs.data(), ptrs.size(), 25.0, starved,
                       evicted.data(), &stats);
  EXPECT_GT(stats.evicted, 0u);
  // Evicted lanes re-solve through the solo batched kernel, so starving the
  // budget must change cost accounting only, never a result bit.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const DrvResult solo = drv_ds(cells[i], 25.0);
    EXPECT_EQ(key_bits(evicted[i].drv1), key_bits(solo.drv1)) << "cell " << i;
    EXPECT_EQ(key_bits(evicted[i].drv0), key_bits(solo.drv0)) << "cell " << i;
  }
}

TEST(CrossBatch, RejectsTheSearchRangesTheSoloKernelRejects) {
  // A zero lower bound would keep the per-lane log-bisection at vdd = 0
  // forever; the batch refuses it exactly where drv_hold_batched throws.
  const CoreCell cell(tech());
  const CoreCell* ptr = &cell;
  double drv = 0.0;
  for (const auto& [lo, hi] : {std::pair{0.0, 1.2}, std::pair{0.5, 0.5},
                               std::pair{-0.1, 1.2}}) {
    CrossDrvOptions options;
    options.drv.vdd_min = lo;
    options.drv.vdd_max = hi;
    EXPECT_THROW(drv_hold_batched(cell, StoredBit::One, 25.0, options.drv),
                 InvalidArgument);
    EXPECT_THROW(drv_hold_cross_batched(&ptr, 1, StoredBit::One, 25.0,
                                        options, &drv),
                 InvalidArgument)
        << lo << " " << hi;
  }
}

TEST(YieldExactBatch, CurveBitIdenticalAcrossBatchKinds) {
  const YieldEngineOptions options = small_options(YieldMode::Blockade);
  YieldResult one, lane;
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::OneAtATime);
    one = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::LaneBatch);
    lane = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  ASSERT_GT(lane.candidates, 0u);  // the gate must actually stage work
  expect_bit_identical(lane, one);

  // BruteForceExact stages *every* sampled cell through the batch path.
  YieldEngineOptions brute = small_options(YieldMode::BruteForceExact);
  brute.rows = 16;
  brute.cols = 16;
  brute.trials = 1;
  brute.block_cells = 128;
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::OneAtATime);
    one = run_yield(YieldPlan(tech(), surrogate(), brute));
  }
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::LaneBatch);
    lane = run_yield(YieldPlan(tech(), surrogate(), brute));
  }
  EXPECT_EQ(lane.exact_solves, lane.samples);
  expect_bit_identical(lane, one);
}

TEST(YieldExactBatch, ScalarCellKernelFallsBackResultNeutral) {
  // LaneBatch requires the batched cell kernel; under a scalar cell-kernel
  // default the engine must quietly take the one-at-a-time path and still
  // produce the scalar oracle's exact bits.
  const ScopedCellKernelDefault kernel(CellKernelKind::Scalar);
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  YieldResult one, lane;
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::OneAtATime);
    one = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::LaneBatch);
    lane = run_yield(YieldPlan(tech(), surrogate(), options));
  }
  expect_bit_identical(lane, one);
}

TEST(YieldExactBatch, FingerprintAndManifestRefuseMismatchedBatchKind) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  const std::string path = journal_path("batch_kind_refusal.journal");
  fs::remove(path);
  std::uint64_t lane_fp = 0;
  {
    const ScopedYieldExactBatchDefault s(YieldExactBatchKind::LaneBatch);
    const YieldPlan plan(tech(), surrogate(), options);
    lane_fp = plan.fingerprint();
    Campaign campaign(path);
    run_yield(plan, &campaign);
  }
  const ScopedYieldExactBatchDefault s(YieldExactBatchKind::OneAtATime);
  const YieldPlan plan(tech(), surrogate(), options);
  EXPECT_NE(plan.fingerprint(), lane_fp);
  // Same options, same journal — but the journal was recorded under the
  // other batch kind, so the bit-identity claim is exactly what the resume
  // refusal enforces.
  Campaign campaign(path);
  EXPECT_THROW(run_yield(plan, &campaign), InvalidArgument);
}

// ---------- pilot shift search ----------------------------------------------

TEST(YieldPilot, DeterministicInRangeAndFingerprinted) {
  YieldEngineOptions options = small_options(YieldMode::ImportanceSampled);
  options.auto_shift = true;
  options.pilot_samples = 2048;
  const YieldPlan a(tech(), surrogate(), options);
  const YieldPlan b(tech(), surrogate(), options);
  ASSERT_TRUE(a.pilot().tuned);
  EXPECT_GE(a.pilot().shift, options.pilot_shift_lo);
  EXPECT_LE(a.pilot().shift, options.pilot_shift_hi);
  EXPECT_GT(a.pilot().objective, 0.0);
  EXPECT_EQ(a.pilot().samples, options.pilot_samples);
  // Pure function of (seed, surrogate, options): the twin plan lands on the
  // same shift bit-for-bit and the same manifest fingerprint.
  EXPECT_EQ(key_bits(a.pilot().shift), key_bits(b.pilot().shift));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  expect_bit_identical(run_yield(a), run_yield(b));

  // Every pilot knob is part of the manifest...
  YieldEngineOptions other = options;
  other.pilot_steps += 2;
  EXPECT_NE(a.fingerprint(),
            YieldPlan(tech(), surrogate(), other).fingerprint());
  // ...and a hand-shifted plan that happens to match the tuned shift is
  // still a distinct configuration.
  YieldEngineOptions hand = small_options(YieldMode::ImportanceSampled);
  hand.is_shift = a.pilot().shift;
  EXPECT_NE(a.fingerprint(),
            YieldPlan(tech(), surrogate(), hand).fingerprint());
}

TEST(YieldPilot, TunedShiftTailEssNoWorseThanHandTuned) {
  // The suite's hand-tuned baseline (is_shift = 2.5 in small_options) vs the
  // pilot-tuned plan, scored by the quantity the pilot optimizes: the worst
  // failure-restricted ESS over grid points that saw failures.
  const auto min_tail_ess = [](const YieldResult& r) {
    double m = std::numeric_limits<double>::infinity();
    for (const YieldPoint& pt : r.points)
      if (pt.failures > 0) m = std::min(m, pt.tail.tail_ess);
    return m;
  };
  const YieldEngineOptions hand = small_options(YieldMode::ImportanceSampled);
  YieldEngineOptions tuned = hand;
  tuned.auto_shift = true;
  const YieldPlan hand_plan(tech(), surrogate(), hand);
  const YieldPlan tuned_plan(tech(), surrogate(), tuned);
  const double hand_ess = min_tail_ess(run_yield(hand_plan));
  const double tuned_ess = min_tail_ess(run_yield(tuned_plan));
  ASSERT_TRUE(std::isfinite(hand_ess));
  ASSERT_TRUE(std::isfinite(tuned_ess));
  // "No worse" up to pilot-vs-final sampling noise: the pilot scores shifts
  // on its own 4096-sample surrogate run, so it can trade a few percent at
  // the achieved optimum but must never fall materially below the baseline.
  EXPECT_GE(tuned_ess, 0.9 * hand_ess)
      << "tuned shift " << tuned_plan.pilot().shift << " vs hand 2.5";
}

// ---------- operator summary -------------------------------------------------

TEST(YieldSummary, LineReportsEngineAccounting) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  const YieldPlan plan(tech(), surrogate(), options);
  const YieldResult result = run_yield(plan);
  const std::string line = yield_summary_line(plan, result);
  EXPECT_NE(line.find("mode=blockade"), std::string::npos) << line;
  EXPECT_NE(line.find("exact-batch="), std::string::npos) << line;
  EXPECT_NE(line.find("samples=" + std::to_string(result.samples)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("candidates=" + std::to_string(result.candidates)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("exact_solves=" + std::to_string(result.exact_solves)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("ess="), std::string::npos) << line;
  EXPECT_EQ(line.find("shift="), std::string::npos) << line;  // not IS mode

  YieldEngineOptions is_options = small_options(YieldMode::ImportanceSampled);
  is_options.auto_shift = true;
  const YieldPlan is_plan(tech(), surrogate(), is_options);
  const std::string is_line =
      yield_summary_line(is_plan, run_yield(is_plan));
  EXPECT_NE(is_line.find("mode=importance-sampled"), std::string::npos)
      << is_line;
  EXPECT_NE(is_line.find("shift="), std::string::npos) << is_line;
  EXPECT_NE(is_line.find("(pilot-tuned)"), std::string::npos) << is_line;
}

#ifdef LPSRAM_YIELD_POSIX
// Shards `plan` over a 2-worker fabric fleet and expects the merged journal
// to reduce to the single-process curve bit for bit.
void expect_fleet_bit_identical(const YieldPlan& plan, const std::string& name) {
  const YieldResult golden = run_yield(plan);

  const fs::path dir = fs::path("yield-journals") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);

  fabric::FabricOptions fabric_options;
  fabric_options.dir = dir.string();
  fabric_options.workers = 2;
  fabric_options.worker_threads = 1;
  fabric_options.salt = YieldPlan::kSalt;
  fabric_options.fingerprint = plan.fingerprint();
  const fabric::FabricReport report = fabric::run_fabric(
      fabric_options, plan.task_count(),
      [&plan](std::uint64_t i) { return plan.key_of(i); },
      [&plan](std::uint64_t i, int) {
        return plan.encode_block(plan.run_block(i));
      });
  EXPECT_EQ(report.tasks_total, plan.task_count());

  expect_bit_identical(reduce_yield_journal(plan, fabric_options.merged_path()),
                       golden);
}

TEST(YieldDeterminism, FabricShardedFleetReducesBitIdentical) {
  YieldEngineOptions options = small_options(YieldMode::Blockade);
  options.rows = 32;
  options.vreg_grid = {0.30};
  options.block_cells = 256;  // 4 tasks across 2 workers
  expect_fleet_bit_identical(YieldPlan(tech(), surrogate(), options),
                             "fabric_fleet");

  const YieldPlan is_plan(tech(), surrogate(), multi_block_is_options());
  ASSERT_EQ(is_plan.task_count(), 4u);
  expect_fleet_bit_identical(is_plan, "fabric_fleet_is");
}
#endif  // LPSRAM_YIELD_POSIX

}  // namespace
}  // namespace lpsram
