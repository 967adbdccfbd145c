#include "workloads.hpp"

#include <stdlib.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/core/test_flow_generator.hpp"
#include "lpsram/march/library.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/journal.hpp"
#include "lpsram/stats/drv_surrogate.hpp"
#include "lpsram/stats/yield/counter_rng.hpp"
#include "lpsram/stats/yield/engine.hpp"
#include "lpsram/testflow/defect_characterization.hpp"
#include "lpsram/testflow/pvt.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace lpsram;

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    problems.push_back(what);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Recorded reference values (reference.inc, written by --record at
// kRecordedSeed on this repository's model).

struct Table2Ref {
  DefectId defect;
  int cs;
  double rmin;
  bool open_only;
  int corner;
  double vdd;
};

struct FlowIterationRef {
  double vdd;
  int vref;
};

struct YieldRef {
  double vreg;
  double p;
  double ci95;
  double sigma;
  std::uint64_t failures;
};

#include "reference.inc"

// Tolerances of tests/test_golden_tables.cpp.
constexpr double kRminRelTolerance = 0.01;
constexpr double kDrvTolerance = 2e-3;        // [V]
constexpr std::uint64_t kFailureTolerance = 2;
constexpr double kSigmaTolerance = 0.05;
// Yield agreement at seeds other than the recorded one (see YieldWorkload).
constexpr double kZ95 = 1.959963984540054;
constexpr double kAgreementSigmas = 5.0;

// The Vreg grid of bench_yield's reference curve; the gate point is 0.40 V.
const std::vector<double> kVregGrid = {0.38, 0.40, 0.42};
constexpr std::size_t kGatePoint = 1;

const char* const kRungNames[kSolveStrategyCount] = {
    "warm_start", "cold_start", "dense_gmin", "relaxed_polish",
    "perturbed_guess"};

std::uint64_t fold_double(std::uint64_t h, double v) {
  return fold_key(h, key_bits(v));
}

void add_sweep_counts(Metrics& counts, const SweepTelemetry& t) {
  const SolveTelemetry& s = t.solves;
  counts["runtime.tasks"] = static_cast<double>(t.tasks);
  counts["runtime.solves"] = static_cast<double>(s.solves);
  counts["runtime.cache_hit_rate"] = t.cache_hit_rate();
  counts["runtime.warm_hit_rate"] =
      s.solves ? static_cast<double>(s.warm_hits) / static_cast<double>(s.solves)
               : 0.0;
  for (std::size_t k = 0; k < kSolveStrategyCount; ++k)
    counts[std::string("runtime.rung_attempts.") + kRungNames[k]] =
        static_cast<double>(s.rung_attempts[k]);
  counts["runtime.solve_failures"] = static_cast<double>(s.failures);
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// Median wall time of `reps` calls of `fn` [s].
template <class Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

// ---------------------------------------------------------------------------
// Probes shared by the two workloads that run the regulator.

struct RegulatorPoint {
  DefectId id;
  double ohms;
  PvtPoint pvt;
  VrefLevel vref;
};

// solve_dc_outcome on a freshly built regulator (cold: no warm start, first
// symbolic analysis) and then one bisection step away (warm).
void probe_dc_solves(const Technology& tech,
                     const std::vector<RegulatorPoint>& points, Metrics& m) {
  std::vector<double> cold, warm;
  for (const RegulatorPoint& p : points) {
    VoltageRegulator reg(tech, p.pvt.corner);
    reg.inject_defect(p.id, p.ohms);
    reg.set_vdd(p.pvt.vdd);
    reg.select_vref(p.vref);
    reg.set_regon(true);
    reg.set_power_switch(false);
    auto t0 = Clock::now();
    const SolveOutcome a = reg.solve_dc_outcome(p.pvt.temp_c);
    cold.push_back(seconds_since(t0) * 1e6);
    reg.inject_defect(p.id, p.ohms * 1.05);
    t0 = Clock::now();
    const SolveOutcome b = reg.solve_dc_outcome(p.pvt.temp_c);
    warm.push_back(seconds_since(t0) * 1e6);
    if (!a.ok() || !b.ok()) throw std::runtime_error("regulator probe solve failed");
  }
  m["regulator.dc_solve_cold_us"] = median(cold);
  m["regulator.dc_solve_warm_us"] = median(warm);
}

// One speculative bisection round of a gate-site defect: seven DS-entry
// transients in one lockstep batch, around the defect's minimal resistance.
void probe_ds_entry(const Technology& tech, double worst_drv,
                    const std::vector<std::pair<DefectId, double>>& defects,
                    Metrics& m) {
  constexpr double kWindow = 30e-6;  // the characterizer's DS-entry window
  TransientOptions topts;
  topts.dt_max = kWindow / 100.0;
  std::vector<double> ms;
  for (const auto& [id, rmin] : defects) {
    VoltageRegulator reg(tech, Corner::FastNSlowP);
    reg.set_vdd(1.0);
    reg.select_vref(vref_for_vdd(1.0, worst_drv));
    std::vector<double> ohms;
    for (int k = -3; k <= 3; ++k) ohms.push_back(rmin * std::pow(1.3, k));
    ms.push_back(1e3 * median_time(3, [&] {
      (void)reg.simulate_ds_entry_lanes(id, ohms, kWindow, 125.0, &topts);
    }));
  }
  m["regulator.ds_entry_ms"] = median(ms);
}

// Within-cell DRV kernel on the five case-study cells, hot fs and typical.
void probe_hold_drv(const Technology& tech, Metrics& m) {
  std::vector<double> us;
  for (const CaseStudy& cs : table2_case_studies()) {
    for (const auto& [corner, temp] :
         {std::pair{Corner::FastNSlowP, 125.0}, std::pair{Corner::Typical, 25.0}}) {
      const CoreCell cell(tech, cs.variation, corner);
      us.push_back(1e6 * median_time(3, [&] {
        (void)drv_hold_batched(cell, cs.attacked_bit(), temp);
      }));
    }
  }
  m["cell.hold_drv_us"] = median(us);
}

// ---------------------------------------------------------------------------
// table2: paper Table II, 17 defects x CS1..CS5 x the 45-point PVT grid.

class Table2Workload final : public Workload {
 public:
  explicit Table2Workload(const Context& context)
      : context_(context),
        tech_(Technology::lp40nm()),
        case_studies_(table2_case_studies()) {}

  void setup(int threads, int) override {
    DefectCharacterizationOptions options;  // empty pvt = full 45-point grid
    options.threads = threads;
    characterizer_ = std::make_unique<DefectCharacterizer>(tech_, options);
  }

  Outcome run(Trace* trace) override {
    Outcome out;
    SweepTelemetry telemetry;
    {
      const SpanScope span(trace, "testflow.table");
      rows_ = characterizer_->table(table2_defects(), case_studies_, &telemetry);
    }
    add_sweep_counts(out.counts, telemetry);
    out.attempted += telemetry.tasks;
    out.rel_ci = characterizer_->options().rel_tolerance - 1.0;
    out.check(characterizer_->options().pvt.size() == 45, "PVT grid is not 45 points");
    out.check(std::abs(characterizer_->worst_drv() - kWorstDrvRef) <= kDrvTolerance,
              fmt("worst DRV %.6f V vs recorded %.6f V",
                  characterizer_->worst_drv(), kWorstDrvRef));

    std::uint64_t h = 0x7461626c6532ULL;
    std::size_t k = 0;
    for (const auto& row : rows_) {
      for (const DefectCsResult& cell : row) {
        out.failed += cell.sweep.quarantined_count();
        h = fold_double(h, cell.min_resistance);
        h = fold_key(h, cell.open_only);
        h = fold_key(h, static_cast<std::uint64_t>(cell.worst_pvt.corner));
        h = fold_double(fold_double(h, cell.worst_pvt.vdd), cell.worst_pvt.temp_c);
        h = fold_key(h, static_cast<std::uint64_t>(cell.vref_at_worst));
        const Table2Ref& ref = kTable2Ref[std::min(k++, std::size(kTable2Ref) - 1)];
        const std::string where = "Df" + std::to_string(cell.id) + " " + cell.cs_name;
        bool ok = cell.trusted() && cell.id == ref.defect &&
                  cell.open_only == ref.open_only;
        if (ok && !cell.open_only) {
          ok = std::abs(cell.min_resistance - ref.rmin) <=
                   kRminRelTolerance * ref.rmin &&
               static_cast<int>(cell.worst_pvt.corner) == ref.corner &&
               cell.worst_pvt.vdd == ref.vdd;
        }
        out.check(ok, where + fmt(": Rmin %.6g vs recorded %.6g", cell.min_resistance,
                                  ref.rmin));
      }
      // Paper: CS5 (64 weak cells) needs a lower Rmin than CS2 (one cell).
      const DefectCsResult& cs2 = row[1];
      const DefectCsResult& cs5 = row[4];
      out.check(!cs2.open_only && !cs5.open_only &&
                    cs5.min_resistance <= cs2.min_resistance * 1.0001,
                "Df" + std::to_string(cs2.id) + ": CS5 Rmin above CS2");
    }
    out.check(k == std::size(kTable2Ref), "table size differs from the recorded one");
    out.digest = h;
    return out;
  }

  Metrics probe() override {
    Metrics m;
    // A seed-drawn sample of the workload's own (defect, Rmin, PVT) points.
    std::mt19937_64 rng(context_.seed);
    const std::vector<PvtPoint>& grid = characterizer_->options().pvt;
    std::vector<RegulatorPoint> points;
    while (points.size() < 16) {
      const auto& row = rows_[rng() % rows_.size()];
      const DefectCsResult& cell = row[rng() % row.size()];
      if (cell.open_only) continue;
      const PvtPoint& pvt = grid[rng() % grid.size()];
      points.push_back({cell.id, cell.min_resistance, pvt,
                        vref_for_vdd(pvt.vdd, characterizer_->worst_drv())});
    }
    probe_dc_solves(tech_, points, m);
    std::vector<std::pair<DefectId, double>> gate_defects;
    for (const auto& row : rows_)
      if (is_gate_site(row[0].id)) gate_defects.emplace_back(row[0].id, row[0].min_resistance);
    probe_ds_entry(tech_, characterizer_->worst_drv(), gate_defects, m);
    probe_hold_drv(tech_, m);
    return m;
  }

  void record() const override {
    std::printf("inline constexpr double kWorstDrvRef = %.17g;\n\n",
                characterizer_->worst_drv());
    std::printf("// table2: defect, case study, Rmin [ohm], open_only, worst corner, "
                "worst VDD\ninline constexpr Table2Ref kTable2Ref[] = {\n");
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size(); ++c)
        std::printf("    {%d, %d, %.17g, %s, %d, %.17g},\n", row[c].id,
                    case_studies_[c].index, row[c].min_resistance,
                    row[c].open_only ? "true" : "false",
                    static_cast<int>(row[c].worst_pvt.corner), row[c].worst_pvt.vdd);
    std::printf("};\n\n");
  }

 private:
  Context context_;
  Technology tech_;
  std::vector<CaseStudy> case_studies_;
  std::unique_ptr<DefectCharacterizer> characterizer_;
  std::vector<std::vector<DefectCsResult>> rows_;
};

// ---------------------------------------------------------------------------
// yield_blockade / yield_is: the sigma-to-yield curve on 4Kx64 arrays.

class YieldWorkload final : public Workload {
 public:
  YieldWorkload(const Context& context, YieldMode mode)
      : context_(context), mode_(mode), tech_(Technology::lp40nm()) {}

  int variants() const override { return mode_ == YieldMode::Blockade ? 3 : 8; }

  void setup(int threads, int variant) override {
    // Variant 0 runs at the workload seed itself (the recorded references
    // are at kRecordedSeed); the others at seeds derived from it.
    seed_ = variant == 0 ? context_.seed
                         : fold_key(context_.seed, static_cast<std::uint64_t>(variant));
    plan_.reset();  // it points at the surrogate replaced below
    auto t0 = Clock::now();
    surrogate_ = std::make_unique<DrvSurrogate>(DrvSurrogate::train(tech_));
    train_s_ = seconds_since(t0);

    YieldEngineOptions options;  // 4096 x 64 arrays
    options.vreg_grid = kVregGrid;
    options.seed = seed_;
    options.mode = mode_;
    options.threads = threads;
    if (mode_ == YieldMode::Blockade) {
      options.trials = 128;  // 33.5M cells: bench_yield's reference curve
    } else {
      options.is_samples = 20000;
      options.auto_shift = true;
    }
    t0 = Clock::now();
    plan_ = std::make_unique<YieldPlan>(tech_, *surrogate_, options);
    pilot_s_ = mode_ == YieldMode::ImportanceSampled ? seconds_since(t0) : 0.0;
  }

  Outcome run(Trace* trace) override {
    Outcome out;
    {
      const SpanScope span(trace, "stats.run_yield");
      result_ = run_yield(*plan_);
    }
    const YieldResult& r = result_;
    add_sweep_counts(out.counts, r.telemetry);
    out.counts["stats.samples"] = static_cast<double>(r.samples);
    out.counts["stats.candidates"] = static_cast<double>(r.candidates);
    out.counts["stats.exact_solves"] = static_cast<double>(r.exact_solves);
    out.counts["stats.gate_rate"] =
        static_cast<double>(r.candidates) / static_cast<double>(r.samples);
    out.attempted += r.telemetry.tasks;
    out.check(r.telemetry.tasks == plan_->task_count(), "blocks missing from the curve");

    std::uint64_t h = fold_key(0x5949454c44ULL, r.samples);
    h = fold_key(fold_key(h, r.candidates), r.exact_solves);
    for (const YieldPoint& pt : r.points) {
      h = fold_double(fold_double(h, pt.tail.p), pt.tail.ci95);
      h = fold_double(fold_key(h, pt.failures), pt.tail.ess);
    }
    out.digest = h;
    if (r.points.size() != kVregGrid.size()) {
      out.check(false, "curve has the wrong number of points");
      return out;
    }
    const TailEstimate& gate = r.points[kGatePoint].tail;
    out.rel_ci = gate.rel_ci;
    out.counts["stats.ess"] = gate.ess;

    // Physics: a higher retention voltage can only lose fewer cells.
    out.check(r.points[0].tail.p >= r.points[1].tail.p &&
                  r.points[1].tail.p >= r.points[2].tail.p && r.points[2].tail.p > 0.0,
              "tail probability not decreasing in Vreg");

    // At the recorded seed the curve must reproduce the recorded one within
    // the golden-table tolerances, and the importance sampler must agree with
    // the blockade reference within their combined 95% CI (bench_yield's
    // rule). At any other seed the same comparisons use 5 combined standard
    // errors: a 95%-level test would fail about one curve in twenty by
    // chance, and a run checks several curves at a seed nobody chose.
    const bool recorded = seed_ == kRecordedSeed;
    const auto agree = [recorded](const TailEstimate& t, const YieldRef& ref) {
      const double combined = std::hypot(t.ci95, ref.ci95);
      return std::abs(t.p - ref.p) <= (recorded ? combined : kAgreementSigmas * combined / kZ95);
    };
    const YieldRef* ref = mode_ == YieldMode::Blockade ? kBlockadeRef : kIsRef;
    for (std::size_t k = 0; k < kVregGrid.size(); ++k) {
      const YieldPoint& pt = r.points[k];
      const std::uint64_t d = pt.failures > ref[k].failures ? pt.failures - ref[k].failures
                                                            : ref[k].failures - pt.failures;
      out.check(recorded ? d <= kFailureTolerance &&
                               std::abs(pt.sigma - ref[k].sigma) <= kSigmaTolerance
                         : agree(pt.tail, ref[k]),
                fmt("%.2f V: p %.4g vs recorded %.4g", pt.vreg, pt.tail.p, ref[k].p));
    }
    if (mode_ == YieldMode::ImportanceSampled) {
      out.check(agree(gate, kBlockadeRef[kGatePoint]),
                fmt("IS p %.4g vs blockade reference %.4g", gate.p, kBlockadeRef[kGatePoint].p));
    }
    return out;
  }

  Metrics setup_layers() const override {
    return {{"stats.surrogate_train_s", train_s_}, {"stats.pilot_s", pilot_s_}};
  }

  Metrics probe() override {
    Metrics m;
    // Sampling front end: counter RNG + inverse CDF + surrogate per cell.
    constexpr std::uint64_t kCells = 200000;
    double sink = 0.0;
    const double sample_s = median_time(3, [&] {
      for (std::uint64_t c = 0; c < kCells; ++c)
        sink += surrogate_->predict_drv(sample_cell_variation(seed_, 0, c));
    });
    m["stats.sample_ns"] = sample_s / static_cast<double>(kCells) * 1e9;
    if (!std::isfinite(sink)) throw std::runtime_error("surrogate returned non-finite DRVs");

    // Cross-cell exact kernel on this workload's own candidate cells: the
    // nominal cells of trial 0 (blockade) or cells of the shifted proposal
    // (importance sampling) that pass the surrogate gate.
    std::vector<CoreCell> cells;
    const YieldEngineOptions& o = plan_->options();
    for (std::uint64_t c = 0; cells.size() < 64 && c < 10000000; ++c) {
      CellVariation v = sample_cell_variation(seed_, 0, c);
      if (mode_ == YieldMode::ImportanceSampled) {
        // Alternate the two mixture components: mirror(z + mu) draws from
        // the component shifted by mirror(mu).
        const std::array<double, 6>& shift = plan_->shift();
        for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
          v.set(kAllCellTransistors[lane], v.get(kAllCellTransistors[lane]) + shift[lane]);
        if (c % 2) v = v.mirrored();
      }
      if (surrogate_->predict_drv(v) >= plan_->gate_threshold())
        cells.emplace_back(tech_, v, o.corner);
    }
    std::vector<const CoreCell*> ptrs;
    for (const CoreCell& cell : cells) ptrs.push_back(&cell);
    std::vector<DrvResult> drvs(cells.size());
    const double cross_s = median_time(3, [&] {
      drv_ds_cross_batched(ptrs.data(), ptrs.size(), o.temp_c, CrossDrvOptions{},
                           drvs.data());
    });
    m["cell.cross_drv_us"] = cross_s / static_cast<double>(cells.size()) * 1e6;
    return m;
  }

  void record() const override {
    const char* name = mode_ == YieldMode::Blockade ? "kBlockadeRef" : "kIsRef";
    std::printf("// %s curve at seed %llu: Vreg, p, ci95, sigma, failures\n"
                "inline constexpr YieldRef %s[] = {\n",
                yield_mode_name(mode_).c_str(),
                static_cast<unsigned long long>(seed_), name);
    for (const YieldPoint& pt : result_.points)
      std::printf("    {%.2f, %.17g, %.17g, %.17g, %llu},\n", pt.vreg, pt.tail.p,
                  pt.tail.ci95, pt.sigma, static_cast<unsigned long long>(pt.failures));
    std::printf("};\n\n");
  }

 private:
  Context context_;
  YieldMode mode_;
  Technology tech_;
  std::unique_ptr<DrvSurrogate> surrogate_;
  std::unique_ptr<YieldPlan> plan_;
  std::uint64_t seed_ = 0;
  YieldResult result_;
  double train_s_ = 0.0;
  double pilot_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// flow_campaign: Table III generated under a journaling Campaign, resumed
// from the complete journal, then applied to a healthy device and one device
// per Table II defect.

class FlowWorkload final : public Workload {
 public:
  // One fresh directory per run, removed when the run ends. Each pass
  // journals to its own new file in it; files are not deleted between
  // passes, because on a file system mounted with online discard the freed
  // blocks are trimmed asynchronously, inside later passes' fsyncs.
  explicit FlowWorkload(const Context& context)
      : context_(context), tech_(Technology::lp40nm()), dir_(context.workdir + "/flow-XXXXXX") {
    if (!::mkdtemp(dir_.data()))
      throw std::runtime_error("cannot create a journal directory under " + context.workdir);
  }

  ~FlowWorkload() override {
    campaign_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  FlowWorkload(const FlowWorkload&) = delete;
  FlowWorkload& operator=(const FlowWorkload&) = delete;

  void setup(int threads, int) override {
    threads_ = threads;
    journal_ = dir_ + "/pass-" + std::to_string(++journals_) + ".journal";
    campaign_ = std::make_unique<Campaign>(journal_);
  }

  Outcome run(Trace* trace) override {
    Outcome out;
    {
      const SpanScope span(trace, "testflow.flow_generate");
      generated_ = generator(campaign_.get()).generate();
    }
    campaign_.reset();  // closes the journal

    // Resume from the complete journal: every task replays, none solves.
    const auto bytes_before = std::filesystem::file_size(journal_);
    const SolverCounts solver_before = trace ? trace->counts() : SolverCounts{};
    GeneratedTestFlow resumed;
    {
      const SpanScope span(trace, "runtime.journal.replay");
      Campaign campaign(journal_);
      resumed = generator(&campaign).generate();
    }
    out.check(std::filesystem::file_size(journal_) == bytes_before,
              "the resumed pass appended to a complete journal");
    if (trace)
      out.check(trace->counts() == solver_before, "the resumed pass solved");
    out.digest = digest(generated_);
    out.check(digest(resumed) == out.digest, "the resumed flow differs from the fresh one");

    const DetectionMatrix& matrix = generated_.matrix;
    add_sweep_counts(out.counts, matrix.telemetry);
    out.attempted += matrix.telemetry.tasks;
    out.failed += matrix.sweep.quarantined_count();
    out.rel_ci = FlowOptimizerOptions{}.rel_tolerance - 1.0;

    // Table III: 3 iterations, one per VDD at its lowest valid Vref, 75%
    // test-time reduction against the 12-condition naive flow.
    const OptimizedFlow& flow = generated_.flow;
    bool shape = flow.iterations.size() == std::size(kFlowRef);
    for (std::size_t i = 0; shape && i < flow.iterations.size(); ++i)
      shape = flow.iterations[i].condition.vdd == kFlowRef[i].vdd &&
              static_cast<int>(flow.iterations[i].condition.vref) == kFlowRef[i].vref;
    out.check(shape && flow.iterations.size() == 3, "flow iterations differ from Table III");
    out.check(std::abs(flow.time_reduction(generated_.test, 4096, 10e-9) - 0.75) <= 1e-12,
              "test-time reduction is not 75%");
    out.check(flow.undetectable.empty(), "a Table II defect is undetectable");
    bool matrix_ok = matrix.rmin.size() * matrix.defects.size() == std::size(kFlowRminRef);
    for (std::size_t c = 0; matrix_ok && c < matrix.rmin.size(); ++c) {
      for (std::size_t d = 0; d < matrix.defects.size(); ++d) {
        const double r = matrix.rmin[c][d];
        const double ref = kFlowRminRef[c * matrix.defects.size() + d];
        matrix_ok = matrix_ok && (r > matrix.r_high
                                      ? ref > matrix.r_high
                                      : std::abs(r - ref) <= kRminRelTolerance * ref);
      }
    }
    out.check(matrix_ok, "detection matrix differs from the recorded one");

    // Section V validation on 4Kx64 devices carrying the CS1 weak cell, as
    // Methodology::run does it: the healthy device must pass, and a device
    // with any Table II defect at 4x its best Rmin must fail (Df16 among
    // them). Validating every defect rather than Df16 alone keeps the pass
    // from being dominated by the journal's fsync latency, whose host-level
    // swings would otherwise set this workload's run-to-run spread.
    const CoreCell weak(tech_, case_study(1, true).variation, Corner::FastNSlowP);
    const DrvResult weak_drv = drv_ds(weak, 125.0);
    std::uint64_t ops = 0;
    for (std::size_t d = 0; d <= matrix.defects.size(); ++d) {
      const bool healthy = d == matrix.defects.size();
      SramConfig config;
      config.corner = Corner::FastNSlowP;
      config.vdd = tech_.vdd_nominal();
      config.temp_c = 125.0;
      LowPowerSram sram(config);
      sram.add_weak_cell(config.words / 2, config.bits / 2, weak_drv);
      std::string device = "the healthy device";
      if (!healthy) {
        double best = matrix.r_high * 2.0;
        for (const auto& row : matrix.rmin) best = std::min(best, row[d]);
        sram.inject_regulator_defect(matrix.defects[d], 4.0 * best);
        device = "the Df" + std::to_string(matrix.defects[d]) + " device";
      }
      FlowRunResult run;
      {
        const SpanScope span(trace, "march.run_flow");
        run = run_flow(sram, generated_);
      }
      for (const MarchRunResult& it : run.iterations) ops += it.operations;
      out.check(run.any_failure != healthy,
                device + (healthy ? " fails the flow" : " passes the flow"));
      out.digest = fold_key(out.digest, run.any_failure);
    }
    out.counts["march.ops"] = static_cast<double>(ops);
    out.digest = fold_key(out.digest, ops);
    return out;
  }

  void teardown(Outcome& out) override {
    campaign_.reset();
    if (std::filesystem::exists(journal_)) {
      out.counts["runtime.journal.bytes"] =
          static_cast<double>(std::filesystem::file_size(journal_));
      out.counts["runtime.journal.records"] =
          static_cast<double>(replay_journal(journal_).records.size());
    }
  }

  Metrics probe() override {
    Metrics m;
    // Journal cost: a journaled generate pass minus an unjournaled one.
    std::vector<double> with, without;
    for (int i = 0; i < 3; ++i) {
      auto t0 = Clock::now();
      (void)generator(campaign_.get()).generate();
      with.push_back(seconds_since(t0));
      Outcome unused;
      teardown(unused);
      setup(threads_, 0);
      t0 = Clock::now();
      (void)generator(nullptr).generate();
      without.push_back(seconds_since(t0));
    }
    m["runtime.journal.write_s"] = median(with) - median(without);

    // Regulator probes on a seed-drawn sample of the matrix's entries.
    std::mt19937_64 rng(context_.seed);
    const DetectionMatrix& matrix = generated_.matrix;
    std::vector<RegulatorPoint> points;
    while (points.size() < 16) {
      const std::size_t c = rng() % matrix.conditions.size();
      const std::size_t d = rng() % matrix.defects.size();
      if (matrix.rmin[c][d] > matrix.r_high) continue;
      const TestCondition& tc = matrix.conditions[c];
      points.push_back({matrix.defects[d], matrix.rmin[c][d],
                        PvtPoint{Corner::FastNSlowP, tc.vdd, 125.0}, tc.vref});
    }
    probe_dc_solves(tech_, points, m);
    std::vector<std::pair<DefectId, double>> gate_defects;
    for (std::size_t d = 0; d < matrix.defects.size(); ++d) {
      double best = matrix.r_high;
      for (const auto& row : matrix.rmin) best = std::min(best, row[d]);
      if (is_gate_site(matrix.defects[d])) gate_defects.emplace_back(matrix.defects[d], best);
    }
    probe_ds_entry(tech_, generated_.worst_drv, gate_defects, m);
    probe_hold_drv(tech_, m);
    return m;
  }

  void record() const override {
    std::printf("// flow_campaign: Table III iterations (VDD, VrefLevel)\n"
                "inline constexpr FlowIterationRef kFlowRef[] = {\n");
    for (const FlowIteration& it : generated_.flow.iterations)
      std::printf("    {%.17g, %d},\n", it.condition.vdd,
                  static_cast<int>(it.condition.vref));
    std::printf("};\n\n// flow_campaign: detection matrix Rmin [ohm], conditions x "
                "defects\ninline constexpr double kFlowRminRef[] = {\n");
    for (const auto& row : generated_.matrix.rmin) {
      std::printf("   ");
      for (const double r : row) std::printf(" %.17g,", r);
      std::printf("\n");
    }
    std::printf("};\n\n");
  }

 private:
  TestFlowGenerator generator(Campaign* campaign) const {
    FlowOptimizer::Options options;
    options.threads = threads_;
    options.campaign = campaign;
    return TestFlowGenerator(tech_, options);
  }

  static std::uint64_t digest(const GeneratedTestFlow& g) {
    std::uint64_t h = 0x7461626c6533ULL;
    for (const auto& row : g.matrix.rmin)
      for (const double r : row) h = fold_double(h, r);
    for (const FlowIteration& it : g.flow.iterations) {
      h = fold_double(h, it.condition.vdd);
      h = fold_key(h, static_cast<std::uint64_t>(it.condition.vref));
      for (const DefectId id : it.maximized) h = fold_key(h, static_cast<std::uint64_t>(id));
      for (const DefectId id : it.detected) h = fold_key(h, static_cast<std::uint64_t>(id));
    }
    return fold_double(h, g.worst_drv);
  }

  Context context_;
  Technology tech_;
  int threads_ = 1;
  std::string dir_;
  std::string journal_;
  int journals_ = 0;
  std::unique_ptr<Campaign> campaign_;
  GeneratedTestFlow generated_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& context) {
  if (name == "table2") return std::make_unique<Table2Workload>(context);
  if (name == "yield_blockade")
    return std::make_unique<YieldWorkload>(context, YieldMode::Blockade);
  if (name == "yield_is")
    return std::make_unique<YieldWorkload>(context, YieldMode::ImportanceSampled);
  if (name == "flow_campaign") return std::make_unique<FlowWorkload>(context);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
