// Array-scale statistical retention-yield engine.
//
// The production question behind the paper's five case-study cells is
// *yield*: P(DRV_DS > Vreg) over millions of variation-sampled cells of a
// 4Kx64 (and beyond) array. A naive Monte Carlo needs ~z^2/(p rel^2) exact
// DRV solves to pin a tail probability p — at p ~ 1e-5 that is >= 10^7
// bisection-with-stability-check solves per grid point, far past what even
// the batched lane kernel can absorb. This engine estimates the same tails
// three runtime-selectable ways, cheapest first:
//
//   * ImportanceSampled — cells are drawn from an equal-weight two-component
//     Gaussian mixture mean-shifted along the surrogate's fitted worst-case
//     direction (and its mirror, covering both stored-bit polarities), with
//     self-normalized likelihood-ratio weights. A few thousand shifted
//     samples resolve tails brute force would need 10^7+ solves for; the
//     estimator reports its effective sample size and 95% CI per grid point.
//   * Blockade — statistical blockade: cells are drawn from the nominal
//     N(0, I) field, the trained DrvSurrogate classifies each one, and only
//     candidates within `blockade_margin` of the lowest grid Vreg get an
//     exact solve. Exact solves scale with the tail mass instead of the
//     array size.
//   * BruteForceExact — every sampled cell is solved exactly through the
//     lane kernel. The oracle the two fast paths are validated against
//     (tests/test_yield.cpp), usable on small arrays only.
//
// All modes share one sampling substrate: the counter-based RNG
// (counter_rng.hpp) keyed by (seed, trial, cell, transistor), so the
// variation field is a pure function of coordinates and results are
// bit-identical at any thread count, across a crash-resumed campaign
// journal, and across a fabric fleet sharding blocks over worker processes.
// The plan exposes exactly the (count, key_of, fingerprint, pure task)
// quadruple that SweepExecutor, run_campaign and fabric::run_fabric consume;
// the manifest fingerprint folds the full configuration, the trained
// surrogate and the resolved cell kernel, so a resumed or fleet-sharded run
// refuses to mix configurations instead of silently blending estimates.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "lpsram/runtime/campaign.hpp"
#include "lpsram/stats/array_stats.hpp"
#include "lpsram/stats/yield/estimator.hpp"
#include "lpsram/util/cancel.hpp"

namespace lpsram {

// Estimator selection; every fast path ships against the brute-force oracle.
enum class YieldMode : std::uint8_t {
  BruteForceExact = 0,
  Blockade = 1,
  ImportanceSampled = 2,
};

std::string yield_mode_name(YieldMode mode);

// ---------------------------------------------------------------------------
// Candidate exact-solve batching (runtime-selectable, per the repo's standing
// oracle pattern): LaneBatch marches surrogate-gated candidates through
// drv_hold_cross_batched in lane-width blocks of *different cells*;
// OneAtATime is the original per-candidate loop, kept as the equivalence
// oracle. The resolved kind is folded into the plan fingerprint so a resumed
// journal or a fabric fleet refuses to mix batch kinds. LaneBatch requires
// the Batched cell kernel — under a Scalar cell-kernel default the engine
// falls back to OneAtATime (the cross engine is built on the batched node
// solver; there is no scalar cross path to be identical to).

enum class YieldExactBatchKind : std::uint8_t {
  Auto = 0,
  OneAtATime = 1,
  LaneBatch = 2,
};

std::string yield_exact_batch_name(YieldExactBatchKind kind);

// Process-wide default; starts as LaneBatch (Auto coerces).
YieldExactBatchKind default_yield_exact_batch() noexcept;
YieldExactBatchKind set_default_yield_exact_batch(
    YieldExactBatchKind kind) noexcept;
// The default with Auto resolved — what run_block will actually do (before
// the cell-kernel fallback above, which is applied per block).
YieldExactBatchKind resolved_yield_exact_batch() noexcept;

class ScopedYieldExactBatchDefault {
 public:
  explicit ScopedYieldExactBatchDefault(YieldExactBatchKind kind)
      : previous_(set_default_yield_exact_batch(kind)) {}
  ~ScopedYieldExactBatchDefault() { set_default_yield_exact_batch(previous_); }

  ScopedYieldExactBatchDefault(const ScopedYieldExactBatchDefault&) = delete;
  ScopedYieldExactBatchDefault& operator=(const ScopedYieldExactBatchDefault&) =
      delete;

 private:
  YieldExactBatchKind previous_;
};

struct YieldEngineOptions {
  // Array geometry: rows x cols cells per sampled array instance.
  std::size_t rows = 4096;
  std::size_t cols = 64;
  // Monte-Carlo array instances (BruteForceExact / Blockade). Total sampled
  // cells = trials * rows * cols; per-trial array maxima feed array_dist.
  int trials = 4;
  // Vreg grid points, ascending [V]. The surrogate gate sits at
  // vreg_grid.front() - blockade_margin.
  std::vector<double> vreg_grid = {0.34, 0.36, 0.38, 0.40};
  std::uint64_t seed = 0x59454C44ULL;  // "YELD"
  YieldMode mode = YieldMode::Blockade;
  // ImportanceSampled: shift magnitude in sigma along the fitted worst-case
  // direction, and the number of shifted cell samples.
  double is_shift = 3.0;
  std::size_t is_samples = 20000;
  // Defensive mixture fraction: the proposal draws this fraction of samples
  // from the *nominal* N(0, I) field, which bounds every likelihood ratio at
  // 1/is_defensive and keeps the self-normalizer (and the effective sample
  // size) stable even at large shifts. 0 disables the defensive component.
  double is_defensive = 0.1;
  // Pilot-tuned shift: when true (ImportanceSampled only), is_shift is
  // replaced at plan-construction time by an ESS-maximizing line search over
  // [pilot_shift_lo, pilot_shift_hi] on a cheap surrogate-only pilot run —
  // common random numbers across candidate shifts, failure-restricted
  // ("tail") ESS per grid point as the score, maximize the minimum over
  // scored grid points. Deterministic: the tuned shift is a pure function of
  // (seed, surrogate, options), so fingerprints, resume and fleet sharding
  // stay sound. All pilot knobs are folded into the fingerprint.
  bool auto_shift = false;
  std::size_t pilot_samples = 4096;
  double pilot_shift_lo = 1.0;
  double pilot_shift_hi = 6.0;
  int pilot_steps = 11;
  // Surrogate safety margin [V]: cells whose surrogate DRV lands within
  // this margin below the lowest grid Vreg (or above it) are solved exactly.
  double blockade_margin = 0.06;
  // Upper bound on cells (or IS samples) per executor task. Blockade runs
  // exactly this size; ImportanceSampled and BruteForceExact cap it at 512,
  // since nearly every sample there takes an exact solve, and the plan's
  // options() report the capped value. Blocks never span trials, so
  // per-trial array maxima reduce in index order.
  std::size_t block_cells = 16384;
  Corner corner = Corner::Typical;
  double temp_c = 25.0;
  int threads = 0;  // SweepExecutor worker count (0 = automatic)

  std::size_t cells_per_trial() const noexcept { return rows * cols; }
};

// One sigma-to-yield curve point.
struct YieldPoint {
  double vreg = 0.0;        // grid point [V]
  TailEstimate tail;        // per-cell P(DRV_DS > vreg) with CI + ESS
  double sigma = 0.0;       // equivalent one-sided sigma (0 when p == 0)
  double array_yield = 1.0; // P(no cell fails) = (1 - p)^(rows*cols)
  std::uint64_t failures = 0;  // raw failing samples observed
};

struct YieldResult {
  std::vector<YieldPoint> points;   // one per vreg grid point, in grid order
  std::uint64_t samples = 0;        // cells sampled
  std::uint64_t candidates = 0;     // surrogate-gate hits
  std::uint64_t exact_solves = 0;   // exact drv_ds evaluations spent
  // Distribution of per-trial array DRV_DS maxima (empty in
  // ImportanceSampled mode, where maxima of shifted samples are biased).
  ArrayDrvDistribution array_dist;
  SweepTelemetry telemetry;
};

// Outcome of the constructor-time pilot shift search (auto_shift).
struct PilotShiftResult {
  bool tuned = false;       // false: auto_shift off, or no grid point scored
  double shift = 0.0;       // the shift the plan will run with
  double objective = 0.0;   // min-over-scored-grid-points pilot tail ESS
  std::size_t samples = 0;  // pilot samples drawn
  std::size_t grid_points_scored = 0;  // grid points with >= 1 pilot hit
};

// The deterministic sweep plan: task decomposition, stable keys, manifest
// fingerprint, and the pure per-block sampler. One instance serves the
// single-process runner, the campaign journal and a fabric fleet alike.
class YieldPlan {
 public:
  // Campaign/fabric manifest salt ("YIELD").
  static constexpr std::uint64_t kSalt = 0x5949454C44ULL;

  // `tech` and `surrogate` must outlive the plan. The surrogate must be the
  // same instance (same training options) on every process of a fleet — its
  // fingerprint is folded into the manifest to enforce exactly that.
  YieldPlan(const Technology& tech, const DrvSurrogate& surrogate,
            YieldEngineOptions options);

  std::size_t task_count() const noexcept { return task_count_; }
  std::uint64_t key_of(std::size_t index) const noexcept;
  // Folds options, vreg grid, surrogate and the resolved cell kernel.
  std::uint64_t fingerprint() const;

  // Samples one block of cells and returns its sufficient statistics. Pure:
  // depends only on (index, plan configuration), never on execution order —
  // safe to run on any executor slot, worker process, or replay path.
  BlockAccum run_block(std::size_t index,
                       const CancelToken* cancel = nullptr) const;

  // Journal codec for one block (raw IEEE-754 bits: replay is bit-identical).
  std::vector<std::uint8_t> encode_block(const BlockAccum& block) const;
  BlockAccum decode_block(PayloadReader& in) const;

  // Index-ordered reduction of every block into the final curve.
  YieldResult reduce(const std::vector<BlockAccum>& blocks) const;

  const YieldEngineOptions& options() const noexcept { return options_; }
  // Surrogate-DRV threshold above which a cell gets an exact solve.
  double gate_threshold() const noexcept { return gate_; }
  // Importance-sampling mean shift (and its mirror), in kAllCellTransistors
  // order; zero vectors outside ImportanceSampled mode.
  const std::array<double, 6>& shift() const noexcept { return shift_; }
  // Likelihood ratio phi(v) / q(v) of the two-component mixture proposal at
  // a sampled point (exposed for the estimator property tests).
  double importance_weight(const CellVariation& v) const;
  std::size_t blocks_per_trial() const noexcept { return blocks_per_trial_; }
  // The pilot search outcome ({} unless options.auto_shift tuned the shift).
  const PilotShiftResult& pilot() const noexcept { return pilot_; }

 private:
  void run_pilot_shift_search();
  const Technology* tech_;
  const DrvSurrogate* surrogate_;
  YieldEngineOptions options_;
  std::size_t task_count_ = 0;
  std::size_t blocks_per_trial_ = 0;
  double gate_ = 0.0;
  std::array<double, 6> shift_{};         // mu
  std::array<double, 6> shift_mirror_{};  // mirror(mu)
  double shift_sq_half_ = 0.0;            // |mu|^2 / 2
  std::uint64_t is_seed_ = 0;             // importance-sampling stream seed
  PilotShiftResult pilot_;
};

// Runs the plan through a SweepExecutor (plan.options().threads workers),
// optionally journaled through `campaign` (bit-identical crash resume).
YieldResult run_yield(const YieldPlan& plan, Campaign* campaign = nullptr,
                      const CancelToken* cancel = nullptr);

// Folds a completed campaign/fabric-merged journal into the final result
// without re-running anything (read-only snapshot; every task of the plan
// must be present). This is how a coordinator reduces the merged journal a
// fabric fleet produced with plan.run_block as its task function.
YieldResult reduce_yield_journal(const YieldPlan& plan,
                                 const std::string& journal_path);

// Operator-facing one-line summary: mode, exact-batch kind, samples /
// candidates / exact solves, overall and worst per-point tail ESS, and the
// pilot-tuned shift when one was used. Shared by the yield_analysis example
// and the smoke assertions in tests, so the printed accounting can't drift
// from what the engine measured.
std::string yield_summary_line(const YieldPlan& plan, const YieldResult& result);

}  // namespace lpsram
