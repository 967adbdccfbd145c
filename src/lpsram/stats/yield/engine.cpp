#include "lpsram/stats/yield/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "lpsram/cell/batch_vtc.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/spice/dc_solver.hpp"
#include "lpsram/spice/hooks.hpp"
#include "lpsram/stats/yield/counter_rng.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

// Importance-sampling draws live in their own counter stream so they never
// collide with the nominal (trial, cell) field ("IS").
constexpr std::uint64_t kIsStreamTag = 0x4953ULL;
// Lane 6 picks the mixture component (lanes 0..5 are the six transistors).
constexpr std::uint64_t kComponentLane = 6;
// Pilot shift-tuning draws get their own stream too ("PS"): the pilot must
// not consume — or correlate with — the production sampling field.
constexpr std::uint64_t kPilotStreamTag = 0x5053ULL;

// Cells per cross-batched exact-solve chunk. A multiple of every native
// SIMD width; large enough that per-chunk setup (device-constant hoisting)
// amortizes, small enough that the staging working set stays cache-resident.
constexpr std::size_t kExactBatchLanes = 32;

// Block cap for the modes where most samples take an exact solve
// (ImportanceSampled, BruteForceExact). block_cells is sized for blockade
// sampling at ~0.1 us a cell; an exact cross-cell solve costs ~75 us, so a
// 16384-cell IS block is ~1 s of work and a 20k-sample curve is only two
// tasks. 16 lane chunks (~40 ms at IS gating rates) give the executor
// enough tasks to keep every core busy. Sample coordinates are global, so
// the cap changes only how the per-block float sums associate.
constexpr std::size_t kExactBlockSamples = 16 * kExactBatchLanes;

std::atomic<YieldExactBatchKind> g_default_yield_exact_batch{
    YieldExactBatchKind::LaneBatch};

}  // namespace

std::string yield_mode_name(YieldMode mode) {
  switch (mode) {
    case YieldMode::BruteForceExact: return "brute-force-exact";
    case YieldMode::Blockade: return "blockade";
    case YieldMode::ImportanceSampled: return "importance-sampled";
  }
  return "unknown";
}

std::string yield_exact_batch_name(YieldExactBatchKind kind) {
  switch (kind) {
    case YieldExactBatchKind::Auto: return "auto";
    case YieldExactBatchKind::OneAtATime: return "one-at-a-time";
    case YieldExactBatchKind::LaneBatch: return "lane-batch";
  }
  return "unknown";
}

YieldExactBatchKind default_yield_exact_batch() noexcept {
  return g_default_yield_exact_batch.load(std::memory_order_relaxed);
}

YieldExactBatchKind set_default_yield_exact_batch(
    YieldExactBatchKind kind) noexcept {
  if (kind == YieldExactBatchKind::Auto) kind = YieldExactBatchKind::LaneBatch;
  return g_default_yield_exact_batch.exchange(kind, std::memory_order_relaxed);
}

YieldExactBatchKind resolved_yield_exact_batch() noexcept {
  const YieldExactBatchKind kind = default_yield_exact_batch();
  return kind == YieldExactBatchKind::Auto ? YieldExactBatchKind::LaneBatch
                                           : kind;
}

YieldPlan::YieldPlan(const Technology& tech, const DrvSurrogate& surrogate,
                     YieldEngineOptions options)
    : tech_(&tech), surrogate_(&surrogate), options_(std::move(options)) {
  if (options_.rows < 1 || options_.cols < 1)
    throw InvalidArgument("YieldPlan: array must have >= 1 row and column");
  if (options_.trials < 1)
    throw InvalidArgument("YieldPlan: trials must be >= 1");
  if (options_.block_cells < 1)
    throw InvalidArgument("YieldPlan: block_cells must be >= 1");
  if (options_.vreg_grid.empty())
    throw InvalidArgument("YieldPlan: vreg_grid must not be empty");
  if (!std::is_sorted(options_.vreg_grid.begin(), options_.vreg_grid.end()))
    throw InvalidArgument("YieldPlan: vreg_grid must be ascending");
  for (const double v : options_.vreg_grid)
    if (!(v > 0.0) || !std::isfinite(v))
      throw InvalidArgument("YieldPlan: vreg grid points must be positive");
  if (!(options_.blockade_margin >= 0.0))
    throw InvalidArgument("YieldPlan: blockade_margin must be >= 0");

  gate_ = options_.vreg_grid.front() - options_.blockade_margin;
  // Resolved here, like the pilot's is_shift, so the task count and the
  // fingerprint both see the block size the plan actually runs.
  if (options_.mode != YieldMode::Blockade)
    options_.block_cells = std::min(options_.block_cells, kExactBlockSamples);

  if (options_.mode == YieldMode::ImportanceSampled) {
    if (options_.is_samples < 1)
      throw InvalidArgument("YieldPlan: is_samples must be >= 1");
    if (!(options_.is_shift >= 0.0))
      throw InvalidArgument("YieldPlan: is_shift must be >= 0");
    if (!(options_.is_defensive >= 0.0 && options_.is_defensive < 1.0))
      throw InvalidArgument("YieldPlan: is_defensive must be in [0, 1)");
    if (options_.auto_shift) {
      if (options_.pilot_samples < 1)
        throw InvalidArgument("YieldPlan: pilot_samples must be >= 1");
      if (!(options_.pilot_shift_lo >= 0.0) ||
          !(options_.pilot_shift_hi >= options_.pilot_shift_lo))
        throw InvalidArgument(
            "YieldPlan: need 0 <= pilot_shift_lo <= pilot_shift_hi");
      if (options_.pilot_steps < 1)
        throw InvalidArgument("YieldPlan: pilot_steps must be >= 1");
    }
    blocks_per_trial_ =
        (options_.is_samples + options_.block_cells - 1) / options_.block_cells;
    task_count_ = blocks_per_trial_;

    const auto& w = surrogate.weights();
    double norm_sq = 0.0;
    for (const double wi : w) norm_sq += wi * wi;
    if (!(norm_sq > 0.0))
      throw InvalidArgument("YieldPlan: surrogate weights are all zero");

    // Pilot line search first (surrogate-only, deterministic): it may
    // replace options_.is_shift before the shift vectors are derived, so
    // everything downstream — the sampler, the weights, the fingerprint —
    // sees one consistent tuned value.
    pilot_.shift = options_.is_shift;
    if (options_.auto_shift) run_pilot_shift_search();

    // Mean shift along the fitted worst-case direction (unit Euclidean norm
    // of the surrogate weights), mirrored for the opposite polarity.
    const double scale = options_.is_shift / std::sqrt(norm_sq);
    CellVariation mu;
    for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i)
      mu.set(kAllCellTransistors[i], w[i] * scale);
    const CellVariation mu_m = mu.mirrored();
    for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i) {
      shift_[i] = mu.get(kAllCellTransistors[i]);
      shift_mirror_[i] = mu_m.get(kAllCellTransistors[i]);
    }
    shift_sq_half_ = 0.5 * options_.is_shift * options_.is_shift;
    is_seed_ = fold_key(options_.seed, kIsStreamTag);
  } else {
    blocks_per_trial_ =
        (options_.cells_per_trial() + options_.block_cells - 1) /
        options_.block_cells;
    task_count_ =
        blocks_per_trial_ * static_cast<std::size_t>(options_.trials);
  }
}

void YieldPlan::run_pilot_shift_search() {
  // ESS-maximizing line search along the surrogate worst-case direction.
  //
  // Design rules that keep this sound:
  //  * Surrogate-only: the pilot never spends an exact solve — the failure
  //    indicator is predict_drv(v) > vreg, which is what the production
  //    blockade gate keys off anyway.
  //  * Common random numbers: one (component pick, z) draw per pilot sample,
  //    reused for every candidate shift, so the comparison across shifts is
  //    paired and the winner is not a noise artifact of per-shift streams.
  //  * Own counter stream (kPilotStreamTag): pilot draws never collide with
  //    the production sampling field, so tuning cannot bias the estimate.
  //  * Tail ESS, not overall ESS: (sum w*f)^2 / sum w^2*f restricted to the
  //    failure indicator. The overall (sum w)^2 / sum w^2 is maximized by
  //    shift 0 — it measures weight uniformity, not tail evidence — and
  //    would tune every run back to plain Monte Carlo.
  //  * Max-min over grid points: the chosen shift must serve the whole
  //    curve, so the score is the minimum tail ESS over every grid point
  //    that registered at least one pilot hit at any shift; grid points no
  //    shift can reach are excluded rather than zeroing every score. If no
  //    grid point scores at all, the hand shift stays untouched.
  const auto& w = surrogate_->weights();
  double norm_sq = 0.0;
  for (const double wi : w) norm_sq += wi * wi;
  CellVariation u;
  for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i)
    u.set(kAllCellTransistors[i], w[i] / std::sqrt(norm_sq));
  const CellVariation u_m = u.mirrored();

  const std::vector<double>& grid = options_.vreg_grid;
  const std::size_t steps = static_cast<std::size_t>(options_.pilot_steps);
  std::vector<double> shifts(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    shifts[t] = steps > 1
                    ? options_.pilot_shift_lo +
                          (options_.pilot_shift_hi - options_.pilot_shift_lo) *
                              static_cast<double>(t) /
                              static_cast<double>(steps - 1)
                    : options_.pilot_shift_lo;
  }

  // sum_wf / sum_wf2 per (shift, grid point), summed in sample order.
  std::vector<double> sum_wf(steps * grid.size(), 0.0);
  std::vector<double> sum_wf2(steps * grid.size(), 0.0);
  std::vector<char> grid_hit(grid.size(), 0);

  const std::uint64_t pilot_seed = fold_key(options_.seed, kPilotStreamTag);
  const double alpha = options_.is_defensive;
  constexpr std::size_t kChunk = kSampleChunkCells;
  std::vector<double> z_store(6 * kChunk), v_store(6 * kChunk);
  const CellVariationLanes z = CellVariationLanes::over(z_store.data(), kChunk);
  const CellVariationLanes v = CellVariationLanes::over(v_store.data(), kChunk);
  std::vector<double> sdrv(kChunk), weight(kChunk);
  std::vector<int> component(kChunk);
  // Chunked over samples, shifts inside: each (shift, grid point) sum still
  // accumulates in sample order.
  for (std::size_t j0 = 0; j0 < options_.pilot_samples; j0 += kChunk) {
    const std::size_t n = std::min(kChunk, options_.pilot_samples - j0);
    sample_cell_variation_block(pilot_seed, 0, j0, n, z);
    for (std::size_t i = 0; i < n; ++i) {
      const double pick = counter_uniform(pilot_seed, 0, j0 + i, kComponentLane);
      // Component selection mirrors the production sampler: nominal with
      // probability alpha, else one of the two shifted halves.
      component[i] = 0;  // 0 nominal, 1 shifted, 2 mirrored
      if (pick >= alpha) component[i] = pick < alpha + 0.5 * (1.0 - alpha) ? 1 : 2;
    }

    for (std::size_t t = 0; t < steps; ++t) {
      const double c = shifts[t];
      for (std::size_t i = 0; i < n; ++i) {
        double uv = 0.0, umv = 0.0;
        for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane) {
          const double mean =
              component[i] == 1 ? c * u.get(kAllCellTransistors[lane])
              : component[i] == 2 ? c * u_m.get(kAllCellTransistors[lane])
                                  : 0.0;
          const double vl = z.lane[lane][i] + mean;
          v.lane[lane][i] = vl;
          uv += u.get(kAllCellTransistors[lane]) * vl;
          umv += u_m.get(kAllCellTransistors[lane]) * vl;
        }
        // Likelihood ratio of the same defensive mixture at shift c:
        // a_i = c * (u_i . v) - c^2/2, w = 1/(alpha + (1-alpha) e^m s).
        const double a1 = c * uv - 0.5 * c * c;
        const double a2 = c * umv - 0.5 * c * c;
        const double m = std::max(a1, a2);
        const double s = 0.5 * (std::exp(a1 - m) + std::exp(a2 - m));
        weight[i] = alpha > 0.0 ? 1.0 / (alpha + (1.0 - alpha) * std::exp(m) * s)
                                : std::exp(-(m + std::log(s)));
      }
      surrogate_->predict_drv_block(v, n, sdrv.data());
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < grid.size(); ++k) {
          if (sdrv[i] > grid[k]) {
            sum_wf[t * grid.size() + k] += weight[i];
            sum_wf2[t * grid.size() + k] += weight[i] * weight[i];
            grid_hit[k] = 1;
          }
        }
      }
    }
  }

  pilot_.samples = options_.pilot_samples;
  for (const char h : grid_hit)
    if (h) ++pilot_.grid_points_scored;
  if (pilot_.grid_points_scored == 0) return;  // tail unreachable: keep hand shift

  double best_score = -1.0;
  double best_shift = options_.is_shift;
  for (std::size_t t = 0; t < steps; ++t) {
    double score = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < grid.size(); ++k) {
      if (!grid_hit[k]) continue;
      const double wf = sum_wf[t * grid.size() + k];
      const double wf2 = sum_wf2[t * grid.size() + k];
      score = std::min(score, wf2 > 0.0 ? wf * wf / wf2 : 0.0);
    }
    if (score > best_score) {  // strict: ties keep the smaller shift
      best_score = score;
      best_shift = shifts[t];
    }
  }

  options_.is_shift = best_shift;
  pilot_.tuned = true;
  pilot_.shift = best_shift;
  pilot_.objective = best_score;
}

std::uint64_t YieldPlan::key_of(std::size_t index) const noexcept {
  return fold_key(fold_key(kSalt, static_cast<std::uint64_t>(options_.mode)),
                  index);
}

std::uint64_t YieldPlan::fingerprint() const {
  std::uint64_t fp = fold_key(kSalt, task_count_);
  fp = fold_key(fp, options_.rows);
  fp = fold_key(fp, options_.cols);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.trials));
  fp = fold_key(fp, options_.seed);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.mode));
  fp = fold_key(fp, key_bits(options_.is_shift));
  fp = fold_key(fp, options_.is_samples);
  fp = fold_key(fp, key_bits(options_.is_defensive));
  // Pilot knobs: is_shift above already carries the *tuned* value (the
  // pilot rewrites it at construction), but folding the pilot configuration
  // too means a hand-shifted run can never alias an auto-shifted one that
  // happened to tune to the same number.
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.auto_shift ? 1 : 0));
  fp = fold_key(fp, options_.pilot_samples);
  fp = fold_key(fp, key_bits(options_.pilot_shift_lo));
  fp = fold_key(fp, key_bits(options_.pilot_shift_hi));
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.pilot_steps));
  fp = fold_key(fp, key_bits(options_.blockade_margin));
  fp = fold_key(fp, options_.block_cells);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.corner));
  fp = fold_key(fp, key_bits(options_.temp_c));
  fp = fold_key(fp, options_.vreg_grid.size());
  for (const double v : options_.vreg_grid) fp = fold_key(fp, key_bits(v));
  // The trained surrogate defines both the blockade gate and the importance
  // direction; the cell kernel defines the exact solves behind the journaled
  // counts. Either changing silently would blend incompatible estimates.
  fp = fold_key(fp, surrogate_->fingerprint());
  fp = fold_key(fp, static_cast<std::uint64_t>(resolved_cell_kernel()));
  // The SIMD backend kind shifts solver outcomes within ulp-level noise;
  // refuse to resume a journal recorded under the other kind.
  fp = fold_key(fp, static_cast<std::uint64_t>(resolved_simd_kind()));
  // The exact-batch kind is result-neutral by construction, but the folded
  // fingerprint is the *claim* of that neutrality a resumed journal can
  // check: refusing a mixed resume is how the bit-identity contract stays
  // falsifiable instead of assumed.
  fp = fold_key(fp, static_cast<std::uint64_t>(resolved_yield_exact_batch()));
  // Sampler numerics move the sampled field at the ulp level: a journal
  // recorded under another inverse CDF must not blend with this one.
  fp = fold_key(fp, kSamplerNumericsVersion);
  return fp;
}

double YieldPlan::importance_weight(const CellVariation& v) const {
  // w = phi(v) / q(v) with the defensive mixture proposal
  //   q = alpha * phi + (1-alpha)/2 * (N(mu, I) + N(mirror(mu), I)),
  // so w = 1 / (alpha + (1-alpha)/2 * (e^a1 + e^a2)) where
  //   a_i = log(N(mu_i, I) / phi)(v) = mu_i . v - |mu|^2/2,
  // computed with the max trick so weights stay finite at large shifts.
  // With alpha > 0 every weight is bounded by 1/alpha.
  double a1 = -shift_sq_half_;
  double a2 = -shift_sq_half_;
  for (std::size_t i = 0; i < kAllCellTransistors.size(); ++i) {
    const double vi = v.get(kAllCellTransistors[i]);
    a1 += shift_[i] * vi;
    a2 += shift_mirror_[i] * vi;
  }
  const double alpha = options_.is_defensive;
  const double m = std::max(a1, a2);
  const double s = 0.5 * (std::exp(a1 - m) + std::exp(a2 - m));
  if (alpha > 0.0) {
    // exp(m) may overflow to +inf for a point far along the shift; the
    // weight then correctly collapses to 0.
    return 1.0 / (alpha + (1.0 - alpha) * std::exp(m) * s);
  }
  return std::exp(-(m + std::log(s)));
}

BlockAccum YieldPlan::run_block(std::size_t index,
                                const CancelToken* cancel) const {
  if (index >= task_count_)
    throw InvalidArgument("YieldPlan::run_block: index out of range");
  // Scope any session chaos observer to this task, matching the executor
  // contract that concurrent tasks never share an observer instance.
  const ScopedTaskObserver task_scope(key_of(index));

  const bool importance = options_.mode == YieldMode::ImportanceSampled;
  const std::vector<double>& grid = options_.vreg_grid;

  std::uint64_t trial = 0;
  std::size_t begin = 0, end = 0;
  if (importance) {
    begin = index * options_.block_cells;
    end = std::min(begin + options_.block_cells, options_.is_samples);
  } else {
    trial = index / blocks_per_trial_;
    begin = (index % blocks_per_trial_) * options_.block_cells;
    end = std::min(begin + options_.block_cells, options_.cells_per_trial());
  }

  BlockAccum acc;
  acc.points.resize(grid.size());

  // The block runs in three passes over a staging buffer instead of one
  // fused loop, so the exact solves can batch cross-cell without touching
  // the accumulation order:
  //   1. sample + weight + surrogate-classify every cell, staging the
  //      survivors' variations and positions;
  //   2. exact-solve the staged candidates — per candidate (the oracle) or
  //      in lane-width cross-cell chunks, both walking the same staging
  //      order and writing the same per-sample slots;
  //   3. accumulate every sample in s order, exactly the fused loop's
  //      order, so curves stay bit-identical across batch kinds, thread
  //      counts, resume and fleet merges.
  const std::size_t count = end - begin;
  std::vector<double> weights(count, 1.0);
  std::vector<double> drvs(count, 0.0);
  std::vector<CellVariation> staged_v;
  std::vector<std::size_t> staged_pos;

  // Pass 1 — sampling, weights, surrogate gate, chunk by chunk through the
  // block sampler and the block surrogate.
  constexpr std::size_t kChunk = kSampleChunkCells;
  std::vector<double> z_store(6 * kChunk);
  const CellVariationLanes z = CellVariationLanes::over(z_store.data(), kChunk);
  for (std::size_t c0 = begin; c0 < end; c0 += kChunk) {
    poll_cancel(cancel, "yield block", 0, 0.0);
    const std::size_t n = std::min(kChunk, end - c0);
    const std::size_t pos0 = c0 - begin;
    // Importance samples come from their own stream (trial is 0 there).
    sample_cell_variation_block(importance ? is_seed_ : options_.seed, trial, c0,
                                n, z);
    if (importance) {
      const double alpha = options_.is_defensive;
      for (std::size_t i = 0; i < n; ++i) {
        // Component pick: [0, alpha) nominal, then the two shifted halves.
        const double pick = counter_uniform(is_seed_, 0, c0 + i, kComponentLane);
        const std::array<double, 6>* mean = nullptr;
        if (pick >= alpha)
          mean = pick < alpha + 0.5 * (1.0 - alpha) ? &shift_ : &shift_mirror_;
        for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
          z.lane[lane][i] += mean ? (*mean)[lane] : 0.0;
        weights[pos0 + i] = importance_weight(z.cell(i));
      }
    }

    // Cheap pre-filter: the surrogate classifies every cell; only candidates
    // near or past the gate spend an exact lane-kernel solve. Below the gate
    // the surrogate DRV sits at least blockade_margin under every grid
    // point, so the surrogate value classifies identically to the exact one
    // (up to surrogate error — which is what the margin absorbs, and what
    // the equivalence suite bounds).
    surrogate_->predict_drv_block(z, n, drvs.data() + pos0);
    for (std::size_t i = 0; i < n; ++i) {
      const bool candidate = drvs[pos0 + i] >= gate_;
      if (candidate) ++acc.candidates;
      if (options_.mode == YieldMode::BruteForceExact || candidate) {
        staged_v.push_back(z.cell(i));
        staged_pos.push_back(pos0 + i);
      }
    }
  }

  // Pass 2 — exact solves over the staging buffer. Both kinds visit the
  // staged candidates in the same order and the cross-batched kernel is
  // lane-for-lane identical to the solo path (see cell/batch_vtc.hpp), so
  // the drvs[] array they produce is the same.
  const bool lane_batch =
      resolved_yield_exact_batch() == YieldExactBatchKind::LaneBatch &&
      resolved_cell_kernel() == CellKernelKind::Batched;
  if (lane_batch) {
    CrossDrvOptions cross;
    std::vector<CoreCell> chunk_cells;
    std::vector<const CoreCell*> chunk_ptrs;
    std::vector<DrvResult> chunk_out;
    for (std::size_t i = 0; i < staged_v.size(); i += kExactBatchLanes) {
      poll_cancel(cancel, "yield exact batch", 0, 0.0);
      const std::size_t chunk =
          std::min(kExactBatchLanes, staged_v.size() - i);
      chunk_cells.clear();
      chunk_cells.reserve(chunk);
      chunk_ptrs.clear();
      chunk_out.resize(chunk);
      for (std::size_t j = 0; j < chunk; ++j)
        chunk_cells.emplace_back(*tech_, staged_v[i + j], options_.corner);
      for (const CoreCell& cell : chunk_cells) chunk_ptrs.push_back(&cell);
      drv_ds_cross_batched(chunk_ptrs.data(), chunk, options_.temp_c, cross,
                           chunk_out.data());
      for (std::size_t j = 0; j < chunk; ++j)
        drvs[staged_pos[i + j]] = chunk_out[j].drv();
      acc.exact_solves += chunk;
    }
  } else {
    for (std::size_t i = 0; i < staged_v.size(); ++i) {
      poll_cancel(cancel, "yield exact solve", 0, 0.0);
      const CoreCell cell(*tech_, staged_v[i], options_.corner);
      drvs[staged_pos[i]] = drv_ds(cell, options_.temp_c).drv();
      ++acc.exact_solves;
    }
  }

  // Pass 3 — accumulation, strictly in sample order.
  for (std::size_t pos = 0; pos < count; ++pos) {
    const double w = weights[pos];
    const double drv = drvs[pos];
    for (std::size_t k = 0; k < grid.size(); ++k)
      acc.points[k].add(w, drv > grid[k]);
    acc.sum_w += w;
    acc.sum_w2 += w * w;
    acc.max_drv = std::max(acc.max_drv, drv);
    ++acc.samples;
  }
  return acc;
}

std::vector<std::uint8_t> YieldPlan::encode_block(const BlockAccum& block) const {
  PayloadWriter out;
  out.u64(block.samples);
  out.u64(block.candidates);
  out.u64(block.exact_solves);
  out.f64(block.sum_w);
  out.f64(block.sum_w2);
  out.f64(block.max_drv);
  out.u32(static_cast<std::uint32_t>(block.points.size()));
  for (const TailPointAccum& pt : block.points) {
    out.u64(pt.fail_raw);
    out.f64(pt.sum_wf);
    out.f64(pt.sum_wf2);
  }
  return out.take();
}

BlockAccum YieldPlan::decode_block(PayloadReader& in) const {
  BlockAccum block;
  block.samples = in.u64();
  block.candidates = in.u64();
  block.exact_solves = in.u64();
  block.sum_w = in.f64();
  block.sum_w2 = in.f64();
  block.max_drv = in.f64();
  const std::uint32_t count = in.u32();
  if (count != options_.vreg_grid.size())
    throw InvalidArgument(
        "YieldPlan: journaled block has a different vreg grid");
  block.points.resize(count);
  for (TailPointAccum& pt : block.points) {
    pt.fail_raw = in.u64();
    pt.sum_wf = in.f64();
    pt.sum_wf2 = in.f64();
  }
  return block;
}

YieldResult YieldPlan::reduce(const std::vector<BlockAccum>& blocks) const {
  if (blocks.size() != task_count_)
    throw InvalidArgument("YieldPlan::reduce: wrong block count");

  BlockAccum total;
  total.points.resize(options_.vreg_grid.size());
  for (const BlockAccum& block : blocks) total.merge(block);

  YieldResult result;
  result.samples = total.samples;
  result.candidates = total.candidates;
  result.exact_solves = total.exact_solves;

  const double cells =
      static_cast<double>(options_.cells_per_trial());
  result.points.reserve(options_.vreg_grid.size());
  for (std::size_t k = 0; k < options_.vreg_grid.size(); ++k) {
    YieldPoint point;
    point.vreg = options_.vreg_grid[k];
    point.tail = estimate_tail(total, k);
    point.failures = total.points[k].fail_raw;
    const double p = std::clamp(point.tail.p, 0.0, 1.0);
    point.sigma = (p > 0.0 && p < 1.0) ? sigma_of_tail(p) : 0.0;
    point.array_yield = std::pow(1.0 - p, cells);
    result.points.push_back(point);
  }

  if (options_.mode != YieldMode::ImportanceSampled) {
    // Per-trial array DRV_DS maxima: blocks never span trials, so the trial
    // maximum is the max over its contiguous block range.
    std::vector<double> maxima;
    maxima.reserve(static_cast<std::size_t>(options_.trials));
    for (int t = 0; t < options_.trials; ++t) {
      double worst = 0.0;
      for (std::size_t b = 0; b < blocks_per_trial_; ++b)
        worst = std::max(
            worst,
            blocks[static_cast<std::size_t>(t) * blocks_per_trial_ + b].max_drv);
      maxima.push_back(worst);
    }
    result.array_dist = fit_array_drv_distribution(std::move(maxima));
  }
  return result;
}

YieldResult run_yield(const YieldPlan& plan, Campaign* campaign,
                      const CancelToken* cancel) {
  if (campaign) campaign->bind_sweep(YieldPlan::kSalt, plan.fingerprint());

  struct Slot {
    BlockAccum acc;
    double wall_s = 0.0;
  };
  std::vector<Slot> slots(plan.task_count());

  SweepExecutorOptions exec_options;
  exec_options.threads = plan.options().threads;
  SweepExecutor executor(exec_options);

  const auto key_of = [&plan](std::size_t i) { return plan.key_of(i); };
  const auto body = [&](std::size_t i, int) {
    const auto started = std::chrono::steady_clock::now();
    slots[i].acc = plan.run_block(i, cancel);
    slots[i].wall_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  };

  CampaignTaskCodec codec;
  codec.encode = [&](std::size_t i) { return plan.encode_block(slots[i].acc); };
  codec.decode = [&](std::size_t i, PayloadReader& in) {
    slots[i].acc = plan.decode_block(in);
  };

  const auto sweep_started = std::chrono::steady_clock::now();
  run_campaign(executor, campaign, /*cache=*/nullptr, plan.task_count(),
               key_of, body, codec);

  std::vector<BlockAccum> blocks;
  blocks.reserve(slots.size());
  SweepTelemetry telemetry;
  telemetry.tasks = slots.size();
  telemetry.threads = executor.threads();
  for (Slot& slot : slots) {
    telemetry.cpu_s += slot.wall_s;
    blocks.push_back(std::move(slot.acc));
  }
  telemetry.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sweep_started)
                         .count();

  YieldResult result = plan.reduce(blocks);
  result.telemetry = telemetry;
  return result;
}

YieldResult reduce_yield_journal(const YieldPlan& plan,
                                 const std::string& journal_path) {
  const ShardSnapshot snapshot = read_campaign_snapshot(journal_path);
  const auto manifest = snapshot.manifests.find(YieldPlan::kSalt);
  if (manifest == snapshot.manifests.end() ||
      manifest->second != plan.fingerprint())
    throw InvalidArgument(
        "reduce_yield_journal: journal was recorded for a different yield "
        "configuration");

  std::vector<BlockAccum> blocks;
  blocks.reserve(plan.task_count());
  for (std::size_t i = 0; i < plan.task_count(); ++i) {
    const auto task = snapshot.tasks.find(plan.key_of(i));
    if (task == snapshot.tasks.end())
      throw InvalidArgument("reduce_yield_journal: journal is missing task " +
                            std::to_string(i));
    PayloadReader in(task->second.payload);
    blocks.push_back(plan.decode_block(in));
  }
  YieldResult result = plan.reduce(blocks);
  result.telemetry.tasks = plan.task_count();
  return result;
}

std::string yield_summary_line(const YieldPlan& plan,
                               const YieldResult& result) {
  const YieldEngineOptions& opt = plan.options();
  double ess = 0.0;
  double min_tail = std::numeric_limits<double>::infinity();
  for (const YieldPoint& p : result.points) {
    ess = p.tail.ess;  // the overall ESS is shared by every grid point
    if (p.tail.tail_ess > 0.0) min_tail = std::min(min_tail, p.tail.tail_ess);
  }
  if (!std::isfinite(min_tail)) min_tail = 0.0;

  char buf[320];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "mode=%s exact-batch=%s samples=%llu candidates=%llu exact_solves=%llu "
      "ess=%.1f min_tail_ess=%.1f",
      yield_mode_name(opt.mode).c_str(),
      yield_exact_batch_name(resolved_yield_exact_batch()).c_str(),
      static_cast<unsigned long long>(result.samples),
      static_cast<unsigned long long>(result.candidates),
      static_cast<unsigned long long>(result.exact_solves), ess, min_tail);
  std::string line(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  if (opt.mode == YieldMode::ImportanceSampled) {
    const int m = std::snprintf(buf, sizeof(buf), " shift=%.3f%s",
                                opt.is_shift,
                                plan.pilot().tuned ? " (pilot-tuned)" : "");
    line.append(buf, m > 0 ? static_cast<std::size_t>(m) : 0);
  }
  return line;
}

}  // namespace lpsram
