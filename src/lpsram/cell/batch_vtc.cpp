#include "lpsram/cell/batch_vtc.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "lpsram/util/error.hpp"
#include "lpsram/util/rootfind.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {

// ---------------------------------------------------------------------------
// Kernel selection.

namespace {

std::atomic<CellKernelKind> g_default_cell_kernel{CellKernelKind::Batched};

}  // namespace

CellKernelKind default_cell_kernel() noexcept {
  return g_default_cell_kernel.load(std::memory_order_relaxed);
}

CellKernelKind set_default_cell_kernel(CellKernelKind kind) noexcept {
  if (kind == CellKernelKind::Auto) kind = CellKernelKind::Batched;
  return g_default_cell_kernel.exchange(kind, std::memory_order_relaxed);
}

CellKernelKind resolved_cell_kernel() noexcept {
  const CellKernelKind kind = default_cell_kernel();
  return kind == CellKernelKind::Auto ? CellKernelKind::Batched : kind;
}

// ---------------------------------------------------------------------------
// Engine.

namespace {

// Scalar scan constants, replicated exactly (snm.cpp smallest_fixed_point):
// grid point i is vdd_cc * i / kScanPoints for i in 1..kScanPoints.
constexpr int kScanPoints = 48;

// Noise levels probed per SNM ladder round; the bracket shrinks by
// (kNoiseWavefront + 1) per batched round instead of 2 per scalar probe.
constexpr int kNoiseWavefront = 3;

// SNM ladder resolution, replicated from the scalar hold_snm.
constexpr double kSnmResolution = 1e-4;  // 0.1 mV

// VTC inversion tolerances, replicated from the scalar solve_node
// (vtc.cpp): Brent with x_tol 1e-9 / f_tol 1e-18 on a bracket slightly
// wider than the rails.
constexpr double kNodeXTol = 1e-9;
constexpr double kNodeFTol = 1e-18;

// Fixed-point refinement tolerances, replicated from the scalar
// smallest_fixed_point (x_tol 1e-7, default f_tol).
constexpr double kMapXTol = 1e-7;
constexpr double kMapFTol = 1e-12;

// Per-cell constant operands of one lane block: a single-cell engine
// broadcasts its one entry, a multi-cell engine gathers each lane's cell.
// The values are equal either way, so both run one expression tree — the
// single-cell path just skips the gathers.
template <class V, class T>
auto load_cell_consts(const std::vector<T>& table, const std::size_t* cell) {
  return table.size() == 1 ? broadcast_lane_consts<V>(table[0])
                           : gather_lane_consts<V>(table.data(), cell);
}

}  // namespace

BatchHoldVtc::BatchHoldVtc(const CoreCell* const* cells, std::size_t n,
                           double temp_c) {
  for (std::size_t i = 0; i < n; ++i) add_cell(*cells[i], temp_c);
}

BatchHoldVtc::BatchHoldVtc(const CoreCell& cell, double temp_c) {
  add_cell(cell, temp_c);
}

void BatchHoldVtc::add_cell(const CoreCell& cell, double temp_c) {
  // Hoist the per-(device, temperature) constants once. The solved node is
  // the drain of all three attached devices, so every residual derivative
  // is a plain gds sum.
  const CoreCell::Bias bias = CoreCell::hold_bias();
  const auto hoist = [&](Side& side, CellTransistor pu, CellTransistor pd,
                         CellTransistor pass, double pass_vs) {
    side.pu.push_back(mosfet_lane_consts(cell.transistor(pu), temp_c));
    side.pd.push_back(mosfet_lane_consts(cell.transistor(pd), temp_c));
    side.pass.push_back(mosfet_lane_consts(cell.transistor(pass), temp_c));
    side.pass_cache.push_back(
        nmos_source_cache(side.pass.back(), bias.wl, pass_vs));
    side.pass_vs = pass_vs;
  };
  hoist(side_s_, CellTransistor::MPcc1, CellTransistor::MNcc1,
        CellTransistor::MNcc3, bias.bl);
  hoist(side_sb_, CellTransistor::MPcc2, CellTransistor::MNcc2,
        CellTransistor::MNcc4, bias.blb);
}

void BatchHoldVtc::invert(const Side& side, const std::size_t* cell,
                          const double* vdd, const double* v_in, std::size_t n,
                          double* out, double* slope) {
  // Per-lane source caches for the pull-down: its gate is the lane input and
  // its source is ground, both fixed across the solve iterations — only the
  // drain (the solved node) moves.
  pd_cache_.resize(n);
  inv_lo_.resize(n);
  inv_hi_.resize(n);
  gm_sum_.resize(n);
  gds_sum_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pd_cache_[i] = nmos_source_cache(side.pd[cell[i]], v_in[i], 0.0);
    // Scalar solve_node bracket: slightly wider than the rails.
    inv_lo_[i] = -0.05;
    inv_hi_[i] = vdd[i] + 0.05;
  }

  // Kernel choice is latched once per inversion: the scalar loop is the
  // bit-identical oracle (libm softplus via lane_eval), the SIMD branch
  // evaluates native-width blocks through the vectorized expression tree
  // (simd::vexp/vlog1p — agrees with the oracle to the documented ulp
  // level). The rootfind_lanes padding contract guarantees lanes/x are
  // readable and f/df writable through round_up_lanes(m), so every lane
  // index read below, padding included, names a real lane.
  const bool use_simd = resolved_simd_kind() == SimdKind::Simd;
  const auto residual = [&](const std::size_t* lanes, const double* x,
                            double* f, double* df, std::size_t m) {
    if (use_simd) {
      using V = simd::Vec;
      constexpr std::size_t W = simd::kNativeWidth;
      const V zero = V::zero();
      const V pass_vs = V::broadcast(side.pass_vs);
      const bool pu_pmos = side.pu.front().pmos;
      for (std::size_t i = 0; i < m; i += W) {
        std::size_t ids[W];
        double g_in[W], vdd_l[W];
        for (std::size_t j = 0; j < W; ++j) {
          const std::size_t lane = lanes[i + j];
          ids[j] = cell[lane];
          g_in[j] = v_in[lane];
          vdd_l[j] = vdd[lane];
        }
        const V xv = V::load(x + i);
        const MosEvalV<V> pu =
            lane_eval_cv(pu_pmos, load_cell_consts<V>(side.pu, ids),
                         V::load(g_in), xv, V::load(vdd_l));
        const MosEvalV<V> pd = lane_eval_nmos_cached_cv(
            load_cell_consts<V>(side.pd, ids),
            gather_lane_consts<V>(pd_cache_.data(), lanes + i), xv, zero);
        const MosEvalV<V> ps = lane_eval_nmos_cached_cv(
            load_cell_consts<V>(side.pass, ids),
            load_cell_consts<V>(side.pass_cache, ids), xv, pass_vs);
        // Same summation order as the scalar loop: pu + pd + pass.
        const V fv = pu.id + pd.id + ps.id;
        const V dfv = pu.gds + pd.gds + ps.gds;
        fv.store(f + i);
        dfv.store(df + i);
        double tgm[W], tgds[W];
        (pu.gm + pd.gm).store(tgm);
        dfv.store(tgds);
        for (std::size_t j = 0; j < W && i + j < m; ++j) {
          gm_sum_[lanes[i + j]] = tgm[j];
          gds_sum_[lanes[i + j]] = tgds[j];
        }
      }
      return;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t lane = lanes[i];
      const std::size_t c = cell[lane];
      const double xv = x[i];
      // Pull-up PMOS: gate = lane input, drain = solved node, source = rail.
      // Full mirrored-terminal evaluation — the well reference moves with
      // the drain, so nothing source-side is cacheable.
      const MosEval pu = lane_eval(side.pu[c], v_in[lane], xv, vdd[lane]);
      // Pull-down NMOS from the per-lane source cache: one exponential.
      const MosEval pd = lane_eval_nmos_cached(side.pd[c], pd_cache_[lane], xv,
                                               0.0);
      // Pass NMOS from the cell's bias-level source cache.
      const MosEval ps = lane_eval_nmos_cached(side.pass[c], side.pass_cache[c],
                                               xv, side.pass_vs);
      // Same summation order as CoreCell::residual_s/_sb: pu + pd + pass.
      f[i] = pu.id + pd.id + ps.id;
      df[i] = pu.gds + pd.gds + ps.gds;
      gm_sum_[lane] = pu.gm + pd.gm;
      gds_sum_[lane] = df[i];
    }
  };

  LaneRootOptions opts;
  opts.x_tolerance = kNodeXTol;
  opts.f_tolerance = kNodeFTol;
  opts.increasing = true;  // node residual is monotone increasing in the node
  solve_bracketed_lanes(residual, n, inv_lo_.data(), inv_hi_.data(), out, opts,
                        &node_ws_);

  if (slope) {
    // VTC slope d out / d in from the last device evaluation: the input
    // drives both gates, the output is the common drain, so
    // d out / d in = -(gm_pu + gm_pd) / (gds_pu + gds_pd + gds_pass).
    for (std::size_t i = 0; i < n; ++i)
      slope[i] = gds_sum_[i] != 0.0 ? -gm_sum_[i] / gds_sum_[i] : 0.0;
  }
}

void BatchHoldVtc::inverter_s(const std::size_t* cell, const double* vdd,
                              const double* v_in, std::size_t n, double* out,
                              double* slope) {
  invert(side_s_, cell, vdd, v_in, n, out, slope);
}

void BatchHoldVtc::inverter_sb(const std::size_t* cell, const double* vdd,
                               const double* v_in, std::size_t n, double* out,
                               double* slope) {
  invert(side_sb_, cell, vdd, v_in, n, out, slope);
}

void BatchHoldVtc::loop_map(StoredBit bit, const Lanes& lanes, const double* x,
                            std::size_t m, double* out, double* slope) {
  // Same composition as the scalar LoopMap (snm.cpp): raise the high-side
  // input by the adverse noise, drive the high node, lower its value by the
  // noise, drive the low node back.
  map_in_.resize(m);
  map_high_.resize(m);
  map_slope_high_.resize(m);
  map_slope_low_.resize(m);
  const Side& high = bit == StoredBit::One ? side_s_ : side_sb_;
  const Side& low = bit == StoredBit::One ? side_sb_ : side_s_;

  for (std::size_t i = 0; i < m; ++i) map_in_[i] = x[i] + lanes.noise[i];
  invert(high, lanes.cell, lanes.vdd, map_in_.data(), m, map_high_.data(),
         slope ? map_slope_high_.data() : nullptr);
  for (std::size_t i = 0; i < m; ++i) map_in_[i] = map_high_[i] - lanes.noise[i];
  invert(low, lanes.cell, lanes.vdd, map_in_.data(), m, out,
         slope ? map_slope_low_.data() : nullptr);
  if (slope) {
    // Chain rule through the composition: T'(x) = slope_low * slope_high.
    for (std::size_t i = 0; i < m; ++i)
      slope[i] = map_slope_low_[i] * map_slope_high_[i];
  }
}

void BatchHoldVtc::smallest_fixed_points(StoredBit bit, const Lanes& lanes,
                                         std::size_t k, double x_start,
                                         double* v_low, double* v_high,
                                         int scan_round_budget,
                                         std::vector<std::size_t>* evicted) {
  // Phase 1 — monotone-accelerated scan for the first sign change of
  // f(x) = T(x) - x along the scalar grid x_i = vdd * i / 48. Two facts
  // about the monotone-increasing map T make the scan cheap without
  // changing which grid point brackets the crossing:
  //   (a) below the smallest fixed point x*, f > 0 (first-crossing
  //       definition), so any probe with f <= 0 ends the scan exactly as in
  //       the scalar code;
  //   (b) for any probe x <= x*, T(x) <= T(x*) = x* — every evaluation is
  //       itself a lower bound for x*, so grid points at or below T(x) are
  //       provably on the f > 0 side and can be skipped unevaluated.
  // Warm starts ride the same lemma: the fixed point is monotone in the
  // noise level, so x*(d_prev) <= x*(d) makes x_start a valid first probe
  // with f(x_start) >= 0 (equality only at the fixed point itself).
  scan_.assign(k, ScanLane{});
  fp_lanes_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    scan_[i].x_prev = x_start;
    scan_[i].probe = x_start;
    fp_lanes_.push_back(i);
  }
  fp_cell_.resize(k);
  fp_vdd_.resize(k);
  fp_noise_.resize(k);
  fp_x_.resize(k);
  fp_t_.resize(k);

  int rounds = 0;
  while (!fp_lanes_.empty()) {
    if (rounds++ >= scan_round_budget) {
      // Straggler eviction: whatever is still scanning leaves the batch.
      evicted->insert(evicted->end(), fp_lanes_.begin(), fp_lanes_.end());
      fp_lanes_.clear();
      break;
    }
    const std::size_t m = fp_lanes_.size();
    for (std::size_t i = 0; i < m; ++i) {
      pick(lanes, i, fp_lanes_[i]);
      fp_x_[i] = scan_[fp_lanes_[i]].probe;
    }
    loop_map(bit, picked(), fp_x_.data(), m, fp_t_.data(), nullptr);

    std::size_t kept = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t lane = fp_lanes_[i];
      ScanLane& s = scan_[lane];
      const double vdd_cc = lanes.vdd[lane];
      const double t = fp_t_[i];
      const double f = t - s.probe;
      if (f <= 0.0) {
        if (s.probe == x_start) {
          // Already at/below a fixed point (scalar: the x_prev = 0 branch).
          v_low[lane] = s.probe;
          s.phase = ScanLane::Phase::Done;
        } else {
          s.bracket_lo = s.x_prev;
          s.bracket_hi = s.probe;
          s.phase = ScanLane::Phase::Refine;
        }
        continue;
      }
      // f > 0: t = T(probe) is a certified lower bound for x*. Skip every
      // grid point at or below it (and below the probe itself).
      s.x_prev = s.probe;
      const double bound = t > s.probe ? t : s.probe;
      while (s.grid <= kScanPoints &&
             vdd_cc * s.grid / kScanPoints <= bound)
        ++s.grid;
      if (t >= vdd_cc || s.grid > kScanPoints) {
        // x* >= vdd (or the grid is exhausted): the map saturates near vdd —
        // the fully flipped state, exactly the scalar fall-through.
        v_low[lane] = vdd_cc;
        s.phase = ScanLane::Phase::Done;
        continue;
      }
      s.probe = vdd_cc * s.grid / kScanPoints;
      ++s.grid;
      fp_lanes_[kept++] = lane;
    }
    fp_lanes_.resize(kept);
  }

  // Phase 2 — lockstep Newton-polished refinement of the bracketed lanes,
  // residual f(x) = T(x) - x with the analytic map derivative T'(x) - 1.
  // Evicted lanes are in no phase past Scan and never reach here.
  fp_lanes_.clear();
  for (std::size_t i = 0; i < k; ++i)
    if (scan_[i].phase == ScanLane::Phase::Refine) fp_lanes_.push_back(i);
  if (!fp_lanes_.empty()) {
    const std::size_t r = fp_lanes_.size();
    fp_slope_.resize(r);
    fp_lo_.resize(r);
    fp_hi_.resize(r);
    fp_root_.resize(r);
    for (std::size_t i = 0; i < r; ++i) {
      fp_lo_[i] = scan_[fp_lanes_[i]].bracket_lo;
      fp_hi_[i] = scan_[fp_lanes_[i]].bracket_hi;
    }
    const auto residual = [&](const std::size_t* active, const double* x,
                              double* f, double* df, std::size_t m) {
      for (std::size_t i = 0; i < m; ++i) pick(lanes, i, fp_lanes_[active[i]]);
      loop_map(bit, picked(), x, m, fp_t_.data(), fp_slope_.data());
      for (std::size_t i = 0; i < m; ++i) {
        f[i] = fp_t_[i] - x[i];
        df[i] = fp_slope_[i] - 1.0;
      }
    };
    LaneRootOptions opts;
    opts.x_tolerance = kMapXTol;
    opts.f_tolerance = kMapFTol;
    opts.increasing = false;  // f goes + -> - through the first crossing
    solve_bracketed_lanes(residual, r, fp_lo_.data(), fp_hi_.data(),
                          fp_root_.data(), opts, &map_ws_);
    for (std::size_t i = 0; i < r; ++i) v_low[fp_lanes_[i]] = fp_root_[i];
  }

  // Phase 3 — the high node at the settled low node, one batched inversion
  // for every completed lane (scalar: map.high_of_low(v_low)).
  fp_lanes_.clear();
  for (std::size_t i = 0; i < k; ++i)
    if (scan_[i].phase != ScanLane::Phase::Scan) fp_lanes_.push_back(i);
  const std::size_t m = fp_lanes_.size();
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t lane = fp_lanes_[i];
    pick(lanes, i, lane);
    fp_x_[i] = v_low[lane] + lanes.noise[lane];
  }
  invert(bit == StoredBit::One ? side_s_ : side_sb_, fp_cell_.data(),
         fp_vdd_.data(), fp_x_.data(), m, fp_t_.data(), nullptr);
  for (std::size_t i = 0; i < m; ++i) v_high[fp_lanes_[i]] = fp_t_[i];
}

void BatchHoldVtc::retains(StoredBit bit, const Lanes& lanes, std::size_t k,
                           double x_start, char* held, double* v_low,
                           int scan_round_budget,
                           std::vector<std::size_t>* evicted) {
  rt_vlow_.resize(k);
  rt_vhigh_.resize(k);
  smallest_fixed_points(bit, lanes, k, x_start, rt_vlow_.data(),
                        rt_vhigh_.data(), scan_round_budget, evicted);
  for (std::size_t i = 0; i < k; ++i) {
    if (scan_[i].phase == ScanLane::Phase::Scan) continue;  // evicted
    held[i] = (rt_vhigh_[i] - rt_vlow_[i]) > kHoldMarginFraction * lanes.vdd[i];
    if (v_low) v_low[i] = rt_vlow_[i];
  }
}

// ---------------------------------------------------------------------------
// Batched hot-path entry points.

namespace {

// Retains of engine cell `cell` at one supply for k <= kNoiseWavefront
// noise levels sharing one warm start.
void retains_at(BatchHoldVtc& engine, std::size_t cell, StoredBit bit,
                double vdd_cc, const double* noise, std::size_t k,
                double x_start, char* held, double* v_low) {
  std::size_t cells[kNoiseWavefront] = {};
  double vdd[kNoiseWavefront] = {};
  std::fill_n(cells, k, cell);
  std::fill_n(vdd, k, vdd_cc);
  engine.retains(bit, {cells, vdd, noise}, k, x_start, held, v_low);
}

// DRV of engine cell `cell`: the scalar monotone_threshold_log probe
// schedule itself, one retains lane per vdd probe, so the bisection
// brackets — and therefore the returned DRV — match the scalar kernel
// exactly as long as every retains decision agrees (probes inside the
// fold's solver-noise band may flip; see the header note).
double drv_of(BatchHoldVtc& engine, std::size_t cell, StoredBit bit,
              const DrvOptions& options) {
  return monotone_threshold_log(
      [&](double vdd_cc) {
        const double zero = 0.0;
        char held = 0;
        retains_at(engine, cell, bit, vdd_cc, &zero, 1, 0.0, &held, nullptr);
        return held != 0;
      },
      options.vdd_min, options.vdd_max, options.rel_tolerance);
}

}  // namespace

HoldState hold_equilibrium_batched(const CoreCell& cell, StoredBit bit,
                                   double vdd_cc, double temp_c, double noise) {
  BatchHoldVtc engine(cell, temp_c);
  const std::size_t cell0 = 0;
  double v_low = 0.0, v_high = 0.0;
  engine.smallest_fixed_points(bit, {&cell0, &vdd_cc, &noise}, 1, 0.0, &v_low,
                               &v_high);

  HoldState state;
  state.stable = (v_high - v_low) > kHoldMarginFraction * vdd_cc;
  if (bit == StoredBit::One) {
    state.v_s = v_high;
    state.v_sb = v_low;
  } else {
    state.v_s = v_low;
    state.v_sb = v_high;
  }
  return state;
}

bool holds_state_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                         double temp_c) {
  BatchHoldVtc engine(cell, temp_c);
  const double zero = 0.0;
  char held = 0;
  retains_at(engine, 0, bit, vdd_cc, &zero, 1, 0.0, &held, nullptr);
  return held != 0;
}

double hold_snm_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                        double temp_c) {
  BatchHoldVtc engine(cell, temp_c);

  // d = 0: does the cell hold at all? Keep its equilibrium as the warm
  // start for every later probe (x*(d) is monotone increasing in d).
  double d0 = 0.0;
  char held = 0;
  double x_warm = 0.0;
  retains_at(engine, 0, bit, vdd_cc, &d0, 1, 0.0, &held, &x_warm);
  if (!held) return 0.0;

  double d_hi = vdd_cc;
  retains_at(engine, 0, bit, vdd_cc, &d_hi, 1, x_warm, &held, nullptr);
  if (held) return vdd_cc;

  // Wavefront ladder: each round probes kNoiseWavefront evenly spaced noise
  // levels inside (lo, hi) in one batch, shrinking the bracket by
  // (kNoiseWavefront + 1) per round. All probes exceed lo, so they share
  // lo's equilibrium as the warm start; the largest retaining probe's
  // equilibrium becomes the next round's warm start.
  double lo = 0.0, hi = vdd_cc;
  double probes[kNoiseWavefront] = {};
  char results[kNoiseWavefront] = {};
  double x_low[kNoiseWavefront] = {};
  while (hi - lo > kSnmResolution) {
    for (int j = 0; j < kNoiseWavefront; ++j)
      probes[j] = lo + (hi - lo) * (j + 1) / (kNoiseWavefront + 1);
    retains_at(engine, 0, bit, vdd_cc, probes, kNoiseWavefront, x_warm,
               results, x_low);
    // retains is monotone decreasing in the noise; walk up to the first
    // failing probe.
    double new_lo = lo, new_hi = hi;
    for (int j = 0; j < kNoiseWavefront; ++j) {
      if (results[j]) {
        new_lo = probes[j];
        x_warm = x_low[j];
      } else {
        new_hi = probes[j];
        break;
      }
    }
    lo = new_lo;
    hi = new_hi;
  }
  return 0.5 * (lo + hi);
}

double drv_hold_batched(const CoreCell& cell, StoredBit bit, double temp_c,
                        const DrvOptions& options) {
  // One engine shared across every vdd probe of the search.
  BatchHoldVtc engine(cell, temp_c);
  return drv_of(engine, 0, bit, options);
}

// ---------------------------------------------------------------------------
// Cross-cell DRV batch: one multi-cell engine, every cell running the solo
// probe schedule as its own lane. Each lane's arithmetic is the solo path's
// with the broadcast constants replaced by per-lane gathers of equal
// values, so batch composition cannot perturb any lane's result (the
// identity the header documents and tests/test_yield.cpp pins).

void drv_hold_cross_batched(const CoreCell* const* cells, std::size_t n,
                            StoredBit bit, double temp_c,
                            const CrossDrvOptions& options, double* drv_out,
                            CrossDrvStats* stats) {
  const DrvOptions& d = options.drv;
  // The solo search refuses this range in monotone_threshold_log; the lane
  // machine below would bisect a zero lower bound forever.
  if (!(d.vdd_min > 0.0) || !(d.vdd_max > d.vdd_min))
    throw InvalidArgument("drv_hold_cross_batched: need 0 < vdd_min < vdd_max");
  if (n == 0) return;

  BatchHoldVtc engine(cells, n, temp_c);

  // Per-lane monotone_threshold_log state machine, the scalar schedule
  // (util/rootfind.cpp) replicated: probe lo; probe hi; then log-bisect
  // mid = sqrt(lo*hi) while hi/lo > rel_tolerance, returning hi. Lanes at
  // different phases still batch through one retains evaluation per round.
  enum class Phase { Lo, Hi, Bisect, Done, Evicted };
  struct DrvLane {
    Phase phase = Phase::Lo;
    double lo = 0.0, hi = 0.0, probe = 0.0, result = 0.0;
  };
  std::vector<DrvLane> lanes(n);
  for (std::size_t i = 0; i < n; ++i) lanes[i].probe = d.vdd_min;

  std::vector<std::size_t> active, evicted;
  std::vector<double> vdd;
  const std::vector<double> zero_noise(n, 0.0);
  std::vector<char> held;
  for (;;) {
    active.clear();
    vdd.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (lanes[i].phase == Phase::Lo || lanes[i].phase == Phase::Hi ||
          lanes[i].phase == Phase::Bisect) {
        active.push_back(i);
        vdd.push_back(lanes[i].probe);
      }
    }
    if (active.empty()) break;

    const std::size_t m = active.size();
    held.assign(m, 0);
    evicted.clear();
    engine.retains(bit, {active.data(), vdd.data(), zero_noise.data()}, m,
                   0.0, held.data(), nullptr, options.scan_round_budget,
                   &evicted);
    // Mark evictions first so their (untouched) held flags are never read.
    for (const std::size_t pos : evicted) {
      lanes[active[pos]].phase = Phase::Evicted;
    }
    for (std::size_t i = 0; i < m; ++i) {
      DrvLane& L = lanes[active[i]];
      if (L.phase == Phase::Evicted) continue;
      const bool h = held[i] != 0;
      switch (L.phase) {
        case Phase::Lo:
          if (h) {
            L.result = d.vdd_min;
            L.phase = Phase::Done;
          } else {
            L.phase = Phase::Hi;
            L.probe = d.vdd_max;
          }
          break;
        case Phase::Hi:
          if (!h) {
            L.result = d.vdd_max * 2.0;
            L.phase = Phase::Done;
          } else {
            L.lo = d.vdd_min;
            L.hi = d.vdd_max;
            if (L.hi / L.lo > d.rel_tolerance) {
              L.probe = std::sqrt(L.lo * L.hi);
              L.phase = Phase::Bisect;
            } else {
              L.result = L.hi;
              L.phase = Phase::Done;
            }
          }
          break;
        case Phase::Bisect:
          if (h) {
            L.hi = L.probe;
          } else {
            L.lo = L.probe;
          }
          if (L.hi / L.lo > d.rel_tolerance) {
            L.probe = std::sqrt(L.lo * L.hi);
          } else {
            L.result = L.hi;
            L.phase = Phase::Done;
          }
          break;
        default:
          break;
      }
    }
  }

  // Evicted stragglers re-solve alone on the same engine with no scan
  // budget — the same per-lane schedule and arithmetic this batch would
  // have run, so eviction only costs time, never changes a DRV.
  std::size_t n_evicted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lanes[i].phase == Phase::Evicted) {
      drv_out[i] = drv_of(engine, i, bit, d);
      ++n_evicted;
    } else {
      drv_out[i] = lanes[i].result;
    }
  }
  if (stats) stats->evicted += n_evicted;
}

void drv_ds_cross_batched(const CoreCell* const* cells, std::size_t n,
                          double temp_c, const CrossDrvOptions& options,
                          DrvResult* out, CrossDrvStats* stats) {
  if (n == 0) return;
  std::vector<double> drv1(n), drv0(n);
  drv_hold_cross_batched(cells, n, StoredBit::One, temp_c, options,
                         drv1.data(), stats);
  drv_hold_cross_batched(cells, n, StoredBit::Zero, temp_c, options,
                         drv0.data(), stats);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].drv1 = drv1[i];
    out[i].drv0 = drv0[i];
  }
}

}  // namespace lpsram
