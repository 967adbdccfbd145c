// Batched lane-parallel cell-analysis engine for the SNM/DRV hot path.
//
// The scalar path (vtc.cpp + snm.cpp + drv.cpp) pays one Brent solve over a
// std::function residual per VTC inversion, with a full Mosfet::eval per
// transistor per probe. This engine restructures the same analyses around
// structure-of-arrays batches. One engine serves both kinds of batch: the
// lanes over one cell's probes (grid points, noise levels) and the lanes
// over different cells (the yield engine's candidate DRVs), because every
// lane carries its own cell, supply and noise level:
//
//  * N node inversions advance in lockstep through one masked
//    Newton-bisection solver (util/rootfind_lanes), one batched residual
//    round per iteration;
//  * per-(device, temperature) model constants are hoisted once per cell
//    (device/mosfet_lanes) into per-cell tables, broadcast when the engine
//    holds one cell and gathered per lane otherwise; the source-side
//    softplus of every NMOS is cached — one exponential per probe instead
//    of two;
//  * the smallest-fixed-point scan walks the scalar 48-point grid but skips
//    every grid point the monotone loop map already proves is below the
//    fixed point (each evaluation T(x) with x ≤ x* is itself a lower bound
//    for x*), and warm-starts from the previous noise level's solution;
//  * the SNM noise ladder evaluates a wavefront of candidate noise levels
//    per round, shrinking the bracket by (k+1)x per batch instead of 2x.
//
// The scalar path stays untouched as the equivalence oracle, selected at
// runtime via ScopedCellKernelDefault (mirroring the linear-solver kernel
// switch in spice/dc_solver.hpp). DRV extraction keeps the *exact* scalar
// vdd probe schedule, so the two kernels return the same DRV whenever every
// retains decision agrees — which is everywhere except probes landing right
// on the retention fold, where the predicate hinges on the sign of a
// ~1e-9-level residual and the two node solvers can land on opposite sides.
// Cross-kernel DRVs are therefore close (within one bisection bracket) but
// not guaranteed bit-identical; campaign manifests fold the kernel choice so
// a resumed journal refuses to mix kernels instead of relying on identity.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "lpsram/cell/core_cell.hpp"
#include "lpsram/cell/drv.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/device/mosfet_lanes.hpp"
#include "lpsram/util/rootfind_lanes.hpp"

namespace lpsram {

// ---------------------------------------------------------------------------
// Runtime kernel selection (process-wide default + RAII scope), mirroring
// LinearSolverKind / ScopedLinearSolverDefault from spice/dc_solver.hpp.

enum class CellKernelKind { Auto, Scalar, Batched };

// Process-wide default used by hold_snm/holds_state/hold_equilibrium/
// drv_hold and HoldVtc::curve_s/curve_sb. Starts as Batched.
CellKernelKind default_cell_kernel() noexcept;

// Sets the default (Auto coerces to Batched); returns the previous value.
CellKernelKind set_default_cell_kernel(CellKernelKind kind) noexcept;

// The default with Auto resolved — what a cell analysis will actually run.
CellKernelKind resolved_cell_kernel() noexcept;

// Scoped override: pins the process default for a test/benchmark region and
// restores the previous kernel on destruction.
class ScopedCellKernelDefault {
 public:
  explicit ScopedCellKernelDefault(CellKernelKind kind)
      : previous_(set_default_cell_kernel(kind)) {}
  ~ScopedCellKernelDefault() { set_default_cell_kernel(previous_); }

  ScopedCellKernelDefault(const ScopedCellKernelDefault&) = delete;
  ScopedCellKernelDefault& operator=(const ScopedCellKernelDefault&) = delete;

 private:
  CellKernelKind previous_;
};

// ---------------------------------------------------------------------------
// The engine: the device constants of one or more cells at one temperature
// under the hold bias, reusable across supplies and noise levels. Every
// analysis runs over lanes, and each lane carries its own cell (an index
// into the engine's cells), supply and noise level. A single-cell engine
// serves one cell's probes (retains/hold_equilibrium/drv_hold share one
// engine across their whole search); a multi-cell engine serves the yield
// engine's cross-cell DRV batch. Both run the same arithmetic per lane, so
// a lane's result does not depend on which engine or batch it rides in.

class BatchHoldVtc {
 public:
  // Per-lane operands: lane i analyses cell[i] at supply vdd[i] under the
  // adverse noise noise[i].
  struct Lanes {
    const std::size_t* cell;
    const double* vdd;
    const double* noise;
  };

  // Scan-round budget that never evicts a lane.
  static constexpr int kUnboundedScan = std::numeric_limits<int>::max();

  BatchHoldVtc(const CoreCell* const* cells, std::size_t n, double temp_c);
  BatchHoldVtc(const CoreCell& cell, double temp_c);

  // Lockstep VTC inversions: out[i] is the S-node (resp. SB-node) voltage
  // of cell[i] for inverter input v_in[i] at supply vdd[i] — n solutions of
  // the same monotone node residual the scalar HoldVtc inverts one at a
  // time. `slope`, when given, receives d out[i] / d v_in[i] from the
  // analytic device derivatives at the solution.
  void inverter_s(const std::size_t* cell, const double* vdd,
                  const double* v_in, std::size_t n, double* out,
                  double* slope = nullptr);
  void inverter_sb(const std::size_t* cell, const double* vdd,
                   const double* v_in, std::size_t n, double* out,
                   double* slope = nullptr);

  // Smallest fixed points of the stored-bit loop map for k lanes,
  // warm-started from x_start (a known retained equilibrium for a smaller
  // noise level, or 0.0 for a cold search — see DESIGN.md for why warm
  // starts preserve the smallest-fixed-point guarantee). v_low[i] is the
  // settled low-node voltage of lane i, v_high[i] the corresponding high
  // node. Lanes still scanning after scan_round_budget rounds are appended
  // to *evicted (by lane position; required with a finite budget) and their
  // outputs left untouched.
  void smallest_fixed_points(StoredBit bit, const Lanes& lanes, std::size_t k,
                             double x_start, double* v_low, double* v_high,
                             int scan_round_budget = kUnboundedScan,
                             std::vector<std::size_t>* evicted = nullptr);

  // Retains decisions for k lanes: held[i] is 1 when lane i's settled nodes
  // stay more than kHoldMarginFraction * vdd[i] apart, else 0; v_low, when
  // given, receives the settled low nodes. An evicted lane (see
  // smallest_fixed_points) leaves held[i] and v_low[i] untouched.
  void retains(StoredBit bit, const Lanes& lanes, std::size_t k,
               double x_start, char* held, double* v_low = nullptr,
               int scan_round_budget = kUnboundedScan,
               std::vector<std::size_t>* evicted = nullptr);

 private:
  // Per-cell constants of one inverter side, one entry per cell.
  struct Side {
    std::vector<MosfetLaneConsts> pu;    // pull-up PMOS (MPcc1 / MPcc2)
    std::vector<MosfetLaneConsts> pd;    // pull-down NMOS (MNcc1 / MNcc2)
    std::vector<MosfetLaneConsts> pass;  // pass NMOS (MNcc3 / MNcc4)
    std::vector<NmosSourceCache> pass_cache;  // gate/source fixed by the bias
    double pass_vs = 0.0;                     // BL (side S) or BLB (side SB)
  };

  void add_cell(const CoreCell& cell, double temp_c);

  // Shared implementation of inverter_s/inverter_sb.
  void invert(const Side& side, const std::size_t* cell, const double* vdd,
              const double* v_in, std::size_t n, double* out, double* slope);

  // One loop-map evaluation T(x) for m lanes, plus the analytic map
  // derivative T'(x) (product of the two inverter slopes) when `slope` is
  // given.
  void loop_map(StoredBit bit, const Lanes& lanes, const double* x,
                std::size_t m, double* out, double* slope);

  // Copies lane `lane` of `lanes` to position `pos` of the compacted lane
  // buffers that picked() views.
  void pick(const Lanes& lanes, std::size_t pos, std::size_t lane) {
    fp_cell_[pos] = lanes.cell[lane];
    fp_vdd_[pos] = lanes.vdd[lane];
    fp_noise_[pos] = lanes.noise[lane];
  }
  Lanes picked() const {
    return {fp_cell_.data(), fp_vdd_.data(), fp_noise_.data()};
  }

  struct ScanLane {
    int grid = 1;          // next unvisited scalar grid index
    double x_prev = 0.0;   // last probe with f > 0 (bracket low)
    double probe = 0.0;    // probe submitted this round
    double bracket_lo = 0.0, bracket_hi = 0.0;
    enum class Phase { Scan, Refine, Done } phase = Phase::Scan;
  };

  Side side_s_;
  Side side_sb_;

  // Scratch, reused across calls so the hot path is allocation-free after
  // warm-up. Node inversions and the fixed-point refinement nest (the map
  // residual solves two inversions per round), so they own separate solver
  // workspaces.
  LaneRootWorkspace node_ws_;
  LaneRootWorkspace map_ws_;
  std::vector<NmosSourceCache> pd_cache_;
  std::vector<double> inv_lo_, inv_hi_, gm_sum_, gds_sum_;
  std::vector<double> map_in_, map_high_, map_slope_high_, map_slope_low_;
  std::vector<ScanLane> scan_;
  std::vector<std::size_t> fp_lanes_, fp_cell_;
  std::vector<double> fp_vdd_, fp_noise_, fp_x_, fp_t_, fp_slope_;
  std::vector<double> fp_lo_, fp_hi_, fp_root_, rt_vlow_, rt_vhigh_;
};

// ---------------------------------------------------------------------------
// Batched equivalents of the scalar hot-path entry points. The scalar
// functions in snm.hpp/drv.hpp dispatch here when the resolved kernel is
// Batched; call these directly only to pin a kernel irrespective of the
// process default.

HoldState hold_equilibrium_batched(const CoreCell& cell, StoredBit bit,
                                   double vdd_cc, double temp_c,
                                   double noise = 0.0);
bool holds_state_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                         double temp_c);
double hold_snm_batched(const CoreCell& cell, StoredBit bit, double vdd_cc,
                        double temp_c);
// Keeps the exact scalar monotone_threshold_log probe schedule over vdd, so
// the returned DRV is bit-identical to the scalar kernel whenever every
// retains decision agrees. Probes landing inside the fold's solver-noise
// band (where map(0) sits within node-solve tolerance of zero) can flip, in
// which case the two kernels settle at most one bisection bracket apart.
double drv_hold_batched(const CoreCell& cell, StoredBit bit, double temp_c,
                        const DrvOptions& options = {});

// ---------------------------------------------------------------------------
// Cross-cell DRV batching: one multi-cell engine whose lanes are *different
// cells*. The yield engine's candidate exact solves are the consumer — a
// staging buffer of surrogate-gated samples marches through in lane-width
// blocks, every cell running the same outer search in lockstep.
//
// Determinism contract: per lane the result is identical to the solo
// `drv_hold_batched` call for that cell — the outer probe schedule is the
// scalar monotone_threshold_log state machine per lane, each retains
// evaluation runs the engine's one scan/refine/high-node pipeline, and
// every per-lane solver trajectory (Newton-vs-bisect choices included)
// depends only on the lane's own state plus a round counter that both
// paths start at zero. Batch composition therefore cannot change any
// cell's DRV, which is what lets the yield engine keep its curves
// bit-identical across batch kinds.

struct CrossDrvOptions {
  DrvOptions drv;
  // Scan rounds allowed inside one retains evaluation before a lane is
  // evicted from the batch (straggler safety valve; the monotone-accelerated
  // scan needs well under 48 rounds in practice, so the default never
  // triggers outside adversarial tests). An evicted cell re-solves alone on
  // the same engine with no budget, which computes the identical DRV.
  int scan_round_budget = 64;
};

struct CrossDrvStats {
  std::size_t evicted = 0;  // cells re-solved alone after an eviction
};

// DRV of one stored bit for n cells at one temperature; drv_out[i] receives
// the DRV of *cells[i]. All cells share the hold bias and the search
// options.
void drv_hold_cross_batched(const CoreCell* const* cells, std::size_t n,
                            StoredBit bit, double temp_c,
                            const CrossDrvOptions& options, double* drv_out,
                            CrossDrvStats* stats = nullptr);

// Both DRV components for n cells: out[i] = {drv1, drv0} of *cells[i],
// matching drv_ds() per lane (bit One first, then Zero).
void drv_ds_cross_batched(const CoreCell* const* cells, std::size_t n,
                          double temp_c, const CrossDrvOptions& options,
                          DrvResult* out, CrossDrvStats* stats = nullptr);

}  // namespace lpsram
