// Counter-based (stateless) random sampling for the yield engine.
//
// The Monte-Carlo loops in stats/array_stats.cpp originally pulled a
// sequential mt19937_64 stream, which welds the sampled variation field to
// one traversal order: a parallel executor, a resumed campaign, or a fabric
// fleet that visits cells in any other order would silently sample a
// different array. Here every random draw is instead a *pure function* of
// its coordinates,
//
//     u64  = g(seed, trial, cell, lane)
//
// built from the runtime's standard splitmix64 finalizer chain (mix64 /
// fold_key, runtime/parallel.hpp). Lanes 0..5 are the six core-cell
// transistors in kAllCellTransistors order; higher lanes are free for
// auxiliary draws (the importance sampler burns lane 6 on its mixture
// component pick). Gaussians come from a single uniform through the inverse
// normal CDF — no rejection, no paired Box-Muller state — so any subset of
// cells can be sampled in any order, on any worker, and the field is
// bit-identical to a serial sweep. That property is what makes the yield
// engine's thread-count/resume/fabric determinism contracts possible at all.
//
// Every per-cell consumer runs the block calls below: the (seed, trial,
// cell) hash prefix is folded once per cell, and the inverse CDF is one
// branch-free fma expression tree over simd::DoubleVec lanes. The scalar
// functions are the one-lane instance of the same tree, so block and scalar
// draws agree bit for bit on every SIMD backend.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lpsram/cell/core_cell.hpp"

namespace lpsram {

// Version of the sampled-field numerics (hash chain, uniform grid, inverse
// CDF). A change that moves any sampled bit bumps it; YieldPlan folds it
// into its manifest fingerprint, so a journal recorded under other numerics
// is refused on resume or fleet merge instead of blended.
//   1: Acklam's approximation polished by a Halley step on libm erfc/exp.
//   2: Wichura's AS241 on vlog/sqrt; the top uniform clamped below 1.
inline constexpr std::uint64_t kSamplerNumericsVersion = 2;

// Cells per chunk for the block consumers (yield pass 1, the pilot,
// simulate_array_drv): a chunk's six SoA lanes (12 KB) stay L1-resident and
// are reused, where a whole-block field would grow the working set.
inline constexpr std::size_t kSampleChunkCells = 256;

// Raw 64-bit counter draw: splitmix-mixed fold of (seed, trial, cell, lane).
std::uint64_t counter_u64(std::uint64_t seed, std::uint64_t trial,
                          std::uint64_t cell, std::uint64_t lane) noexcept;

// Uniform draw strictly inside (0, 1) — never 0 or 1, so the inverse-CDF
// transform below is always finite. The grid is (k + 0.5) * 2^-53 for the
// top 53 bits k, as rounded to double; the one grid point that rounds to 1
// is clamped to the largest double below 1.
double counter_uniform(std::uint64_t seed, std::uint64_t trial,
                       std::uint64_t cell, std::uint64_t lane) noexcept;

// Standard normal CDF, Phi(x) = erfc(-x / sqrt(2)) / 2.
double normal_cdf(double x) noexcept;

// Inverse standard normal CDF on (0, 1): Wichura's AS241 (PPND16) rational
// approximations, relative error ~1e-16 in exact arithmetic; with fused
// Horner steps and the vlog tail, |Phi(x)/p - 1| stays below ~4e-14.
// Throws InvalidArgument outside (0, 1).
double normal_quantile(double p);

// x[i] = normal_quantile(p[i]) bit for bit, for any n. Every p[i] must lie
// in (0, 1); unlike the scalar call this is not checked.
void normal_quantile_block(const double* p, double* x, std::size_t n) noexcept;

// N(0, 1) draw at the given counter coordinates.
double counter_normal(std::uint64_t seed, std::uint64_t trial,
                      std::uint64_t cell, std::uint64_t lane) noexcept;

// The six-transistor variation field of one cell, lanes 0..5 in
// kAllCellTransistors order (sigma units, i.i.d. N(0, 1)).
CellVariation sample_cell_variation(std::uint64_t seed, std::uint64_t trial,
                                    std::uint64_t cell) noexcept;

// The fields of cells first_cell .. first_cell + count - 1 into `out`
// (count doubles per lane): cell i equals
// sample_cell_variation(seed, trial, first_cell + i) bit for bit.
void sample_cell_variation_block(std::uint64_t seed, std::uint64_t trial,
                                 std::uint64_t first_cell, std::size_t count,
                                 const CellVariationLanes& out) noexcept;

}  // namespace lpsram
