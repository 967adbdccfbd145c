#include "lpsram/stats/yield/counter_rng.hpp"

#include <algorithm>
#include <cmath>

#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

// counter_u64 folds (seed, trial) and then cell before the lane: the block
// sampler hoists both prefixes and hashes only the lane per draw.
std::uint64_t trial_prefix(std::uint64_t seed, std::uint64_t trial) noexcept {
  return fold_key(mix64(seed ^ 0x9e3779b97f4a7c15ULL), trial);
}

std::uint64_t lane_draw(std::uint64_t cell_prefix, std::uint64_t lane) noexcept {
  return mix64(fold_key(cell_prefix, lane));
}

// Top 53 bits, centered on the half-integer grid: (k + 0.5) * 2^-53. Above
// 2^52 the sum rounds to even, so k = 2^53 - 1 lands on exactly 1.0; that
// single point is clamped to the largest double below 1.
constexpr double kMaxUniform = 0x1.fffffffffffffp-1;

double uniform_of(std::uint64_t bits) noexcept {
  return std::min((static_cast<double>(bits >> 11) + 0.5) * 0x1p-53,
                  kMaxUniform);
}

// Wichura, "Algorithm AS 241: The percentage points of the normal
// distribution", Appl. Statist. 37 (1988) — PPND16 coefficients, lowest
// order first. Denominators carry their leading 1.
constexpr double kCentralNum[8] = {
    3.3871328727963666080e0,  1.3314166789178437745e+2,
    1.9715909503065514427e+3, 1.3731693765509461125e+4,
    4.5921953931549871457e+4, 6.7265770927008700853e+4,
    3.3430575583588128105e+4, 2.5090809287301226727e+3};
constexpr double kCentralDen[8] = {
    1.0,                      4.2313330701600911252e+1,
    6.8718700749205790830e+2, 5.3941960214247511077e+3,
    2.1213794301586595867e+4, 3.9307895800092710610e+4,
    2.8729085735721942674e+4, 5.2264952788528545610e+3};
constexpr double kNearNum[8] = {
    1.42343711074968357734e0,  4.63033784615654529590e0,
    5.76949722146069140550e0,  3.64784832476320460504e0,
    1.27045825245236838258e0,  2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4};
constexpr double kNearDen[8] = {
    1.0,                       2.05319162663775882187e0,
    1.67638483018380384940e0,  6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9};
constexpr double kFarNum[8] = {
    6.65790464350110377720e0,  5.46378491116411436990e0,
    1.78482653991729133580e0,  2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7};
constexpr double kFarDen[8] = {
    1.0,                       5.99832206555887937690e-1,
    1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15};

template <class V>
V horner(const double (&c)[8], V r) noexcept {
  V acc = V::broadcast(c[7]);
  for (std::size_t k = 7; k-- > 0;) acc = V::fma(acc, r, V::broadcast(c[k]));
  return acc;
}

// AS241's three rationals. Every operation is exact or single-rounded, so
// a lane's bits do not depend on the backend or on the lanes beside it.
template <class V>
V central_rational(V q) noexcept {  // |p - 0.5| <= 0.425
  const V r = V::fnma(q, q, V::broadcast(0.180625));  // 0.425^2 - q^2
  return q * horner(kCentralNum, r) / horner(kCentralDen, r);
}

template <class V>
V tail_radius(V p) noexcept {  // sqrt(-log(min(p, 1 - p)))
  return V::sqrt(V::neg(simd::vlog(V::min(p, V::broadcast(1.0) - p))));
}

template <class V>
V tail_rational(V r, bool far) noexcept {  // |x| for r <= 5 (near) or r > 5
  const V t = r - V::broadcast(far ? 5.0 : 1.6);
  return far ? horner(kFarNum, t) / horner(kFarDen, t)
             : horner(kNearNum, t) / horner(kNearDen, t);
}

// The lane kernel: all three branches evaluated and blended, so the tree
// has no data-dependent control flow.
template <class V>
V normal_quantile_v(V p) noexcept {
  const V q = p - V::broadcast(0.5);
  const V r = tail_radius(p);
  V tail = V::blend(V::cmp_gt(r, V::broadcast(5.0)), tail_rational(r, true),
                    tail_rational(r, false));
  tail = V::blend(V::cmp_lt(q, V::zero()), V::neg(tail), tail);
  return V::blend(V::cmp_gt(V::abs(q), V::broadcast(0.425)), tail,
                  central_rational(q));
}

// The scalar oracle: the same rationals on one lane (the generic backend's
// std::fma is the correctly rounded fused op the vector backends emit),
// evaluating only the branch the lane kernel's blends would keep.
double quantile_lane(double p) noexcept {
  using V1 = simd::DoubleVec<1>;
  const double q = p - 0.5;
  if (std::fabs(q) <= 0.425) return central_rational(V1::broadcast(q)).extract(0);
  const V1 r = tail_radius(V1::broadcast(p));
  const double x = tail_rational(r, r.extract(0) > 5.0).extract(0);
  return q < 0.0 ? -x : x;
}

}  // namespace

std::uint64_t counter_u64(std::uint64_t seed, std::uint64_t trial,
                          std::uint64_t cell, std::uint64_t lane) noexcept {
  return lane_draw(fold_key(trial_prefix(seed, trial), cell), lane);
}

double counter_uniform(std::uint64_t seed, std::uint64_t trial,
                       std::uint64_t cell, std::uint64_t lane) noexcept {
  return uniform_of(counter_u64(seed, trial, cell, lane));
}

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x * M_SQRT1_2);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0))
    throw InvalidArgument("normal_quantile: p must be in (0,1)");
  return quantile_lane(p);
}

void normal_quantile_block(const double* p, double* x, std::size_t n) noexcept {
  using V = simd::Vec;
  constexpr std::size_t kW = V::kWidth;
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) normal_quantile_v(V::load(p + i)).store(x + i);
  if (i == n) return;
  // Remainder: pad a full vector (lanes are independent, so the padding
  // cannot touch the live lanes' bits).
  double pad[kW], out[kW];
  for (std::size_t k = 0; k < kW; ++k) pad[k] = i + k < n ? p[i + k] : 0.5;
  normal_quantile_v(V::load(pad)).store(out);
  for (std::size_t k = 0; i + k < n; ++k) x[i + k] = out[k];
}

double counter_normal(std::uint64_t seed, std::uint64_t trial,
                      std::uint64_t cell, std::uint64_t lane) noexcept {
  return quantile_lane(counter_uniform(seed, trial, cell, lane));
}

CellVariation sample_cell_variation(std::uint64_t seed, std::uint64_t trial,
                                    std::uint64_t cell) noexcept {
  const std::uint64_t h = fold_key(trial_prefix(seed, trial), cell);
  CellVariation v;
  for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane)
    v.set(kAllCellTransistors[lane], quantile_lane(uniform_of(lane_draw(h, lane))));
  return v;
}

void sample_cell_variation_block(std::uint64_t seed, std::uint64_t trial,
                                 std::uint64_t first_cell, std::size_t count,
                                 const CellVariationLanes& out) noexcept {
  // Tiles keep the per-cell prefixes and one lane of uniforms on the stack;
  // a multiple of every native width, so only the last tile has a remainder.
  constexpr std::size_t kTile = 64;
  const std::uint64_t prefix = trial_prefix(seed, trial);
  std::uint64_t h[kTile];
  double u[kTile];
  for (std::size_t i0 = 0; i0 < count; i0 += kTile) {
    const std::size_t n = std::min(kTile, count - i0);
    for (std::size_t i = 0; i < n; ++i) h[i] = fold_key(prefix, first_cell + i0 + i);
    for (std::size_t lane = 0; lane < kAllCellTransistors.size(); ++lane) {
      for (std::size_t i = 0; i < n; ++i) u[i] = uniform_of(lane_draw(h[i], lane));
      normal_quantile_block(u, out.lane[lane] + i0, n);
    }
  }
}

}  // namespace lpsram
