#include "lpsram/stats/drv_surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "lpsram/runtime/parallel.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/matrix.hpp"
#include "lpsram/util/simd.hpp"

namespace lpsram {
namespace {

std::array<double, 6> to_array(const CellVariation& v) {
  return {v.mpcc1, v.mncc1, v.mpcc2, v.mncc2, v.mncc3, v.mncc4};
}

// CellVariation::mirrored() as a lane permutation (kAllCellTransistors
// order): lane l of the mirror is lane kMirrorLane[l] of the original.
constexpr std::size_t kMirrorLane[6] = {2, 3, 0, 1, 5, 4};

// The monotone piecewise-linear map over n >= 2 sorted knots, per lane.
// The knot search is std::upper_bound without data-dependent branches: the
// probe sequence depends on n alone and each step is a blend (invariant:
// knots before `base` are <= score, knots from base + len on are > score).
// Scores at or past either end knot take its DRV. Loads and blends are
// exact, so every lane equals the one-lane instance map() runs.
template <class V>
V map_knots(const double* ks, const double* ds, std::size_t n, V score) noexcept {
  const V one = V::broadcast(1.0);
  V base = V::zero();
  for (std::size_t len = n; len > 1;) {
    const std::size_t half = len / 2;
    const V probe = base + V::broadcast(static_cast<double>(half));
    base = V::blend(V::cmp_gt(V::gather_at(ks, probe), score), base, probe);
    len -= half;
  }
  V hi = V::blend(V::cmp_gt(V::gather_at(ks, base), score), base, base + one);
  // Only end lanes leave [1, n - 1]; they are replaced below.
  hi = V::min(V::max(hi, one), V::broadcast(static_cast<double>(n - 1)));
  const V lo = hi - one;
  const V k_lo = V::gather_at(ks, lo);
  const V d_lo = V::gather_at(ds, lo);
  const V span = V::gather_at(ks, hi) - k_lo;
  const V f = V::blend(V::cmp_gt(span, V::zero()), (score - k_lo) / span, V::zero());
  V drv = d_lo + f * (V::gather_at(ds, hi) - d_lo);
  drv = V::blend(V::cmp_lt(score, V::broadcast(ks[n - 1])), drv,
                 V::broadcast(ds[n - 1]));
  return V::blend(V::cmp_gt(score, V::broadcast(ks[0])), drv, V::broadcast(ds[0]));
}

// Pool-adjacent-violators: least-squares monotone (non-decreasing) fit of
// y over pre-sorted x.
std::vector<double> pava(const std::vector<double>& y) {
  struct Block {
    double sum;
    std::size_t count;
    double mean() const { return sum / static_cast<double>(count); }
  };
  std::vector<Block> blocks;
  for (const double value : y) {
    blocks.push_back({value, 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      blocks[blocks.size() - 2].sum += blocks.back().sum;
      blocks[blocks.size() - 2].count += blocks.back().count;
      blocks.pop_back();
    }
  }
  std::vector<double> fitted;
  fitted.reserve(y.size());
  for (const Block& b : blocks)
    fitted.insert(fitted.end(), b.count, b.mean());
  return fitted;
}

}  // namespace

DrvSurrogate DrvSurrogate::train(const Technology& tech,
                                 const DrvSurrogateOptions& options) {
  if (options.training_samples < 40)
    throw InvalidArgument("DrvSurrogate: need at least 40 training samples");

  std::mt19937_64 rng(options.seed);
  std::normal_distribution<double> normal(0.0, options.sample_sigma);

  // Training data: random patterns plus the axes (Fig. 4 points) so the
  // per-transistor structure is always represented.
  std::vector<CellVariation> patterns;
  for (const CellTransistor t : kAllCellTransistors) {
    for (const double s : {-6.0, -3.0, 3.0, 6.0}) {
      CellVariation v;
      v.set(t, s);
      patterns.push_back(v);
    }
  }
  // Every fifth random pattern is drawn at double spread so the monotone map
  // has support out to the scores a 256K-cell extreme can reach.
  std::size_t draw = 0;
  while (patterns.size() < static_cast<std::size_t>(options.training_samples)) {
    const double scale = (draw++ % 5 == 4) ? 2.0 : 1.0;
    CellVariation v;
    for (const CellTransistor t : kAllCellTransistors)
      v.set(t, scale * normal(rng));
    patterns.push_back(v);
  }

  std::vector<double> drv1(patterns.size());
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    const CoreCell cell(tech, patterns[k], options.corner);
    drv1[k] = drv_hold(cell, StoredBit::One, options.temp_c);
    // Clamp unretainable sentinels so the regression is not dominated by
    // the (arbitrary) sentinel magnitude.
    drv1[k] = std::min(drv1[k], 1.3);
  }

  // Split train/holdout deterministically.
  const std::size_t holdout =
      static_cast<std::size_t>(patterns.size() * options.holdout_fraction);
  const std::size_t fit_count = patterns.size() - holdout;

  // Least squares: drv ~= b0 + c . v  over the fit subset.
  Matrix normal_eq(7, 7);
  std::vector<double> rhs(7, 0.0);
  for (std::size_t k = 0; k < fit_count; ++k) {
    std::array<double, 7> x{1.0};
    const auto v = to_array(patterns[k]);
    std::copy(v.begin(), v.end(), x.begin() + 1);
    for (int i = 0; i < 7; ++i) {
      for (int j = 0; j < 7; ++j) normal_eq(i, j) += x[i] * x[j];
      rhs[static_cast<std::size_t>(i)] += x[static_cast<std::size_t>(i)] * drv1[k];
    }
  }
  const std::vector<double> beta = solve_linear_system(normal_eq, rhs);

  DrvSurrogate s;
  s.options_ = options;
  for (int i = 0; i < 6; ++i)
    s.weights_[static_cast<std::size_t>(i)] = beta[static_cast<std::size_t>(i + 1)];

  // Isotonic map over the fit subset: sort by score, PAVA the DRVs.
  std::vector<std::size_t> order(fit_count);
  for (std::size_t k = 0; k < fit_count; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return s.score(patterns[a]) < s.score(patterns[b]);
  });
  std::vector<double> sorted_scores(fit_count), sorted_drvs(fit_count);
  for (std::size_t k = 0; k < fit_count; ++k) {
    sorted_scores[k] = s.score(patterns[order[k]]);
    sorted_drvs[k] = drv1[order[k]];
  }
  const std::vector<double> monotone = pava(sorted_drvs);
  s.knot_scores_ = std::move(sorted_scores);
  s.knot_drvs_ = monotone;

  // Holdout accuracy.
  double sq = 0.0;
  double worst = 0.0;
  for (std::size_t k = fit_count; k < patterns.size(); ++k) {
    const double err = s.predict_drv1(patterns[k]) - drv1[k];
    sq += err * err;
    worst = std::max(worst, std::fabs(err));
  }
  s.rms_error_ = holdout ? std::sqrt(sq / static_cast<double>(holdout)) : 0.0;
  s.max_error_ = worst;
  return s;
}

std::uint64_t DrvSurrogate::fingerprint() const noexcept {
  std::uint64_t fp = fold_key(0x53555247ULL,  // "SURG"
                              static_cast<std::uint64_t>(options_.training_samples));
  fp = fold_key(fp, key_bits(options_.sample_sigma));
  fp = fold_key(fp, key_bits(options_.holdout_fraction));
  fp = fold_key(fp, options_.seed);
  fp = fold_key(fp, static_cast<std::uint64_t>(options_.corner));
  fp = fold_key(fp, key_bits(options_.temp_c));
  for (const double w : weights_) fp = fold_key(fp, key_bits(w));
  fp = fold_key(fp, knot_scores_.size());
  for (const double k : knot_scores_) fp = fold_key(fp, key_bits(k));
  for (const double k : knot_drvs_) fp = fold_key(fp, key_bits(k));
  fp = fold_key(fp, key_bits(rms_error_));
  fp = fold_key(fp, key_bits(max_error_));
  return fp;
}

double DrvSurrogate::score(const CellVariation& variation) const noexcept {
  const auto v = to_array(variation);
  double u = 0.0;
  for (std::size_t i = 0; i < 6; ++i) u += weights_[i] * v[i];
  return u;
}

double DrvSurrogate::map(double score) const {
  if (knot_scores_.empty()) throw Error("DrvSurrogate: not trained");
  return map_knots(knot_scores_.data(), knot_drvs_.data(), knot_scores_.size(),
                   simd::DoubleVec<1>::broadcast(score))
      .extract(0);
}

double DrvSurrogate::predict_drv1(const CellVariation& variation) const {
  return map(score(variation));
}

double DrvSurrogate::predict_drv0(const CellVariation& variation) const {
  return map(score(variation.mirrored()));
}

double DrvSurrogate::predict_drv(const CellVariation& variation) const {
  return std::max(predict_drv1(variation), predict_drv0(variation));
}

void DrvSurrogate::predict_drv_block(const CellVariationLanes& variation,
                                     std::size_t count, double* drv) const {
  if (knot_scores_.empty()) throw Error("DrvSurrogate: not trained");
  using V = simd::Vec;
  constexpr std::size_t kW = V::kWidth;
  const auto predict = [&](const V (&z)[6]) {
    // Scores in score()'s order — 0.0 + w0*v0, then + w1*v1, ..., each
    // product rounded before its add — the mirror reading permuted lanes;
    // then std::max(drv1, drv0) as a blend.
    V u1 = V::zero(), u0 = V::zero();
    for (std::size_t l = 0; l < 6; ++l) {
      const V w = V::broadcast(weights_[l]);
      u1 = u1 + w * z[l];
      u0 = u0 + w * z[kMirrorLane[l]];
    }
    const double* ks = knot_scores_.data();
    const double* ds = knot_drvs_.data();
    const V d1 = map_knots(ks, ds, knot_scores_.size(), u1);
    const V d0 = map_knots(ks, ds, knot_scores_.size(), u0);
    return V::blend(V::cmp_lt(d1, d0), d0, d1);
  };
  std::size_t i = 0;
  for (; i + kW <= count; i += kW) {
    V z[6];
    for (std::size_t l = 0; l < 6; ++l) z[l] = V::load(variation.lane[l] + i);
    predict(z).store(drv + i);
  }
  if (i == count) return;
  // Remainder: zero-padded lanes (lanes are independent).
  V z[6];
  for (std::size_t l = 0; l < 6; ++l) {
    double pad[kW] = {};
    for (std::size_t k = 0; i + k < count; ++k) pad[k] = variation.lane[l][i + k];
    z[l] = V::load(pad);
  }
  double out[kW];
  predict(z).store(out);
  for (std::size_t k = 0; i + k < count; ++k) drv[i + k] = out[k];
}

}  // namespace lpsram
