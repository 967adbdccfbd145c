#include "lpsram/stats/array_stats.hpp"

#include <algorithm>
#include <cmath>

#include "lpsram/stats/yield/counter_rng.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {
constexpr double kEulerGamma = 0.5772156649015329;
}

double ArrayDrvDistribution::percentile(double p) const {
  if (samples.empty()) throw Error("ArrayDrvDistribution: empty");
  if (p <= 0.0) return samples.front();
  if (p >= 1.0) return samples.back();
  const double idx = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const double f = idx - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] + f * (samples[lo + 1] - samples[lo]);
}

double ArrayDrvDistribution::gumbel_quantile(double p) const {
  if (p <= 0.0 || p >= 1.0)
    throw InvalidArgument("gumbel_quantile: p must be in (0,1)");
  return gumbel_mu - gumbel_beta * std::log(-std::log(p));
}

double ArrayDrvDistribution::yield_at(double vreg) const {
  if (samples.empty()) throw Error("ArrayDrvDistribution: empty");
  const auto it = std::upper_bound(samples.begin(), samples.end(), vreg);
  return static_cast<double>(it - samples.begin()) /
         static_cast<double>(samples.size());
}

ArrayDrvDistribution fit_array_drv_distribution(std::vector<double> maxima) {
  if (maxima.empty())
    throw InvalidArgument("fit_array_drv_distribution: no samples");

  ArrayDrvDistribution dist;
  dist.samples = std::move(maxima);
  std::sort(dist.samples.begin(), dist.samples.end());

  double sum = 0.0;
  for (const double s : dist.samples) sum += s;
  dist.mean = sum / static_cast<double>(dist.samples.size());
  double sq = 0.0;
  for (const double s : dist.samples) sq += (s - dist.mean) * (s - dist.mean);
  dist.stddev = dist.samples.size() > 1
                    ? std::sqrt(sq / static_cast<double>(dist.samples.size() - 1))
                    : 0.0;
  dist.gumbel_beta = dist.stddev * std::sqrt(6.0) / M_PI;
  dist.gumbel_mu = dist.mean - kEulerGamma * dist.gumbel_beta;
  return dist;
}

ArrayDrvDistribution simulate_array_drv(const DrvSurrogate& surrogate,
                                        const ArrayDrvOptions& options) {
  if (options.trials < 1)
    throw InvalidArgument("simulate_array_drv: trials must be >= 1");

  std::vector<double> maxima;
  maxima.reserve(static_cast<std::size_t>(options.trials));

  // Chunks through the block sampler and the block surrogate (bit-identical
  // to sample_cell_variation + predict_drv per cell).
  constexpr std::size_t kChunk = kSampleChunkCells;
  std::vector<double> z_store(6 * kChunk), drv(kChunk);
  const CellVariationLanes z = CellVariationLanes::over(z_store.data(), kChunk);
  for (int trial = 0; trial < options.trials; ++trial) {
    double worst_drv = 0.0;
    for (std::size_t c0 = 0; c0 < options.cells; c0 += kChunk) {
      const std::size_t n = std::min(kChunk, options.cells - c0);
      sample_cell_variation_block(options.seed, static_cast<std::uint64_t>(trial),
                                  c0, n, z);
      surrogate.predict_drv_block(z, n, drv.data());
      for (std::size_t i = 0; i < n; ++i) worst_drv = std::max(worst_drv, drv[i]);
    }
    maxima.push_back(worst_drv);
  }
  return fit_array_drv_distribution(std::move(maxima));
}

}  // namespace lpsram
