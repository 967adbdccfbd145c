// The benchmark's own arithmetic: order statistics of timing samples and the
// executor figures derived from task spans. Self-tested by `--selftest`
// (run at the start of every benchmark run); report.py self-tests its
// quartile spreads the same way.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct TailPercentile {
  double percentile = 0.0;  // e.g. 99 for p99
  double value = 0.0;       // nearest-rank sample at that percentile
};

// The highest percentile of the ladder p50, p90, p99, p99.9, ... that still
// has at least ten samples beyond it; nullopt below 20 samples, where even
// the median has fewer than ten above it.
inline std::optional<TailPercentile> tail_percentile(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 20) return std::nullopt;
  std::sort(v.begin(), v.end());
  // "beyond" = samples strictly ranked above the nearest-rank index.
  const auto rank_of = [n](double p) {
    const double exact = p / 100.0 * static_cast<double>(n);
    std::size_t rank = static_cast<std::size_t>(exact);
    if (static_cast<double>(rank) < exact) ++rank;  // ceil
    return std::max<std::size_t>(rank, 1);
  };
  double best = 50.0;
  for (double tail = 10.0; tail > 1e-9; tail /= 10.0) {
    const double p = 100.0 - tail;
    if (n - rank_of(p) < 10) break;
    best = p;
  }
  return TailPercentile{best, v[rank_of(best) - 1]};
}

// Worker-seconds the executor had and did not spend in tasks.
inline double idle_seconds(int threads, double wall_s, double busy_s) {
  return static_cast<double>(threads) * wall_s - busy_s;
}

// Summed task time at N threads over summed task time of the same tasks at
// one thread: 1 when tasks do not slow each other down.
inline double inflation(double busy_n_s, double busy_1_s) {
  if (!(busy_1_s > 0.0)) throw std::invalid_argument("inflation: no 1-thread time");
  return busy_n_s / busy_1_s;
}

// Returns the number of failed self-checks (each printed to stderr).
int selftest();

}  // namespace perfbench
