// Fast surrogate for the cell DRV response.
//
// The exact DRV of a variation pattern costs a bisection over supply with a
// butterfly stability check at every step (~ms). Monte-Carlo analysis of a
// 256K-cell array needs ~10^7 DRV evaluations per experiment — so we train
// a surrogate once against the exact model:
//
//   1. draw random variation vectors, evaluate the exact DRV_DS1;
//   2. fit a linear "asymmetry score" u = c . v by least squares — the
//     paper's Fig. 4 observations say exactly which sign each component
//     takes (adverse directions increase DRV);
//   3. fit a monotone 1-D map m(u) -> DRV by isotonic regression (pool
//     adjacent violators) over the training scores;
//   4. predict: DRV_DS1 = m(c . v), DRV_DS0 = m(c . mirror(v)) — the mirror
//     symmetry of the cell is exact, so one map serves both polarities.
//
// Accuracy is reported on a holdout set and asserted in tests.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "lpsram/cell/drv.hpp"

namespace lpsram {

struct DrvSurrogateOptions {
  int training_samples = 240;   // exact-model evaluations for the fit
  double sample_sigma = 2.5;    // stddev of training variation vectors
  double holdout_fraction = 0.25;
  std::uint64_t seed = 0xD5u;
  Corner corner = Corner::Typical;
  double temp_c = 25.0;
};

class DrvSurrogate {
 public:
  // Trains against the exact cell model (seconds).
  static DrvSurrogate train(const Technology& tech,
                            const DrvSurrogateOptions& options = {});

  // Linear asymmetry score of a pattern (positive = '1' retention degraded).
  double score(const CellVariation& variation) const noexcept;

  // Predicted DRV components [V].
  double predict_drv1(const CellVariation& variation) const;
  double predict_drv0(const CellVariation& variation) const;
  double predict_drv(const CellVariation& variation) const;
  // predict_drv over `count` cells of an SoA field: drv[i] equals
  // predict_drv(variation.cell(i)) bit for bit.
  void predict_drv_block(const CellVariationLanes& variation, std::size_t count,
                         double* drv) const;

  // Fitted direction, in kAllCellTransistors order.
  const std::array<double, 6>& weights() const noexcept { return weights_; }

  // Holdout RMS error of predict_drv1 [V].
  double rms_error() const noexcept { return rms_error_; }
  // Holdout worst absolute error [V].
  double max_error() const noexcept { return max_error_; }

  const DrvSurrogateOptions& options() const noexcept { return options_; }

  // Stable fingerprint of the trained model (options, fitted weights, knot
  // tables, holdout errors — raw IEEE-754 bits throughout). The yield engine
  // folds this into its campaign manifest so a resumed or fleet-sharded run
  // refuses to mix estimates produced by differently trained surrogates.
  std::uint64_t fingerprint() const noexcept;

 private:
  DrvSurrogate() = default;
  // Monotone score -> DRV. The knot search has no data-dependent branches
  // and lands on std::upper_bound's index.
  double map(double score) const;

  DrvSurrogateOptions options_;
  std::array<double, 6> weights_{};
  // Monotone piecewise-linear map: knots sorted by score.
  std::vector<double> knot_scores_;
  std::vector<double> knot_drvs_;
  double rms_error_ = 0.0;
  double max_error_ = 0.0;
};

}  // namespace lpsram
