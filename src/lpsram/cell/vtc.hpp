// Hold-mode voltage transfer curves of the cell's cross-coupled inverters,
// including the off pass-transistor leakage paths (paper Section III.A: SNM
// in DS mode is measured with WL and BL pairs at 0 V).
#pragma once

#include <utility>
#include <vector>

#include "lpsram/cell/core_cell.hpp"

namespace lpsram {

class HoldVtc {
 public:
  explicit HoldVtc(const CoreCell& cell) : cell_(&cell) {}

  // Output voltage of the inverter driving node S (MPcc1/MNcc1 + MNcc3
  // leakage) for input v_sb, at supply vdd_cc.
  double inverter_s(double v_sb, double vdd_cc, double temp_c) const;

  // Output voltage of the inverter driving node SB (MPcc2/MNcc2 + MNcc4
  // leakage) for input v_s.
  double inverter_sb(double v_s, double vdd_cc, double temp_c) const;

  // Samples the full VTC of the S-driving inverter on `points` equally spaced
  // inputs in [0, vdd_cc]; returns (input, output) pairs — the butterfly-plot
  // raw data. Throws InvalidArgument when points < 2.
  std::vector<std::pair<double, double>> curve_s(double vdd_cc, double temp_c,
                                                 int points = 101) const;
  std::vector<std::pair<double, double>> curve_sb(double vdd_cc, double temp_c,
                                                  int points = 101) const;

  const CoreCell& cell() const noexcept { return *cell_; }

 private:
  const CoreCell* cell_;
};

}  // namespace lpsram
