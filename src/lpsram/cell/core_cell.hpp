// 6T SRAM core-cell electrical model (paper Fig. 3).
//
// Node/transistor naming follows the paper exactly:
//   MPcc1/MNcc1 : inverter driving node S   (input = node SB)
//   MPcc2/MNcc2 : inverter driving node SB  (input = node S)
//   MNcc3       : pass transistor  S  <-> BL   (gate = WL)
//   MNcc4       : pass transistor  SB <-> BLB  (gate = WL)
//
// In deep-sleep (hold) analysis, WL = BL = BLB = 0 V and the cell supply is
// VDD_CC = Vreg, exactly the paper's SNM_DS measurement condition. The pass
// transistors then act as weak leakage paths pulling both internal nodes
// toward ground — which is why the paper finds their Vth variation matters
// even though they are nominally off.
#pragma once

#include <array>
#include <string>

#include "lpsram/device/technology.hpp"

namespace lpsram {

// The six transistors of the cell, in the paper's Table I column order.
enum class CellTransistor { MPcc1, MNcc1, MPcc2, MNcc2, MNcc3, MNcc4 };

inline constexpr std::array<CellTransistor, 6> kAllCellTransistors = {
    CellTransistor::MPcc1, CellTransistor::MNcc1, CellTransistor::MPcc2,
    CellTransistor::MNcc2, CellTransistor::MNcc3, CellTransistor::MNcc4};

std::string cell_transistor_name(CellTransistor t);

// Per-transistor threshold shifts in sigma units (paper Table I convention:
// positive sigma = larger threshold magnitude = weaker device).
struct CellVariation {
  double mpcc1 = 0.0;
  double mncc1 = 0.0;
  double mpcc2 = 0.0;
  double mncc2 = 0.0;
  double mncc3 = 0.0;
  double mncc4 = 0.0;

  double get(CellTransistor t) const noexcept;
  void set(CellTransistor t, double n_sigma) noexcept;

  // The left/right-mirrored pattern: swaps inverter 1 <-> 2 and pass 3 <-> 4.
  // Table I's CSx-0 rows are exactly the mirrors of the CSx-1 rows.
  CellVariation mirrored() const noexcept;

  bool is_symmetric() const noexcept;
};

// Structure-of-arrays variation fields of a run of cells — the layout the
// yield sampler writes and the surrogate's block predictor reads: lane[l][i]
// is transistor kAllCellTransistors[l] of cell i (sigma units).
struct CellVariationLanes {
  std::array<double*, 6> lane{};

  // Lanes over caller storage of 6 * cells doubles, lane-major.
  static CellVariationLanes over(double* storage, std::size_t cells) noexcept {
    CellVariationLanes v;
    for (std::size_t l = 0; l < v.lane.size(); ++l) v.lane[l] = storage + l * cells;
    return v;
  }
  CellVariation cell(std::size_t i) const noexcept {
    return {lane[0][i], lane[1][i], lane[2][i], lane[3][i], lane[4][i], lane[5][i]};
  }
};

// Stored logic value.
enum class StoredBit : int { Zero = 0, One = 1 };

// A fully-instantiated core cell: technology devices + variation + corner.
class CoreCell {
 public:
  explicit CoreCell(const Technology& tech, const CellVariation& variation = {},
                    Corner corner = Corner::Typical);

  const Mosfet& transistor(CellTransistor t) const noexcept;
  const CellVariation& variation() const noexcept { return variation_; }
  Corner corner() const noexcept { return corner_; }

  // External bias on word line and bit lines. Hold mode (deep-sleep) is
  // all-zero; read mode drives WL = VDD with both bit lines precharged to
  // VDD; a write drives one bit line low.
  struct Bias {
    double wl = 0.0;
    double bl = 0.0;
    double blb = 0.0;
  };
  static Bias hold_bias() noexcept { return {0.0, 0.0, 0.0}; }
  static Bias read_bias(double vdd) noexcept { return {vdd, vdd, vdd}; }
  // Write '0' into node S: BL pulled low, BLB held high.
  static Bias write_zero_bias(double vdd, double v_bl = 0.0) noexcept {
    return {vdd, v_bl, vdd};
  }

  // Total current *leaving* node S at the given node voltages, supply and
  // external bias. Monotone increasing in v_s, which the VTC solver relies
  // on.
  double residual_s(double v_s, double v_sb, double vdd_cc, const Bias& bias,
                    double temp_c) const noexcept;
  // Same for node SB.
  double residual_sb(double v_sb, double v_s, double vdd_cc, const Bias& bias,
                     double temp_c) const noexcept;

  // Hold-mode shorthands (WL = BL = 0), used throughout the DS analyses.
  double hold_residual_s(double v_s, double v_sb, double vdd_cc,
                         double temp_c) const noexcept;
  double hold_residual_sb(double v_sb, double v_s, double vdd_cc,
                          double temp_c) const noexcept;

  // Current drawn from the VDD_CC supply in hold mode at the given internal
  // node voltages (sum of both pull-up source currents) [A].
  double supply_current(double v_s, double v_sb, double vdd_cc,
                        double temp_c) const noexcept;

 private:
  std::array<Mosfet, 6> fets_;
  CellVariation variation_;
  Corner corner_ = Corner::Typical;
};

}  // namespace lpsram
