// Tests for the 6T core-cell analyses: VTCs, hold SNM, DRV and the flip-time
// model — the Section III physics of the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "lpsram/cell/drv.hpp"
#include "lpsram/cell/flip_time.hpp"
#include "lpsram/cell/margins.hpp"
#include "lpsram/cell/snm.hpp"
#include "lpsram/cell/vtc.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// ---------- CellVariation ----------------------------------------------------

TEST(CellVariation, GetSetRoundTrip) {
  CellVariation v;
  for (const CellTransistor t : kAllCellTransistors) {
    v.set(t, 2.5);
    EXPECT_DOUBLE_EQ(v.get(t), 2.5);
  }
}

TEST(CellVariation, MirrorSwapsInverters) {
  CellVariation v;
  v.mpcc1 = -6;
  v.mncc1 = -5;
  v.mncc3 = -4;
  const CellVariation m = v.mirrored();
  EXPECT_DOUBLE_EQ(m.mpcc2, -6);
  EXPECT_DOUBLE_EQ(m.mncc2, -5);
  EXPECT_DOUBLE_EQ(m.mncc4, -4);
  EXPECT_DOUBLE_EQ(m.mpcc1, 0);
  // Mirroring twice is the identity.
  const CellVariation mm = m.mirrored();
  EXPECT_DOUBLE_EQ(mm.mpcc1, v.mpcc1);
  EXPECT_DOUBLE_EQ(mm.mncc3, v.mncc3);
}

TEST(CellVariation, SymmetryPredicate) {
  CellVariation v;
  EXPECT_TRUE(v.is_symmetric());
  v.mncc4 = 0.1;
  EXPECT_FALSE(v.is_symmetric());
}

TEST(CellVariation, NamesMatchPaper) {
  EXPECT_EQ(cell_transistor_name(CellTransistor::MPcc1), "MPcc1");
  EXPECT_EQ(cell_transistor_name(CellTransistor::MNcc4), "MNcc4");
}

// ---------- VTC ----------------------------------------------------------

TEST(HoldVtc, InverterRailsAndMonotonicity) {
  const CoreCell cell(tech());
  const HoldVtc vtc(cell);
  const double vdd = 1.1;
  const double out_low_in = vtc.inverter_s(vdd, vdd, 25.0);
  const double out_high_in = vtc.inverter_s(0.0, vdd, 25.0);
  EXPECT_LT(out_low_in, 0.05);         // input high -> output low
  EXPECT_GT(out_high_in, vdd - 0.05);  // input low -> output high

  double prev = out_high_in;
  for (double x = 0.1; x <= vdd; x += 0.1) {
    const double y = vtc.inverter_s(x, vdd, 25.0);
    EXPECT_LE(y, prev + 1e-9);  // monotone decreasing
    prev = y;
  }
}

TEST(HoldVtc, SymmetricCellCurvesMatch) {
  const CoreCell cell(tech());
  const HoldVtc vtc(cell);
  for (double x : {0.1, 0.3, 0.55, 0.8}) {
    EXPECT_NEAR(vtc.inverter_s(x, 1.1, 25.0), vtc.inverter_sb(x, 1.1, 25.0),
                1e-9);
  }
}

TEST(HoldVtc, CurveSampling) {
  const CoreCell cell(tech());
  const HoldVtc vtc(cell);
  const auto curve = vtc.curve_s(1.1, 25.0, 21);
  ASSERT_EQ(curve.size(), 21u);
  EXPECT_DOUBLE_EQ(curve.front().first, 0.0);
  EXPECT_NEAR(curve.back().first, 1.1, 1e-12);
  // Butterfly raw data: output spans nearly the full rail.
  EXPECT_GT(curve.front().second - curve.back().second, 0.9);
}

TEST(HoldVtc, PassGateLeakageLowersOutputHigh) {
  // Strengthening the pass transistor (negative sigma) increases leakage to
  // BL = 0 and drags the high output down.
  CellVariation strong_pass;
  strong_pass.mncc3 = -6;
  const CoreCell nominal(tech());
  const CoreCell leaky(tech(), strong_pass);
  const double v_nom = HoldVtc(nominal).inverter_s(0.0, 0.3, 25.0);
  const double v_leak = HoldVtc(leaky).inverter_s(0.0, 0.3, 25.0);
  EXPECT_LT(v_leak, v_nom);
}

// ---------- hold equilibrium / SNM ----------------------------------------------

TEST(HoldSnm, EquilibriumMatchesStoredState) {
  const CoreCell cell(tech());
  const HoldState one = hold_equilibrium(cell, StoredBit::One, 1.1, 25.0);
  EXPECT_TRUE(one.stable);
  EXPECT_GT(one.v_s, 1.0);
  EXPECT_LT(one.v_sb, 0.1);
  const HoldState zero = hold_equilibrium(cell, StoredBit::Zero, 1.1, 25.0);
  EXPECT_TRUE(zero.stable);
  EXPECT_LT(zero.v_s, 0.1);
  EXPECT_GT(zero.v_sb, 1.0);
}

TEST(HoldSnm, SymmetricCellHasEqualMargins) {
  const CoreCell cell(tech());
  const SnmPair snm = hold_snm_pair(cell, 1.1, 25.0);
  EXPECT_NEAR(snm.snm1, snm.snm0, 1e-3);
  // A healthy 6T hold SNM at nominal supply is a large fraction of VDD/2.
  EXPECT_GT(snm.snm1, 0.25);
  EXPECT_LT(snm.snm1, 0.55);
}

TEST(HoldSnm, SnmShrinksWithSupply) {
  const CoreCell cell(tech());
  double prev = 1e9;
  for (double vdd : {1.1, 0.8, 0.5, 0.3, 0.2}) {
    const double snm = hold_snm(cell, StoredBit::One, vdd, 25.0);
    EXPECT_LT(snm, prev);
    prev = snm;
  }
}

TEST(HoldSnm, SnmZeroBelowDrv) {
  const CoreCell cell(tech());
  const double drv = drv_hold(cell, StoredBit::One, 25.0);
  EXPECT_DOUBLE_EQ(hold_snm(cell, StoredBit::One, drv * 0.8, 25.0), 0.0);
  EXPECT_GT(hold_snm(cell, StoredBit::One, drv * 1.5, 25.0), 0.0);
}

TEST(HoldSnm, AdverseVariationDegradesSnm1) {
  CellVariation adverse;  // weaken the '1'-driving inverter
  adverse.mpcc1 = -3;
  adverse.mncc1 = -3;
  const CoreCell nominal(tech());
  const CoreCell weak(tech(), adverse);
  const double vdd = 0.8;
  EXPECT_LT(hold_snm(weak, StoredBit::One, vdd, 25.0),
            hold_snm(nominal, StoredBit::One, vdd, 25.0));
  // The same pattern *helps* '0' retention.
  EXPECT_GE(hold_snm(weak, StoredBit::Zero, vdd, 25.0),
            hold_snm(nominal, StoredBit::Zero, vdd, 25.0));
}

// ---------- DRV ----------------------------------------------------------

TEST(Drv, SymmetricCellFloorBand) {
  // The fundamental retention floor: on the order of 100 mV (the paper's
  // process reports ~60 mV; same order).
  const CoreCell cell(tech());
  const DrvResult r = drv_ds(cell, 25.0);
  EXPECT_GT(r.drv(), 0.04);
  EXPECT_LT(r.drv(), 0.20);
  EXPECT_NEAR(r.drv1, r.drv0, 2e-3);  // symmetric
}

TEST(Drv, HoldsAboveFailsBelow) {
  const CoreCell cell(tech());
  const double drv = drv_hold(cell, StoredBit::One, 25.0);
  EXPECT_TRUE(holds_state(cell, StoredBit::One, drv * 1.1, 25.0));
  EXPECT_FALSE(holds_state(cell, StoredBit::One, drv * 0.9, 25.0));
}

TEST(Drv, MirroredVariationSwapsComponents) {
  CellVariation v;
  v.mpcc1 = -3;
  v.mncc1 = -3;
  const CoreCell cell(tech(), v);
  const CoreCell mirrored(tech(), v.mirrored());
  const DrvResult a = drv_ds(cell, 25.0);
  const DrvResult b = drv_ds(mirrored, 25.0);
  EXPECT_NEAR(a.drv1, b.drv0, 2e-3);
  EXPECT_NEAR(a.drv0, b.drv1, 2e-3);
  EXPECT_NEAR(a.drv(), b.drv(), 2e-3);
}

// The paper's Fig. 4 observations 1/2: each transistor's adverse variation
// direction raises DRV_DS1, the opposite direction does not.
struct AdverseCase {
  AdverseCase(CellTransistor t, double s) : transistor(t), sigma(s) {}
  CellTransistor transistor;
  // gtest prints this parameter as a byte dump that becomes the ctest name;
  // the explicit zero field leaves no uninitialized padding in that name.
  std::int32_t zero = 0;
  double sigma;  // adverse direction for DRV_DS1
};
static_assert(sizeof(AdverseCase) == 16, "AdverseCase must have no padding");

class AdverseDirectionTest : public ::testing::TestWithParam<AdverseCase> {};

TEST_P(AdverseDirectionTest, RaisesDrv1) {
  const AdverseCase c = GetParam();
  CellVariation v;
  v.set(c.transistor, c.sigma);
  const CoreCell nominal(tech());
  const CoreCell affected(tech(), v);
  const double base = drv_hold(nominal, StoredBit::One, 25.0);
  const double raised = drv_hold(affected, StoredBit::One, 25.0);
  EXPECT_GT(raised, base + 0.005);

  // The opposite direction must not raise DRV_DS1.
  CellVariation opposite;
  opposite.set(c.transistor, -c.sigma);
  const CoreCell helped(tech(), opposite);
  EXPECT_LE(drv_hold(helped, StoredBit::One, 25.0), base + 0.002);
}

INSTANTIATE_TEST_SUITE_P(
    PaperObservation1, AdverseDirectionTest,
    ::testing::Values(AdverseCase{CellTransistor::MPcc1, -4.0},
                      AdverseCase{CellTransistor::MNcc1, -4.0},
                      AdverseCase{CellTransistor::MPcc2, +4.0},
                      AdverseCase{CellTransistor::MNcc2, +4.0},
                      AdverseCase{CellTransistor::MNcc3, -4.0}));

TEST(Drv, PassGateImpactSecondOrder) {
  // Fig. 4: pass-gate variation matters less than inverter variation but is
  // not negligible.
  CellVariation pass, inverter;
  pass.mncc3 = -6;
  inverter.mpcc1 = -6;
  const double base = drv_hold(CoreCell(tech()), StoredBit::One, 25.0);
  const double d_pass =
      drv_hold(CoreCell(tech(), pass), StoredBit::One, 25.0) - base;
  const double d_inv =
      drv_hold(CoreCell(tech(), inverter), StoredBit::One, 25.0) - base;
  EXPECT_GT(d_pass, 0.01);   // not negligible
  EXPECT_LT(d_pass, d_inv);  // but smaller than the inverter's impact
}

TEST(Drv, MonotoneInVariationMagnitude) {
  double prev = 0.0;
  for (const double sigma : {0.0, 1.5, 3.0, 4.5, 6.0}) {
    CellVariation v;
    v.mpcc1 = -sigma;
    v.mncc1 = -sigma;
    const double drv = drv_hold(CoreCell(tech(), v), StoredBit::One, 25.0);
    EXPECT_GE(drv, prev);
    prev = drv;
  }
}

TEST(Drv, WorstPvtIsMaxOverGrid) {
  CellVariation v;
  v.mpcc1 = -3;
  v.mncc1 = -3;
  const PvtDrvResult worst = drv_ds_worst(tech(), v);
  // The reported value must be achieved at the reported argmax conditions.
  const CoreCell cell(tech(), v, worst.corner1);
  EXPECT_NEAR(drv_hold(cell, StoredBit::One, worst.temp1), worst.drv.drv1,
              2e-3);
  // And be >= the typical/25C value.
  const CoreCell tt(tech(), v, Corner::Typical);
  EXPECT_GE(worst.drv.drv1, drv_hold(tt, StoredBit::One, 25.0) - 1e-3);
}

TEST(Drv, UnretainableSentinel) {
  // An absurdly weakened cell cannot hold '1' at any supply.
  CellVariation dead;
  dead.mpcc1 = -20;
  dead.mncc1 = -20;
  const CoreCell cell(tech(), dead);
  const DrvOptions opts;
  const double drv = drv_hold(cell, StoredBit::One, 25.0, opts);
  EXPECT_GE(drv, drv_unretainable(opts.vdd_max));
}

// ---------- active-mode margins ----------------------------------------------------

TEST(Margins, ReadSnmSmallerThanHoldSnm) {
  const CoreCell cell(tech());
  const double hold = hold_snm(cell, StoredBit::One, 1.1, 25.0);
  const double read = read_snm(cell, StoredBit::One, 1.1, 25.0);
  EXPECT_GT(read, 0.05);   // still a working cell
  EXPECT_LT(read, hold);   // the access transistor costs margin
}

TEST(Margins, CellReadableAndWritableAtNominal) {
  const CoreCell cell(tech());
  EXPECT_TRUE(read_stable(cell, StoredBit::One, 1.1, 25.0));
  EXPECT_TRUE(read_stable(cell, StoredBit::Zero, 1.1, 25.0));
  EXPECT_TRUE(writable(cell, 1.1, 25.0));
  const double trip = write_trip_voltage(cell, 1.1, 25.0);
  EXPECT_GT(trip, 0.05);
  EXPECT_LT(trip, 1.1);
}

TEST(Margins, StrongerPassHurtsReadHelpsWrite) {
  CellVariation strong_pass;
  strong_pass.mncc3 = -4;
  strong_pass.mncc4 = -4;
  const CoreCell nominal(tech());
  const CoreCell strong(tech(), strong_pass);
  EXPECT_LT(read_snm(strong, StoredBit::One, 1.1, 25.0),
            read_snm(nominal, StoredBit::One, 1.1, 25.0));
  EXPECT_GE(write_trip_voltage(strong, 1.1, 25.0),
            write_trip_voltage(nominal, 1.1, 25.0));
}

TEST(Margins, WeakerPullupEasesWriting) {
  CellVariation weak_pu;
  weak_pu.mpcc1 = -4;  // weaker PU holding the '1' being overwritten
  const CoreCell nominal(tech());
  const CoreCell weak(tech(), weak_pu);
  EXPECT_GE(write_trip_voltage(weak, 1.1, 25.0),
            write_trip_voltage(nominal, 1.1, 25.0));
}

TEST(Margins, SymmetricCellReadMarginsEqual) {
  const CoreCell cell(tech());
  EXPECT_NEAR(read_snm(cell, StoredBit::One, 1.1, 25.0),
              read_snm(cell, StoredBit::Zero, 1.1, 25.0), 2e-3);
}

// ---------- flip-time model ----------------------------------------------------

TEST(FlipTime, InfiniteAboveDrv) {
  const FlipTimeModel model;
  EXPECT_TRUE(std::isinf(model.time_to_flip(0.75, 0.73, 25.0)));
  EXPECT_TRUE(model.retains_constant(0.75, 0.73, 1.0, 25.0));
}

TEST(FlipTime, FasterWhenDeeperBelowDrv) {
  const FlipTimeModel model;
  const double shallow = model.time_to_flip(0.70, 0.73, 25.0);
  const double deep = model.time_to_flip(0.40, 0.73, 25.0);
  EXPECT_LT(deep, shallow);
}

TEST(FlipTime, FasterWhenHot) {
  const FlipTimeModel model;
  EXPECT_LT(model.time_to_flip(0.6, 0.73, 125.0),
            model.time_to_flip(0.6, 0.73, 25.0));
  EXPECT_GT(model.time_to_flip(0.6, 0.73, -30.0),
            model.time_to_flip(0.6, 0.73, 25.0));
}

TEST(FlipTime, DsTimeRequirement) {
  // The paper's point behind the 1 ms DS dwell: a shallow deficit needs time.
  const FlipTimeModel model;
  const double drv = 0.73;
  const double v = drv - 0.02;  // 20 mV below DRV
  EXPECT_TRUE(model.retains_constant(v, drv, 100e-6, 25.0));  // 0.1 ms: survives
  EXPECT_FALSE(model.retains_constant(v, drv, 10e-3, 25.0));  // 10 ms: flips
}

TEST(FlipTime, WaveformDecision) {
  const FlipTimeModel model;
  Waveform w;
  w.time = {0.0, 0.5e-3, 1e-3};
  w.values = {{0.70, 0.70, 0.70}};
  // 30 mV deficit for 1 ms >> threshold at 25C.
  EXPECT_FALSE(model.retains_waveform(w, 0, 0.73, 25.0));
  // Above DRV: retained.
  EXPECT_TRUE(model.retains_waveform(w, 0, 0.60, 25.0));
}

}  // namespace
}  // namespace lpsram
