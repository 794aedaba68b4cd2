// Unit tests for the write/erase path: program-and-verify cost model and
// half-voltage write-inhibit integrity (Ni EDL'18 disturb scenario).
#include <gtest/gtest.h>

#include "circuit/write.hpp"

namespace ferex::circuit {
namespace {

TEST(WriteDriver, ProgramRowReportsPositiveCost) {
  const WriteDriver driver;
  const std::vector<double> targets{0.5, 1.0, 1.5};
  const auto cost = driver.program_row(targets);
  EXPECT_GT(cost.pulses, 0u);
  EXPECT_GT(cost.latency_s, 0.0);
  EXPECT_GT(cost.energy_j, 0.0);
}

TEST(WriteDriver, TighterToleranceCostsMorePulses) {
  WriteDriverParams loose, tight;
  loose.vth_tolerance_v = 50e-3;
  tight.vth_tolerance_v = 1e-3;
  const std::vector<double> targets{0.7, 1.1, 1.4, 0.9};
  const auto loose_cost = WriteDriver(loose).program_row(targets);
  const auto tight_cost = WriteDriver(tight).program_row(targets);
  EXPECT_LE(loose_cost.pulses, tight_cost.pulses);
}

TEST(WriteDriver, ArrayProgrammingScalesWithRows) {
  const WriteDriver driver;
  const std::vector<double> targets{0.6, 1.2};
  const auto one = driver.program_array(1, targets);
  const auto many = driver.program_array(16, targets);
  EXPECT_NEAR(many.latency_s / one.latency_s, 16.0, 0.01);
  EXPECT_NEAR(many.energy_j / one.energy_j, 16.0, 0.01);
}

TEST(WriteDriver, HalfVoltageInhibitIsDisturbFree) {
  // The core integrity claim of the write scheme (Sec. III-A): millions
  // of half-voltage exposures must not move a victim's Vth, because
  // Vwrite/2 is below the coercive voltage.
  const WriteDriver driver;
  const auto report = driver.disturb_after(1'000'000);
  EXPECT_DOUBLE_EQ(report.max_vth_drift_v, 0.0);
  EXPECT_TRUE(report.disturb_free);
  EXPECT_LT(report.inhibit_voltage_v,
            driver.params().device.coercive_v);
}

TEST(WriteDriver, FullVoltageWouldDisturb) {
  // Sanity inverse: if the inhibit voltage exceeded the coercive voltage
  // the scheme would fail — verify the model can express that failure.
  WriteDriverParams params;
  params.device.coercive_v = params.device.write_v / 2.0 - 0.1;
  const WriteDriver driver(params);
  const auto report = driver.disturb_after(100);
  EXPECT_GT(report.max_vth_drift_v, 0.0);
  EXPECT_FALSE(report.disturb_free);
}

}  // namespace
}  // namespace ferex::circuit
