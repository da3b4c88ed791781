#include "measure/active_measurer.hpp"

#include <gtest/gtest.h>

#include "measure/app_workloads.hpp"
#include "model/distributions.hpp"

namespace am::measure {
namespace {

using model::AccessDistribution;
using sim::MachineConfig;

constexpr std::uint32_t kScale = 32;

MachineConfig machine() { return MachineConfig::xeon20mb_scaled(kScale); }

interfere::CSThrConfig cs_cfg() {
  interfere::CSThrConfig c;
  c.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  return c;
}

interfere::BWThrConfig bw_cfg() {
  interfere::BWThrConfig c;
  c.buffer_bytes = 520ull * 1024 / kScale;
  return c;
}

/// Synthetic calibration tables (shape of the paper's §III results) so the
/// unit tests don't re-run the expensive calibration.
CapacityCalibration fake_capacity() {
  CapacityCalibration c;
  const double mb = machine().l3.size_bytes / 20.0;  // "scaled MB"
  c.available_bytes = {20 * mb, 15 * mb, 12 * mb, 7 * mb, 5 * mb, 2.5 * mb};
  c.stddev_bytes.assign(6, 0.0);
  return c;
}

BandwidthCalibration fake_bandwidth() {
  BandwidthCalibration b;
  b.peak_bytes_per_sec = 17e9;
  b.used_bytes_per_sec = {0.0, 2.8e9, 5.6e9};
  return b;
}

TEST(SweepResult, CurveAndSlowdown) {
  SweepResult s;
  s.resource = Resource::kCacheStorage;
  s.points = {{0, 1.0, 20e6}, {1, 1.02, 15e6}, {2, 1.5, 12e6}};
  EXPECT_DOUBLE_EQ(s.slowdown(2), 1.5);
  const auto curve = s.curve();
  EXPECT_NEAR(curve.predict_slowdown(12e6), 1.5 / 1.0, 1e-9);
}

TEST(Bounds, CapacityBoundsFollowPaperRecipe) {
  SweepResult s;
  s.resource = Resource::kCacheStorage;
  // Degradation starts at the 3rd level (7 "MB" available).
  s.points = {{0, 10.0, 20e6}, {1, 10.1, 15e6}, {2, 10.3, 12e6},
              {3, 11.5, 7e6},  {4, 13.0, 5e6},  {5, 14.0, 2.5e6}};
  const auto b = ActiveMeasurer::bounds(s, /*processes_per_socket=*/2, 0.05);
  EXPECT_TRUE(b.degraded_at_any_level);
  // Last non-degraded: 12e6 -> upper 6e6/process; first degraded: 7e6 ->
  // lower 3.5e6/process.
  EXPECT_DOUBLE_EQ(b.upper, 6e6);
  EXPECT_DOUBLE_EQ(b.lower, 3.5e6);
}

TEST(Bounds, NeverDegradedGivesUpperOnly) {
  SweepResult s;
  s.points = {{0, 10.0, 20e6}, {1, 10.1, 15e6}, {2, 10.2, 12e6}};
  const auto b = ActiveMeasurer::bounds(s, 1, 0.05);
  EXPECT_TRUE(b.fits_at_all_levels);
  EXPECT_DOUBLE_EQ(b.upper, 12e6);
  EXPECT_DOUBLE_EQ(b.lower, 0.0);
}

TEST(Bounds, RejectsDegenerateInput) {
  SweepResult empty;
  EXPECT_THROW(ActiveMeasurer::bounds(empty, 1), std::invalid_argument);
  SweepResult one;
  one.points = {{0, 1.0, 1.0}};
  EXPECT_THROW(ActiveMeasurer::bounds(one, 0), std::invalid_argument);
}

TEST(ActiveMeasurer, CapacitySweepDetectsCapacityBoundWorkload) {
  SimBackend backend(machine());
  ActiveMeasurer measurer(backend, fake_capacity(), fake_bandwidth());
  // Buffer ~1.2x L3: capacity-hungry, bandwidth-light.
  const auto elements =
      static_cast<std::uint64_t>(1.2 * machine().l3.size_bytes / 4);
  const auto factory = make_synthetic_workload(apps::SyntheticConfig{
      AccessDistribution::uniform(elements, "Uni"), 4, 1, elements * 2,
      150'000});
  const auto sweep =
      measurer.sweep(factory, Resource::kCacheStorage, 5, cs_cfg(), bw_cfg());
  ASSERT_EQ(sweep.points.size(), 6u);
  // More interference, never faster (within tolerance) and eventually slow.
  EXPECT_GT(sweep.slowdown(5), 1.10);
  const auto b = ActiveMeasurer::bounds(sweep, 1, 0.05);
  EXPECT_TRUE(b.degraded_at_any_level);
  EXPECT_GT(b.upper, 0.0);
}

TEST(ActiveMeasurer, SweepValidatesCalibrationLength) {
  SimBackend backend(machine());
  CapacityCalibration short_calib;
  short_calib.available_bytes = {1.0, 0.5};
  ActiveMeasurer measurer(backend, short_calib, fake_bandwidth());
  const auto factory = make_synthetic_workload(apps::SyntheticConfig{
      AccessDistribution::uniform(100'000, "Uni"), 4, 1, 0, 10'000});
  EXPECT_THROW(measurer.sweep(factory, Resource::kCacheStorage, 5),
               std::invalid_argument);
  EXPECT_THROW(measurer.sweep(factory, Resource::kBandwidth, 5),
               std::invalid_argument);

  // A grid's plan needs no calibration, so a too-short one throws at
  // assembly — before the table is read.
  for (const auto& request :
       {GridRequest{factory, "storage", 5, 0},
        GridRequest{factory, "bandwidth", 0, 5}}) {
    const std::vector<GridRequest> requests{request};
    const auto grid = plan_grid(backend, requests);  // reads no calibration
    EXPECT_THROW(measurer.assemble_grid(grid, requests, ResultTable{}),
                 std::invalid_argument)
        << request.name;
  }
}

}  // namespace
}  // namespace am::measure
