#include "measure/calibration.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "measure/result_store.hpp"

namespace am::measure {
namespace {

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

CalibrationOptions quick_opts(std::uint32_t max_threads) {
  CalibrationOptions o;
  o.max_threads = max_threads;
  o.buffer_to_l3_ratios = {2.5};
  o.probe_distributions = {9};  // Uni only: fastest, tightest inversion
  o.accesses_per_probe = 150'000;
  return o;
}

TEST(CapacityCalibration, NoInterferenceRecoversFullL3) {
  const auto calib = calibrate_capacity(machine(), cs_cfg(), quick_opts(0));
  ASSERT_EQ(calib.available_bytes.size(), 1u);
  // Paper Fig. 6 "No Interference": estimate approaches the true 20 MB
  // (scaled); allow the fully-associative model's small bias.
  EXPECT_NEAR(calib.available_bytes[0],
              static_cast<double>(machine().l3.size_bytes),
              0.25 * machine().l3.size_bytes);
}

TEST(CapacityCalibration, EffectiveCapacityShrinksMonotonically) {
  const auto calib = calibrate_capacity(machine(), cs_cfg(), quick_opts(3));
  ASSERT_EQ(calib.available_bytes.size(), 4u);
  for (std::size_t k = 1; k < calib.available_bytes.size(); ++k)
    EXPECT_LT(calib.available_bytes[k], calib.available_bytes[k - 1])
        << "k=" << k;
}

TEST(CapacityCalibration, OneThreadDeniesRoughlyItsBuffer) {
  const auto calib = calibrate_capacity(machine(), cs_cfg(), quick_opts(1));
  const double denied = calib.available_bytes[0] - calib.available_bytes[1];
  // Paper: 1 CSThr with a 4 MB buffer leaves ~15 MB of 20 (denies 4-6 MB).
  EXPECT_GT(denied, 0.5 * cs_cfg().buffer_bytes);
  EXPECT_LT(denied, 2.5 * cs_cfg().buffer_bytes);
}

TEST(BandwidthCalibration, PeakNearConfiguredBandwidth) {
  const auto calib = calibrate_bandwidth(machine(), bw_cfg(), 0);
  EXPECT_GT(calib.peak_bytes_per_sec,
            0.6 * machine().mem_bandwidth_bytes_per_sec);
  EXPECT_LE(calib.peak_bytes_per_sec,
            1.05 * machine().mem_bandwidth_bytes_per_sec);
}

TEST(BandwidthCalibration, UsageGrowsWithThreadCount) {
  const auto calib = calibrate_bandwidth(machine(), bw_cfg(), 3);
  ASSERT_EQ(calib.used_bytes_per_sec.size(), 4u);
  EXPECT_LT(calib.used_bytes_per_sec[0], 1e8);  // idle socket
  for (std::size_t k = 1; k < calib.used_bytes_per_sec.size(); ++k)
    EXPECT_GT(calib.used_bytes_per_sec[k],
              calib.used_bytes_per_sec[k - 1] * 1.2)
        << "k=" << k;
}

TEST(BandwidthCalibration, AvailableIsPeakMinusUsed) {
  const auto calib = calibrate_bandwidth(machine(), bw_cfg(), 1);
  EXPECT_NEAR(calib.available(1),
              calib.peak_bytes_per_sec - calib.used_bytes_per_sec[1], 1e-6);
}

TEST(BandwidthCalibration, RejectsTooManyThreads) {
  EXPECT_THROW(calibrate_bandwidth(machine(), bw_cfg(), 8),
               std::invalid_argument);
}

TEST(CapacityCalibration, RejectsTooManyThreads) {
  // Probe on core 0 + k CSThrs on cores 1..k: max_threads = 8 would spill
  // the last CSThr onto the next socket and calibrate against interference
  // that never shares the probe's L3.
  EXPECT_EQ(machine().cores_per_socket, 8u);
  EXPECT_THROW(calibrate_capacity(machine(), cs_cfg(), quick_opts(8)),
               std::invalid_argument);
  // The largest placement that still fits the socket stays accepted (tiny
  // probes: only the placement check matters here).
  auto opts = quick_opts(7);
  opts.buffer_to_l3_ratios = {0.05};
  opts.accesses_per_probe = 200;
  EXPECT_NO_THROW(calibrate_capacity(machine(), cs_cfg(), opts));
}

TEST(CalibrationOptions, RejectsDegenerateProbeSets) {
  auto expect_rejected = [](const CalibrationOptions& opts) {
    EXPECT_THROW(opts.validate(), std::invalid_argument);
    EXPECT_THROW(calibrate_capacity(machine(), cs_cfg(), opts),
                 std::invalid_argument);
  };
  EXPECT_NO_THROW(CalibrationOptions{}.validate());
  auto opts = quick_opts(1);
  opts.buffer_to_l3_ratios = {};  // mean of no estimates would read 0 bytes
  expect_rejected(opts);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -1.5, inf, nan}) {
    opts = quick_opts(1);
    opts.buffer_to_l3_ratios = {2.5, bad};
    expect_rejected(opts);
  }
  opts = quick_opts(1);
  opts.probe_distributions = {};
  expect_rejected(opts);
  opts = quick_opts(1);
  opts.probe_distributions = {9, 10};  // Table II has patterns 0..9
  expect_rejected(opts);
  opts = quick_opts(1);
  opts.accesses_per_probe = 0;
  expect_rejected(opts);
}

TEST(Calibration, RejectsThreadCountsThatWrap) {
  auto opts = quick_opts(UINT32_MAX);
  EXPECT_THROW(calibrate_capacity(machine(), cs_cfg(), opts),
               std::invalid_argument);
  EXPECT_THROW(calibrate_bandwidth(machine(), bw_cfg(), UINT32_MAX),
               std::invalid_argument);
}

// Hexfloat goldens captured from the former serial probe loop: concurrent
// probes must reproduce it bit for bit. Two ratios x two distributions give
// each level four probes, so the goldens also pin the order in which a
// level's estimates are folded into its mean and stddev.
TEST(Calibration, MultiProbeTablesMatchSerialGoldens) {
  const auto m = MachineConfig::xeon20mb_scaled(512);
  interfere::CSThrConfig cs;
  cs.buffer_bytes = 4ull * 1024 * 1024 / 512;
  interfere::BWThrConfig bw;
  bw.buffer_bytes = 4096;
  CalibrationOptions opts;
  opts.max_threads = 2;
  opts.buffer_to_l3_ratios = {2.0, 3.0};
  opts.probe_distributions = {4, 9};
  opts.accesses_per_probe = 5'000;

  const auto capacity = calibrate_capacity(m, cs, opts);
  const auto bandwidth = calibrate_bandwidth(m, bw, 2);
  const std::vector<double> available{0x1.1133013790d83p+15,
                                      0x1.c796be1d12066p+14,
                                      0x1.641a41e118b07p+14};
  const std::vector<double> stddev{0x1.ffa7ec8af9932p+12, 0x1.392b2347cf6b2p+12,
                                   0x1.2a5b887018bcp+11};
  const std::vector<double> used{0x0p+0, 0x1.931894p+31, 0x1.933b1cp+32};
  EXPECT_EQ(capacity.available_bytes, available);
  EXPECT_EQ(capacity.stddev_bytes, stddev);
  EXPECT_EQ(bandwidth.peak_bytes_per_sec, 0x1.58686a6f37d1ep+33);
  EXPECT_EQ(bandwidth.used_bytes_per_sec, used);

  // A second call reruns every probe on a fresh pool and schedule.
  const auto capacity2 = calibrate_capacity(m, cs, opts);
  const auto bandwidth2 = calibrate_bandwidth(m, bw, 2);
  EXPECT_EQ(capacity2.available_bytes, capacity.available_bytes);
  EXPECT_EQ(capacity2.stddev_bytes, capacity.stddev_bytes);
  EXPECT_EQ(bandwidth2.peak_bytes_per_sec, bandwidth.peak_bytes_per_sec);
  EXPECT_EQ(bandwidth2.used_bytes_per_sec, bandwidth.used_bytes_per_sec);
}

// The goldens' configuration, calibrated through a ResultStore. Each call
// is compared with a storeless one, which the goldens above pin.
class CalibrationStoreTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kScale = 512;
  // (1 + max_threads) levels x 2 ratios x 2 distributions; the bandwidth
  // peak plus 1 + max_threads windows.
  static constexpr std::size_t kCapacityProbes = 12;
  static constexpr std::size_t kBandwidthProbes = 4;

  CalibrationStoreTest() {
    cs_.buffer_bytes = 4ull * 1024 * 1024 / kScale;
    bw_.buffer_bytes = 4096;
    opts_.max_threads = 2;
    opts_.buffer_to_l3_ratios = {2.0, 3.0};
    opts_.probe_distributions = {4, 9};
    opts_.accesses_per_probe = 5'000;
  }

  CapacityCalibration capacity(ResultStore* store) const {
    return calibrate_capacity(machine_, cs_, opts_, store);
  }
  BandwidthCalibration bandwidth(ResultStore* store) const {
    return calibrate_bandwidth(machine_, bw_, opts_.max_threads, opts_.seed,
                               store);
  }

  static void expect_same(const CapacityCalibration& a,
                          const CapacityCalibration& b) {
    EXPECT_EQ(a.available_bytes, b.available_bytes);
    EXPECT_EQ(a.stddev_bytes, b.stddev_bytes);
  }
  static void expect_same(const BandwidthCalibration& a,
                          const BandwidthCalibration& b) {
    EXPECT_EQ(a.peak_bytes_per_sec, b.peak_bytes_per_sec);
    EXPECT_EQ(a.used_bytes_per_sec, b.used_bytes_per_sec);
  }

  const MachineConfig machine_ = MachineConfig::xeon20mb_scaled(kScale);
  interfere::CSThrConfig cs_;
  interfere::BWThrConfig bw_;
  CalibrationOptions opts_;
};

TEST_F(CalibrationStoreTest, ColdCallRecordsEveryProbeAndWarmCallReadsThem) {
  const auto cap = capacity(nullptr);
  const auto bw = bandwidth(nullptr);

  ResultStore store;
  expect_same(capacity(&store), cap);
  EXPECT_EQ(store.size(), kCapacityProbes);
  expect_same(bandwidth(&store), bw);
  EXPECT_EQ(store.size(), kCapacityProbes + kBandwidthProbes);

  // Warm: no probe runs, so no record is added, and the bits hold.
  expect_same(capacity(&store), cap);
  expect_same(bandwidth(&store), bw);
  EXPECT_EQ(store.size(), kCapacityProbes + kBandwidthProbes);
}

TEST_F(CalibrationStoreTest, HitReturnsTheStoredRecordWithoutRunning) {
  ResultStore cold;
  const auto cap = capacity(&cold);
  const auto bw = bandwidth(&cold);

  // Every record altered: a table built from these numbers can only come
  // from the store, never from an engine.
  ResultStore altered;
  for (const ResultRecord* rec : cold.records()) {
    SimRunResult r = rec->result;
    r.app_l3_miss_rate = 0.5;
    r.total_mem_bandwidth = 1e9;
    altered.put(rec->key, r, rec->host);
  }
  const auto cap2 = capacity(&altered);
  const auto bw2 = bandwidth(&altered);
  EXPECT_EQ(altered.size(), cold.size()) << "a probe ran";

  EXPECT_EQ(bw2.peak_bytes_per_sec, 1e9);
  EXPECT_EQ(bw2.used_bytes_per_sec, std::vector<double>(3, 1e9));
  // Equal miss rates at every level give every level the same estimate.
  ASSERT_EQ(cap2.available_bytes.size(), 3u);
  EXPECT_EQ(cap2.available_bytes[1], cap2.available_bytes[0]);
  EXPECT_EQ(cap2.available_bytes[2], cap2.available_bytes[0]);
  EXPECT_NE(cap2.available_bytes, cap.available_bytes);
  EXPECT_NE(bw2.peak_bytes_per_sec, bw.peak_bytes_per_sec);
}

TEST_F(CalibrationStoreTest, ChangedInputsMissTheCache) {
  ResultStore store;
  capacity(&store);
  bandwidth(&store);
  const auto added = [&](auto&& call) {
    const std::size_t before = store.size();
    call();
    return store.size() - before;
  };
  const CalibrationOptions base = opts_;

  opts_.seed = base.seed + 1;
  EXPECT_EQ(added([&] { capacity(&store); }), kCapacityProbes);
  EXPECT_EQ(added([&] { bandwidth(&store); }), kBandwidthProbes);
  opts_ = base;

  // Only the probes of the changed ratio miss.
  opts_.buffer_to_l3_ratios = {2.0, 2.5};
  EXPECT_EQ(added([&] { capacity(&store); }), kCapacityProbes / 2);
  opts_ = base;

  opts_.accesses_per_probe = 6'000;
  EXPECT_EQ(added([&] { capacity(&store); }), kCapacityProbes);
  opts_ = base;

  // The k = 0 probes run no CSThr, so they still hit.
  cs_.buffer_bytes *= 2;
  EXPECT_EQ(added([&] { capacity(&store); }), kCapacityProbes - 4);
}

// Every probe runs on socket 0 of node 0, so the probes of a 12-node and
// a 32-node machine are the one-node probes, under the one-node keys.
TEST_F(CalibrationStoreTest, MachinesThatDifferOnlyInNodeCountShareRecords) {
  ResultStore store;
  const auto twelve = MachineConfig::xeon20mb_scaled(kScale, 12);
  const auto cap = calibrate_capacity(twelve, cs_, opts_, &store);
  const auto bw = calibrate_bandwidth(twelve, bw_, opts_.max_threads,
                                      opts_.seed, &store);
  ASSERT_EQ(store.size(), kCapacityProbes + kBandwidthProbes);

  const auto thirty_two = MachineConfig::xeon20mb_scaled(kScale, 32);
  expect_same(calibrate_capacity(thirty_two, cs_, opts_, &store), cap);
  expect_same(calibrate_bandwidth(thirty_two, bw_, opts_.max_threads,
                                  opts_.seed, &store),
              bw);
  expect_same(capacity(&store), cap);  // machine_ has one node
  expect_same(bandwidth(&store), bw);
  EXPECT_EQ(store.size(), kCapacityProbes + kBandwidthProbes) << "a probe ran";
}

}  // namespace
}  // namespace am::measure
