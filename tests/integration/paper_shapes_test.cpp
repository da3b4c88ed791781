// End-to-end integration tests asserting the *qualitative shapes* of the
// paper's key results on a scaled simulator. These are the invariants the
// bench drivers rely on; if one breaks, a figure will no longer reproduce.
#include <gtest/gtest.h>

#include <memory>

#include "apps/idle_agent.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "interfere/bwthr_agent.hpp"
#include "interfere/csthr_agent.hpp"
#include "measure/app_workloads.hpp"
#include "measure/sim_backend.hpp"
#include "model/distributions.hpp"
#include "model/ehr_model.hpp"
#include "sim/engine.hpp"

namespace am {
namespace {

constexpr std::uint32_t kScale = 32;

sim::MachineConfig machine() { return sim::MachineConfig::xeon20mb_scaled(kScale); }

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

/// Bandwidth drawn by one BWThr co-running with k CSThrs (Fig. 7 cell).
double bwthr_bandwidth_with_csthrs(std::uint32_t k) {
  sim::Engine eng(machine());
  eng.add_agent(std::make_unique<apps::IdleAgent>(15'000'000), 0);
  eng.add_agent(std::make_unique<interfere::BWThrAgent>(eng.memory(), bw_cfg()),
                1, false);
  for (std::uint32_t i = 0; i < k; ++i)
    eng.add_agent(std::make_unique<interfere::CSThrAgent>(eng.memory(), cs_cfg()),
                  2 + i, false);
  const auto end = eng.run();
  return static_cast<double>(eng.agent_counters(1).bytes_from_mem) /
         machine().cycles_to_seconds(end);
}

/// Seconds per CSThr op co-running with k BWThrs (Fig. 8 cell).
double csthr_op_time_with_bwthrs(std::uint32_t k) {
  sim::Engine eng(machine());
  eng.add_agent(std::make_unique<apps::IdleAgent>(15'000'000), 0);
  auto cs = std::make_unique<interfere::CSThrAgent>(eng.memory(), cs_cfg());
  auto* cs_raw = cs.get();
  eng.add_agent(std::move(cs), 1, false);
  for (std::uint32_t i = 0; i < k; ++i)
    eng.add_agent(std::make_unique<interfere::BWThrAgent>(eng.memory(), bw_cfg()),
                  2 + i, false);
  const auto end = eng.run();
  return machine().cycles_to_seconds(end) /
         static_cast<double>(cs_raw->operations());
}

TEST(PaperShapes, Fig7BwthrImmuneToCsthrs) {
  const double alone = bwthr_bandwidth_with_csthrs(0);
  const double crowded = bwthr_bandwidth_with_csthrs(3);
  EXPECT_NEAR(crowded, alone, alone * 0.10);
}

TEST(PaperShapes, Fig8CsthrToleratesTwoBwthrsNotFour) {
  const double alone = csthr_op_time_with_bwthrs(0);
  const double two = csthr_op_time_with_bwthrs(2);
  const double four = csthr_op_time_with_bwthrs(4);
  EXPECT_LT(two, alone * 1.30);   // paper: "small effect" at 2
  EXPECT_GT(four, alone * 2.0);   // paper: significant impact at 3+
}

TEST(PaperShapes, Fig8LoneCsthrUsesLittleBandwidth) {
  sim::Engine eng(machine());
  eng.add_agent(std::make_unique<apps::IdleAgent>(15'000'000), 0);
  eng.add_agent(std::make_unique<interfere::CSThrAgent>(eng.memory(), cs_cfg()),
                1, false);
  const auto end = eng.run();
  const double bw = static_cast<double>(
                        eng.agent_counters(1).bytes_from_mem) /
                    machine().cycles_to_seconds(end);
  // Paper III-D: "a single CSThr ... utilizes very little memory
  // bandwidth" — well under 10% of one BWThr's draw.
  EXPECT_LT(bw, bwthr_bandwidth_with_csthrs(0) * 0.25);
}

/// Fig. 6 shape: effective capacity shrinks monotonically with CSThrs and
/// roughly tracks what the CSThr buffers should deny.
TEST(PaperShapes, Fig6EffectiveCapacityCollapse) {
  const auto m = machine();
  const std::uint64_t elements = m.l3.size_bytes * 2 / 4;
  const auto dist = model::AccessDistribution::uniform(elements, "Uni");
  const model::EhrModel ehr(dist, 4);
  std::vector<double> capacity;
  for (std::uint32_t k = 0; k <= 4; ++k) {
    sim::Engine eng(m);
    apps::SyntheticConfig cfg{dist, 4, 1, elements * 2, 150'000};
    const auto idx = eng.add_agent(
        std::make_unique<apps::SyntheticBenchmarkAgent>(eng.memory(), cfg), 0);
    for (std::uint32_t i = 0; i < k; ++i)
      eng.add_agent(std::make_unique<interfere::CSThrAgent>(eng.memory(),
                                                            cs_cfg()),
                    1 + i, false);
    eng.run();
    capacity.push_back(
        ehr.invert_capacity(eng.agent_counters(idx).l3_miss_rate()));
  }
  for (std::size_t k = 1; k < capacity.size(); ++k)
    EXPECT_LT(capacity[k], capacity[k - 1]) << "k=" << k;
  // Four 128 KB threads should deny a large share of the 640 KB L3.
  EXPECT_LT(capacity[4], capacity[0] * 0.55);
}

/// §IV shape: a capacity-bound app is hurt by CSThr but not by one BWThr;
/// this is the orthogonality the whole methodology depends on.
TEST(PaperShapes, CapacityBoundAppRespondsToRightKnife) {
  measure::SimBackend backend(machine());
  // ~35% of the L3: the occupancy regime the paper actually measured
  // (MCB uses 4-7 MB of the 20 MB L3). Much larger working sets sit at
  // the LRU thrash boundary where even one streaming thread hurts.
  const std::uint64_t elements = machine().l3.size_bytes * 35 / 100 / 4;
  const auto factory =
      measure::make_synthetic_workload(apps::SyntheticConfig{
          model::AccessDistribution::uniform(elements, "Uni"), 4, 1,
          elements * 2, 150'000});
  const auto base = backend.run(factory, measure::InterferenceSpec::none());
  const auto cs =
      backend.run(factory, measure::InterferenceSpec::storage(4, cs_cfg()));
  const auto bw =
      backend.run(factory, measure::InterferenceSpec::bandwidth(1, bw_cfg()));
  EXPECT_GT(cs.seconds, base.seconds * 1.2);  // capacity knife cuts
  // One BWThr costs at most queueing-level noise, far below the capacity
  // effect (the paper reports no significant capacity impact from 1-2).
  EXPECT_LT(bw.seconds, base.seconds * 1.25);
  EXPECT_GT(cs.seconds, bw.seconds * 1.15);
}

/// Fig. 9/10 shape: spreading MCB ranks out raises per-process memory
/// bandwidth (communication leaves the shared L3).
TEST(PaperShapes, McbSpreadOutUsesMoreBandwidthPerProcess) {
  auto m = sim::MachineConfig::xeon20mb_scaled(kScale, /*nodes=*/2);
  measure::SimBackend backend(m);
  auto cfg = apps::McbConfig::paper(20'000, kScale);
  cfg.steps = 2;
  const auto packed = backend.run(
      measure::make_mcb_workload(4, 4, cfg), measure::InterferenceSpec::none());
  const auto spread = backend.run(
      measure::make_mcb_workload(4, 1, cfg), measure::InterferenceSpec::none());
  const double packed_bw_pp = packed.app_mem_bandwidth / 4.0;
  const double spread_bw_pp = spread.app_mem_bandwidth / 4.0;
  EXPECT_GT(spread_bw_pp, packed_bw_pp * 1.1);
}

/// Fig. 11 shape: a Lulesh rank's working set overflows a 4-way-shared L3
/// (4 ranks/socket) but not a private one (1 rank/socket).
TEST(PaperShapes, LuleshPackedMappingIsCapacityStarved) {
  auto m = sim::MachineConfig::xeon20mb_scaled(kScale, /*nodes=*/4);
  measure::SimBackend backend(m);
  auto cfg = apps::LuleshConfig::paper(22, kScale);
  cfg.steps = 2;
  auto run = [&](std::uint32_t p, std::uint32_t k) {
    return backend
        .run(measure::make_lulesh_workload(8, p, cfg),
             k == 0 ? measure::InterferenceSpec::none()
                    : measure::InterferenceSpec::storage(k, cs_cfg()))
        .seconds;
  };
  const double packed_degr = run(4, 3) / run(4, 0);
  const double spread_degr = run(1, 3) / run(1, 0);
  EXPECT_GT(packed_degr, spread_degr);
}

}  // namespace
}  // namespace am
