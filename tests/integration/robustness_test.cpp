// Cross-module robustness and consistency properties that don't belong to
// any single module's suite.
#include <gtest/gtest.h>

#include <memory>

#include "apps/idle_agent.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "interfere/bwthr_agent.hpp"
#include "interfere/csthr_agent.hpp"
#include "model/ehr_model.hpp"
#include "model/stack_distance.hpp"
#include "sim/engine.hpp"

namespace am {
namespace {

/// The scaled machine family must stay structurally legal at every factor.
class ScaledMachineProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScaledMachineProperty, GeometryStaysConsistent) {
  const auto m = sim::MachineConfig::xeon20mb_scaled(GetParam());
  m.validate();
  EXPECT_GE(m.l3.size_bytes, m.l2.size_bytes);
  EXPECT_GE(m.l2.size_bytes, m.l1.size_bytes);
  EXPECT_EQ(m.l1.line_bytes, m.l3.line_bytes);
  EXPECT_EQ(m.l3.ways, 20u);  // associativity preserved at every scale
  EXPECT_GT(m.mem_bytes_per_cycle(), 0.0);
}

TEST_P(ScaledMachineProperty, EngineRunsOnEveryScale) {
  sim::Engine eng(sim::MachineConfig::xeon20mb_scaled(GetParam()));
  struct Touch final : sim::Agent {
    explicit Touch(sim::MemorySystem& ms)
        : sim::Agent("t"), base(ms.alloc(1 << 12)) {}
    void step(sim::AgentContext& ctx) override {
      ctx.load(base + (n++ % 64) * 64);
      done = n >= 200;
    }
    bool finished() const override { return done; }
    sim::Addr base;
    std::uint64_t n = 0;
    bool done = false;
  };
  eng.add_agent(std::make_unique<Touch>(eng.memory()), 0);
  EXPECT_GT(eng.run(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Factors, ScaledMachineProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

/// BWThr's round slicing: the iteration counter advances once per full pass
/// over all buffers regardless of buffers_per_step, and every load belongs
/// to a round.
TEST(BwthrSlicing, IterationsCountFullRoundsOnly) {
  auto m = sim::MachineConfig::xeon20mb_scaled(32);
  sim::Engine eng(m);
  eng.add_agent(std::make_unique<apps::IdleAgent>(2'000'000), 0);
  interfere::BWThrConfig cfg;
  cfg.buffer_bytes = 520ull * 1024 / 32;
  cfg.num_buffers = 44;
  cfg.buffers_per_step = 8;  // 44 buffers -> 6 steps per round
  auto bw = std::make_unique<interfere::BWThrAgent>(eng.memory(), cfg);
  auto* raw = bw.get();
  const auto idx = eng.add_agent(std::move(bw), 1, /*primary=*/false);
  eng.run();
  const auto loads = eng.agent_counters(idx).loads;
  // Completed rounds account for 44 loads each; at most one partial round.
  EXPECT_GE(loads, raw->iterations() * 44);
  EXPECT_LT(loads, (raw->iterations() + 1) * 44);
}

/// Consistency between the two independent capacity-inference paths:
/// for the uniform pattern, the exact stack-distance MRC and the paper's
/// Eq. 4 inversion must agree on the capacity that yields a target miss
/// rate (both reduce to the C/N law).
TEST(ModelConsistency, MrcAndEq4AgreeOnUniform) {
  constexpr std::uint64_t kLines = 1024;
  Rng rng(77);
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 300'000; ++i) trace.push_back(rng.bounded(kLines));
  const model::MissRateCurve mrc(model::StackDistanceAnalyzer::analyze(trace));

  const auto dist =
      model::AccessDistribution::uniform(kLines * 16, "Uni");  // 16 elem/line
  const model::EhrModel ehr(dist, 4);
  for (const double target : {0.75, 0.5, 0.25}) {
    const auto mrc_capacity_lines = mrc.capacity_for_miss_rate(target);
    ASSERT_NE(mrc_capacity_lines, UINT64_MAX);
    const double eq4_capacity_bytes = ehr.invert_capacity(target);
    const double eq4_capacity_lines = eq4_capacity_bytes / 64.0;
    EXPECT_NEAR(static_cast<double>(mrc_capacity_lines), eq4_capacity_lines,
                0.05 * kLines)
        << "target " << target;
  }
}

/// Engine determinism must survive the presence of infinite interference
/// agents and mid-run stat resets (the synthetic benchmark's warm-up).
TEST(Determinism, FullStackRunIsBitStable) {
  auto run_once = [] {
    auto m = sim::MachineConfig::xeon20mb_scaled(32);
    sim::Engine eng(m, /*seed=*/99);
    apps::SyntheticConfig cfg{
        model::AccessDistribution::exponential(100'000, 6.0 / 100'000, "E"),
        4, 1, 50'000, 50'000};
    const auto idx = eng.add_agent(
        std::make_unique<apps::SyntheticBenchmarkAgent>(eng.memory(), cfg), 0);
    interfere::CSThrConfig cs;
    cs.buffer_bytes = 128 * 1024;
    eng.add_agent(std::make_unique<interfere::CSThrAgent>(eng.memory(), cs),
                  1, false);
    eng.run();
    return std::pair{eng.agent_clock(idx),
                     eng.agent_counters(idx).mem_accesses};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace am
