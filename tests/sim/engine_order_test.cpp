// Order oracle for Engine::run: seeded random mixes of toy agents, each
// run through the engine and through a linear-scan loop written here (the
// laggard is the unfinished agent with the earliest clock, lowest index on
// ties). The full (agent, clock) step sequence, the run() results, the
// timeout flags and the final clocks must agree.
//
// The mixes cover random step costs (zero-cost steps take the engine's +1
// progress rule), equal-clock ties, delay_agent, primaries and
// interference agents that finish mid-run, and a run(max_cycles) timeout
// followed by a second run().
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace am::sim {
namespace {

using Step = std::pair<std::size_t, Cycles>;  // (agent, clock at the step)

/// A toy agent's behaviour: its own cost stream and step budget, so the
/// engine and the oracle replay it identically whatever the interleaving.
struct Script {
  Rng rng;
  std::uint64_t limit = 0;  // steps until finished(); 0 = never
  bool primary = true;

  /// The next step's cost. Small costs make equal clocks common; 0 takes
  /// the +1 progress rule.
  Cycles next_cost() {
    const std::uint64_t pick = rng.bounded(8);
    if (pick < 2) return 0;
    if (pick < 4) return 1;
    if (pick < 6) return 4;
    return rng.bounded(60);
  }
};

class ToyAgent final : public Agent {
 public:
  ToyAgent(Script script, std::size_t index, std::vector<Step>& log)
      : Agent("toy"), script_(std::move(script)), index_(index), log_(log) {}

  void step(AgentContext& ctx) override {
    log_.emplace_back(index_, ctx.now());
    const Cycles cost = script_.next_cost();
    // A zero-cost step either computes nothing or calls compute(0).
    if (cost != 0 || index_ % 2 == 0) ctx.compute(cost);
    ++steps_;
  }
  bool finished() const override {
    return script_.limit != 0 && steps_ >= script_.limit;
  }

 private:
  Script script_;
  std::size_t index_;
  std::vector<Step>& log_;
  std::uint64_t steps_ = 0;
};

/// The linear-scan executor the heap must reproduce.
class Oracle {
 public:
  void add(Script script) {
    if (script.primary) ++primaries_;
    agents_.push_back({std::move(script)});
  }
  void delay(std::size_t i, Cycles until) {
    agents_[i].clock = std::max(agents_[i].clock, until);
  }

  Cycles run(Cycles max_cycles, std::vector<Step>& log) {
    timed_out = false;
    Cycles last = 0;
    while (primaries_ > 0) {
      std::size_t best = agents_.size();
      for (std::size_t i = 0; i < agents_.size(); ++i) {
        if (agents_[i].done) continue;
        if (best == agents_.size() || agents_[i].clock < agents_[best].clock)
          best = i;
      }
      if (best == agents_.size()) break;
      Toy& toy = agents_[best];
      if (toy.clock > max_cycles) {
        timed_out = true;
        return max_cycles;
      }
      log.emplace_back(best, toy.clock);
      const Cycles cost = toy.script.next_cost();
      toy.clock += cost == 0 ? 1 : cost;
      ++toy.steps;
      if (toy.script.limit != 0 && toy.steps >= toy.script.limit) {
        toy.done = true;
        if (toy.script.primary) {
          --primaries_;
          last = std::max(last, toy.clock);
        }
      }
    }
    return last;
  }

  Cycles clock(std::size_t i) const { return agents_[i].clock; }
  /// Agents that were done before `log`'s last step: a later step ran
  /// without them.
  std::uint64_t finished_before_last_step(const std::vector<Step>& log) const {
    std::vector<std::size_t> last(agents_.size(), 0);
    for (std::size_t i = 0; i < log.size(); ++i) last[log[i].first] = i;
    std::uint64_t count = 0;
    for (std::size_t a = 0; a < agents_.size(); ++a)
      count += agents_[a].done && last[a] + 1 < log.size();
    return count;
  }

  bool timed_out = false;

 private:
  struct Toy {
    Script script;
    Cycles clock = 0;
    std::uint64_t steps = 0;
    bool done = false;
  };
  std::vector<Toy> agents_;
  std::size_t primaries_ = 0;
};

MachineConfig machine() {
  auto m = MachineConfig::xeon20mb_scaled(64);
  m.nodes = 2;  // 32 cores
  m.prefetcher.enabled = false;
  return m;
}

std::string show_first_difference(const std::vector<Step>& got,
                                  const std::vector<Step>& want) {
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  std::ostringstream os;
  os << "step " << i << " of " << got.size() << " (engine) / " << want.size()
     << " (oracle)";
  if (i < got.size())
    os << ": engine ran agent " << got[i].first << " at " << got[i].second;
  if (i < want.size())
    os << ", oracle agent " << want[i].first << " at " << want[i].second;
  return os.str();
}

/// What the mixes exercised, so the test can show it is not vacuous.
struct Coverage {
  std::uint64_t ties = 0;      // consecutive steps of two agents at one clock
  std::uint64_t timeouts = 0;  // first runs stopped by their budget
  std::uint64_t finished_mid_run = 0;  // agents done before the run ended
};

// Runs one seeded mix through both executors.
void check_mix(std::uint64_t seed, Coverage& seen) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng mix(seed);
  Engine engine(machine(), seed);
  Oracle oracle;
  std::vector<Step> got;
  std::vector<Step> want;

  const std::size_t agents = 1 + mix.bounded(30);
  for (std::size_t i = 0; i < agents; ++i) {
    Script script;
    script.rng.reseed(mix());
    // Agent 0 is always a primary, so every mix has one.
    script.primary = i == 0 || mix.bounded(3) != 0;
    // Some interference agents finish too; some primaries take one step.
    if (script.primary || mix.bounded(4) == 0)
      script.limit = 1 + mix.bounded(mix.bounded(2) == 0 ? 4 : 300);
    engine.add_agent(std::make_unique<ToyAgent>(script, i, got),
                     static_cast<CoreId>(i), script.primary);
    oracle.add(std::move(script));
  }
  // Delays, often onto round clocks other agents share.
  const auto delay_some = [&] {
    for (std::size_t i = 0; i < agents; ++i) {
      if (mix.bounded(3) != 0) continue;
      const Cycles until = mix.bounded(2) == 0 ? 100 * mix.bounded(4)
                                               : mix.bounded(2000);
      engine.delay_agent(i, until);
      oracle.delay(i, until);
    }
  };
  delay_some();

  if (mix.bounded(2) == 0) {
    // A budget that usually stops the run part-way.
    const Cycles budget = mix.bounded(3000);
    const Cycles a = engine.run(budget);
    const Cycles b = oracle.run(budget, want);
    ASSERT_EQ(got, want) << show_first_difference(got, want);
    ASSERT_EQ(a, b);
    ASSERT_EQ(engine.timed_out(), oracle.timed_out);
    seen.timeouts += oracle.timed_out;
    if (mix.bounded(2) == 0) delay_some();
  }
  const Cycles a = engine.run();
  const Cycles b = oracle.run(~Cycles{0}, want);
  ASSERT_EQ(got, want) << show_first_difference(got, want);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(engine.timed_out());
  for (std::size_t i = 0; i < agents; ++i)
    EXPECT_EQ(engine.agent_clock(i), oracle.clock(i)) << "agent " << i;
  for (std::size_t i = 1; i < want.size(); ++i)
    seen.ties += want[i].second == want[i - 1].second &&
                 want[i].first != want[i - 1].first;
  seen.finished_mid_run += oracle.finished_before_last_step(want);
}

TEST(EngineOrder, HeapMatchesLinearScanOnRandomMixes) {
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    check_mix(seed, seen);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(seen.ties, 1000u);
  EXPECT_GT(seen.timeouts, 50u);
  EXPECT_GT(seen.finished_mid_run, 300u);
}

}  // namespace
}  // namespace am::sim
