#pragma once
// Deterministic multi-agent discrete-event executor over a MemorySystem.
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/agent.hpp"
#include "sim/memory_system.hpp"
#include "sim/trace.hpp"

namespace am::sim {

class Engine {
 public:
  explicit Engine(MachineConfig config, std::uint64_t seed = 1);

  MemorySystem& memory() { return memory_; }
  const MachineConfig& config() const { return memory_.config(); }

  /// Registers an agent pinned to `core`. Primary agents drive simulation
  /// termination; non-primary (interference) agents are stopped when the
  /// last primary finishes. Returns the agent index.
  std::size_t add_agent(std::unique_ptr<Agent> agent, CoreId core,
                        bool primary = true);

  /// Runs until every primary agent reports finished() or the global clock
  /// passes `max_cycles`. Returns the finish time of the last primary (or
  /// max_cycles on timeout). A run that legitimately completes at exactly
  /// max_cycles is not a timeout; check timed_out() to distinguish.
  Cycles run(Cycles max_cycles = std::numeric_limits<Cycles>::max());

  /// True iff the most recent run() was truncated by its cycle budget
  /// before every primary finished.
  bool timed_out() const { return timed_out_; }

  std::size_t agent_count() const { return agents_.size(); }
  Agent& agent(std::size_t idx) { return *agents_[idx].agent; }
  Cycles agent_clock(std::size_t idx) const { return agents_[idx].clock; }
  CoreId agent_core(std::size_t idx) const { return agents_[idx].core; }
  Rng& agent_rng(std::size_t idx) { return agents_[idx].rng; }
  const Counters& agent_counters(std::size_t idx) const {
    return memory_.counters(agents_[idx].core);
  }

  double seconds(Cycles c) const { return config().cycles_to_seconds(c); }

  /// Clears counters/channel stats but keeps cache contents and clocks —
  /// call after warm-up so measurements cover only steady state.
  void reset_stats() { memory_.reset_stats(); }

  /// Keeps a shared resource (mapping, communicator, ...) alive for the
  /// engine's lifetime. Agents may then hold plain references to it.
  void own(std::shared_ptr<void> resource) {
    owned_.push_back(std::move(resource));
  }

  /// Records every access of `agent_idx` into `sink` (caller-owned; must
  /// outlive the run). nullptr disables tracing for that agent.
  void set_trace(std::size_t agent_idx, TraceBuffer* sink) {
    agents_.at(agent_idx).trace = sink;
  }

  /// Holds an agent idle until the given cycle: other agents run first.
  /// Used to let interference threads reach steady state before the
  /// application starts, as in the paper's measurement procedure. Call it
  /// between runs, not from inside an agent's step.
  void delay_agent(std::size_t agent_idx, Cycles until) {
    Slot& slot = agents_.at(agent_idx);
    slot.clock = std::max(slot.clock, until);
  }

  // --- used by AgentContext ---
  void ctx_compute(std::size_t idx, Cycles cycles);
  void ctx_access(std::size_t idx, Addr addr, AccessKind kind);
  void ctx_access_batch(std::size_t idx, std::span<const Addr> addrs,
                        AccessKind kind);

 private:
  struct Slot {
    std::unique_ptr<Agent> agent;
    CoreId core = 0;
    Cycles clock = 0;
    Rng rng;
    TraceBuffer* trace = nullptr;
    bool primary = true;
    bool done = false;
  };

  /// True when agent `a` steps before agent `b`: earlier clock, then
  /// lower index.
  bool runs_before(std::uint32_t a, std::uint32_t b) const;
  /// Restores the heap order of ready_ below `pos`.
  void sift_down(std::size_t pos);

  MemorySystem memory_;
  std::vector<Slot> agents_;
  std::vector<std::uint32_t> ready_;  // run()'s heap of unfinished agents
  std::vector<std::shared_ptr<void>> owned_;
  std::uint64_t seed_;
  std::size_t primaries_remaining_ = 0;
  bool timed_out_ = false;
};

}  // namespace am::sim
