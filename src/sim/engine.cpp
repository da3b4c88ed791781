#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace am::sim {

Cycles AgentContext::now() const {
  return engine_->agent_clock(index_);
}

CoreId AgentContext::core() const { return engine_->agent_core(index_); }

Rng& AgentContext::rng() { return engine_->agent_rng(index_); }

void AgentContext::compute(Cycles cycles) {
  engine_->ctx_compute(index_, cycles);
}

void AgentContext::load(Addr addr) {
  engine_->ctx_access(index_, addr, AccessKind::kLoad);
}

void AgentContext::store(Addr addr) {
  engine_->ctx_access(index_, addr, AccessKind::kStore);
}

void AgentContext::load_batch(std::span<const Addr> addrs) {
  engine_->ctx_access_batch(index_, addrs, AccessKind::kLoad);
}

void AgentContext::store_batch(std::span<const Addr> addrs) {
  engine_->ctx_access_batch(index_, addrs, AccessKind::kStore);
}

Engine::Engine(MachineConfig config, std::uint64_t seed)
    : memory_(std::move(config)), seed_(seed) {}

std::size_t Engine::add_agent(std::unique_ptr<Agent> agent, CoreId core,
                              bool primary) {
  if (core >= config().total_cores())
    throw std::invalid_argument("add_agent: core out of range");
  for (const auto& slot : agents_)
    if (slot.core == core)
      throw std::invalid_argument("add_agent: core already occupied by " +
                                  slot.agent->name());
  Slot slot;
  slot.agent = std::move(agent);
  slot.core = core;
  slot.primary = primary;
  std::uint64_t sm = seed_ ^ (0x9e3779b97f4a7c15ull * (agents_.size() + 1));
  slot.rng.reseed(splitmix64(sm));
  agents_.push_back(std::move(slot));
  if (primary) ++primaries_remaining_;
  return agents_.size() - 1;
}

bool Engine::runs_before(std::uint32_t a, std::uint32_t b) const {
  const Cycles ca = agents_[a].clock;
  const Cycles cb = agents_[b].clock;
  return ca < cb || (ca == cb && a < b);
}

void Engine::sift_down(std::size_t pos) {
  const std::size_t n = ready_.size();
  const std::uint32_t moving = ready_[pos];
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && runs_before(ready_[child + 1], ready_[child]))
      ++child;
    if (!runs_before(ready_[child], moving)) break;
    ready_[pos] = ready_[child];
    pos = child;
  }
  ready_[pos] = moving;
}

Cycles Engine::run(Cycles max_cycles) {
  if (agents_.empty()) throw std::logic_error("Engine::run with no agents");
  timed_out_ = false;
  if (primaries_remaining_ == 0) return 0;

  // Min-heap of the unfinished agents keyed (clock, index): the top is
  // the laggard, ties going to the lowest index. Built fresh each run, so
  // delay_agent and add_agent between runs (and a resumed timeout) see
  // the same order the linear scan it replaced would.
  ready_.clear();
  for (std::size_t i = 0; i < agents_.size(); ++i)
    if (!agents_[i].done) ready_.push_back(static_cast<std::uint32_t>(i));
  for (std::size_t pos = ready_.size() / 2; pos-- > 0;) sift_down(pos);

  Cycles last_primary_finish = 0;
  while (primaries_remaining_ > 0 && !ready_.empty()) {
    const std::size_t best = ready_.front();
    Slot& slot = agents_[best];
    if (slot.clock > max_cycles) {
      timed_out_ = true;
      return max_cycles;
    }

    const Cycles before = slot.clock;
    AgentContext ctx(*this, best);
    slot.agent->step(ctx);
    if (slot.clock == before) ++slot.clock;  // guarantee progress

    if (slot.agent->finished()) {
      slot.done = true;
      if (slot.primary) {
        --primaries_remaining_;
        last_primary_finish = std::max(last_primary_finish, slot.clock);
      }
      ready_.front() = ready_.back();
      ready_.pop_back();
      if (ready_.empty()) break;
    }
    // Only the top's clock moved, and only forward.
    sift_down(0);
  }
  return last_primary_finish;
}

void Engine::ctx_compute(std::size_t idx, Cycles cycles) {
  Slot& slot = agents_[idx];
  slot.clock += cycles;
  memory_.counters(slot.core).compute_cycles += cycles;
  if (slot.trace != nullptr) {
    // Fold the compute gap into the preceding record so a replay
    // reproduces the original access frequency.
    slot.trace->add_compute_to_last(
        static_cast<std::uint32_t>(std::min<Cycles>(cycles, UINT32_MAX)));
  }
}

void Engine::ctx_access(std::size_t idx, Addr addr, AccessKind kind) {
  Slot& slot = agents_[idx];
  if (slot.trace != nullptr) slot.trace->append(addr, kind);
  const AccessResult res = memory_.access(slot.core, addr, kind, slot.clock);
  memory_.counters(slot.core).stall_cycles += res.complete - slot.clock;
  slot.clock = res.complete;
}

void Engine::ctx_access_batch(std::size_t idx, std::span<const Addr> addrs,
                              AccessKind kind) {
  Slot& slot = agents_[idx];
  if (slot.trace != nullptr)
    for (const Addr addr : addrs) slot.trace->append(addr, kind);
  const Cycles done =
      memory_.access_batch(slot.core, addrs, kind, slot.clock);
  memory_.counters(slot.core).stall_cycles += done - slot.clock;
  slot.clock = done;
}

}  // namespace am::sim
