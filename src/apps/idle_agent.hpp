#pragma once
// A primary that touches no memory: it computes for a fixed number of
// cycles and finishes. It holds a run open for a measurement window in
// which only the interference threads generate traffic (the bandwidth
// calibration, BWThr ablations and tests).
#include <algorithm>
#include <string>
#include <utility>

#include "sim/agent.hpp"

namespace am::apps {

class IdleAgent final : public sim::Agent {
 public:
  explicit IdleAgent(sim::Cycles duration, std::string name = "idle")
      : sim::Agent(std::move(name)), left_(duration) {}

  /// Computes in chunks of at most 10'000 cycles, so agents sharing the
  /// engine stay finely interleaved with it.
  void step(sim::AgentContext& ctx) override {
    const sim::Cycles chunk = std::min<sim::Cycles>(left_, 10'000);
    ctx.compute(chunk);
    left_ -= chunk;
  }
  bool finished() const override { return left_ == 0; }

 private:
  sim::Cycles left_;
};

}  // namespace am::apps
