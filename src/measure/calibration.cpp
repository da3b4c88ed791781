#include "measure/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/stream_probe.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "model/ehr_model.hpp"
#include "sim/engine.hpp"

namespace am::measure {

namespace {

/// Timer primary used when only interference threads should run.
class TimerAgent final : public sim::Agent {
 public:
  explicit TimerAgent(sim::Cycles duration)
      : sim::Agent("timer"), left_(duration) {}
  void step(sim::AgentContext& ctx) override {
    const sim::Cycles chunk = std::min<sim::Cycles>(left_, 10'000);
    ctx.compute(chunk);
    left_ -= chunk;
  }
  bool finished() const override { return left_ == 0; }

 private:
  sim::Cycles left_;
};

/// Runs probe(slot) for every slot in [0, n) on a pool this call owns and
/// joins before returning. A local pool means no calibration thread
/// outlives the call (drivers fork workers right after calibrating) and a
/// call from inside an outer pool's task cannot deadlock on that pool.
/// Slots are submitted from n - 1 down: callers lay slots out by ascending
/// k, and probe cost grows steeply with k, so the longest probe starts
/// first instead of last. Each probe writes only its own slot, so the
/// results do not depend on the pool's size or schedule.
void run_probes(std::size_t n, const std::function<void(std::size_t)>& probe) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ThreadPool pool(std::min(n, cores));
  parallel_for(pool, n, [&](std::size_t j) { probe(n - 1 - j); });
}

/// One Fig. 6 probe: the synthetic benchmark on core 0 against k CSThrs on
/// cores 1..k, its L3 miss rate inverted through Eq. 4 into capacity.
double capacity_probe(const sim::MachineConfig& machine,
                      const interfere::CSThrConfig& cs,
                      const CalibrationOptions& opts, std::size_t k,
                      double ratio, std::size_t dist_idx) {
  const auto elements = static_cast<std::uint64_t>(
      ratio * static_cast<double>(machine.l3.size_bytes) / 4);
  const auto dist = model::AccessDistribution::table2(elements).at(dist_idx);
  sim::Engine engine(machine, opts.seed);
  apps::SyntheticConfig cfg{dist, 4, /*compute_ops=*/1,
                            /*warmup=*/elements * 2, opts.accesses_per_probe};
  auto bench = std::make_unique<apps::SyntheticBenchmarkAgent>(
      engine.memory(), cfg);
  const auto bench_idx = engine.add_agent(std::move(bench), 0);
  for (std::uint32_t i = 0; i < k; ++i)
    engine.add_agent(
        std::make_unique<interfere::CSThrAgent>(engine.memory(), cs),
        1 + i, /*primary=*/false);
  engine.run();
  const double miss = engine.agent_counters(bench_idx).l3_miss_rate();
  const model::EhrModel ehr(dist, 4);
  return ehr.invert_capacity(miss);
}

/// Socket memory traffic of a finished engine, bytes/s.
double backend_rate(const sim::MachineConfig& machine, sim::Engine& engine,
                    sim::Cycles end) {
  return static_cast<double>(engine.memory().mem_backend(0).total_bytes()) /
         machine.cycles_to_seconds(end);
}

/// Peak: STREAM-style probe alone on the socket.
double peak_probe(const sim::MachineConfig& machine, std::uint64_t seed) {
  sim::Engine engine(machine, seed);
  apps::StreamProbeConfig cfg;
  cfg.array_bytes = machine.l3.size_bytes * 2;
  auto probe = std::make_unique<apps::StreamProbeAgent>(engine.memory(), cfg);
  engine.add_agent(std::move(probe), 0);
  const sim::Cycles end = engine.run();
  return backend_rate(machine, engine, end);
}

/// Bandwidth k BWThrs draw over a fixed window with the probe core idle.
double window_probe(const sim::MachineConfig& machine,
                    const interfere::BWThrConfig& bw, std::size_t k,
                    std::uint64_t seed) {
  const sim::Cycles window = 20'000'000;
  sim::Engine engine(machine, seed);
  engine.add_agent(std::make_unique<TimerAgent>(window), 0);
  for (std::uint32_t i = 0; i < k; ++i)
    engine.add_agent(
        std::make_unique<interfere::BWThrAgent>(engine.memory(), bw),
        1 + i, /*primary=*/false);
  const sim::Cycles end = engine.run();
  return backend_rate(machine, engine, end);
}

}  // namespace

void CalibrationOptions::validate() const {
  if (buffer_to_l3_ratios.empty())
    throw std::invalid_argument(
        "CalibrationOptions: buffer_to_l3_ratios is empty");
  for (const double ratio : buffer_to_l3_ratios)
    if (!(ratio > 0.0) || !std::isfinite(ratio))
      throw std::invalid_argument(
          "CalibrationOptions: buffer_to_l3_ratios must be finite and > 0");
  if (probe_distributions.empty())
    throw std::invalid_argument(
        "CalibrationOptions: probe_distributions is empty");
  const std::size_t table_size = model::AccessDistribution::table2(1).size();
  for (const std::size_t idx : probe_distributions)
    if (idx >= table_size)
      throw std::invalid_argument(
          "CalibrationOptions: probe_distributions index " +
          std::to_string(idx) + " is outside Table II (" +
          std::to_string(table_size) + " patterns)");
  if (accesses_per_probe == 0)
    throw std::invalid_argument("CalibrationOptions: accesses_per_probe is 0");
}

CapacityCalibration calibrate_capacity(const sim::MachineConfig& machine,
                                       const interfere::CSThrConfig& cs,
                                       const CalibrationOptions& opts) {
  opts.validate();
  // The probe occupies core 0 and the k-th CSThr core 1+k; without this
  // guard the extra agents would silently land on the next socket and
  // calibrate availability against interference that never shares the L3.
  if (opts.max_threads >= machine.cores_per_socket)
    throw std::invalid_argument("calibrate_capacity: too many threads");
  // Slot (k, ratio r, distribution d) is (k * ratios + r) * dists + d, so
  // each level's probes sit together in ratio-major order: the order the
  // serial fold below feeds them to RunningStats, which fixes its rounding.
  const std::size_t dists = opts.probe_distributions.size();
  const std::size_t per_level = opts.buffer_to_l3_ratios.size() * dists;
  std::vector<double> estimates((opts.max_threads + 1) * per_level);
  run_probes(estimates.size(), [&](std::size_t slot) {
    const std::size_t probe = slot % per_level;
    estimates[slot] = capacity_probe(machine, cs, opts, slot / per_level,
                                     opts.buffer_to_l3_ratios[probe / dists],
                                     opts.probe_distributions[probe % dists]);
  });
  CapacityCalibration out;
  for (std::size_t first = 0; first < estimates.size(); first += per_level) {
    RunningStats estimate;
    for (std::size_t s = first; s < first + per_level; ++s)
      estimate.add(estimates[s]);
    out.available_bytes.push_back(estimate.mean());
    out.stddev_bytes.push_back(estimate.stddev());
  }
  return out;
}

BandwidthCalibration calibrate_bandwidth(const sim::MachineConfig& machine,
                                         const interfere::BWThrConfig& bw,
                                         std::uint32_t max_threads,
                                         std::uint64_t seed) {
  if (max_threads >= machine.cores_per_socket)
    throw std::invalid_argument("calibrate_bandwidth: too many threads");
  // Slot 0 is the peak probe; slot 1 + k the window against k BWThrs.
  std::vector<double> rates(max_threads + 2);
  run_probes(rates.size(), [&](std::size_t slot) {
    rates[slot] = slot == 0 ? peak_probe(machine, seed)
                            : window_probe(machine, bw, slot - 1, seed);
  });
  BandwidthCalibration out;
  out.peak_bytes_per_sec = rates[0];
  out.used_bytes_per_sec.assign(rates.begin() + 1, rates.end());
  return out;
}

}  // namespace am::measure
