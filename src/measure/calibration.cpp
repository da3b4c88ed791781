#include "measure/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/stream_probe.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "interfere/host_identity.hpp"
#include "measure/app_workloads.hpp"
#include "measure/result_store.hpp"
#include "model/ehr_model.hpp"

namespace am::measure {

namespace {

/// SimBackend::run's default budget: every probe runs to completion.
constexpr sim::Cycles kProbeBudget = UINT64_MAX / 4;
/// The window over which the bandwidth k BWThrs draw is measured.
constexpr sim::Cycles kWindowCycles = 20'000'000;

/// One calibration probe: a workload on core 0 against an interference
/// spec. `name` spells every input of the workload, so it keys the store.
struct Probe {
  std::string name;
  SimBackend::WorkloadFactory workload;
  InterferenceSpec spec;
};

/// `count` interference threads that start with the probe: calibration
/// measures interference from the first cycle, with no head start.
InterferenceSpec at_once(InterferenceSpec spec) {
  spec.warmup_cycles = 0;
  return spec;
}

// The probe names below spell every field of the workload config they
// describe, so a config change misses the store (am-lint AM007). Table II
// names its distributions uniquely, so the name and n pin one down.

std::string synthetic_name(const apps::SyntheticConfig& c) {
  return "calib synthetic " + c.dist.name() +
         " n=" + std::to_string(c.dist.n()) +
         " eb=" + std::to_string(c.element_bytes) +
         " ops=" + std::to_string(c.compute_ops) +
         " warmup=" + std::to_string(c.warmup_accesses) +
         " a=" + std::to_string(c.measured_accesses);
}

std::string stream_name(const apps::StreamProbeConfig& c) {
  return "calib stream b=" + std::to_string(c.array_bytes) +
         " passes=" + std::to_string(c.passes);
}

std::string idle_name(sim::Cycles cycles) {
  return "calib idle c=" + std::to_string(cycles);
}

/// Runs every probe `store` does not already hold and returns all results
/// in probe order. Hits are read before any engine is built; the misses
/// run on a pool this call owns and joins before returning, and are put
/// into the store after the join. A local pool means no calibration
/// thread outlives the call (drivers fork workers right after
/// calibrating) and a call from inside an outer pool's task cannot
/// deadlock on that pool. Misses are submitted last slot first: callers
/// lay probes out by ascending k, and probe cost grows steeply with k, so
/// the longest probe starts first instead of last. Each probe writes only
/// its own slot, so the results do not depend on the pool's size or
/// schedule. Every probe runs on socket 0 of node 0, so probes run on,
/// and are keyed by, one node of `machine`: machines that differ only in
/// their node count share every probe record.
std::vector<SimRunResult> run_probes(sim::MachineConfig machine,
                                     std::uint64_t seed,
                                     const std::vector<Probe>& probes,
                                     ResultStore* store) {
  machine.nodes = 1;
  std::vector<SimRunResult> results(probes.size());
  std::vector<ScenarioKey> keys;
  std::vector<std::size_t> misses;
  const std::string fp = store != nullptr ? machine_fingerprint(machine) : "";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (store != nullptr) {
      const InterferenceSpec& spec = probes[i].spec;
      keys.push_back(ScenarioKey::make(fp, probes[i].name, spec.resource,
                                       spec.count, spec_signature(spec), seed,
                                       kProbeBudget));
      if (const SimRunResult* hit = store->find(keys.back())) {
        results[i] = *hit;
        continue;
      }
    }
    misses.push_back(i);
  }
  if (misses.empty()) return results;

  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  {
    ThreadPool pool(std::min(misses.size(), cores));
    parallel_for(pool, misses.size(), [&](std::size_t j) {
      const std::size_t i = misses[misses.size() - 1 - j];
      results[i] = SimBackend(machine, seed)
                       .run(probes[i].workload, probes[i].spec, kProbeBudget);
    });
  }
  if (store != nullptr) {
    const std::string host = interfere::HostIdentity::detect().fingerprint();
    for (const std::size_t i : misses) store->put(keys[i], results[i], host);
  }
  return results;
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
                                       const CalibrationOptions& opts,
                                       ResultStore* store) {
  opts.validate();
  // The probe occupies core 0 and the k-th CSThr core 1+k; without this
  // guard the extra agents would silently land on the next socket and
  // calibrate availability against interference that never shares the L3.
  if (opts.max_threads >= machine.cores_per_socket)
    throw std::invalid_argument("calibrate_capacity: too many threads");
  // One probe shape per (ratio r, distribution d), ratio-major: the order
  // the serial fold below feeds a level's estimates to RunningStats, which
  // fixes its rounding.
  std::vector<apps::SyntheticConfig> shapes;
  for (const double ratio : opts.buffer_to_l3_ratios) {
    const auto elements = static_cast<std::uint64_t>(
        ratio * static_cast<double>(machine.l3.size_bytes) / 4);
    const auto table = model::AccessDistribution::table2(elements);
    for (const std::size_t d : opts.probe_distributions)
      shapes.push_back({table.at(d), 4, /*compute_ops=*/1,
                        /*warmup=*/elements * 2, opts.accesses_per_probe});
  }
  // Slot (k, shape s) is k * shapes + s: each level's probes sit together.
  std::vector<Probe> probes;
  for (std::uint32_t k = 0; k <= opts.max_threads; ++k)
    for (const auto& shape : shapes)
      probes.push_back({synthetic_name(shape), make_synthetic_workload(shape),
                        at_once(InterferenceSpec::storage(k, cs))});
  const auto results = run_probes(machine, opts.seed, probes, store);

  std::vector<model::EhrModel> ehr;
  for (const auto& shape : shapes)
    ehr.emplace_back(shape.dist, shape.element_bytes);
  CapacityCalibration out;
  for (std::size_t first = 0; first < results.size(); first += shapes.size()) {
    RunningStats estimate;
    for (std::size_t s = 0; s < shapes.size(); ++s)
      estimate.add(
          ehr[s].invert_capacity(results[first + s].app_l3_miss_rate));
    out.available_bytes.push_back(estimate.mean());
    out.stddev_bytes.push_back(estimate.stddev());
  }
  return out;
}

BandwidthCalibration calibrate_bandwidth(const sim::MachineConfig& machine,
                                         const interfere::BWThrConfig& bw,
                                         std::uint32_t max_threads,
                                         std::uint64_t seed,
                                         ResultStore* store) {
  if (max_threads >= machine.cores_per_socket)
    throw std::invalid_argument("calibrate_bandwidth: too many threads");
  // Slot 0 is the STREAM peak alone on the socket; slot 1 + k the idle
  // window against k BWThrs.
  apps::StreamProbeConfig stream;
  stream.array_bytes = machine.l3.size_bytes * 2;
  std::vector<Probe> probes{{stream_name(stream), make_stream_workload(stream),
                             InterferenceSpec::none()}};
  for (std::uint32_t k = 0; k <= max_threads; ++k)
    probes.push_back({idle_name(kWindowCycles),
                      make_idle_workload(kWindowCycles),
                      at_once(InterferenceSpec::bandwidth(k, bw))});
  const auto results = run_probes(machine, seed, probes, store);

  BandwidthCalibration out;
  out.peak_bytes_per_sec = results[0].total_mem_bandwidth;
  for (std::size_t i = 1; i < results.size(); ++i)
    out.used_bytes_per_sec.push_back(results[i].total_mem_bandwidth);
  return out;
}

}  // namespace am::measure
