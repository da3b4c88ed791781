#pragma once
// Calibration of the interference threads, i.e. the paper's Section III:
// how much cache capacity do k CSThrs effectively deny (via the inverted
// EHR model over synthetic benchmarks, §III-C3), and how much bandwidth do
// k BWThrs consume (via miss counters, §III-A). The resulting tables map
// "k interference threads" to "resource left for the application", which
// is what turns a degradation sweep into resource-use bounds.
//
// Every probe is an ordinary SimBackend scenario: a workload factory on
// core 0 of socket 0 (the synthetic benchmark, the STREAM triad, or an
// idle window), k interference threads on cores 1..k with no head start,
// and the call's seed. Each call runs its probes concurrently on a thread
// pool it owns and joins before returning; callers need no pool of their
// own, and the call is safe from inside another pool's task. Each probe
// fills its own slot and the per-k statistics are folded serially in a
// fixed order, so the tables are bit-identical to a serial run and
// independent of the host's core count.
//
// Because a probe is a scenario, a ResultStore caches it like a grid
// point. Pass one and each probe is looked up under its ScenarioKey
// (machine fingerprint, a probe name that spells every workload input,
// resource, k, spec_signature, seed, cycle budget) before the pool
// starts; only the misses run, and their results are put into the store
// after the join. A hit reads back the bits a run would produce, so a
// cached calibration equals a computed one. Without a store (the default)
// every probe runs. Every probe sits on socket 0 of node 0, so probes
// run on, and are keyed by, a one-node copy of the machine: fig10's 12
// nodes and fig12's 32 share their records. Drivers keep these records
// apart from their grid stores, in store_path(results_dir,
// "calibration"), which they share.
#include <cstdint>
#include <vector>

#include "interfere/bwthr_agent.hpp"
#include "interfere/csthr_agent.hpp"
#include "sim/machine.hpp"

namespace am::measure {

class ResultStore;

struct CapacityCalibration {
  /// available_bytes[k]: effective cache capacity with k CSThrs running.
  std::vector<double> available_bytes;
  /// Dispersion of the estimate across probe distributions.
  std::vector<double> stddev_bytes;
};

struct BandwidthCalibration {
  /// Peak socket bandwidth (STREAM-style probe), bytes/s.
  double peak_bytes_per_sec = 0.0;
  /// used_bytes_per_sec[k]: bandwidth consumed by k BWThrs alone.
  std::vector<double> used_bytes_per_sec;
  /// available[k] = peak - used[k].
  double available(std::uint32_t k) const {
    return peak_bytes_per_sec - used_bytes_per_sec.at(k);
  }
};

struct CalibrationOptions {
  std::uint32_t max_threads = 5;
  /// Probe-benchmark buffer sizes as multiples of the L3 capacity
  /// (the paper uses 1.5x..3.7x).
  std::vector<double> buffer_to_l3_ratios{2.0, 3.0};
  /// Indices into AccessDistribution::table2 used as probes. Defaults to
  /// Exp_6 and Uni: one concentrated, one flat.
  std::vector<std::size_t> probe_distributions{4, 9};
  std::uint64_t accesses_per_probe = 400'000;
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument on options no probe can run: no ratios
  /// or distributions (the mean of no estimates would read 0 bytes), a
  /// ratio that is not positive and finite, a distribution index outside
  /// Table II, or zero accesses per probe.
  void validate() const;
};

/// Fig. 6 procedure: run probe benchmarks against k CSThrs, measure L3
/// miss rates, invert Eq. 4 into effective capacity, average over probes.
/// Validates `opts` before building any engine. `store`, when set, serves
/// and records the probes (see the file comment).
CapacityCalibration calibrate_capacity(const sim::MachineConfig& machine,
                                       const interfere::CSThrConfig& cs,
                                       const CalibrationOptions& opts = {},
                                       ResultStore* store = nullptr);

/// §III-A procedure: measure the bandwidth k BWThrs draw on an otherwise
/// idle socket, and the STREAM-style peak. `store` as for
/// calibrate_capacity.
BandwidthCalibration calibrate_bandwidth(const sim::MachineConfig& machine,
                                         const interfere::BWThrConfig& bw,
                                         std::uint32_t max_threads,
                                         std::uint64_t seed = 1,
                                         ResultStore* store = nullptr);

}  // namespace am::measure
