#pragma once
// The benchmark's workloads. Each runs in-process against the repository's
// libraries; one call is one iteration: set-up, then the timed phase, then
// (untimed) output digesting. See README.md for why each workload exists.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "measure/experiment_plan.hpp"
#include "trace.hpp"

namespace ambench {

/// What one iteration produced.
struct Iteration {
  double setup_s = 0.0;  // host seconds of set-up
  double wall_s = 0.0;   // host seconds of the timed phase
  double cpu_s = 0.0;    // user + sys of the timed phase, children included
  std::size_t attempted = 0;  // points (engine runs) the phase owned
  std::size_t failed = 0;     // timed out, threw, or reported missing
  /// Digest of the outputs; equal on every iteration of one seed.
  std::string digest;
};

struct Workload {
  const char* name;
  /// One iteration under `dir` (an empty directory the caller removes).
  Iteration (*run)(std::uint64_t seed, const std::string& dir, Trace& trace);
};

const std::vector<Workload>& workloads();

/// The worker personality amsweep_lease's orchestrator spawns: the
/// lease/probe contract of the figure drivers (measure::run_lease_worker,
/// measure::emit_plan_info) over the grid_cold plan, with a pinned pool.
int worker_main(int argc, char** argv);

/// Pool sizes: in-process pools, and each orchestrator worker's pool.
/// kWorkers * kWorkerThreads equals kPoolThreads (nproc on the reference
/// host), so amsweep_lease and grid_cold get the same cores.
inline constexpr std::size_t kPoolThreads = 4;
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kWorkerThreads = 2;

double median(std::vector<double> v);

/// Digest of a store file's records without the host-fingerprint column
/// (everything else — keys, hexfloat results — is host-independent).
std::string store_digest(const std::string& path);

/// Timed-out points of a store-less run of the grid_cold plan under the
/// given cycle budget; the self-test uses a tiny budget to show that the
/// failure count is live.
std::size_t grid_timeouts_at_budget(std::uint64_t seed,
                                    std::uint64_t max_cycles);

}  // namespace ambench
