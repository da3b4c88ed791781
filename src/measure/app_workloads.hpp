#pragma once
// Ready-made workload factories wiring the application proxies into the
// SimBackend: they build the rank mapping, the communicator and one agent
// per rank, and report each used socket's free cores as interference slots
// — exactly the experimental setup of the paper's §IV.
#include <cstdint>

#include "apps/lulesh_proxy.hpp"
#include "apps/mcb_proxy.hpp"
#include "apps/stream_probe.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "measure/sim_backend.hpp"

namespace am::measure {

/// MCB with `ranks` ranks, `per_socket` processes per processor.
SimBackend::WorkloadFactory make_mcb_workload(std::uint32_t ranks,
                                              std::uint32_t per_socket,
                                              apps::McbConfig config);

/// Lulesh with `ranks` ranks (must be cubic), `per_socket` per processor.
SimBackend::WorkloadFactory make_lulesh_workload(std::uint32_t ranks,
                                                 std::uint32_t per_socket,
                                                 apps::LuleshConfig config);

/// Interference core groups an MCB or Lulesh factory with this mapping
/// offers: one per socket hosting ranks. Computed from the mapping alone
/// — no engine — for WorkloadSpec::interference_groups. Throws like the
/// factory would when the machine cannot host the mapping.
std::uint32_t mpi_interference_groups(const sim::MachineConfig& machine,
                                      std::uint32_t ranks,
                                      std::uint32_t per_socket);

/// The single-agent factories below each place one primary on core 0 of
/// socket 0 and offer the rest of that socket for interference (one
/// group), so k interference threads land on cores 1..k.

/// One synthetic probabilistic benchmark; measurement starts when its
/// warm-up accesses are done.
SimBackend::WorkloadFactory make_synthetic_workload(
    apps::SyntheticConfig config);

/// The STREAM-style triad probe.
SimBackend::WorkloadFactory make_stream_workload(
    apps::StreamProbeConfig config);

/// An apps::IdleAgent holding the run open for `cycles`: the window in
/// which only the interference threads draw on the memory system.
SimBackend::WorkloadFactory make_idle_workload(sim::Cycles cycles);

}  // namespace am::measure
