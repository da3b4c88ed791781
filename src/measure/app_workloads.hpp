#pragma once
// Ready-made workload factories wiring the application proxies into the
// SimBackend: they build the rank mapping, the communicator and one agent
// per rank, and report each used socket's free cores as interference slots
// — exactly the experimental setup of the paper's §IV.
#include <cstdint>

#include "apps/lulesh_proxy.hpp"
#include "apps/mcb_proxy.hpp"
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

/// One synthetic probabilistic benchmark on core 0 of socket 0; the rest
/// of the socket is offered for interference (one group).
SimBackend::WorkloadFactory make_synthetic_workload(
    apps::SyntheticConfig config);

}  // namespace am::measure
