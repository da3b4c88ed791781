#include "measure/app_workloads.hpp"

#include <memory>

#include "apps/idle_agent.hpp"
#include "minimpi/communicator.hpp"
#include "minimpi/mapping.hpp"

namespace am::measure {

namespace {

template <typename AgentT, typename ConfigT>
SimBackend::WorkloadFactory make_mpi_workload(std::uint32_t ranks,
                                              std::uint32_t per_socket,
                                              ConfigT config) {
  return [=](sim::Engine& engine) {
    auto mapping = std::make_shared<minimpi::Mapping>(engine.config(), ranks,
                                                      per_socket);
    auto comm = std::make_shared<minimpi::Communicator>(engine, *mapping);
    engine.own(mapping);
    engine.own(comm);
    WorkloadInfo info;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const auto idx = engine.add_agent(
          std::make_unique<AgentT>(engine, *comm, *mapping, r, config),
          mapping->placement(r).core, /*primary=*/true);
      info.primary_agents.push_back(idx);
    }
    for (const auto socket : mapping->used_sockets())
      info.interference_cores.push_back(mapping->free_cores(socket));
    return info;
  };
}

/// `agent` as the primary on core 0 of socket 0, the rest of the socket
/// as the one interference group.
WorkloadInfo core0_workload(sim::Engine& engine,
                            std::unique_ptr<sim::Agent> agent) {
  WorkloadInfo info;
  info.primary_agents.push_back(
      engine.add_agent(std::move(agent), /*core=*/0, /*primary=*/true));
  std::vector<sim::CoreId> free;
  for (sim::CoreId c = 1; c < engine.config().cores_per_socket; ++c)
    free.push_back(c);
  info.interference_cores.push_back(std::move(free));
  return info;
}

}  // namespace

SimBackend::WorkloadFactory make_mcb_workload(std::uint32_t ranks,
                                              std::uint32_t per_socket,
                                              apps::McbConfig config) {
  return make_mpi_workload<apps::McbProxyAgent>(ranks, per_socket, config);
}

SimBackend::WorkloadFactory make_lulesh_workload(std::uint32_t ranks,
                                                 std::uint32_t per_socket,
                                                 apps::LuleshConfig config) {
  return make_mpi_workload<apps::LuleshProxyAgent>(ranks, per_socket, config);
}

std::uint32_t mpi_interference_groups(const sim::MachineConfig& machine,
                                      std::uint32_t ranks,
                                      std::uint32_t per_socket) {
  return static_cast<std::uint32_t>(
      minimpi::Mapping(machine, ranks, per_socket).used_sockets().size());
}

SimBackend::WorkloadFactory make_synthetic_workload(
    apps::SyntheticConfig config) {
  return [config](sim::Engine& engine) {
    auto agent = std::make_unique<apps::SyntheticBenchmarkAgent>(
        engine.memory(), config);
    const auto* raw = agent.get();
    WorkloadInfo info = core0_workload(engine, std::move(agent));
    info.measure_start = [raw](const sim::Engine&) {
      return raw->measure_start_cycle();
    };
    return info;
  };
}

SimBackend::WorkloadFactory make_stream_workload(
    apps::StreamProbeConfig config) {
  return [config](sim::Engine& engine) {
    return core0_workload(engine, std::make_unique<apps::StreamProbeAgent>(
                                      engine.memory(), config));
  };
}

SimBackend::WorkloadFactory make_idle_workload(sim::Cycles cycles) {
  return [cycles](sim::Engine& engine) {
    return core0_workload(engine, std::make_unique<apps::IdleAgent>(cycles));
  };
}

}  // namespace am::measure
