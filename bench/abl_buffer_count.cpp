// Ablation: BWThr throughput vs the number of concurrent buffers. The
// paper found 44 buffers sufficient to maximize concurrent memory traffic;
// this sweep shows the saturation curve on the simulator (throughput rises
// with memory-level parallelism until the line-fill-buffer limit).
#include "apps/idle_agent.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  am::Cli cli(argc, argv);
  const auto ctx = am::bench::make_context(cli, /*default_scale=*/8);
  const auto window = static_cast<am::sim::Cycles>(
      cli.get_int("cycles", 10'000'000));

  am::Table t({"Buffers", "BWThr GB/s", "GB/s per buffer"});
  for (const std::uint32_t nbuf : {1u, 2u, 4u, 8u, 16u, 32u, 44u, 64u}) {
    am::sim::Engine engine(ctx.machine, ctx.seed);
    engine.add_agent(std::make_unique<am::apps::IdleAgent>(window), 0);
    auto cfg = ctx.bw_config();
    cfg.num_buffers = nbuf;
    engine.add_agent(std::make_unique<am::interfere::BWThrAgent>(
                         engine.memory(), cfg),
                     1, /*primary=*/false);
    const auto end = engine.run();
    const double seconds = ctx.machine.cycles_to_seconds(end);
    const double bw =
        static_cast<double>(engine.agent_counters(1).bytes_from_mem) /
        seconds;
    t.add_row({std::to_string(nbuf), am::Table::num(bw / 1e9, 2),
               am::Table::num(bw / 1e9 / nbuf, 3)});
  }
  am::bench::emit(t, ctx,
                  "Ablation: BWThr bandwidth vs buffer count "
                  "(paper: 44 buffers found sufficient)");
  return 0;
}
