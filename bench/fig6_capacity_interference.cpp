// Fig. 6 of the paper: effective cache capacity available to the synthetic
// benchmarks under 0..5 CSThrs, for three compute intensities (1, 10, 100
// integer ops between loads). Each chart cell aggregates the ten Table II
// distributions: mean effective capacity (inverted Eq. 4) +- stddev.
//
// Paper reference shape (20 MB L3, 4 MB CSThr buffers):
//   k=0 -> ~20 MB, k=1 -> ~15 MB, k=2 -> ~12 MB, k=3 -> ~7 MB,
//   k=4 -> ~5 MB, k=5 -> ~2.5 MB; dispersion grows with access frequency
//   (i.e. is largest for the 1-op variant under heavy interference).
#include <atomic>

#include "bench_util.hpp"
#include "model/distributions.hpp"

int main(int argc, char** argv) {
  am::Cli cli(argc, argv);
  const auto ctx = am::bench::make_context(cli, /*default_scale=*/16);
  const bool full = cli.get_bool("full", false);
  const auto num_sizes =
      static_cast<std::size_t>(cli.get_int("sizes", full ? 22 : 3));
  const auto num_dists =
      static_cast<std::size_t>(cli.get_int("dists", full ? 10 : 4));
  const auto max_threads =
      static_cast<std::uint32_t>(cli.get_int("max-threads", 5));
  // The probe holds core 0 and the CSThrs share its socket (cores 1..k).
  if (max_threads >= ctx.machine.cores_per_socket) {
    std::cerr << "fig6: --max-threads must be below the "
              << ctx.machine.cores_per_socket << " cores of a socket\n";
    return 2;
  }
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 150'000));
  const std::vector<std::uint32_t> ops_levels{1, 10, 100};

  const auto sizes = ctx.paper_buffer_bytes(num_sizes);

  struct Key {
    std::size_t ops_i, k, size_i, dist_i;
  };
  std::vector<Key> jobs;
  for (std::size_t oi = 0; oi < ops_levels.size(); ++oi)
    for (std::uint32_t k = 0; k <= max_threads; ++k)
      for (std::size_t si = 0; si < sizes.size(); ++si)
        for (std::size_t di = 0; di < num_dists; ++di)
          jobs.push_back({oi, k, si, di});

  std::vector<double> capacity(jobs.size());
  am::ThreadPool pool;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    pool.submit([&, j] {
      const auto& key = jobs[j];
      const std::uint64_t elements = sizes[key.size_i] / 4;
      const auto dist =
          am::model::AccessDistribution::table2(elements)[key.dist_i];
      const auto outcome = am::bench::run_synth_experiment(
          ctx, dist, ops_levels[key.ops_i],
          static_cast<std::uint32_t>(key.k), accesses);
      capacity[j] = outcome.effective_capacity;
    });
  }
  pool.wait_idle();

  const double mb = 1024.0 * 1024.0;
  for (std::size_t oi = 0; oi < ops_levels.size(); ++oi) {
    am::Table t({"CSThrs", "Eff. capacity mean (MB)", "Stddev (MB)",
                 "Paper @20MB (MB)"});
    const char* paper_ref[] = {"20", "15", "12", "7", "5", "2.5"};
    for (std::uint32_t k = 0; k <= max_threads; ++k) {
      am::RunningStats agg;
      for (std::size_t j = 0; j < jobs.size(); ++j)
        if (jobs[j].ops_i == oi && jobs[j].k == k) agg.add(capacity[j]);
      t.add_row({std::to_string(k), am::Table::num(agg.mean() / mb, 3),
                 am::Table::num(agg.stddev() / mb, 3),
                 k < 6 ? paper_ref[k] : "-"});
    }
    am::bench::emit(
        t, ctx,
        "Fig. 6: effective capacity under CSThr interference, " +
            std::to_string(ops_levels[oi]) + " int op(s) between loads" +
            " (paper column assumes the unscaled 20 MB L3)");
  }
  return 0;
}
