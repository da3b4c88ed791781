// §II-A / §III-A calibration: bandwidth drawn by k BWThrs and the
// STREAM-style peak. Paper reference points: one BWThr uses ~2.8 GB/s of
// the Xeon20MB's 17 GB/s; ~7 threads consume approximately all of it.
#include "bench_util.hpp"

#include "measure/calibration.hpp"
#include "measure/result_store.hpp"

int main(int argc, char** argv) {
  am::Cli cli(argc, argv);
  const auto ctx = am::bench::make_context(cli, /*default_scale=*/8);
  const auto max_threads = static_cast<std::uint32_t>(
      cli.get_int("max-threads", ctx.machine.cores_per_socket - 1));

  // --results-dir serves and records the probes in the calibration store
  // the figure drivers share.
  am::measure::ResultStoreFile store(ctx.results_dir, "calibration");
  const std::size_t held = store.store() ? store.store()->size() : 0;
  const auto calib = am::measure::calibrate_bandwidth(
      ctx.machine, ctx.bw_config(), max_threads, ctx.seed, store.store());
  if (store.store() != nullptr)  // the peak plus one window per level
    store.finish(store.store()->size() - held, max_threads + 2, std::cout);

  am::Table t({"BWThrs", "Used GB/s", "Available GB/s", "Used % of peak"});
  for (std::uint32_t k = 0; k <= max_threads; ++k) {
    t.add_row({std::to_string(k),
               am::Table::num(calib.used_bytes_per_sec[k] / 1e9, 2),
               am::Table::num(calib.available(k) / 1e9, 2),
               am::Table::num(100.0 * calib.used_bytes_per_sec[k] /
                                  calib.peak_bytes_per_sec,
                              1)});
  }
  am::bench::emit(t, ctx,
                  "BWThr bandwidth calibration (STREAM peak " +
                      am::Table::num(calib.peak_bytes_per_sec / 1e9, 2) +
                      " GB/s; paper: 2.8 GB/s per thread of 17 GB/s)");
  return 0;
}
