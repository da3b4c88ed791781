// ambench: the repository's end-to-end benchmark.
//
//   ambench run --workload W --seed N --seconds S --trace 0|1
//               [--work-dir DIR] [--expected FILE]
//   ambench metrics     metric names and units, one per line
//   ambench selftest    fast checks of the benchmark's own machinery
//   ambench worker ...  amsweep_lease's worker (spawned by the orchestrator)
//
// `run` repeats iterations of one workload until S seconds have passed and
// prints, as its last stdout line, one JSON object: with --trace 0 the
// end-to-end metrics (times of the fastest iteration), with --trace 1 the
// per-layer metrics (medians over traced iterations). Traced iterations
// alternate with untraced ones, so the tracing overhead is measured in the
// same run. The exit code
// is 0 only if every output digest agreed (see outputs_agree).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "measure/result_store.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace ambench {
namespace {

namespace fs = std::filesystem;

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd{
    {"wall_s", "s"},        {"setup_s", "s"}, {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},  {"ok_frac", "ratio"},
};

const std::vector<Metric> kPerLayer{
    {"measure.plan_build_s", "s"},
    {"measure.store_load_s", "s"},
    {"measure.store_save_s", "s"},
    {"measure.store_saves", "count"},
    {"measure.points_executed", "count"},
    {"measure.points_cached", "count"},
    {"measure.cache_hit_ratio", "ratio"},
    {"measure.point_run_p50_s", "s"},
    {"measure.point_run_max_s", "s"},
    {"measure.pool_utilization", "ratio"},
    {"measure.calib_capacity_s", "s"},
    {"measure.calib_bandwidth_s", "s"},
    {"measure.calib_probe_engines", "count"},
    {"measure.sweep_grid_s", "s"},
    {"measure.bounds_s", "s"},
    {"measure.orchestrator.idle_share", "ratio"},
    {"measure.orchestrator.overhead_s", "s"},
    {"measure.orchestrator.leases", "count"},
    {"measure.orchestrator.busy_max_over_mean", "ratio"},
    {"measure.orchestrator.respawns", "count"},
    {"measure.orchestrator.workers", "count"},
    {"apps.setup_s", "s"},
    {"sim.run_s", "s"},
    {"sim.accesses", "count"},
    {"sim.cycles", "cycles"},
    {"sim.ns_per_access", "ns"},
    {"sim.l1_filter_hit_ratio", "ratio"},
    {"sim.l1_hit_ratio", "ratio"},
    {"sim.l2_filter_hit_ratio", "ratio"},
    {"sim.l2_hit_ratio", "ratio"},
    {"sim.l3_hit_ratio", "ratio"},
    {"sim.mem_ratio", "ratio"},
    {"sim.prefetch_drop_ratio", "ratio"},
    {"sim.writebacks", "count"},
    {"sim.stall_cycles", "cycles"},
    {"sim.backend_bytes", "bytes"},
    {"sim.backend_utilization", "ratio"},
    {"interfere.access_share", "ratio"},
    {"interfere.agents", "count"},
    {"common.pool_threads", "count"},
    {"bench.self_s", "s"},
    {"common.self_s", "s"},
    {"measure.self_s", "s"},
    {"apps.self_s", "s"},
    {"sim.self_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.spans", "count"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced iteration, from its spans and counters.
/// A metric of a layer the workload does not reach is 0.
std::map<std::string, double> layer_metrics(const Trace& trace) {
  const auto spans = trace.spans();
  const auto counters = trace.counters();
  auto get = [&](const std::string& key) {
    const auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> span_s;
  std::vector<double> points;
  for (const auto& s : spans) {
    span_s[s.name] += s.end - s.start;
    if (s.name == "measure.point") points.push_back(s.end - s.start);
  }
  const double accesses = get("sim.accesses");
  const double l1_misses = accesses - get("sim.l1_hits");
  const double planned = get("measure.points_planned");
  const double executed = get("measure.points_executed");
  const auto self = layer_self_seconds(spans);
  auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  return {
      {"measure.plan_build_s", span_s["measure.plan_build"]},
      {"measure.store_load_s", span_s["measure.store_load"]},
      {"measure.store_save_s", span_s["measure.store_save"]},
      {"measure.store_saves", get("measure.store_saves")},
      {"measure.points_executed", executed},
      {"measure.points_cached", planned - executed},
      {"measure.cache_hit_ratio", ratio(planned - executed, planned)},
      {"measure.point_run_p50_s", median(points)},
      {"measure.point_run_max_s",
       points.empty() ? 0.0 : *std::max_element(points.begin(), points.end())},
      {"measure.pool_utilization",
       ratio(span_s["measure.point"], get("measure.pool_thread_s"))},
      {"measure.calib_capacity_s", span_s["measure.calib_capacity"]},
      {"measure.calib_bandwidth_s", span_s["measure.calib_bandwidth"]},
      {"measure.calib_probe_engines", get("measure.calib_probe_engines")},
      {"measure.sweep_grid_s", span_s["measure.sweep_grid"]},
      {"measure.bounds_s", span_s["measure.bounds"]},
      {"measure.orchestrator.idle_share",
       get("measure.orchestrator.idle_share")},
      {"measure.orchestrator.overhead_s",
       get("measure.orchestrator.overhead_s")},
      {"measure.orchestrator.leases", get("measure.orchestrator.leases")},
      {"measure.orchestrator.busy_max_over_mean",
       get("measure.orchestrator.busy_max_over_mean")},
      {"measure.orchestrator.respawns", get("measure.orchestrator.respawns")},
      {"measure.orchestrator.workers", get("measure.orchestrator.workers")},
      {"apps.setup_s", span_s["apps.setup"]},
      {"sim.run_s", span_s["sim.run"]},
      {"sim.accesses", accesses},
      {"sim.cycles", get("sim.cycles")},
      {"sim.ns_per_access", ratio(span_s["sim.run"] * 1e9, accesses)},
      {"sim.l1_filter_hit_ratio", ratio(get("sim.l1_filter_hits"), accesses)},
      {"sim.l1_hit_ratio", ratio(get("sim.l1_hits"), accesses)},
      {"sim.l2_filter_hit_ratio", ratio(get("sim.l2_filter_hits"), l1_misses)},
      {"sim.l2_hit_ratio", ratio(get("sim.l2_hits"), l1_misses)},
      {"sim.l3_hit_ratio",
       ratio(get("sim.l3_hits"), get("sim.l3_hits") + get("sim.mem_accesses"))},
      {"sim.mem_ratio", ratio(get("sim.mem_accesses"), accesses)},
      {"sim.prefetch_drop_ratio",
       ratio(get("sim.prefetch_dropped"), get("sim.prefetch_issued"))},
      {"sim.writebacks", get("sim.writebacks")},
      {"sim.stall_cycles", get("sim.stall_cycles")},
      {"sim.backend_bytes", get("sim.backend_bytes")},
      {"sim.backend_utilization",
       ratio(get("sim.backend_utilization_sum"), get("sim.backend_sockets"))},
      {"interfere.access_share", ratio(get("interfere.accesses"), accesses)},
      {"interfere.agents", get("interfere.agents")},
      {"common.pool_threads", get("common.pool_threads")},
      {"bench.self_s", self_of("bench")},
      {"common.self_s", self_of("common")},
      {"measure.self_s", self_of("measure")},
      {"apps.self_s", self_of("apps")},
      {"sim.self_s", self_of("sim")},
      {"trace.spans", static_cast<double>(spans.size())},
  };
}

/// The correctness gate over one run's iteration digests: all equal (the
/// workloads are deterministic, traced or not), none an error marker
/// (those contain ':' or are not 16 hex digits), and equal to `expected`
/// when one is committed for this seed. On failure `why` says which.
bool outputs_agree(const std::vector<std::string>& digests,
                   const std::string& expected, std::string& why) {
  if (digests.empty()) {
    why = "no outputs";
    return false;
  }
  for (const auto& d : digests) {
    if (d.size() != 16 ||
        d.find_first_not_of("0123456789abcdef") != std::string::npos) {
      why = "iteration failed (" + d + ")";
      return false;
    }
    if (d != digests.front()) {
      why = "iterations disagree: " + digests.front() + " vs " + d;
      return false;
    }
  }
  if (!expected.empty() && digests.front() != expected) {
    why = "digest " + digests.front() + " != committed " + expected;
    return false;
  }
  return true;
}

/// The committed digest of `workload` at `seed`, or "" when none is
/// committed. Lines: workload TAB seed TAB digest.
std::string expected_digest(const std::string& path,
                            const std::string& workload, std::uint64_t seed) {
  if (path.empty()) return "";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string name;
  std::uint64_t s = 0;
  std::string digest;
  while (in >> name >> s >> digest)
    if (name == workload && s == seed) return digest;
  return "";
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& defs,
                  const std::map<std::string, double>& values) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& m : defs) {
    std::cout << sep << '"' << m.name << "\": {\"value\": "
              << json_number(values.at(m.name)) << ", \"unit\": \"" << m.unit
              << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
}

int run_mode(const am::Cli& cli) {
  const std::string name = cli.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace_mode = cli.get_int("trace", 0) != 0;
  const fs::path work = fs::absolute(cli.get("work-dir", ".bench_build/ambench-work"));
  const std::string expected_file = cli.get("expected", "");
  const auto& all = workloads();
  const auto w = std::find_if(all.begin(), all.end(),
                              [&](const Workload& x) { return x.name == name; });
  if (w == all.end()) throw std::invalid_argument("unknown workload '" + name + "'");
  if (std::thread::hardware_concurrency() < kPoolThreads)
    std::cerr << "ambench: pools are pinned at " << kPoolThreads
              << " threads but this host has "
              << std::thread::hardware_concurrency()
              << " cores; figures are not comparable to a 4-core host's\n";

  const fs::path dir = work / "iteration";
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  std::vector<std::map<std::string, double>> layers;
  std::vector<std::string> digests;
  const double t_start = Trace::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced_iteration = trace_mode && i % 2 == 1;
    fs::remove_all(dir);
    fs::create_directories(dir);
    Trace trace(traced_iteration);
    const Iteration it = w->run(seed, dir.string(), trace);
    fs::remove_all(dir);
    std::cerr << "ambench: " << name << " seed " << seed << " iteration " << i
              << (traced_iteration ? " (traced)" : "") << ": setup "
              << it.setup_s << " s, wall " << it.wall_s << " s, cpu "
              << it.cpu_s << " s, digest " << it.digest << "\n";
    digests.push_back(it.digest);
    if (traced_iteration) {
      if (traced.empty())
        trace.write((work / ("trace-" + name + "-seed" + std::to_string(seed) +
                             ".tsv")).string());
      layers.push_back(layer_metrics(trace));
      traced.push_back(it);
    } else {
      plain.push_back(it);
    }
    if (Trace::now() - t_start >= seconds &&
        (!trace_mode || (!traced.empty() && plain.size() > 1)))
      break;
  }
  const double rss = peak_rss_mb();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* set : {&plain, &traced})
    for (const auto& it : *set) {
      attempted += it.attempted;
      failed += it.failed;
    }
  // Iteration 0 warms the process (page faults, lazy set-up, clock ramp);
  // its outputs are checked and counted, but its times are not reported
  // when later iterations exist.
  if (plain.size() > 1) plain.erase(plain.begin());
  std::string why;
  bool correct = outputs_agree(digests, expected_digest(expected_file, name, seed), why);
  if (correct && name == "amsweep_lease") {
    // The orchestrated sweep must merge to exactly the store of a direct
    // run of the same grid (workloads().front() is grid_cold).
    fs::remove_all(dir);
    fs::create_directories(dir);
    Trace off(false);
    const auto reference = workloads().front().run(seed, dir.string(), off);
    fs::remove_all(dir);
    correct = outputs_agree({digests.front(), reference.digest}, "", why);
    if (!correct) why = "merged store differs from grid_cold's: " + why;
  }
  if (!correct) std::cerr << "ambench: " << name << " outputs wrong: " << why << "\n";

  // Times are the fastest iteration's: the work is deterministic and the
  // host is shared, so co-tenant load only ever adds time, and on such a
  // host the minimum varies far less from run to run than the median.
  auto fastest = [](const std::vector<Iteration>& its, double Iteration::*field) {
    double best = its.front().*field;
    for (const auto& it : its) best = std::min(best, it.*field);
    return best;
  };
  std::map<std::string, double> values;
  if (!trace_mode) {
    values = {{"wall_s", fastest(plain, &Iteration::wall_s)},
              {"setup_s", fastest(plain, &Iteration::setup_s)},
              {"cpu_s", fastest(plain, &Iteration::cpu_s)},
              {"peak_rss_mb", rss},
              {"ok_frac", 1.0 - ratio(static_cast<double>(failed),
                                      static_cast<double>(attempted))}};
  } else {
    for (const auto& m : kPerLayer) {
      std::vector<double> v;
      for (const auto& l : layers)
        if (const auto it = l.find(m.name); it != l.end()) v.push_back(it->second);
      values[m.name] = median(v);
    }
    const double traced_wall = fastest(traced, &Iteration::wall_s);
    values["trace.wall_s"] = traced_wall;
    values["trace.overhead_s"] = traced_wall - fastest(plain, &Iteration::wall_s);
  }
  print_result(correct, attempted, failed, trace_mode ? kPerLayer : kEndToEnd,
               values);
  return correct ? 0 : 1;
}

int metrics_mode() {
  for (const auto& m : kEndToEnd)
    std::cout << "end_to_end " << m.name << ' ' << m.unit << '\n';
  for (const auto& m : kPerLayer)
    std::cout << "per_layer " << m.name << ' ' << m.unit << '\n';
  for (const auto& w : workloads()) std::cout << "workload " << w.name << " -\n";
  return 0;
}

int selftest_mode(const am::Cli& cli) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Self time on a hand-built tree: overlapping children count once, a
  // child sticking out of its parent is clipped, grandchildren only
  // reduce their own parent.
  const std::vector<Span> spans{
      {1, 0, 1, "bench.timed", 0.0, 10.0},
      {2, 1, 1, "measure.sweep", 1.0, 4.0},
      {3, 1, 1, "measure.store_save", 3.0, 6.0},
      {4, 1, 1, "measure.orchestrator", 8.0, 12.0},
      {5, 2, 1, "sim.run", 2.0, 3.0},
  };
  check(near(self_seconds(spans[0], {spans[1], spans[2], spans[3]}), 3.0),
        "self time: root covered by [1,6] and clipped [8,10] keeps 3 s");
  check(near(self_seconds(spans[1], {spans[4]}), 2.0),
        "self time: child [2,3] leaves its parent 2 s");
  const auto layers = layer_self_seconds(spans);
  check(near(layers.at("bench"), 3.0) && near(layers.at("measure"), 9.0) &&
            near(layers.at("sim"), 1.0),
        "self time per layer: bench 3, measure 2+3+4, sim 1");

  // Digest gate: the host column is ignored, any other change trips it.
  const fs::path dir = fs::absolute(cli.get("work-dir", ".bench_build/ambench-work")) / "selftest";
  fs::remove_all(dir);
  fs::create_directories(dir);
  using am::measure::ResultStore;
  const auto key = am::measure::ScenarioKey::make(
      "machine", "workload", am::measure::Resource::kCacheStorage, 2,
      "cs:b4096:n4:w1000000", 7, 1000);
  am::measure::SimRunResult result;
  result.seconds = 1.5;
  result.cycles = 3000;
  auto digest_of = [&](const std::string& host, double seconds,
                       const std::string& file) {
    ResultStore store;
    auto r = result;
    r.seconds = seconds;
    store.put(key, r, host);
    store.save((dir / file).string());
    return store_digest((dir / file).string());
  };
  const auto base = digest_of("host-a", 1.5, "a.tsv");
  const auto other_host = digest_of("host-b", 1.5, "b.tsv");
  const auto perturbed = digest_of("host-a", std::nextafter(1.5, 2.0), "c.tsv");
  std::string why;
  check(base == other_host, "digest ignores the host fingerprint");
  check(outputs_agree({base, other_host}, base, why),
        "gate passes equal digests matching the committed one");
  check(!outputs_agree({base, perturbed}, "", why),
        "gate trips on a record perturbed by one ulp");
  check(!outputs_agree({perturbed}, base, why),
        "gate trips on a digest differing from the committed one");
  check(!outputs_agree({"threw"}, "", why), "gate trips on a failed iteration");
  fs::remove_all(dir);

  // Failure accounting: a cycle budget too small for any point to finish.
  const std::size_t timeouts = grid_timeouts_at_budget(1, 1000);
  check(timeouts > 0, "tiny cycle budget times out " + std::to_string(timeouts) +
                          " point(s)");

  std::set<std::string> names;
  for (const auto* defs : {&kEndToEnd, &kPerLayer})
    for (const auto& m : *defs) names.insert(m.name);
  check(names.size() == kEndToEnd.size() + kPerLayer.size(),
        "metric names are unique");
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ambench

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "worker")
    return ambench::worker_main(argc - 1, argv + 1);
  try {
    const am::Cli cli(argc, argv);
    const auto& pos = cli.positional();
    const std::string mode = pos.empty() ? "" : pos.front();
    if (mode == "run") return ambench::run_mode(cli);
    if (mode == "metrics") return ambench::metrics_mode();
    if (mode == "selftest") return ambench::selftest_mode(cli);
    std::cerr << "usage: ambench run|metrics|selftest [flags]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ambench: " << e.what() << "\n";
    return 2;
  }
}
