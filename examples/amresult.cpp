// amresult — inspect, validate and merge persistent result stores.
//
// The multi-host workflow: `amsweep slice` cuts a figure grid into one
// static lease file per host, and each host's `--lease` run writes its
// slice into its own store file; amresult folds those slice stores into
// the store the driver reads, validating format versions, per-record
// integrity and key collisions on the way. A subsequent driver run with
// the same --results-dir then prints the figure with zero engine runs.
// (Single-machine sweeps don't need the manual merge: `amsweep`
// supervises its lease workers and performs this merge as a library
// call — amresult remains the tool for slices gathered from different
// machines, and for inspection.)
//
//   amresult show     <store.tsv>            # records as an ASCII table
//   amresult validate <store.tsv>...         # integrity + provenance check
//   amresult merge --out <merged.tsv> <store.tsv>...
//            [--allow-mixed-hosts]           # fold slice stores into one
//
// An input naming the --out file itself may be missing: merging slice
// stores into a results dir's store lists that store first, to keep its
// older records, and a fresh results dir has none yet.
//
// Merging refuses to combine records produced on different physical hosts
// unless --allow-mixed-hosts is given: simulator results are deterministic
// and host-independent, so the flag is safe for sim stores, but the
// refusal is what keeps two machines' *host-measured* numbers from being
// silently blended.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "interfere/host_identity.hpp"
#include "measure/result_store.hpp"

namespace {

using am::measure::ResultStore;

int usage() {
  std::fprintf(
      stderr,
      "usage: amresult show <store.tsv>\n"
      "       amresult validate <store.tsv>...\n"
      "       amresult merge --out <merged.tsv> [--allow-mixed-hosts] "
      "<store.tsv>...\n");
  return 2;
}

void print_store(const ResultStore& store) {
  am::Table t({"workload", "resource", "thr", "seconds", "timed out",
               "machine", "host"});
  for (const auto* rec : store.records())
    t.add_row({rec->key.workload, resource_name(rec->key.resource),
               std::to_string(rec->key.threads),
               am::Table::num(rec->result.seconds * 1e3, 3) + " ms",
               rec->result.timed_out ? "yes" : "no",
               rec->key.machine.substr(0, 8), rec->host.substr(0, 8)});
  t.print(std::cout);
}

int show(const std::string& path) {
  const auto store = ResultStore::load(path);
  std::printf("%s: %zu records\n", path.c_str(), store.size());
  print_store(store);
  return 0;
}

int validate(const std::vector<std::string>& paths) {
  bool ok = true;
  for (const auto& path : paths) {
    try {
      const auto store = ResultStore::load(path);
      const auto hosts = store.hosts();
      std::printf("%s: OK, %zu records, %zu host%s\n", path.c_str(),
                  store.size(), hosts.size(), hosts.size() == 1 ? "" : "s");
    } catch (const std::exception& e) {
      std::printf("%s: INVALID — %s\n", path.c_str(), e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int merge(const std::string& out, bool allow_mixed_hosts,
          const std::vector<std::string>& paths) {
  ResultStore merged;
  for (const auto& path : paths) {
    const auto store = path == out ? ResultStore::load_or_empty(path)
                                   : ResultStore::load(path);
    merged.merge(store);
    std::printf("merged %s (%zu records)\n", path.c_str(), store.size());
  }
  const auto hosts = merged.hosts();
  if (hosts.size() > 1 && !allow_mixed_hosts) {
    std::fprintf(stderr,
                 "error: inputs were measured on %zu different hosts; "
                 "refusing to mix machines' numbers.\n"
                 "Simulator stores are host-independent — pass "
                 "--allow-mixed-hosts to merge them anyway.\n",
                 hosts.size());
    return 1;
  }
  merged.save(out);
  std::printf("wrote %zu records to %s\n", merged.size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const am::Cli cli(argc, argv);
  const auto& args = cli.positional();
  if (args.empty()) return usage();
  const std::string& command = args[0];
  const std::vector<std::string> paths(args.begin() + 1, args.end());

  try {
    if (command == "show" && paths.size() == 1) return show(paths[0]);
    if (command == "validate" && !paths.empty()) return validate(paths);
    if (command == "merge" && !paths.empty()) {
      const auto out = cli.get("out", "");
      if (out.empty()) {
        std::fprintf(stderr, "amresult merge: --out is required\n");
        return 2;
      }
      return merge(out, cli.get_bool("allow-mixed-hosts", false), paths);
    }
    if (command == "host") {  // undocumented helper: this host's fingerprint
      const auto id = am::interfere::HostIdentity::detect();
      std::printf("%s  (%s, %u cpus)\n", id.fingerprint().c_str(),
                  id.hostname.c_str(), id.logical_cpus);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amresult: %s\n", e.what());
    return 1;
  }
  return usage();
}
