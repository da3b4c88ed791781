#pragma once
// Persistent, content-addressed cache of experiment results.
//
// The paper's evaluation re-runs the same (workload × resource × threads)
// grids over and over — across figure drivers, across --quick and full
// sweeps, and (through lease workers) across processes and machines. A
// ResultStore makes every completed grid point durable: each SimRunResult
// is keyed by a ScenarioKey fingerprint covering everything that
// determines the number — the simulated machine, the workload's name
// (which embeds its parameters), the interference resource and thread
// count, the engine seed, and the cycle budget. Guarantees:
//
//   * Exactness: doubles are serialized as C99 hexfloats, so a result read
//     back from disk is bit-identical to the freshly computed one and a
//     cached ResultTable is indistinguishable from a recomputed one.
//   * Diff/merge-ability: the on-disk format is one TSV record per line,
//     written in canonical (fingerprint-sorted) order under a versioned
//     header, so stores diff cleanly and per-worker or per-slice stores
//     merge with plain collision checking (`amresult merge`).
//   * No silent mixing: every record carries the producing host's
//     fingerprint (interfere::HostIdentity); loading verifies the format
//     version, per-record integrity, and — when requested — that records
//     come from the expected host and simulated machine, failing with a
//     clear error instead of quietly blending numbers from two machines.
//
// File format (version 1):
//   line 1:  "#am-result-store v1"
//   line N:  key-fp  host-fp  machine-fp  workload  resource  threads
//            seed  max_cycles  seconds  cycles  <12 counter fields>
//            l3_miss_rate  app_bw  total_bw  interference_threads
//            timed_out              (tab-separated, one record per line)
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "measure/sim_backend.hpp"
#include "sim/machine.hpp"

namespace am::measure {

/// Bump whenever simulator or measurement code changes the numbers a run
/// produces (engine timing fixes, counter semantics, agent behaviour).
/// The epoch is mixed into every machine fingerprint, so stores written
/// by older code stop matching — a re-run recomputes instead of silently
/// reproducing pre-fix results from cache.
inline constexpr std::uint32_t kResultEpoch = 1;

/// Stable 16-hex-digit digest of every MachineConfig field that can change
/// simulation results, plus kResultEpoch. Two configs with equal
/// fingerprints produce bit-identical runs for equal (workload, spec,
/// seed, budget) under the same code epoch. The memory-backend selection
/// and its DramConfig knobs are part of the digest — they shape results —
/// but are mixed only when the backend deviates from the default channel
/// pipe, so pre-backend store files keep matching. MachineConfig holds
/// no host-speed knob, so every other field is mixed (am-lint AM004).
std::string machine_fingerprint(const sim::MachineConfig& machine);

/// The store-file naming policy every driver shares, so a merge and a
/// later cached re-run agree on paths: driver D reads/writes
/// <results_dir>/D.tsv. Merging lease or slice stores into D.tsv is
/// exactly what makes the next run fully cached.
std::string store_path(const std::string& results_dir,
                       const std::string& driver);

/// Canonical signature of an interference configuration — every CSThr /
/// BWThr parameter that changes the interference agents' behaviour, e.g.
/// "cs:b262144:n4:w1000000". Zero-thread specs normalize to "none": no
/// agents run, so their configuration cannot affect the result.
std::string spec_signature(const InterferenceSpec& spec);

/// Everything that determines one experiment's SimRunResult. Workload
/// parameters are covered through the workload *name*, so names must
/// uniquely identify workload + parameters within a store (the drivers
/// embed sizes/mappings in their names, e.g. "particles=90000").
struct ScenarioKey {
  std::string machine;   // machine_fingerprint(...) of the simulated machine
  std::string workload;  // WorkloadSpec::name (no tabs/newlines)
  Resource resource = Resource::kCacheStorage;
  std::uint32_t threads = 0;
  std::string spec;      // spec_signature(...) of the interference config
  std::uint64_t seed = 0;
  std::uint64_t max_cycles = 0;

  /// Builds a normalized key: threads == 0 points are baselines, whose
  /// nominal resource and interference configuration are irrelevant (no
  /// agents run) — resource is forced to kCacheStorage and spec to "none",
  /// the same normalization ResultTable keys use.
  static ScenarioKey make(std::string machine, std::string workload,
                          Resource resource, std::uint32_t threads,
                          std::string spec, std::uint64_t seed,
                          std::uint64_t max_cycles);

  /// 16-hex-digit digest of the canonical field encoding; the record's
  /// content address in the store file.
  std::string fingerprint() const;

  bool operator==(const ScenarioKey&) const = default;
};

/// One stored experiment: its key, the fingerprint of the host that ran it
/// (provenance; sim results do not depend on it), and the result.
struct ResultRecord {
  ScenarioKey key;
  std::string host;
  SimRunResult result;
  /// Wall-clock the producing engine run took (0 = unknown, e.g. a store
  /// written before run times existed). Feeds the dynamic scheduler's
  /// cost model (SweepRunner::estimate_costs); persisted in a
  /// `<path>.times` sidecar, NOT in the canonical TSV — run times differ
  /// between hosts and runs, and the canonical file must stay
  /// bit-identical however a sweep was scheduled.
  double run_seconds = 0.0;
};

/// Options for ResultStore::load. Empty expectations skip that check.
struct StoreLoadOptions {
  /// Reject records produced on a different physical host. Pass
  /// HostIdentity::detect().fingerprint() for host-measured data; leave
  /// empty for simulator stores, which are host-independent.
  std::string expect_host;
  /// Reject records for a different simulated machine.
  std::string expect_machine;
};

class ResultStore {
 public:
  static constexpr int kFormatVersion = 1;

  /// Parses a version-1 store file. Throws std::runtime_error (naming the
  /// path, line, and reason) on an unknown version, a malformed record, a
  /// record whose stored fingerprint does not match its fields, or a
  /// record violating `opts` expectations. A nonexistent file is an error;
  /// use load_or_empty for opportunistic cache opens.
  static ResultStore load(const std::string& path,
                          const StoreLoadOptions& opts = {});

  /// load(...) if `path` exists, otherwise an empty store.
  static ResultStore load_or_empty(const std::string& path,
                                   const StoreLoadOptions& opts = {});

  /// Lookups consult the store's own records first, then its seed.
  bool has(const ScenarioKey& key) const;
  /// The stored result, or nullptr on a miss.
  const SimRunResult* find(const ScenarioKey& key) const;

  /// Adds `cache`'s own records to this store's lookup seed. has, find
  /// and run_seconds fall back on the seed; save, merge, records, size
  /// and hosts see only the store's own records, so a store seeded from a
  /// large cache still writes only what was put into (or adopted by) it.
  /// A record already seeded wins over `cache`'s.
  void seed(const ResultStore& cache);

  /// Copies `key`'s seed record, host and run time included, into the
  /// store's own records. A no-op when the store holds `key` itself or
  /// the seed does not.
  void adopt(const ScenarioKey& key);

  /// Inserts or overwrites one record. `host` defaults to this host's
  /// fingerprint; `run_seconds` is the producing run's wall-clock (0 =
  /// unknown), kept as a scheduling hint. Throws std::invalid_argument
  /// on workload names the line-oriented format cannot hold (embedded
  /// tab/newline).
  void put(const ScenarioKey& key, const SimRunResult& result,
           std::string host = {}, double run_seconds = 0.0);

  /// The recorded wall-clock for `key`'s producing run, or 0.0 when the
  /// record is absent or predates run-time tracking.
  double run_seconds(const ScenarioKey& key) const;

  /// Folds `other` into this store. Records agreeing on key and payload
  /// deduplicate; records with equal keys but different payloads are a
  /// hard error (two workers measured the same scenario differently —
  /// one of them is stale or mislabeled).
  void merge(const ResultStore& other);

  /// Writes the canonical (fingerprint-sorted) file, atomically (write to
  /// `path`.tmp, then rename): a process killed mid-save leaves the old
  /// file intact, never a torn one. Records with a known run_seconds also
  /// land in a `<path>.times` sidecar (best effort — a lost sidecar only
  /// degrades cost estimates, never results). Throws std::runtime_error
  /// on I/O failure of the canonical file.
  void save(const std::string& path) const;

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Records in canonical fingerprint order.
  std::vector<const ResultRecord*> records() const;

  /// Distinct host fingerprints present (merged stores may hold several).
  std::vector<std::string> hosts() const;

 private:
  /// `key`'s record, own first, then seeded; nullptr on a miss.
  const ResultRecord* lookup(const ScenarioKey& key) const;

  std::map<std::string, ResultRecord> records_;  // fingerprint → record
  std::map<std::string, ResultRecord> seed_;     // lookups only, never saved
};

/// Driver convenience: the store file backing one invocation, named per
/// the store_path policy. Loads an existing file on construction; records
/// for other simulated machines (e.g. another --scale) coexist harmlessly
/// — every ScenarioKey embeds its machine fingerprint, so they can never
/// satisfy this run's lookups. Disabled entirely (store() == nullptr)
/// when results_dir is empty, so callers can pass the flag value through
/// unconditionally.
class ResultStoreFile {
 public:
  ResultStoreFile(const std::string& results_dir, const std::string& driver);

  /// Lease-worker variant: the backing file is the lease's own store
  /// (common/work_lease.hpp's lease_store_path(lease_path)), and the
  /// canonical store for `driver` under `results_dir` (when the
  /// directory is set and the file exists) is its lookup seed
  /// (ResultStore::seed) — so a re-sweep stays fully cached even when the
  /// scheduler hands this worker points a different worker ran last time,
  /// while the lease store holds only the lease's own points. Throws
  /// std::invalid_argument on an empty lease path.
  static ResultStoreFile for_lease(const std::string& results_dir,
                                   const std::string& driver,
                                   const std::string& lease_path);

  /// The backing store, or nullptr when disabled.
  ResultStore* store() { return path_.empty() ? nullptr : &store_; }
  const std::string& path() const { return path_; }

  /// Persists the store to its path now (atomic); no-op when disabled.
  /// The lease worker calls this before acknowledging each batch —
  /// durable results first, receipt second.
  void save();

  /// A SweepRunnerOptions::checkpoint callback persisting this file as
  /// points complete — at most once per `min_interval_seconds` (0 = every
  /// point), because the store is rewritten whole and a per-point save
  /// would cost O(n²) serialization over a large grid while stalling pool
  /// workers behind each save. The first completed point always saves;
  /// saves are atomic, so a kill mid-save keeps the previous checkpoint
  /// and a kill between saves loses at most an interval of finished runs
  /// (finish() persists everything unconditionally). Null when the store
  /// is disabled — assignable to the option unconditionally, like store().
  std::function<void(const ResultStore&)> checkpointer(
      double min_interval_seconds = 1.0) const;

  /// Persists the store and reports the run's cache economy on `out`:
  /// `planned` is the number of grid points this invocation was
  /// responsible for and `executed` how many actually ran (the difference
  /// is the cache hits). No-op when disabled.
  void finish(std::size_t executed, std::size_t planned, std::ostream& out);

 private:
  std::string path_;
  ResultStore store_;
};

}  // namespace am::measure
