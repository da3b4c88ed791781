#include "measure/result_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/atomic_file.hpp"
#include "common/fingerprint.hpp"
#include "common/line_doc.hpp"
#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

constexpr std::string_view kHeader = "#am-result-store v1";
// Run-time sidecar (`<path>.times`): "fp <tab> hexfloat-seconds" per
// line. Separate from the canonical TSV on purpose — wall-clocks differ
// run to run, and the canonical file's bytes must not.
constexpr const char* kTimesHeader = "#am-run-times v1";
// key-fp host machine workload resource threads spec seed max_cycles
// seconds cycles + 12 counters + miss-rate app-bw total-bw ithreads
// timed_out.
constexpr std::size_t kColumns = 28;

[[noreturn]] void fail(const std::string& path, std::size_t line,
                       const std::string& why) {
  throw std::runtime_error("ResultStore: " + path + ":" +
                           std::to_string(line) + ": " + why);
}

Resource parse_resource(const std::string& s, const std::string& path,
                        std::size_t line) {
  for (const auto r : {Resource::kCacheStorage, Resource::kBandwidth})
    if (s == resource_name(r)) return r;
  fail(path, line, "unknown resource '" + s + "'");
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Field-by-field bitwise equality (memcmp over the whole struct would
/// also compare padding bytes, which are unspecified).
bool bits_equal(const SimRunResult& a, const SimRunResult& b) {
  return bits_equal(a.seconds, b.seconds) && a.cycles == b.cycles &&
         a.app.loads == b.app.loads && a.app.stores == b.app.stores &&
         a.app.l1_hits == b.app.l1_hits && a.app.l2_hits == b.app.l2_hits &&
         a.app.l3_hits == b.app.l3_hits &&
         a.app.mem_accesses == b.app.mem_accesses &&
         a.app.prefetch_issued == b.app.prefetch_issued &&
         a.app.prefetch_dropped == b.app.prefetch_dropped &&
         a.app.writebacks == b.app.writebacks &&
         a.app.bytes_from_mem == b.app.bytes_from_mem &&
         a.app.compute_cycles == b.app.compute_cycles &&
         a.app.stall_cycles == b.app.stall_cycles &&
         bits_equal(a.app_l3_miss_rate, b.app_l3_miss_rate) &&
         bits_equal(a.app_mem_bandwidth, b.app_mem_bandwidth) &&
         bits_equal(a.total_mem_bandwidth, b.total_mem_bandwidth) &&
         a.interference_threads == b.interference_threads &&
         a.timed_out == b.timed_out;
}

}  // namespace

std::string machine_fingerprint(const sim::MachineConfig& m) {
  Fingerprint fp;
  fp.mix(kResultEpoch)
      .mix(m.name)
      .mix(m.nodes)
      .mix(m.sockets_per_node)
      .mix(m.cores_per_socket)
      .mix(m.frequency_ghz);
  for (const auto* c : {&m.l1, &m.l2, &m.l3})
    fp.mix(c->size_bytes)
        .mix(c->line_bytes)
        .mix(c->ways)
        .mix(c->insert_age)
        .mix(c->replacement);
  fp.mix(m.l1_latency)
      .mix(m.l2_latency)
      .mix(m.l3_latency)
      .mix(m.mem_latency)
      .mix(m.mem_bandwidth_bytes_per_sec)
      .mix(m.writeback_cost_factor)
      .mix(m.link_bandwidth_bytes_per_sec)
      .mix(m.link_latency)
      .mix(m.max_outstanding_misses)
      .mix(m.l3_hint_interval)
      .mix(m.prefetcher.num_streams)
      .mix(m.prefetcher.degree)
      .mix(m.prefetcher.confirm_threshold)
      .mix(m.prefetcher.max_stride_lines)
      .mix(m.prefetcher.page_lines)
      .mix(m.prefetcher.enabled);
  // The memory backend changes simulated results, so it must key results
  // — but only when it deviates from the default: mixing nothing for
  // kChannel keeps every pre-backend fingerprint (and the cached results
  // stored under it) valid.
  if (m.mem_backend != sim::MemBackendKind::kChannel) {
    fp.mix(static_cast<std::uint32_t>(m.mem_backend))
        .mix(m.dram.channels)
        .mix(m.dram.banks)
        .mix(m.dram.row_bytes)
        .mix(m.dram.t_rcd)
        .mix(m.dram.t_rp)
        .mix(m.dram.t_cas)
        .mix(m.dram.base_latency)
        .mix(m.dram.refresh_interval)
        .mix(m.dram.refresh_cycles);
  }
  // The set-index hash changes line placement (H3 reshuffles every set
  // mapping), so it keys results too — same default-elision as the
  // backend: kMask mixes nothing so pre-existing fingerprints stay valid.
  if (m.set_hash != sim::SetHash::kMask)
    fp.mix(static_cast<std::uint32_t>(m.set_hash));
  return fp.hex();
}

std::string store_path(const std::string& results_dir,
                       const std::string& driver) {
  return (std::filesystem::path(results_dir) / (driver + ".tsv")).string();
}

std::string spec_signature(const InterferenceSpec& spec) {
  if (spec.count == 0) return "none";
  std::ostringstream out;
  if (spec.resource == Resource::kCacheStorage)
    out << "cs:b" << spec.cs.buffer_bytes << ":n" << spec.cs.batch_size;
  else
    out << "bw:b" << spec.bw.buffer_bytes << ":n" << spec.bw.num_buffers
        << ":s" << spec.bw.line_stride << ":i" << spec.bw.index_compute_cycles
        << ":g" << spec.bw.buffers_per_step;
  out << ":w" << spec.warmup_cycles;
  return out.str();
}

ScenarioKey ScenarioKey::make(std::string machine, std::string workload,
                              Resource resource, std::uint32_t threads,
                              std::string spec, std::uint64_t seed,
                              std::uint64_t max_cycles) {
  ScenarioKey key;
  key.machine = std::move(machine);
  key.workload = std::move(workload);
  // A baseline runs no interference agents, so its nominal resource and
  // interference configuration cannot affect the result; normalize them
  // away exactly like ResultTable keys do.
  key.resource = threads == 0 ? Resource::kCacheStorage : resource;
  key.threads = threads;
  key.spec = threads == 0 ? "none" : std::move(spec);
  key.seed = seed;
  key.max_cycles = max_cycles;
  return key;
}

std::string ScenarioKey::fingerprint() const {
  Fingerprint fp;
  fp.mix(machine)
      .mix(workload)
      .mix(resource)
      .mix(threads)
      .mix(spec)
      .mix(seed)
      .mix(max_cycles);
  return fp.hex();
}

ResultStore ResultStore::load(const std::string& path,
                              const StoreLoadOptions& opts) {
  auto in = LineReader::open(path);
  if (!in) throw std::runtime_error("ResultStore: cannot open " + path);
  if (in->header().empty()) fail(path, 1, "empty file (no header)");
  if (in->header() != kHeader) {
    if (in->header().starts_with(kHeader.substr(0, kHeader.find(' '))))
      fail(path, 1,
           "format version mismatch: file says '" + in->header() +
               "', this build reads v" + std::to_string(kFormatVersion) +
               " — re-run the sweep or convert the store");
    fail(path, 1, "not a result store (missing '" + std::string(kHeader) +
                      "' header)");
  }

  ResultStore store;
  try {
    while (in->next()) {
      if (in->key().starts_with('#')) continue;  // comments permitted
      const std::size_t lineno = in->line();
      if (in->size() != kColumns)
        fail(path, lineno,
             "expected " + std::to_string(kColumns) + " fields, got " +
                 std::to_string(in->size()));

      ResultRecord rec;
      rec.host = in->str(1);
      rec.key.machine = in->str(2);
      rec.key.workload = in->str(3);
      rec.key.resource = parse_resource(in->str(4), path, lineno);
      rec.key.threads = in->u32(5);
      rec.key.spec = in->str(6);
      rec.key.seed = in->u64(7);
      rec.key.max_cycles = in->u64(8);

      auto& r = rec.result;
      r.seconds = in->f64(9);
      r.cycles = in->u64(10);
      auto& c = r.app;
      c.loads = in->u64(11);
      c.stores = in->u64(12);
      c.l1_hits = in->u64(13);
      c.l2_hits = in->u64(14);
      c.l3_hits = in->u64(15);
      c.mem_accesses = in->u64(16);
      c.prefetch_issued = in->u64(17);
      c.prefetch_dropped = in->u64(18);
      c.writebacks = in->u64(19);
      c.bytes_from_mem = in->u64(20);
      c.compute_cycles = in->u64(21);
      c.stall_cycles = in->u64(22);
      r.app_l3_miss_rate = in->f64(23);
      r.app_mem_bandwidth = in->f64(24);
      r.total_mem_bandwidth = in->f64(25);
      r.interference_threads = in->u64(26);
      r.timed_out = in->flag(27, "timed_out");

      const std::string& fp = in->key();
      if (rec.key.fingerprint() != fp)
        fail(path, lineno,
             "fingerprint mismatch (stored " + fp + ", fields hash to " +
                 rec.key.fingerprint() +
                 ") — record was edited or corrupted");
      if (!opts.expect_host.empty() && rec.host != opts.expect_host)
        fail(path, lineno,
             "host fingerprint mismatch: record was measured on host " +
                 rec.host + ", expected " + opts.expect_host +
                 " — refusing to mix machines' numbers");
      if (!opts.expect_machine.empty() &&
          rec.key.machine != opts.expect_machine)
        fail(path, lineno,
             "simulated-machine fingerprint mismatch: record is for "
             "machine " +
                 rec.key.machine + ", expected " + opts.expect_machine);

      const auto [it, inserted] = store.records_.emplace(fp, rec);
      if (!inserted && !(it->second.key == rec.key))
        fail(path, lineno, "fingerprint collision between two distinct keys");
      if (!inserted && !bits_equal(it->second.result, rec.result))
        // Hand-concatenated store files, not `amresult merge`: the same
        // scenario appears twice with different numbers. Refuse to pick.
        fail(path, lineno,
             "duplicate record for scenario '" + rec.key.workload + "' × " +
                 resource_name(rec.key.resource) + " × " +
                 std::to_string(rec.key.threads) +
                 " threads with conflicting results — one of them is stale");
    }
  } catch (const LineError& e) {
    fail(path, e.line(), e.what());
  }

  // Run-time sidecar: best effort. A missing, stale, or malformed sidecar
  // only costs scheduling accuracy, so unlike the canonical file it is
  // never a load error; entries for unknown fingerprints are ignored, and
  // a line the codec cannot read ends the sidecar.
  auto times = LineReader::open(path + ".times");
  if (!times || times->header() != kTimesHeader) return store;
  try {
    while (times->next()) {
      const auto it = store.records_.find(times->key());
      if (times->size() != 2 || it == store.records_.end()) continue;
      const double v = times->f64(1);
      if (v >= 0.0) it->second.run_seconds = v;
    }
  } catch (const LineError&) {  // the lines before it still count
  }
  return store;
}

ResultStore ResultStore::load_or_empty(const std::string& path,
                                       const StoreLoadOptions& opts) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return {};
  return load(path, opts);
}

const ResultRecord* ResultStore::lookup(const ScenarioKey& key) const {
  const std::string fp = key.fingerprint();
  for (const auto* records : {&records_, &seed_}) {
    const auto it = records->find(fp);
    if (it != records->end() && it->second.key == key) return &it->second;
  }
  return nullptr;
}

bool ResultStore::has(const ScenarioKey& key) const {
  return lookup(key) != nullptr;
}

const SimRunResult* ResultStore::find(const ScenarioKey& key) const {
  const ResultRecord* rec = lookup(key);
  return rec != nullptr ? &rec->result : nullptr;
}

void ResultStore::seed(const ResultStore& cache) {
  for (const auto& [fp, rec] : cache.records_) seed_.emplace(fp, rec);
}

void ResultStore::adopt(const ScenarioKey& key) {
  const std::string fp = key.fingerprint();
  if (records_.contains(fp)) return;
  const auto it = seed_.find(fp);
  if (it != seed_.end() && it->second.key == key) records_.emplace(*it);
}

void ResultStore::put(const ScenarioKey& key, const SimRunResult& result,
                      std::string host, double run_seconds) {
  for (const auto* field : {&key.workload, &key.machine, &key.spec})
    if (field->find_first_of("\t\n\r") != std::string::npos)
      throw std::invalid_argument(
          "ResultStore: key field contains tab/newline: '" + *field + "'");
  if (host.empty())
    host = interfere::HostIdentity::detect().fingerprint();
  const auto fp = key.fingerprint();
  const auto it = records_.find(fp);
  if (it != records_.end() && !(it->second.key == key))
    throw std::runtime_error(
        "ResultStore: fingerprint collision between distinct keys (" +
        it->second.key.workload + " vs " + key.workload + ")");
  records_[fp] = ResultRecord{key, std::move(host), result, run_seconds};
}

double ResultStore::run_seconds(const ScenarioKey& key) const {
  const ResultRecord* rec = lookup(key);
  return rec != nullptr ? rec->run_seconds : 0.0;
}

void ResultStore::merge(const ResultStore& other) {
  for (const auto& [fp, rec] : other.records_) {
    const auto it = records_.find(fp);
    if (it == records_.end()) {
      records_.emplace(fp, rec);
      continue;
    }
    // Run times are hints, not payload: keep ours when known, otherwise
    // adopt the other store's (merge order is fixed by the caller, so
    // this stays deterministic).
    if (it->second.run_seconds <= 0.0 && rec.run_seconds > 0.0)
      it->second.run_seconds = rec.run_seconds;
    if (!(it->second.key == rec.key))
      throw std::runtime_error(
          "ResultStore::merge: fingerprint collision between distinct keys");
    // Bitwise payload agreement: sim runs are deterministic, so two stores
    // holding the same key must hold the same numbers. Disagreement means
    // a stale store or a mislabeled workload — refuse to pick a winner.
    if (!bits_equal(it->second.result, rec.result))
      throw std::runtime_error(
          "ResultStore::merge: conflicting results for scenario '" +
          rec.key.workload + "' × " + resource_name(rec.key.resource) +
          " × " + std::to_string(rec.key.threads) +
          " threads — stores disagree; one of them is stale");
  }
}

void ResultStore::save(const std::string& path) const {
  LineWriter doc(kHeader);
  for (const auto& [fp, rec] : records_) {
    const auto& r = rec.result;
    const auto& c = r.app;
    doc.row(fp, rec.host, rec.key.machine, rec.key.workload,
            resource_name(rec.key.resource), rec.key.threads, rec.key.spec,
            rec.key.seed, rec.key.max_cycles, r.seconds, r.cycles, c.loads,
            c.stores, c.l1_hits, c.l2_hits, c.l3_hits, c.mem_accesses,
            c.prefetch_issued, c.prefetch_dropped, c.writebacks,
            c.bytes_from_mem, c.compute_cycles, c.stall_cycles,
            r.app_l3_miss_rate, r.app_mem_bandwidth, r.total_mem_bandwidth,
            r.interference_threads, r.timed_out);
  }
  // Atomic: a worker killed mid-save must not leave a torn store file for
  // the next (cached or merging) reader to choke on.
  doc.save(path, "ResultStore");

  // Sidecar with the known run times, best effort: losing it costs the
  // scheduler its measured costs (it falls back to the cost model), never
  // a result.
  LineWriter times(kTimesHeader);
  bool any = false;
  for (const auto& [fp, rec] : records_)
    if (rec.run_seconds > 0.0) {
      times.row(fp, rec.run_seconds);
      any = true;
    }
  if (any) try_atomic_write_file(path + ".times", times.str());
}

std::vector<const ResultRecord*> ResultStore::records() const {
  std::vector<const ResultRecord*> out;
  out.reserve(records_.size());
  for (const auto& [fp, rec] : records_) out.push_back(&rec);
  return out;
}

std::vector<std::string> ResultStore::hosts() const {
  std::vector<std::string> out;
  for (const auto& [fp, rec] : records_)
    if (std::find(out.begin(), out.end(), rec.host) == out.end())
      out.push_back(rec.host);
  return out;
}

ResultStoreFile::ResultStoreFile(const std::string& results_dir,
                                 const std::string& driver) {
  if (results_dir.empty()) return;
  std::filesystem::create_directories(results_dir);
  path_ = store_path(results_dir, driver);
  store_ = ResultStore::load_or_empty(path_);
}

ResultStoreFile ResultStoreFile::for_lease(const std::string& results_dir,
                                           const std::string& driver,
                                           const std::string& lease_path) {
  if (lease_path.empty())
    throw std::invalid_argument(
        "ResultStoreFile: a lease worker needs a --lease path");
  ResultStoreFile file(results_dir, driver);
  file.path_ = lease_store_path(lease_path);
  ResultStore mine = ResultStore::load_or_empty(file.path_);
  // The canonical cache the delegated constructor loaded (empty when
  // results_dir is unset — a standalone lease worker has none) is looked
  // up, never saved: this lease's own records win, and its store file
  // stays its own.
  mine.seed(file.store_);
  file.store_ = std::move(mine);
  return file;
}

void ResultStoreFile::save() {
  if (path_.empty()) return;
  store_.save(path_);
}

std::function<void(const ResultStore&)> ResultStoreFile::checkpointer(
    double min_interval_seconds) const {
  if (path_.empty()) return nullptr;
  using Clock = std::chrono::steady_clock;
  // Shared across std::function copies so every copy honors one throttle.
  // `nullopt` = never saved: the first completed point always reaches disk.
  // (An epoch-initialized time_point would not do — steady_clock counts
  // from boot, so on a host up for less than the interval the first save
  // would be wrongly throttled away.)
  auto last = std::make_shared<std::optional<Clock::time_point>>();
  return [path = path_, min_interval_seconds, last](const ResultStore& store) {
    const auto now = Clock::now();
    if (*last &&
        now - **last < std::chrono::duration<double>(min_interval_seconds))
      return;
    *last = now;
    store.save(path);
  };
}

void ResultStoreFile::finish(std::size_t executed, std::size_t planned,
                             std::ostream& out) {
  if (path_.empty()) return;
  store_.save(path_);
  // `reused` counts this invocation's cache hits only — the store may
  // also hold records of other machines/grids, which were neither.
  const std::size_t reused = planned > executed ? planned - executed : 0;
  out << "results: " << store_.size() << " records in " << path_ << " ("
      << executed << " executed, " << reused << " reused)\n";
}

}  // namespace am::measure
