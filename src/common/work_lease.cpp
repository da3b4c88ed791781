#include "common/work_lease.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/strict_number.hpp"

namespace am {

namespace {

constexpr const char* kLeaseHeader = "#am-work-lease v1";
constexpr const char* kAckHeader = "#am-lease-ack v1";
constexpr const char* kPlanHeader = "#am-plan-info v1";

/// Hexfloat: costs and wall-clocks round-trip bit-exactly, like the
/// result store's doubles.
std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Reads the whole file and checks the header; nullopt when absent or
/// not the expected format. Remaining lines land in `lines`.
bool read_lines(const std::string& path, const char* header,
                std::vector<std::string>& lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != header) return false;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return true;
}

}  // namespace

std::vector<WorkLease> make_batches(std::size_t points, std::size_t count,
                                    const std::vector<double>& costs) {
  if (count == 0)
    throw std::invalid_argument("make_batches: count must be >= 1");
  if (!costs.empty() && costs.size() != points)
    throw std::invalid_argument(
        "make_batches: cost model has " + std::to_string(costs.size()) +
        " entries for " + std::to_string(points) + " points");
  for (const double c : costs)
    if (!(c >= 0.0) || c > std::numeric_limits<double>::max())
      throw std::invalid_argument(
          "make_batches: cost entries must be finite and >= 0");

  // Costliest first, ties by plan index: a pure function of its inputs.
  std::vector<std::size_t> order(points);
  for (std::size_t i = 0; i < points; ++i) order[i] = i;
  if (!costs.empty())
    std::stable_sort(
        order.begin(), order.end(),
        [&](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });

  // Contiguous slices of that order, sizes differing by at most one (the
  // leading slices take the remainder).
  std::vector<WorkLease> out(count);
  std::size_t next = 0;
  for (std::size_t b = 0; b < count; ++b) {
    WorkLease& lease = out[b];
    lease.id = b;
    const std::size_t size = points / count + (b < points % count ? 1 : 0);
    for (std::size_t k = 0; k < size; ++k, ++next) {
      lease.points.push_back(order[next]);
      lease.cost += costs.empty() ? 1.0 : costs[order[next]];
    }
  }
  return out;
}

std::string lease_ack_path(const std::string& lease_path) {
  return lease_path + ".ack";
}

std::string lease_store_path(const std::string& lease_path) {
  return lease_path + ".tsv";
}

std::string lease_heartbeat_path(const std::string& lease_path) {
  return lease_path + ".hb";
}

void write_lease_offer(const std::string& path, const LeaseOffer& offer) {
  std::ostringstream out;
  out << kLeaseHeader << '\n';
  out << "lease\t" << offer.lease.id << '\n';
  out << "done\t" << (offer.done ? 1 : 0) << '\n';
  out << "cost\t" << num(offer.lease.cost) << '\n';
  // Daemon-only fields, omitted when empty. Paths may not contain tabs
  // or newlines — the format has no escaping.
  if (!offer.plan_path.empty()) out << "plan\t" << offer.plan_path << '\n';
  if (!offer.seed_store_path.empty())
    out << "seed_store\t" << offer.seed_store_path << '\n';
  out << "points";
  for (const auto p : offer.lease.points) out << '\t' << p;
  out << '\n';
  atomic_write_file(path, out.str(), "work-lease");
}

std::optional<LeaseOffer> read_lease_offer(const std::string& path) {
  std::vector<std::string> lines;
  if (!read_lines(path, kLeaseHeader, lines)) return std::nullopt;
  LeaseOffer offer;
  bool saw_lease = false, saw_done = false, saw_points = false;
  for (const auto& line : lines) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "lease") {
      std::string v;
      if (!(in >> v) || !parse_u64(v, offer.lease.id)) return std::nullopt;
      saw_lease = true;
    } else if (key == "done") {
      std::string v;
      if (!(in >> v) || (v != "0" && v != "1")) return std::nullopt;
      offer.done = v == "1";
      saw_done = true;
    } else if (key == "cost") {
      std::string v;
      if (!(in >> v) || !parse_double(v, offer.lease.cost))
        return std::nullopt;
    } else if (key == "plan" || key == "seed_store") {
      // Path values run to end of line (spaces are legal in paths; tabs
      // and newlines are not — the writer has no escaping).
      if (line.size() <= key.size() + 1) return std::nullopt;
      const std::string value = line.substr(key.size() + 1);
      (key == "plan" ? offer.plan_path : offer.seed_store_path) = value;
    } else if (key == "points") {
      std::string v;
      while (in >> v) {
        std::uint64_t p = 0;
        if (!parse_u64(v, p)) return std::nullopt;
        offer.lease.points.push_back(static_cast<std::size_t>(p));
      }
      saw_points = true;
    }
  }
  if (!saw_lease || !saw_done || !saw_points) return std::nullopt;
  return offer;
}

void write_lease_acks(const std::string& path, const LeaseAckFile& file) {
  std::ostringstream out;
  out << kAckHeader << '\n';
  for (const auto& ack : file.acks) {
    out << "lease\t" << ack.lease_id << '\n';
    out << "points\t" << ack.points << '\n';
    out << "executed\t" << ack.executed << '\n';
    out << "wall\t" << num(ack.wall_seconds) << '\n';
  }
  if (file.ready) out << "ready\t" << *file.ready << '\n';
  atomic_write_file(path, out.str(), "lease-ack");
}

std::optional<LeaseAckFile> read_lease_acks(const std::string& path) {
  std::vector<std::string> lines;
  if (!read_lines(path, kAckHeader, lines)) return std::nullopt;
  LeaseAckFile file;
  for (const auto& line : lines) {
    std::istringstream in(line);
    std::string key, v;
    if (!(in >> key >> v)) return std::nullopt;
    std::uint64_t u = 0;
    if (key == "lease") {
      if (!parse_u64(v, u)) return std::nullopt;
      file.acks.emplace_back().lease_id = u;
    } else if (key == "ready") {
      if (file.ready || !parse_u64(v, u)) return std::nullopt;
      file.ready = u;
    } else if (key == "points" || key == "executed" || key == "wall") {
      // A field belongs to the record the latest `lease` line opened.
      if (file.acks.empty()) return std::nullopt;
      LeaseAck& ack = file.acks.back();
      if (key == "wall") {
        if (!parse_double(v, ack.wall_seconds)) return std::nullopt;
      } else {
        if (!parse_u64(v, u)) return std::nullopt;
        (key == "points" ? ack.points : ack.executed) =
            static_cast<std::size_t>(u);
      }
    }
  }
  if (file.acks.empty() && !file.ready) return std::nullopt;
  return file;
}

void write_plan_info(const std::string& path, const PlanInfo& info) {
  std::ostringstream out;
  out << kPlanHeader << '\n';
  out << "points\t" << info.points << '\n';
  for (std::size_t i = 0; i < info.costs.size(); ++i)
    out << "cost\t" << i << '\t' << num(info.costs[i]) << '\n';
  atomic_write_file(path, out.str(), "plan-info");
}

std::optional<PlanInfo> read_plan_info(const std::string& path) {
  std::vector<std::string> lines;
  if (!read_lines(path, kPlanHeader, lines)) return std::nullopt;
  PlanInfo info;
  bool saw_points = false;
  std::vector<std::pair<std::size_t, double>> costs;
  for (const auto& line : lines) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "points") {
      std::string v;
      std::uint64_t u = 0;
      if (!(in >> v) || !parse_u64(v, u)) return std::nullopt;
      info.points = static_cast<std::size_t>(u);
      saw_points = true;
    } else if (key == "cost") {
      std::string i_s, c_s;
      std::uint64_t i = 0;
      double c = 0.0;
      // make_batches rejects a negative or non-finite cost: refuse it
      // here, where a bad probe file is a reported probe error.
      if (!(in >> i_s >> c_s) || !parse_u64(i_s, i) ||
          !parse_double(c_s, c) || !std::isfinite(c) || c < 0.0)
        return std::nullopt;
      costs.emplace_back(static_cast<std::size_t>(i), c);
    }
  }
  if (!saw_points) return std::nullopt;
  // Costs are optional as a block but must cover the plan when present.
  if (!costs.empty()) {
    info.costs.assign(info.points, 1.0);
    for (const auto& [i, c] : costs) {
      if (i >= info.points) return std::nullopt;
      info.costs[i] = c;
    }
  }
  return info;
}

}  // namespace am
