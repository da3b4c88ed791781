#include "common/work_lease.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/line_doc.hpp"

namespace am {

namespace {

constexpr const char* kLeaseHeader = "#am-work-lease v1";
constexpr const char* kAckHeader = "#am-lease-ack v1";
constexpr const char* kPlanHeader = "#am-plan-info v1";

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
  LineWriter doc(kLeaseHeader);
  doc.row("lease", offer.lease.id)
      .row("done", offer.done)
      .row("cost", offer.lease.cost);
  // Daemon-only fields, omitted when empty.
  if (!offer.plan_path.empty()) doc.row("plan", offer.plan_path);
  if (!offer.seed_store_path.empty())
    doc.row("seed_store", offer.seed_store_path);
  doc.row("points", offer.lease.points);
  doc.save(path, "work-lease");
}

std::optional<LeaseOffer> read_lease_offer(const std::string& path) {
  auto in = LineReader::open(path);
  if (!in || in->header() != kLeaseHeader) return std::nullopt;
  LeaseOffer offer;
  bool saw_lease = false, saw_done = false, saw_points = false;
  try {
    while (in->next()) {
      const std::string& key = in->key();
      if (key == "lease") {
        offer.lease.id = in->u64(1);
        saw_lease = true;
      } else if (key == "done") {
        offer.done = in->flag(1);
        saw_done = true;
      } else if (key == "cost") {
        offer.lease.cost = in->f64(1);
      } else if (key == "plan") {
        offer.plan_path = in->str(1);
      } else if (key == "seed_store") {
        offer.seed_store_path = in->str(1);
      } else if (key == "points") {
        for (std::size_t i = 1; i < in->size(); ++i)
          offer.lease.points.push_back(static_cast<std::size_t>(in->u64(i)));
        saw_points = true;
      }
    }
  } catch (const LineError&) {
    return std::nullopt;
  }
  if (!saw_lease || !saw_done || !saw_points) return std::nullopt;
  return offer;
}

void write_lease_acks(const std::string& path, const LeaseAckFile& file) {
  LineWriter doc(kAckHeader);
  for (const auto& ack : file.acks)
    doc.row("lease", ack.lease_id)
        .row("points", ack.points)
        .row("executed", ack.executed)
        .row("wall", ack.wall_seconds);
  if (file.ready) doc.row("ready", *file.ready);
  doc.save(path, "lease-ack");
}

std::optional<LeaseAckFile> read_lease_acks(const std::string& path) {
  auto in = LineReader::open(path);
  if (!in || in->header() != kAckHeader) return std::nullopt;
  LeaseAckFile file;
  try {
    while (in->next()) {
      const std::string& key = in->key();
      if (key == "lease") {
        file.acks.emplace_back().lease_id = in->u64(1);
      } else if (key == "ready") {
        if (file.ready) return std::nullopt;
        file.ready = in->u64(1);
      } else if (key == "points" || key == "executed" || key == "wall") {
        // A field belongs to the record the latest `lease` line opened.
        if (file.acks.empty()) return std::nullopt;
        LeaseAck& ack = file.acks.back();
        if (key == "wall")
          ack.wall_seconds = in->f64(1);
        else
          (key == "points" ? ack.points : ack.executed) =
              static_cast<std::size_t>(in->u64(1));
      }
    }
  } catch (const LineError&) {
    return std::nullopt;
  }
  if (file.acks.empty() && !file.ready) return std::nullopt;
  return file;
}

void write_plan_info(const std::string& path, const PlanInfo& info) {
  LineWriter doc(kPlanHeader);
  doc.row("points", info.points);
  for (std::size_t i = 0; i < info.costs.size(); ++i)
    doc.row("cost", i, info.costs[i]);
  doc.save(path, "plan-info");
}

std::optional<PlanInfo> read_plan_info(const std::string& path) {
  auto in = LineReader::open(path);
  if (!in || in->header() != kPlanHeader) return std::nullopt;
  std::optional<PlanInfo> info;
  try {
    while (in->next()) {
      if (in->key() == "points") {
        if (info) return std::nullopt;
        info.emplace().points = static_cast<std::size_t>(in->u64(1));
      } else if (in->key() == "cost") {
        // One line per point, in index order, after the points line: the
        // costs are sized by the lines read, never by the count claimed.
        const auto i = in->u64(1);
        const double c = in->f64(2);
        // make_batches rejects a negative or non-finite cost: refuse it
        // here, where a bad probe file is a reported probe error.
        if (!info || i != info->costs.size() || !std::isfinite(c) || c < 0.0)
          return std::nullopt;
        info->costs.push_back(c);
      }
    }
  } catch (const LineError&) {
    return std::nullopt;
  }
  if (info && info->costs.size() != info->points) return std::nullopt;
  return info;
}

}  // namespace am
