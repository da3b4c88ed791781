#include "measure/plan_wire.hpp"

#include <stdexcept>

#include "common/line_doc.hpp"
#include "measure/app_workloads.hpp"

namespace am::measure {

namespace {

constexpr const char* kHeader = "#am-plan-spec v1";

[[noreturn]] void bad(std::size_t lineno, const std::string& why) {
  throw std::invalid_argument("plan-spec line " + std::to_string(lineno) +
                              ": " + why);
}

const char* dist_kind_name(model::DistKind kind) {
  switch (kind) {
    case model::DistKind::kNormal: return "normal";
    case model::DistKind::kExponential: return "exponential";
    case model::DistKind::kTriangular: return "triangular";
    case model::DistKind::kUniform: return "uniform";
  }
  return "uniform";
}

model::DistKind parse_dist_kind(const std::string& s, std::size_t lineno) {
  if (s == "normal") return model::DistKind::kNormal;
  if (s == "exponential") return model::DistKind::kExponential;
  if (s == "triangular") return model::DistKind::kTriangular;
  if (s == "uniform") return model::DistKind::kUniform;
  bad(lineno, "unknown distribution kind '" + s +
                  "' (normal|exponential|triangular|uniform)");
}

Resource parse_resource_word(const std::string& s, std::size_t lineno) {
  for (const Resource r : {Resource::kCacheStorage, Resource::kBandwidth})
    if (s == resource_name(r)) return r;
  bad(lineno, "unknown resource '" + s + "' (cache-storage|bandwidth)");
}

void check_point_refs(const PlanSpec& spec) {
  for (const auto& p : spec.points)
    if (p.workload >= spec.workloads.size())
      throw std::invalid_argument(
          "plan-spec: point references workload " +
          std::to_string(p.workload) + " but only " +
          std::to_string(spec.workloads.size()) + " are declared");
}

/// Names travel as fields; the codec refuses tabs and newlines in them.
void check_name(const std::string& name, const char* what) {
  if (name.empty())
    throw std::invalid_argument(std::string("plan-spec: ") + what +
                                " must not be empty");
}

}  // namespace

bool operator==(const WorkloadWire& a, const WorkloadWire& b) {
  return a.kind == b.kind && a.name == b.name && a.dist == b.dist &&
         a.dist_name == b.dist_name && a.n == b.n && a.dist_a == b.dist_a &&
         a.dist_b == b.dist_b && a.element_bytes == b.element_bytes &&
         a.compute_ops == b.compute_ops &&
         a.warmup_accesses == b.warmup_accesses &&
         a.measured_accesses == b.measured_accesses && a.ranks == b.ranks &&
         a.per_socket == b.per_socket && a.particles == b.particles &&
         a.edge == b.edge && a.steps == b.steps && a.app_scale == b.app_scale;
}

bool operator==(const PointWire& a, const PointWire& b) {
  return a.workload == b.workload && a.resource == b.resource &&
         a.threads == b.threads;
}

bool operator==(const PlanSpec& a, const PlanSpec& b) {
  return a.machine_scale == b.machine_scale &&
         a.machine_nodes == b.machine_nodes &&
         a.mem_backend == b.mem_backend && a.seed == b.seed &&
         a.max_cycles == b.max_cycles &&
         a.mix_seed_per_point == b.mix_seed_per_point &&
         a.cs.buffer_bytes == b.cs.buffer_bytes &&
         a.cs.batch_size == b.cs.batch_size &&
         a.bw.buffer_bytes == b.bw.buffer_bytes &&
         a.bw.num_buffers == b.bw.num_buffers &&
         a.bw.line_stride == b.bw.line_stride &&
         a.bw.index_compute_cycles == b.bw.index_compute_cycles &&
         a.bw.buffers_per_step == b.bw.buffers_per_step &&
         a.workloads == b.workloads && a.points == b.points;
}

std::string serialize_plan_spec(const PlanSpec& spec) {
  if (spec.machine_scale == 0)
    throw std::invalid_argument("plan-spec: machine scale must be >= 1");
  check_name(spec.mem_backend, "memory backend");
  LineWriter doc(kHeader);
  doc.row("machine", "scale", spec.machine_scale, "nodes", spec.machine_nodes,
          "backend", spec.mem_backend);
  doc.row("run", "seed", spec.seed, "max_cycles", spec.max_cycles,
          "mix_seed", spec.mix_seed_per_point);
  doc.row("cs", spec.cs.buffer_bytes, spec.cs.batch_size);
  doc.row("bw", spec.bw.buffer_bytes, spec.bw.num_buffers,
          spec.bw.line_stride, spec.bw.index_compute_cycles,
          spec.bw.buffers_per_step);
  for (const auto& w : spec.workloads) {
    check_name(w.name, "workload name");
    switch (w.kind) {
      case WorkloadWire::Kind::kSynthetic: {
        const std::string& dist_name =
            w.dist_name.empty() ? w.name : w.dist_name;
        doc.row("workload", "synthetic", w.name, dist_name,
                dist_kind_name(w.dist), w.n, w.dist_a, w.dist_b,
                w.element_bytes, w.compute_ops, w.warmup_accesses,
                w.measured_accesses);
        break;
      }
      case WorkloadWire::Kind::kMcb:
        doc.row("workload", "mcb", w.name, w.ranks, w.per_socket,
                w.particles, w.steps, w.app_scale);
        break;
      case WorkloadWire::Kind::kLulesh:
        doc.row("workload", "lulesh", w.name, w.ranks, w.per_socket, w.edge,
                w.steps, w.app_scale);
        break;
    }
  }
  check_point_refs(spec);
  for (const auto& p : spec.points)
    doc.row("point", p.workload, resource_name(p.resource), p.threads);
  doc.row("end");
  return doc.str();
}

PlanSpec parse_plan_spec(const std::string& text) {
  LineReader in(text);
  if (in.header() != kHeader)
    throw std::invalid_argument(
        std::string("plan-spec: missing '") + kHeader + "' header");
  PlanSpec spec;
  bool saw_machine = false, saw_run = false, saw_end = false;
  try {
    while (in.next()) {
      const std::size_t lineno = in.line();
      if (saw_end) bad(lineno, "content after the 'end' trailer");
      const std::string& key = in.key();
      if (key == "machine") {
        if (in.size() != 7 || in.str(1) != "scale" || in.str(3) != "nodes" ||
            in.str(5) != "backend")
          bad(lineno, "machine line must be "
                      "'machine\\tscale\\tS\\tnodes\\tN\\tbackend\\tB'");
        spec.machine_scale = in.u32(2, "machine scale");
        if (spec.machine_scale == 0) bad(lineno, "machine scale must be >= 1");
        spec.machine_nodes = in.u32(4, "machine nodes");
        if (spec.machine_nodes == 0) bad(lineno, "machine nodes must be >= 1");
        spec.mem_backend = in.str(6);
        if (spec.mem_backend.empty()) bad(lineno, "empty memory backend");
        saw_machine = true;
      } else if (key == "run") {
        if (in.size() != 7 || in.str(1) != "seed" || in.str(3) != "max_cycles" ||
            in.str(5) != "mix_seed")
          bad(lineno, "run line must be "
                      "'run\\tseed\\tS\\tmax_cycles\\tC\\tmix_seed\\t0|1'");
        spec.seed = in.u64(2, "seed");
        spec.max_cycles = in.u64(4, "max_cycles");
        spec.mix_seed_per_point = in.flag(6, "mix_seed");
        saw_run = true;
      } else if (key == "cs") {
        if (in.size() != 3) bad(lineno, "cs line must carry 2 fields");
        spec.cs.buffer_bytes = in.u64(1, "cs buffer_bytes");
        spec.cs.batch_size = in.u32(2, "cs batch_size");
      } else if (key == "bw") {
        if (in.size() != 6) bad(lineno, "bw line must carry 5 fields");
        spec.bw.buffer_bytes = in.u64(1, "bw buffer_bytes");
        spec.bw.num_buffers = in.u32(2, "bw num_buffers");
        spec.bw.line_stride = in.u32(3, "bw line_stride");
        spec.bw.index_compute_cycles = in.u32(4, "bw index_compute_cycles");
        spec.bw.buffers_per_step = in.u32(5, "bw buffers_per_step");
      } else if (key == "workload") {
        const std::string& kind = in.str(1, "workload kind");
        WorkloadWire w;
        if (kind == "synthetic") {
          if (in.size() != 12)
            bad(lineno, "synthetic workload must carry 10 fields");
          w.kind = WorkloadWire::Kind::kSynthetic;
          w.name = in.str(2);
          w.dist_name = in.str(3);
          w.dist = parse_dist_kind(in.str(4), lineno);
          w.n = in.u64(5, "buffer elements");
          if (w.n == 0) bad(lineno, "buffer elements must be >= 1");
          w.dist_a = in.f64(6, "distribution parameter a");
          w.dist_b = in.f64(7, "distribution parameter b");
          w.element_bytes = in.u64(8, "element_bytes");
          w.compute_ops = in.u32(9, "compute_ops");
          w.warmup_accesses = in.u64(10, "warmup_accesses");
          w.measured_accesses = in.u64(11, "measured_accesses");
        } else if (kind == "mcb" || kind == "lulesh") {
          if (in.size() != 8)
            bad(lineno, kind + " workload must carry 6 fields");
          w.kind = kind == "mcb" ? WorkloadWire::Kind::kMcb
                                 : WorkloadWire::Kind::kLulesh;
          w.name = in.str(2);
          w.ranks = in.u32(3, "ranks");
          if (w.ranks == 0) bad(lineno, "ranks must be >= 1");
          w.per_socket = in.u32(4, "per_socket");
          if (w.per_socket == 0) bad(lineno, "per_socket must be >= 1");
          const char* dim =
              w.kind == WorkloadWire::Kind::kMcb ? "particles" : "edge";
          const std::uint32_t size = in.u32(5, dim);
          if (size == 0) bad(lineno, std::string(dim) + " must be >= 1");
          (w.kind == WorkloadWire::Kind::kMcb ? w.particles : w.edge) = size;
          w.steps = in.u32(6, "steps");
          w.app_scale = in.u32(7, "app scale");
          if (w.app_scale == 0) bad(lineno, "app scale must be >= 1");
        } else {
          bad(lineno, "unknown workload kind '" + kind +
                          "' (synthetic|mcb|lulesh)");
        }
        if (w.name.empty()) bad(lineno, "empty workload name");
        spec.workloads.push_back(std::move(w));
      } else if (key == "point") {
        if (in.size() != 4) bad(lineno, "point line must carry 3 fields");
        PointWire p;
        p.workload = static_cast<std::size_t>(in.u64(1, "workload index"));
        p.resource = parse_resource_word(in.str(2), lineno);
        p.threads = in.u32(3, "threads");
        spec.points.push_back(p);
      } else if (key == "end") {
        saw_end = true;
      } else {
        bad(lineno, "unknown keyword '" + key + "'");
      }
    }
  } catch (const LineError& e) {
    bad(e.line(), e.what());
  }
  if (!saw_end)
    throw std::invalid_argument(
        "plan-spec: missing 'end' trailer (truncated spec)");
  if (!saw_machine) throw std::invalid_argument("plan-spec: no machine line");
  if (!saw_run) throw std::invalid_argument("plan-spec: no run line");
  check_point_refs(spec);
  return spec;
}

sim::MachineConfig make_machine(const PlanSpec& spec) {
  sim::MachineConfig machine =
      sim::MachineConfig::xeon20mb_scaled(spec.machine_scale,
                                          spec.machine_nodes);
  sim::apply_mem_backend(machine, spec.mem_backend);
  return machine;
}

ExperimentPlan build_plan(const PlanSpec& spec) {
  ExperimentPlan plan;
  for (const auto& w : spec.workloads) {
    switch (w.kind) {
      case WorkloadWire::Kind::kSynthetic: {
        const std::string dist_name =
            w.dist_name.empty() ? w.name : w.dist_name;
        model::AccessDistribution dist = [&] {
          switch (w.dist) {
            case model::DistKind::kNormal:
              return model::AccessDistribution::normal(w.n, w.dist_a,
                                                       w.dist_b, dist_name);
            case model::DistKind::kExponential:
              return model::AccessDistribution::exponential(w.n, w.dist_a,
                                                            dist_name);
            case model::DistKind::kTriangular:
              return model::AccessDistribution::triangular(w.n, w.dist_a,
                                                           dist_name);
            case model::DistKind::kUniform:
              break;
          }
          return model::AccessDistribution::uniform(w.n, dist_name);
        }();
        apps::SyntheticConfig cfg{std::move(dist)};
        cfg.element_bytes = w.element_bytes;
        cfg.compute_ops = w.compute_ops;
        cfg.warmup_accesses = w.warmup_accesses;
        cfg.measured_accesses = w.measured_accesses;
        plan.add_workload({w.name, make_synthetic_workload(std::move(cfg))});
        break;
      }
      case WorkloadWire::Kind::kMcb: {
        apps::McbConfig cfg = apps::McbConfig::paper(w.particles, w.app_scale);
        if (w.steps != 0) cfg.steps = w.steps;
        plan.add_workload(
            {w.name, make_mcb_workload(w.ranks, w.per_socket, cfg)});
        break;
      }
      case WorkloadWire::Kind::kLulesh: {
        apps::LuleshConfig cfg = apps::LuleshConfig::paper(w.edge, w.app_scale);
        if (w.steps != 0) cfg.steps = w.steps;
        plan.add_workload(
            {w.name, make_lulesh_workload(w.ranks, w.per_socket, cfg)});
        break;
      }
    }
  }
  for (const auto& p : spec.points)
    plan.add_point(p.workload, p.resource, p.threads);
  return plan;
}

SweepRunner make_runner(const PlanSpec& spec,
                        std::function<void(const ResultStore&)> checkpoint) {
  SweepRunnerOptions opts;
  opts.max_cycles = spec.max_cycles;
  opts.seed = spec.seed;
  opts.mix_seed_per_point = spec.mix_seed_per_point;
  opts.cs = spec.cs;
  opts.bw = spec.bw;
  opts.checkpoint = std::move(checkpoint);
  return SweepRunner(make_machine(spec), std::move(opts));
}

}  // namespace am::measure
