#include "measure/plan_wire.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/strict_number.hpp"
#include "measure/app_workloads.hpp"
#include "measure/tsv.hpp"

namespace am::measure {

namespace {

constexpr const char* kHeader = "#am-plan-spec v1";

std::string num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

[[noreturn]] void bad(std::size_t lineno, const std::string& why) {
  throw std::invalid_argument("plan-spec line " + std::to_string(lineno) +
                              ": " + why);
}

std::uint64_t parse_u64(const std::string& s, std::size_t lineno,
                        const char* what) {
  std::uint64_t v = 0;
  if (!am::parse_u64(s, v))
    bad(lineno, std::string(what) +
                    " must be a non-negative integer below 2^64, got '" + s +
                    "'");
  return v;
}

std::uint32_t parse_u32(const std::string& s, std::size_t lineno,
                        const char* what) {
  const std::uint64_t v = parse_u64(s, lineno, what);
  if (v > UINT32_MAX) bad(lineno, std::string(what) + " out of range");
  return static_cast<std::uint32_t>(v);
}

double parse_double(const std::string& s, std::size_t lineno,
                    const char* what) {
  double v = 0.0;
  if (!am::parse_double(s, v))
    bad(lineno, std::string(what) + " must be a number, got '" + s + "'");
  return v;
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

void check_name(const std::string& name, const char* what) {
  if (name.empty())
    throw std::invalid_argument(std::string("plan-spec: ") + what +
                                " must not be empty");
  if (name.find('\t') != std::string::npos ||
      name.find('\n') != std::string::npos)
    throw std::invalid_argument(std::string("plan-spec: ") + what + " '" +
                                name + "' contains a tab or newline");
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
  std::ostringstream out;
  out << kHeader << '\n';
  out << "machine\tscale\t" << spec.machine_scale << "\tnodes\t"
      << spec.machine_nodes << "\tbackend\t" << spec.mem_backend << '\n';
  out << "run\tseed\t" << spec.seed << "\tmax_cycles\t" << spec.max_cycles
      << "\tmix_seed\t" << (spec.mix_seed_per_point ? 1 : 0) << '\n';
  out << "cs\t" << spec.cs.buffer_bytes << '\t' << spec.cs.batch_size << '\n';
  out << "bw\t" << spec.bw.buffer_bytes << '\t' << spec.bw.num_buffers << '\t'
      << spec.bw.line_stride << '\t' << spec.bw.index_compute_cycles << '\t'
      << spec.bw.buffers_per_step << '\n';
  for (const auto& w : spec.workloads) {
    check_name(w.name, "workload name");
    switch (w.kind) {
      case WorkloadWire::Kind::kSynthetic: {
        std::string dist_name = w.dist_name.empty() ? w.name : w.dist_name;
        check_name(dist_name, "distribution name");
        out << "workload\tsynthetic\t" << w.name << '\t' << dist_name << '\t'
            << dist_kind_name(w.dist) << '\t' << w.n << '\t' << num(w.dist_a)
            << '\t' << num(w.dist_b) << '\t' << w.element_bytes << '\t'
            << w.compute_ops << '\t' << w.warmup_accesses << '\t'
            << w.measured_accesses << '\n';
        break;
      }
      case WorkloadWire::Kind::kMcb:
        out << "workload\tmcb\t" << w.name << '\t' << w.ranks << '\t'
            << w.per_socket << '\t' << w.particles << '\t' << w.steps << '\t'
            << w.app_scale << '\n';
        break;
      case WorkloadWire::Kind::kLulesh:
        out << "workload\tlulesh\t" << w.name << '\t' << w.ranks << '\t'
            << w.per_socket << '\t' << w.edge << '\t' << w.steps << '\t'
            << w.app_scale << '\n';
        break;
    }
  }
  for (const auto& p : spec.points) {
    if (p.workload >= spec.workloads.size())
      throw std::invalid_argument(
          "plan-spec: point references workload " +
          std::to_string(p.workload) + " but only " +
          std::to_string(spec.workloads.size()) + " are declared");
    out << "point\t" << p.workload << '\t' << resource_name(p.resource)
        << '\t' << p.threads << '\n';
  }
  out << "end\n";
  return out.str();
}

PlanSpec parse_plan_spec(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader)
    throw std::invalid_argument(
        std::string("plan-spec: missing '") + kHeader + "' header");
  PlanSpec spec;
  bool saw_machine = false, saw_run = false, saw_end = false;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (saw_end) bad(lineno, "content after the 'end' trailer");
    const std::vector<std::string> f = split_tabs(line);
    const std::string& key = f[0];
    if (key == "machine") {
      if (f.size() != 7 || f[1] != "scale" || f[3] != "nodes" ||
          f[5] != "backend")
        bad(lineno, "machine line must be "
                    "'machine\\tscale\\tS\\tnodes\\tN\\tbackend\\tB'");
      spec.machine_scale = parse_u32(f[2], lineno, "machine scale");
      if (spec.machine_scale == 0) bad(lineno, "machine scale must be >= 1");
      spec.machine_nodes = parse_u32(f[4], lineno, "machine nodes");
      if (spec.machine_nodes == 0) bad(lineno, "machine nodes must be >= 1");
      spec.mem_backend = f[6];
      if (spec.mem_backend.empty()) bad(lineno, "empty memory backend");
      saw_machine = true;
    } else if (key == "run") {
      if (f.size() != 7 || f[1] != "seed" || f[3] != "max_cycles" ||
          f[5] != "mix_seed")
        bad(lineno, "run line must be "
                    "'run\\tseed\\tS\\tmax_cycles\\tC\\tmix_seed\\t0|1'");
      spec.seed = parse_u64(f[2], lineno, "seed");
      spec.max_cycles = parse_u64(f[4], lineno, "max_cycles");
      if (f[6] != "0" && f[6] != "1") bad(lineno, "mix_seed must be 0 or 1");
      spec.mix_seed_per_point = f[6] == "1";
      saw_run = true;
    } else if (key == "cs") {
      if (f.size() != 3) bad(lineno, "cs line must carry 2 fields");
      spec.cs.buffer_bytes = parse_u64(f[1], lineno, "cs buffer_bytes");
      spec.cs.batch_size = parse_u32(f[2], lineno, "cs batch_size");
    } else if (key == "bw") {
      if (f.size() != 6) bad(lineno, "bw line must carry 5 fields");
      spec.bw.buffer_bytes = parse_u64(f[1], lineno, "bw buffer_bytes");
      spec.bw.num_buffers = parse_u32(f[2], lineno, "bw num_buffers");
      spec.bw.line_stride = parse_u32(f[3], lineno, "bw line_stride");
      spec.bw.index_compute_cycles =
          parse_u32(f[4], lineno, "bw index_compute_cycles");
      spec.bw.buffers_per_step = parse_u32(f[5], lineno, "bw buffers_per_step");
    } else if (key == "workload") {
      if (f.size() < 2) bad(lineno, "workload line missing its kind");
      WorkloadWire w;
      if (f[1] == "synthetic") {
        if (f.size() != 12)
          bad(lineno, "synthetic workload must carry 10 fields");
        w.kind = WorkloadWire::Kind::kSynthetic;
        w.name = f[2];
        w.dist_name = f[3];
        w.dist = parse_dist_kind(f[4], lineno);
        w.n = parse_u64(f[5], lineno, "buffer elements");
        if (w.n == 0) bad(lineno, "buffer elements must be >= 1");
        w.dist_a = parse_double(f[6], lineno, "distribution parameter a");
        w.dist_b = parse_double(f[7], lineno, "distribution parameter b");
        w.element_bytes = parse_u64(f[8], lineno, "element_bytes");
        w.compute_ops = parse_u32(f[9], lineno, "compute_ops");
        w.warmup_accesses = parse_u64(f[10], lineno, "warmup_accesses");
        w.measured_accesses = parse_u64(f[11], lineno, "measured_accesses");
      } else if (f[1] == "mcb" || f[1] == "lulesh") {
        if (f.size() != 8)
          bad(lineno, f[1] + " workload must carry 6 fields");
        w.kind = f[1] == "mcb" ? WorkloadWire::Kind::kMcb
                               : WorkloadWire::Kind::kLulesh;
        w.name = f[2];
        w.ranks = parse_u32(f[3], lineno, "ranks");
        if (w.ranks == 0) bad(lineno, "ranks must be >= 1");
        w.per_socket = parse_u32(f[4], lineno, "per_socket");
        if (w.per_socket == 0) bad(lineno, "per_socket must be >= 1");
        const char* dim = w.kind == WorkloadWire::Kind::kMcb ? "particles"
                                                             : "edge";
        const std::uint32_t size = parse_u32(f[5], lineno, dim);
        if (size == 0) bad(lineno, std::string(dim) + " must be >= 1");
        (w.kind == WorkloadWire::Kind::kMcb ? w.particles : w.edge) = size;
        w.steps = parse_u32(f[6], lineno, "steps");
        w.app_scale = parse_u32(f[7], lineno, "app scale");
        if (w.app_scale == 0) bad(lineno, "app scale must be >= 1");
      } else {
        bad(lineno, "unknown workload kind '" + f[1] +
                        "' (synthetic|mcb|lulesh)");
      }
      if (w.name.empty()) bad(lineno, "empty workload name");
      spec.workloads.push_back(std::move(w));
    } else if (key == "point") {
      if (f.size() != 4) bad(lineno, "point line must carry 3 fields");
      PointWire p;
      p.workload =
          static_cast<std::size_t>(parse_u64(f[1], lineno, "workload index"));
      p.resource = parse_resource_word(f[2], lineno);
      p.threads = parse_u32(f[3], lineno, "threads");
      spec.points.push_back(p);
    } else if (key == "end") {
      saw_end = true;
    } else {
      bad(lineno, "unknown keyword '" + key + "'");
    }
  }
  if (!saw_end)
    throw std::invalid_argument(
        "plan-spec: missing 'end' trailer (truncated spec)");
  if (!saw_machine) throw std::invalid_argument("plan-spec: no machine line");
  if (!saw_run) throw std::invalid_argument("plan-spec: no run line");
  for (const auto& p : spec.points)
    if (p.workload >= spec.workloads.size())
      throw std::invalid_argument(
          "plan-spec: point references workload " +
          std::to_string(p.workload) + " but only " +
          std::to_string(spec.workloads.size()) + " are declared");
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
