#!/usr/bin/env python3
"""Split a run's host time into the simulator's layers with gprof.

    python3 scripts/profile_layers.py --ambench WORKLOAD [--seconds 6]
        [--seed 1] [--build build/profile-ambench]
    python3 scripts/profile_layers.py -- BINARY ARGS...
    python3 scripts/profile_layers.py --self-test

--ambench configures and builds the end-to-end benchmark with the cache
variables of the `profile` preset, read from CMakePresets.json (Release
with `-pg`), and profiles one of its workloads. `-- BINARY ARGS...` profiles any binary built with
`-pg`, e.g. a bench driver from `cmake --preset profile`.

A run that exits non-zero (a crash, or an ambench digest mismatch) makes
the script fail without a split. The run happens in a scratch directory with GMON_OUT_PREFIX set, so every
process it spawns writes its own profile, and gprof sums them. The script
folds the flat profile's self seconds into fixed buckets, first match
wins:

  engine       Engine::*, AgentContext::*          agent stepping
  interfere    interfere::*                        CSThr/BWThr agents
  prefetcher   StreamPrefetcher::*, issue_prefetches
  walk         MemorySystem::* (access, access_slow, access_batch, ...)
  cache        Cache::*, SetIndexer::*             set scan and fill
  backend      the memory backends and BandwidthChannel
  measure      measure::* (sweeps, result store)
  other        everything else

gprof samples one thread per process and sees no shared library, so the
sampled seconds fall short of the run's CPU seconds (getrusage over the
children). The coverage line prints both; read the shares as shares of
what was sampled. The report ends with the top symbols by self time.

--self-test folds a canned flat profile and checks bucket assignment, the
coverage arithmetic, that an unknown symbol lands in "other", and that
the --ambench flags come from the `profile` preset.
"""
import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (bucket, pattern over the demangled name); first match wins, so
# issue_prefetches goes to the prefetcher before MemorySystem:: claims it.
BUCKETS = [
    ("engine", r"\bam::sim::(Engine|AgentContext)::"),
    ("interfere", r"\bam::interfere::"),
    ("prefetcher", r"\bam::sim::StreamPrefetcher::|::issue_prefetches\("),
    ("walk", r"\bam::sim::MemorySystem::"),
    ("cache", r"\bam::sim::(Cache|SetIndexer)::"),
    ("backend", r"\bam::sim::(MemoryBackend|ChannelBackend|BankedDramBackend"
                r"|BandwidthChannel)::"),
    ("measure", r"\bam::measure::"),
]
ORDER = [name for name, _ in BUCKETS] + ["other"]
COMPILED = [(name, re.compile(pattern)) for name, pattern in BUCKETS]

# One row of gprof's flat profile: % time, cumulative s, self s, then
# either calls/self/total or nothing (functions without call counts).
ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                 r"(?:(\d+)\s+([\d.]+)\s+([\d.]+)\s+)?(\S.*)$")

TOP = 12  # symbols listed under the buckets


def preset_flags(name="profile",
                 path=os.path.join(ROOT, "CMakePresets.json")):
    """-D flags for the cache variables of a configure preset, inherited
    ones first, so --ambench builds exactly what `cmake --preset` does."""
    with open(path) as f:
        presets = {p["name"]: p for p in json.load(f)["configurePresets"]}
    variables = {}

    def collect(preset):
        parents = preset.get("inherits", [])
        for parent in [parents] if isinstance(parents, str) else parents:
            collect(presets[parent])
        variables.update(preset.get("cacheVariables", {}))

    collect(presets[name])
    return [f"-D{key}={value}" for key, value in variables.items()]


def bucket_of(symbol):
    for name, pattern in COMPILED:
        if pattern.search(symbol):
            return name
    return "other"


def parse_flat(text):
    """[(symbol, self seconds)] from a `gprof -b -p` listing."""
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.strip().startswith("time   seconds"):
            in_table = True
            continue
        if not in_table:
            continue
        m = ROW.match(line)
        if m:
            rows.append((m.group(7).strip(), float(m.group(3))))
        elif line.strip():
            break  # the end of the flat table
    return rows


def fold(rows, cpu_s):
    """Per-bucket seconds and shares, the top symbols, and the coverage."""
    sampled = sum(s for _, s in rows)
    seconds = {name: 0.0 for name in ORDER}
    for symbol, s in rows:
        seconds[bucket_of(symbol)] += s
    share = {name: (seconds[name] / sampled if sampled else 0.0)
             for name in ORDER}
    top = sorted(rows, key=lambda r: -r[1])
    return {
        "sampled_s": sampled,
        "cpu_s": cpu_s,
        "coverage": sampled / cpu_s if cpu_s else 0.0,
        "buckets": {name: {"self_s": seconds[name], "share": share[name]}
                    for name in ORDER},
        "top": [{"symbol": sym, "self_s": s,
                 "share": s / sampled if sampled else 0.0,
                 "bucket": bucket_of(sym)} for sym, s in top],
    }


def short(symbol, width=60):
    """The name without its argument list, clipped to `width`."""
    name = symbol.split("(")[0]
    return name if len(name) <= width else "..." + name[-(width - 3):]


def report(result):
    print(f"coverage: {result['sampled_s']:.2f} s sampled of "
          f"{result['cpu_s']:.2f} s CPU ({100 * result['coverage']:.1f}%)")
    print(f"  {'bucket':<12} {'self_s':>8} {'share':>7}")
    for name in ORDER:
        b = result["buckets"][name]
        print(f"  {name:<12} {b['self_s']:>8.2f} {100 * b['share']:>6.1f}%")
    print(f"\n  top {TOP} symbols by self time")
    for row in result["top"][:TOP]:
        print(f"  {100 * row['share']:>6.1f}%  {row['bucket']:<10} "
              f"{short(row['symbol'])}")


def build_ambench(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "ambench"), "-B",
                        build_dir] + preset_flags(), check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ambench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ambench")


def profile(command):
    """Runs a -pg binary; returns its gprof flat listing and CPU seconds."""
    binary = shutil.which(command[0]) or command[0]
    binary = os.path.abspath(binary)
    scratch = tempfile.mkdtemp(prefix="profile_layers.")
    try:
        env = dict(os.environ, GMON_OUT_PREFIX=os.path.join(scratch, "gmon"))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.monotonic()
        proc = subprocess.run([binary] + command[1:], cwd=scratch, env=env,
                              stdout=subprocess.DEVNULL)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        print(f"profile_layers: ran {os.path.basename(binary)} for "
              f"{time.monotonic() - start:.1f} s (exit {proc.returncode})",
              file=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"profile_layers: {binary} exited {proc.returncode}; "
                     "no split for a failed run")
        cpu_s = ((after.ru_utime - before.ru_utime)
                 + (after.ru_stime - before.ru_stime))
        gmons = sorted(os.path.join(scratch, f) for f in os.listdir(scratch)
                       if f.startswith("gmon."))
        if not gmons:
            sys.exit(f"profile_layers: {binary} wrote no profile; "
                     "was it built with -pg?")
        flat = subprocess.run(["gprof", "-b", "-p", binary] + gmons,
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout
        return flat, cpu_s
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


CANNED = """Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 40.00      0.40     0.40  1000000     0.00     0.00  am::sim::MemorySystem::access_slow(unsigned int, unsigned long, bool, unsigned long)
 15.00      0.55     0.15   900000     0.00     0.00  am::sim::StreamPrefetcher::on_miss(unsigned long, std::vector<unsigned long, std::allocator<unsigned long> >&)
 10.00      0.65     0.10                             am::sim::MemorySystem::issue_prefetches(am::sim::MemorySystem::Core&, unsigned int, unsigned long, unsigned long)
 10.00      0.75     0.10    80000     0.00     0.00  am::sim::Cache::invalidate(unsigned long)
  8.00      0.83     0.08    70000     0.00     0.00  am::sim::Engine::run(unsigned long)
  5.00      0.88     0.05    60000     0.00     0.00  am::interfere::CSThr::step(am::sim::AgentContext&)
  4.00      0.92     0.04    50000     0.00     0.00  am::sim::AgentContext::load_batch(std::span<unsigned long const, 18446744073709551615ul>)
  3.00      0.95     0.03     4000     0.01     0.01  am::sim::BankedDramBackend::transfer(unsigned long, unsigned long, unsigned long)
  2.00      0.97     0.02      100     0.20     0.20  am::measure::ResultStore::save(std::string const&) const
  2.00      0.99     0.02                             frobnicate_widgets
  1.00      1.00     0.01       10     1.00     1.00  am::sim::SetIndexer::SetIndexer(am::sim::SetHash, unsigned long)
"""


def self_test():
    checks = []

    def check(what, ok):
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    rows = parse_flat(CANNED)
    check("every row of the flat table parses, with or without call counts",
          len(rows) == 11 and rows[2][1] == 0.10
          and rows[9] == ("frobnicate_widgets", 0.02))
    r = fold(rows, cpu_s=4.0)
    b = {name: round(v["self_s"], 6) for name, v in r["buckets"].items()}
    check("the walk takes MemorySystem:: but not issue_prefetches",
          b["walk"] == 0.40)
    check("issue_prefetches and on_miss are the prefetcher",
          b["prefetcher"] == 0.25)
    check("Cache:: and SetIndexer:: are the cache", b["cache"] == 0.11)
    check("Engine:: and AgentContext:: are engine stepping",
          b["engine"] == 0.12)
    check("interfere::, backend and measure:: have their own buckets",
          (b["interfere"], b["backend"], b["measure"]) == (0.05, 0.03, 0.02))
    check("an unknown symbol lands in other", b["other"] == 0.02
          and bucket_of("some::unknown::symbol()") == "other")
    check("the buckets add up to the sampled seconds",
          abs(sum(b.values()) - 1.0) < 1e-9 and abs(r["sampled_s"] - 1.0)
          < 1e-9)
    check("coverage is sampled over CPU seconds",
          abs(r["coverage"] - 0.25) < 1e-9
          and abs(r["buckets"]["walk"]["share"] - 0.40) < 1e-9)
    check("no CPU seconds gives zero coverage, not a division error",
          fold(rows, cpu_s=0.0)["coverage"] == 0.0)
    check("an empty profile folds to zeros",
          fold([], cpu_s=1.0)["sampled_s"] == 0.0)
    check("top symbols come in self-time order",
          [t["self_s"] for t in r["top"][:2]] == [0.40, 0.15])
    flags = preset_flags()
    check("--ambench builds with the profile preset: Release, -pg",
          "-DCMAKE_BUILD_TYPE=Release" in flags
          and "-DCMAKE_CXX_FLAGS=-pg" in flags
          and "-DCMAKE_EXE_LINKER_FLAGS=-pg" in flags)
    return 0 if all(checks) else 1


def main():
    argv = sys.argv[1:]
    command = []
    if "--" in argv:
        split = argv.index("--")
        argv, command = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ambench", metavar="WORKLOAD")
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--build",
                        default=os.path.join(ROOT, "build", "profile-ambench"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if bool(args.ambench) == bool(command):
        parser.error("give exactly one of --ambench or -- COMMAND")
    if args.ambench:
        exe = build_ambench(os.path.abspath(args.build))
        command = [exe, "run", "--workload", args.ambench,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--work-dir", "work", "--expected",
                   os.path.join(ROOT, "ambench", "expected_digests.tsv")]
    flat, cpu_s = profile(command)
    result = fold(parse_flat(flat), cpu_s)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
