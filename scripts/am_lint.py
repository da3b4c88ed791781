#!/usr/bin/env python3
"""am-lint: repo-specific invariant checks the generic tools can't know.

The methodology's core promise is that merged result stores are
bit-identical to serial runs under any schedule. That property rests on
a handful of coding invariants scattered across layers; this checker
makes them mechanical:

  AM001 raw-rename          All tmp+rename dances live in
                            common/atomic_file; a raw std::rename /
                            filesystem::rename elsewhere is an
                            unreviewed durability/atomicity claim.
  AM002 determinism         src/sim and src/model must be bit-exact
                            replayable: no std::rand/random_device (use
                            common/rng.hpp) and no wall-clock or timer
                            reads (time is simulated, never sampled).
  AM003 hexfloat-wire       Doubles cross serialization boundaries only
                            through the line codec (common/line_doc),
                            which alone spells them as hexfloat ("%a");
                            decimal float formatting rounds and breaks
                            bit-exact round-trips. The codec must keep
                            its "%a", and every format file must
                            include the codec. (Integer std::to_string
                            is fine; a double passed to it is the one
                            case this rule cannot see — reviews still
                            matter.)
  AM004 fingerprint-cover   Every MachineConfig knob feeds
                            machine_fingerprint, so it keys the result
                            store. A knob left out silently aliases
                            stores across different configs.
                            MachineConfig holds simulated-machine
                            knobs only; host-speed switches do not
                            belong in it.
  AM005 syscall-returns     In common/socket and common/subprocess,
                            syscall return values are either consumed or
                            explicitly discarded with a (void) cast and
                            a reason — a bare call in statement position
                            is an undecided error path.
  AM006 worker-contract     The worker exit codes kWorkerExitUsage and
                            kWorkerExitRunFailed are returned only by
                            the shared worker entry
                            (measure::run_worker_entry); a driver that
                            returns them itself is a copy of the
                            contract.
  AM007 probe-key-cover     Every field of the calibration inputs keys
                            a probe's store record: CalibrationOptions,
                            apps::SyntheticConfig and
                            apps::StreamProbeConfig fields are read
                            where calibration builds probe names, and
                            CSThrConfig and BWThrConfig fields in
                            spec_signature. A field left out would
                            serve a cached calibration for changed
                            inputs.

Each rule is a pure function over (path, text) — no filesystem access —
so scripts/am_lint_test.py can feed fixture snippets straight in.

Usage: am_lint.py [--root REPO]   (exit 0 clean, 1 on violations)
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- AM004 ------------------------------------------------------------------
# mem_backend/dram and set_hash are mixed conditionally (only when they
# deviate from their defaults — channel backend, mask hash) — that keeps
# pre-existing fingerprints valid. AM004 only requires the tokens to
# appear in the fingerprint body, so the conditional mix satisfies it.
# See docs/STATIC_ANALYSIS.md for the policy.


# --- C++ text utilities -----------------------------------------------------

def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments (and, unless keep_strings, string/char
    literals) while preserving line structure, so regexes don't trip on
    prose or quoted examples. Handles //, /* */, "..." with escapes,
    '...' (but not a digit separator, as in 20'000), and basic raw
    strings R"delim(...)delim"."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\\ \n]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i + m.end())
            end = n if end < 0 else end + len(m.group(1)) + 2
            chunk = text[i:end]
            out.append(chunk if keep_strings
                       else re.sub(r"[^\n]", " ", chunk))
            i = end
        elif c == "'" and _in_number(text, i):
            out.append(c)  # digit separator (20'000), not a char literal
            i += 1
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            chunk = text[i:j]
            out.append(chunk if keep_strings
                       else re.sub(r"[^\n]", " ", chunk))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _in_number(text: str, i: int) -> bool:
    """Whether the quote at text[i] sits inside a numeric literal."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _findall_lines(pattern: str, text: str):
    return [(_line_of(text, m.start()), m.group(0).strip())
            for m in re.finditer(pattern, text)]


# --- rules ------------------------------------------------------------------

def check_raw_rename(path: str, text: str):
    """AM001: rename()/renameat() outside common/atomic_file."""
    if "common/atomic_file" in path.replace("\\", "/"):
        return []
    code = strip_comments_and_strings(text)
    return [(line, "AM001", f"raw `{tok}` — atomic replace belongs in "
             "common/atomic_file (atomic_write_file/try_atomic_write_file)")
            for line, tok in _findall_lines(r"\brename(?:at)?\s*\(", code)]


DETERMINISM_FORBIDDEN = [
    (r"\bstd::rand\b|\bsrand\s*\(", "std::rand/srand"),
    (r"\brandom_device\b", "std::random_device"),
    (r"\bsystem_clock\b", "wall clock (system_clock)"),
    (r"\bsteady_clock\b", "timer read (steady_clock)"),
    (r"\bhigh_resolution_clock\b", "timer read (high_resolution_clock)"),
    (r"\btime\s*\(", "time()"),
    (r"\bgettimeofday\b|\bclock_gettime\b", "clock syscall"),
    (r"\blocaltime\b|\bgmtime\b", "calendar time"),
]


def check_determinism(path: str, text: str):
    """AM002: nondeterminism sources inside sim/ and model/."""
    code = strip_comments_and_strings(text)
    out = []
    for pattern, what in DETERMINISM_FORBIDDEN:
        out.extend((line, "AM002",
                    f"{what} in the deterministic core (`{tok}`) — seeds "
                    "come from common/rng.hpp, time is simulated")
                   for line, tok in _findall_lines(pattern, code))
    return out


DECIMAL_FLOAT_CONVERSION = re.compile(r"%[-+ #0-9.*]*[eEfFgG]")


# The codec spells every double of the text formats; the format files
# write and read through it.
LINE_CODEC = "src/common/line_doc.cpp"
FORMAT_FILES = ("src/common/work_lease.cpp", "src/measure/result_store.cpp",
                "src/measure/plan_wire.cpp", "src/measure/daemon.cpp")
CODEC_INCLUDE = re.compile(r'^\s*#\s*include\s+"common/line_doc\.hpp"',
                           re.M)


def check_hexfloat(path: str, text: str, codec: bool = True):
    """AM003: decimal float formatting in a wire-format file. The codec
    (codec=True) must reference "%a"; a format file must include it."""
    code = strip_comments_and_strings(text, keep_strings=True)
    out = []
    for m in re.finditer(r'"(?:[^"\\\n]|\\.)*"', code):
        hit = DECIMAL_FLOAT_CONVERSION.search(m.group(0))
        if hit:
            out.append((_line_of(code, m.start()), "AM003",
                        f"decimal float conversion `{hit.group(0)}` in a "
                        "serialization file — doubles cross the wire as "
                        'hexfloat ("%a") only'))
    for pattern, what in [
        (r"\bsetprecision\s*\(", "std::setprecision"),
        (r"\bstd::(?:fixed|scientific|defaultfloat)\b",
         "decimal stream manipulator"),
    ]:
        out.extend((line, "AM003",
                    f"{what} in a serialization file (`{tok}`) — doubles "
                    'cross the wire as hexfloat ("%a") only')
                   for line, tok in _findall_lines(
                       pattern, strip_comments_and_strings(text)))
    if codec and '"%a"' not in code:
        out.append((1, "AM003",
                    "serialization file no longer references the hexfloat "
                    '"%a" helpers — double round-trips are unprotected'))
    if not codec and not CODEC_INCLUDE.search(text):
        out.append((1, "AM003",
                    "format file does not include the line codec "
                    "(common/line_doc.hpp) — its doubles bypass the "
                    "hexfloat writer"))
    return out


def struct_fields(header: str, struct: str):
    """Data members of `struct <struct>` in `header` (depth-1
    declarations)."""
    code = strip_comments_and_strings(header)
    m = re.search(rf"^struct {struct}\s*\{{", code, re.M)
    if not m:
        return []
    fields, depth, body = [], 1, code[m.end():]
    decl = re.compile(r"^\s*[A-Za-z_][\w:<>,*& ]*?[ &]"
                      r"([a-z][a-z0-9_]*)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")
    for line in body.splitlines():
        if depth == 1 and "(" not in line:
            dm = decl.match(line)
            if dm:
                fields.append(dm.group(1))
        depth += line.count("{") - line.count("}")
        if depth <= 0:
            break
    return fields


def machine_config_fields(machine_hpp: str):
    """Data members of struct MachineConfig (depth-1 declarations)."""
    return struct_fields(machine_hpp, "MachineConfig")


def function_body(code: str, name: str):
    """The body of the first definition of function `name` in
    comment-stripped `code` (a return type, then the name, at the start
    of a line), or None."""
    opener = re.compile(rf"^(?:[\w:<>]+[ \t]+)+{name}\s*\([^;{{]*\)"
                        r"\s*(?:const\s*)?\{", re.M)
    spans = _brace_spans(code, opener)
    return code[spans[0][0]:spans[0][1]] if spans else None


def check_field_coverage(rule: str, header: str, struct: str, impl: str,
                         func: str, var: str, why: str):
    """Every field of `struct` is read as `<var>.<field>` in the body of
    `func` in `impl`."""
    fields = struct_fields(header, struct)
    if not fields:
        return [(1, rule, f"could not parse struct {struct} — fix the "
                 "parser or the header")]
    body = function_body(strip_comments_and_strings(impl), func)
    if body is None:
        return [(1, rule, f"could not find the definition of {func}")]
    return [(1, rule, f"{struct}.{f} is not read in {func} — {why}")
            for f in fields
            if not re.search(rf"\b{var}\.{f}\b", body)]


def check_fingerprint_coverage(machine_hpp: str, result_store_cpp: str):
    """AM004: every MachineConfig knob keys the store."""
    return check_field_coverage(
        "AM004", machine_hpp, "MachineConfig", result_store_cpp,
        "machine_fingerprint", "m",
        "stores would alias across different configs")


# AM007: (header, struct, implementation, function, variable) — every
# field of the struct must be read through the variable in the function
# that turns it into a store key.
PROBE_KEY_COVERAGE = (
    ("src/measure/calibration.hpp", "CalibrationOptions",
     "src/measure/calibration.cpp", "calibrate_capacity", "opts"),
    ("src/apps/synthetic_benchmark.hpp", "SyntheticConfig",
     "src/measure/calibration.cpp", "synthetic_name", "c"),
    ("src/apps/stream_probe.hpp", "StreamProbeConfig",
     "src/measure/calibration.cpp", "stream_name", "c"),
    ("src/interfere/csthr_agent.hpp", "CSThrConfig",
     "src/measure/result_store.cpp", "spec_signature", "cs"),
    ("src/interfere/bwthr_agent.hpp", "BWThrConfig",
     "src/measure/result_store.cpp", "spec_signature", "bw"),
)


def check_probe_key_coverage(header: str, struct: str, impl: str,
                             func: str, var: str):
    """AM007: every calibration input keys its probe's store record."""
    return check_field_coverage(
        "AM007", header, struct, impl, func, var,
        "a cached calibration would be served for changed inputs")


# Names that collide with methods in this codebase (Socket::close,
# Subprocess::kill, FrameReader read/write helpers) are only recognized
# with the global :: qualifier — which is also the repo's house style
# for raw syscalls. Unambiguous names are caught with or without it.
_AMBIGUOUS = "close|kill|listen|bind|connect|accept|write|read|send|recv"
_UNAMBIGUOUS = "setsockopt|fcntl|unlink|ftruncate|fsync|waitpid"
# A statement that *begins* with the syscall (result necessarily
# dropped). The non-empty first argument distinguishes ::close(fd) from
# a no-argument method like Socket::close(); a (void) prefix is the
# sanctioned explicit discard.
_BARE_CALL = re.compile(rf"^(?:::(?:{_AMBIGUOUS})|(?:::)?(?:{_UNAMBIGUOUS}))"
                        rf"\s*\(\s*[^)\s]")


def check_syscall_returns(path: str, text: str):
    """AM005: bare syscall in statement position (return value dropped
    without a (void) decision)."""
    code = strip_comments_and_strings(text)
    out = []
    # Statements start after ; { or }. Splitting this way keeps a call
    # that continues an expression (if (... && ::connect(...)) or an
    # assignment) out of statement position no matter how lines wrap.
    start = 0
    for m in re.finditer(r"[;{}]", code):
        seg = code[start:m.start()]
        stmt = seg.strip()
        stmt_line = _line_of(code, start + len(seg) - len(seg.lstrip()))
        start = m.end()
        if _BARE_CALL.match(stmt):
            out.append((stmt_line, "AM005",
                        f"unchecked syscall return (`{stmt.splitlines()[0]}"
                        "`) — consume it or discard explicitly with "
                        "(void) plus a comment saying why that is safe"))
    return out


_WORKER_EXIT_RETURN = re.compile(
    r"\breturn\s+(?:[\w:]*::)?(kWorkerExit(?:Usage|RunFailed))\b")
# The definition only: a call passing a lambda also ends in `) {`.
_WORKER_ENTRY = re.compile(
    r"\bint\s+(?:\w+::)*run_worker_entry\s*\([^;{]*\)\s*\{")


def _brace_spans(code: str, opener: re.Pattern):
    """(start, end) offsets of each body whose `{` ends an `opener`
    match, braces balanced."""
    spans = []
    for m in opener.finditer(code):
        depth, i = 0, m.end() - 1
        while i < len(code):
            depth += {"{": 1, "}": -1}.get(code[i], 0)
            if depth == 0:
                break
            i += 1
        spans.append((m.end(), i))
    return spans


def check_worker_contract(path: str, text: str):
    """AM006: a worker exit code returned outside run_worker_entry."""
    code = strip_comments_and_strings(text)
    entry = _brace_spans(code, _WORKER_ENTRY)
    return [(_line_of(code, m.start()), "AM006",
             f"`return {m.group(1)}` outside the shared worker entry — "
             "route main through measure::run_worker_entry instead of "
             "copying the worker contract")
            for m in _WORKER_EXIT_RETURN.finditer(code)
            if not any(a <= m.start() < b for a, b in entry)]


# --- repo driver ------------------------------------------------------------

CPP_GLOB = ("*.cpp", "*.hpp", "*.cc", "*.h")


def _cpp_files(root: Path, sub: str):
    base = root / sub
    if not base.is_dir():
        return
    for pat in CPP_GLOB:
        yield from sorted(base.rglob(pat))


def lint_repo(root: Path):
    violations = []

    def add(path: Path, found):
        rel = path.relative_to(root).as_posix()
        violations.extend((rel, line, rule, msg) for line, rule, msg in found)

    for sub in ("src", "examples", "bench"):
        for f in _cpp_files(root, sub):
            text = f.read_text()
            add(f, check_raw_rename(f.as_posix(), text))
            add(f, check_worker_contract(f.as_posix(), text))
    for sub in ("src/sim", "src/model"):
        for f in _cpp_files(root, sub):
            add(f, check_determinism(f.as_posix(), f.read_text()))
    for rel in (LINE_CODEC,) + FORMAT_FILES:
        f = root / rel
        if f.exists():
            add(f, check_hexfloat(f.as_posix(), f.read_text(),
                                  codec=rel == LINE_CODEC))
    for rel in ("src/common/socket.cpp", "src/common/subprocess.cpp"):
        f = root / rel
        if f.exists():
            add(f, check_syscall_returns(f.as_posix(), f.read_text()))
    machine = root / "src/sim/machine.hpp"
    store = root / "src/measure/result_store.cpp"
    if machine.exists() and store.exists():
        add(store, check_fingerprint_coverage(machine.read_text(),
                                              store.read_text()))
    for header, struct, impl, func, var in PROBE_KEY_COVERAGE:
        h, i = root / header, root / impl
        if h.exists() and i.exists():
            add(i, check_probe_key_coverage(h.read_text(), struct,
                                            i.read_text(), func, var))
    return violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: this script's repo)")
    args = ap.parse_args(argv)
    violations = lint_repo(args.root)
    for path, line, rule, msg in violations:
        print(f"{path}:{line}: {rule}: {msg}")
    if violations:
        print(f"am-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("am-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
