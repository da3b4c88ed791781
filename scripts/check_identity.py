#!/usr/bin/env python3
"""Byte-compare a bench driver's stdout across runs that must agree.

Two modes, each failing unless every run exits 0 with identical stdout:

  --flag NAME      Run the driver with `--NAME false` appended, then with
                   `--NAME true`. For host-speed toggles (the L1/L2 filter
                   fast paths, MachineConfig::l1_filter / l2_filter) whose
                   emitted tables must be bit-identical either way.
  --golden FILE    Run the driver with no extra flag and with
                   `--mem-backend channel`, comparing both to FILE, a
                   capture taken before the MemoryBackend boundary existed
                   (the default must BE the channel backend).

Registered as the blocking smoke.fig9_filter_identity,
smoke.fig9_l2_filter_identity and smoke.fig9_backend_identity ctest
entries; state-level identity is covered by tests/sim/filter_identity_test
and tests/sim/memory_backend_test.

Usage: scripts/check_identity.py (--flag NAME | --golden FILE)
                                 <driver> [args...]
"""

import subprocess
import sys


def run(args, extra):
    proc = subprocess.run([*args, *extra], capture_output=True)
    if proc.returncode != 0:
        print(proc.stderr.decode(errors="replace"), file=sys.stderr)
        sys.exit(f"run {extra or ['(default)']} failed ({proc.returncode})")
    return proc.stdout


def check(label, out, want, want_label):
    if out == want:
        return
    for lineno, (a, b) in enumerate(
            zip(want.splitlines(), out.splitlines()), 1):
        if a != b:
            print(f"{label}: first divergence at stdout line {lineno}:",
                  file=sys.stderr)
            print(f"  {want_label}: {a!r}", file=sys.stderr)
            print(f"  {label}: {b!r}", file=sys.stderr)
            break
    sys.exit(f"{label} output differs from {want_label} "
             f"({len(want)} vs {len(out)} bytes)")


def main():
    args = sys.argv[1:]
    if len(args) < 3 or args[0] not in ("--flag", "--golden"):
        sys.exit(__doc__)
    mode, value, driver = args[0], args[1], args[2:]
    if mode == "--flag":
        off = run(driver, [f"--{value}", "false"])
        on = run(driver, [f"--{value}", "true"])
        check(f"--{value} true", on, off, f"--{value} false")
        print(f"{value} identity OK ({len(on)} bytes, bit-identical)")
    else:
        with open(value, "rb") as f:
            golden = f.read()
        check("default backend", run(driver, []), golden, "golden")
        check("--mem-backend channel",
              run(driver, ["--mem-backend", "channel"]), golden, "golden")
        print(f"backend identity OK ({len(golden)} bytes, bit-identical)")


if __name__ == "__main__":
    main()
