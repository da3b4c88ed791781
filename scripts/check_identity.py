#!/usr/bin/env python3
"""Byte-compare a bench driver's stdout against a golden capture.

Runs the driver with no extra flag and with `--mem-backend channel`,
comparing both to FILE, a capture taken before the MemoryBackend boundary
existed (the default must BE the channel backend). Fails unless every run
exits 0 with stdout identical to FILE.

Registered as the blocking smoke.fig9_backend_identity ctest entry;
state-level identity of the hierarchy walk is covered by
tests/sim/hierarchy_diff_test and of the backends by
tests/sim/memory_backend_test.

Usage: scripts/check_identity.py --golden FILE <driver> [args...]
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
    if len(args) < 3 or args[0] != "--golden":
        sys.exit(__doc__)
    golden_path, driver = args[1], args[2:]
    with open(golden_path, "rb") as f:
        golden = f.read()
    check("default backend", run(driver, []), golden, "golden")
    check("--mem-backend channel",
          run(driver, ["--mem-backend", "channel"]), golden, "golden")
    print(f"backend identity OK ({len(golden)} bytes, bit-identical)")


if __name__ == "__main__":
    main()
