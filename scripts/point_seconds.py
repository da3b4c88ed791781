#!/usr/bin/env python3
"""Print the measured host seconds of every point in one or more stores.

A result store (`<dir>/<driver>.tsv`) keeps each fresh run's wall-clock
in its `<dir>/<driver>.tsv.times` sidecar, keyed like the store records.
This joins the two and prints one line per record, sorted:

    <workload> TAB <resource> TAB <threads> TAB <seconds>

Given several stores of the same grid (repeated runs), `seconds` is the
median across them, which damps a shared host's noise. The output is the
format of tests/golden/fig9_quick_point_seconds.tsv, the fixture the
cost-model ranking test in tests/measure/experiment_plan_test.cpp reads.
To regenerate that fixture from a Release build:

    for r in 1 2 3 4 5 6 7; do
      build/bench/fig9_mcb_degradation --quick --scale 64 --ranks 4 \\
          --steps 1 --results-dir /tmp/fx$r > /dev/null
    done
    scripts/point_seconds.py /tmp/fx*/fig9_mcb_degradation.tsv \\
        > tests/golden/fig9_quick_point_seconds.tsv

Then put the comment header back (it records the host the times came
from). Usage: scripts/point_seconds.py STORE.tsv [STORE.tsv ...]
"""

import statistics
import sys


def records(store):
    """(workload, resource, threads) -> seconds for one store."""
    times = {}
    with open(store + ".times") as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            key, seconds = line.rstrip("\n").split("\t")
            times[key] = float.fromhex(seconds)
    out = {}
    with open(store) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            # key, host, machine, workload, resource, threads, ...
            fields = line.rstrip("\n").split("\t")
            if fields[0] in times:
                out[(fields[3], fields[4], int(fields[5]))] = times[fields[0]]
    return out


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    runs = [records(store) for store in argv]
    keys = sorted(set().union(*runs))
    for key in keys:
        seconds = [run[key] for run in runs if key in run]
        workload, resource, threads = key
        print(f"{workload}\t{resource}\t{threads}\t"
              f"{statistics.median(seconds):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
