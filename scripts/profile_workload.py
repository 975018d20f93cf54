#!/usr/bin/env python3
"""Profile a benchmark workload in process and print its hottest functions.

    python3 scripts/profile_workload.py --workload audit --seed 5 --rounds 3 --top 25

Builds the workload from ``bench/workloads.py`` on the seed, as
``bench/run.py`` does, then runs that many whole rounds of its
operations under cProfile and prints the top functions by self time.
It imports staralg from the checkout's ``src/``, like the benchmark, and
times no fresh processes. An operation that fails its check raises.
cProfile adds a cost to every Python call and none to native code, so a
candidate it finds is confirmed with ``bench/run.py``, unprofiled.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("audit", "lattice", "cli"), default="audit")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()
    if args.rounds < 1 or args.top < 1:
        ap.error("--rounds and --top must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    prof = cProfile.Profile()
    prof.enable()
    for r in range(args.rounds):
        for _, op in w.round(r):
            op()
    prof.disable()
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds, by self time")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
