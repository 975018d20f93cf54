#!/usr/bin/env python3
"""Profile a benchmark workload in process and print its hottest functions.

    python3 scripts/profile_workload.py --workload audit --seed 5 --rounds 3 --top 25
    python3 scripts/profile_workload.py --workload lattice --seed 5 --rounds 3 --memory

Builds the workload from ``bench/workloads.py`` on the seed, as
``bench/run.py`` does, then runs that many whole rounds of its
operations under cProfile and prints the top functions by self time.
It imports staralg from the checkout's ``src/``, like the benchmark, and
times no fresh processes. An operation that fails its check raises.
cProfile adds a cost to every Python call and none to native code, so a
candidate it finds is confirmed with ``bench/run.py``, unprofiled.

With ``--memory`` the same rounds run under tracemalloc instead, and it
prints the traced peak and the top source lines by the memory their
allocations still hold after the rounds (the workload keeps state between
rounds, so that is what a run retains). tracemalloc counts the bytes
Python allocates, not the process's resident size: a candidate it finds
is confirmed with ``bench/run.py``'s ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("audit", "lattice", "cli"), default="audit")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--memory", action="store_true",
                    help="trace allocations instead of calls")
    args = ap.parse_args()
    if args.rounds < 1 or args.top < 1:
        ap.error("--rounds and --top must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    if args.memory:
        return _memory_profile(w, args)
    prof = cProfile.Profile()
    prof.enable()
    _run_rounds(w, args.rounds)
    prof.disable()
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds, by self time")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(args.top)
    return 0


def _run_rounds(w, rounds: int) -> None:
    for r in range(rounds):
        for _, op in w.round(r):
            op()


def _memory_profile(w, args) -> int:
    gc.collect()
    tracemalloc.start()
    _run_rounds(w, args.rounds)
    gc.collect()
    _, peak = tracemalloc.get_traced_memory()
    snap = tracemalloc.take_snapshot()
    tracemalloc.stop()
    snap = snap.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    stats = snap.statistics("lineno")
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds,"
          f" traced peak {peak / 1024:.1f} KiB,"
          f" retained {sum(s.size for s in stats) / 1024:.1f} KiB;"
          " top lines by retained size")
    for stat in stats[:args.top]:
        frame = stat.traceback[0]
        path = Path(frame.filename)
        if path.is_relative_to(ROOT):
            path = path.relative_to(ROOT)
        print(f"{stat.size / 1024:10.1f} KiB {stat.count:8d} blocks  {path}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
