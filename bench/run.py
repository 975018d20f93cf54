#!/usr/bin/env python3
"""The staralg benchmark.

    python3 bench/run.py --workload audit|lattice|cli --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports staralg from
``src/`` next to this directory and from nowhere else. One process, one
closed-loop caller, no extra threads: whole rounds of the workload's
operations run until S seconds of operation time have passed. Every
output is checked; a failing or wrong operation counts in ``failed`` and
the run goes on.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
Operation costs are counted in runs of a fixed reference kernel timed
next to each operation (``refclock.py``), so that they follow the code
rather than the shared machine's load.
Fresh processes (set-up probes of this script, and ``python -m staralg``
commands, whose median time is the record's ``cold_start_ms``) run one at
a time between rounds, spread over the run. With ``--trace 1`` a fixed number of rounds runs under the
per-layer tracer instead, so its call counts repeat exactly for a seed.
Both write a fuller record, with tail percentiles and spans, to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import refclock  # bench/, the script's directory, is first on sys.path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 5  # set-up is measured in fresh processes; setup_s is their median
COLD_STARTS = 16  # fresh `python -m staralg` commands; the record's cold_start_ms is their median
IMPORT_PROBES = 5  # `-X importtime` processes in a traced run
TRACE_ROUNDS = {"audit": 4, "lattice": 4, "cli": 20}  # lattice: every size meets every pair
CHILD_TIMEOUT_S = 60
KEEP_ERRORS = 20
# In the wall-time figures of the record, an operation's time in a run is
# this percentile of its times over the rounds: load only ever adds time.
# It still moves with phases of load that outlast a run, which the bounded
# metrics' costs in kernel runs (refclock.py) follow far less.
OP_PERCENTILE = 10


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_staralg():
    sys.path.insert(0, str(SRC))
    import staralg

    if not Path(staralg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"staralg came from {staralg.__file__}, not from {SRC}")
    return staralg


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(p / 100 * len(s)) - 1))]


class SideTasks:
    """Fresh processes, run one at a time between rounds and spread evenly
    over the run, so that they sample the same machine load as the rounds."""

    def __init__(self, workload, seed: int, count_spawns: int, count_probes: int):
        self.workload, self.seed = workload, seed
        # the two kinds interleaved in proportion
        slots = [((i + 0.5) / n, kind)
                 for kind, n in (("spawn", count_spawns), ("probe", count_probes)) for i in range(n)]
        self.todo = [kind for _, kind in sorted(slots)]
        self.done = 0
        self.spawned = 0
        self.cold_ms: list[float] = []
        self.setup_s: list[float] = []
        self.errors: list[str] = []

    def run_due(self, fraction: float) -> None:
        while self.done < len(self.todo) and self.done < math.ceil(fraction * len(self.todo)):
            kind = self.todo[self.done]
            (self._spawn if kind == "spawn" else self._probe)()
            self.done += 1

    def _spawn(self) -> None:
        case = self.workload.spawn_case(self.spawned)
        self.spawned += 1
        t0 = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-m", "staralg", *case.argv],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        ms = (time.perf_counter() - t0) * 1e3
        try:
            if r.returncode != 0:
                raise RuntimeError(f"exit code {r.returncode}: {r.stderr.strip()[-300:]}")
            case.check(r.stdout)
        except Exception as e:  # a wrong output is recorded, the run goes on
            self.errors.append(f"spawn {case.argv[:2]}: {e!r}")
            return
        self.cold_ms.append(ms)

    def _probe(self) -> None:
        t0 = time.monotonic_ns()
        r = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", self.workload.name,
             "--seed", str(self.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if r.returncode != 0:
            self.errors.append(f"setup probe: exit code {r.returncode}: {r.stderr.strip()[-300:]}")
            return
        # CLOCK_MONOTONIC is shared by all processes of the machine
        ready_ns = int(r.stdout.split()[-1])
        self.setup_s.append((ready_ns - t0) / 1e9)


class Rounds(NamedTuple):
    times_ms: dict[str, list[float]]  # operation label -> its time in each round
    costs_ref: dict[str, list[float]]  # operation label -> its cost in kernel runs in each round
    rounds: int
    attempted: int
    failed: int
    errors: list[str]

    def typical(self, steps: int) -> tuple[float, float]:
        """ops_per_kref and op_p50_ref from each operation's median cost.

        ops_per_kref is the round's operation count over the sum of those
        costs, per thousand kernel runs; op_p50_ref is the median over the
        round's jobs, each the sum of ``steps`` consecutive operations.
        """
        costs = [statistics.median(v) for v in self.costs_ref.values()]  # in round order
        jobs = [sum(costs[i:i + steps]) for i in range(0, len(costs), steps)]
        return len(costs) / (sum(costs) / 1e3), statistics.median(jobs)

    def fastest(self) -> tuple[float, float]:
        """ops_per_s and op_p50_ms in wall time, from each operation's
        OP_PERCENTILE time, by the same definitions."""
        op_ms = [percentile(v, OP_PERCENTILE) for v in self.times_ms.values()]
        return len(op_ms) / (sum(op_ms) / 1e3), statistics.median(op_ms)


def run_rounds(workload, budget_s: float | None, rounds: int | None, side=None, tracer=None) -> Rounds:
    """Whole rounds until ``budget_s`` of operation time, or ``rounds`` rounds.

    The reference kernel runs before the first operation and after each
    one (refclock.sample); an operation's cost is its time over the mean
    time of the kernel runs on both sides of it.
    """
    times_ms: dict[str, list[float]] = defaultdict(list)
    costs_ref: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    errors: list[str] = []
    busy_ns = 0
    r = 0
    before = refclock.sample()
    while True:
        ops = workload.round(r)
        if len({label for label, _ in ops}) != len(ops):
            raise ValueError("operation labels must be unique within a round")
        for label, op in ops:
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    op()
                else:
                    with tracer.span(label):
                        op()
            except Exception as e:  # a failing or wrong operation is counted, the run goes on
                failed += 1
                if len(errors) < KEEP_ERRORS:
                    errors.append(f"{label}: {e!r}")
            dt = time.perf_counter_ns() - t0
            after = refclock.sample(dt)
            times_ms[label].append(dt / 1e6)
            costs_ref[label].append(dt * (before[0] + after[0]) / (before[1] + after[1]))
            before = after
            attempted += 1
            busy_ns += dt
        r += 1
        if side is not None:
            side.run_due(busy_ns / (budget_s * 1e9))
            before = refclock.sample()  # the machine after the side task
        if (rounds is not None and r >= rounds) or (budget_s is not None and busy_ns >= budget_s * 1e9):
            break
    if side is not None:
        side.run_due(1.0)
    return Rounds(dict(times_ms), dict(costs_ref), r, attempted, failed, errors)


def import_times() -> dict[str, tuple[float, str]]:
    """Cumulative import times of staralg and numpy from fresh processes."""
    got: dict[str, list[float]] = {"staralg": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import staralg"],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        r.check_returncode()
        cumulative = {}
        for line in r.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        for name in got:
            got[name].append(cumulative.get(name, 0.0))
    return {f"import.{name}_ms": (statistics.median(v), "ms") for name, v in got.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("audit", "lattice", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        S = import_staralg()
    except ImportError as e:
        print(f"error: cannot import staralg from {SRC}: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    build = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        build(args.seed)
        print(time.monotonic_ns())
        return 0

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "python": sys.version.split()[0], "cpus": os.cpu_count()}
    if args.trace:
        imports = import_times()
        tracer = Tracer()
        tracer.install()
        workload = build(args.seed)
        tracer.reset()
        rounds = run_rounds(workload, None, TRACE_ROUNDS[args.workload], tracer=tracer)
        metrics = {**tracer.metrics(), **imports, "trace.ops_per_s": (rounds.fastest()[0], "1/s")}
        record["spans"] = tracer.spans
        side_errors: list[str] = []
    else:
        workload = build(args.seed)
        side = SideTasks(workload, args.seed, COLD_STARTS, SETUP_PROBES)
        rounds = run_rounds(workload, args.seconds, None, side=side)
        side_errors = side.errors
        if not side.cold_ms or not side.setup_s:
            print(f"error: no fresh process succeeded: {side_errors[:3]}", file=sys.stderr)
            return 1
        ops_per_kref, op_p50_ref = rounds.typical(workload.steps)
        metrics = {
            "ops_per_kref": (ops_per_kref, "1/kref"),
            "op_p50_ref": (op_p50_ref, "ref"),
            "setup_s": (statistics.median(side.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        # for reference only, not bounded: the rates in wall time, the cold
        # start, and the median and the highest percentile with at least ten
        # samples beyond it, over every operation time of the run
        op_ms = [t for v in rounds.times_ms.values() for t in v]
        tail = next((p for p in (99.9, 99.0, 90.0) if len(op_ms) * (1 - p / 100) >= 10), None)
        ops_per_s, op_p50_ms = rounds.fastest()
        ref = {
            "ops_per_s": ops_per_s, "op_p50_ms": op_p50_ms,
            "cold_start_ms": statistics.median(side.cold_ms),
            "ops": len(op_ms), "rounds": rounds.rounds, "op_median_ms": statistics.median(op_ms),
            "op_tail": None if tail is None else {"percentile": tail, "ms": percentile(op_ms, tail)},
            "cold_start_samples_ms": side.cold_ms, "setup_samples_s": side.setup_s,
        }
        record["reference"] = ref
        tail_text = "" if tail is None else f", p{tail:g} {ref['op_tail']['ms']:.3f} ms"
        print(f"{args.workload} seed {args.seed}: {len(op_ms)} ops in {ref['rounds']} rounds,"
              f" {ops_per_s:.1f} ops/s in wall time{tail_text},"
              f" cold start {ref['cold_start_ms']:.1f} ms", file=sys.stderr)

    result = {
        "correct": rounds.failed == 0 and not side_errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    errors = rounds.errors + side_errors
    record.update(result=result, errors=errors)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    for e in errors[:5]:
        print(f"failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
