#!/usr/bin/env python3
"""Summarise benchmark runs, or compare the runs of two commits.

    python3 bench/compare.py OUT_DIR            # one commit
    python3 bench/compare.py BASE_OUT NEW_OUT   # parent against change

Each OUT_DIR is the ``bench/out/`` of a checkout after untraced runs
(``--trace 0``) on the same seeds. For every workload and end-to-end
metric it prints the median and quartiles of the runs and their spread
(the distance between the quartiles as a share of the median). With two
directories it also pairs runs by seed and counts the seeds on which the
change reads better, and marks a gain only when it wins at least nine
tenths of the pairs and the medians differ by more than the base's own
quartile distance, and a regression when the change's median is worse
than the base's by more than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(out_dir: Path) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value, from untraced runs."""
    runs: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(out_dir.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        for name, m in rec["result"]["metrics"].items():
            runs[rec["workload"]][name][rec["seed"]] = m["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides = [load(Path(a)) for a in argv]
    base = sides[0]
    for workload in sorted(base):
        print(f"{workload}")
        for metric, by_seed in base[workload].items():
            if metric not in spec:
                continue
            q1, med, q3 = quartiles(list(by_seed.values()))
            line = (f"  {metric:14s} n={len(by_seed):2d} median {med:11.4f}"
                    f" [{q1:.4f}, {q3:.4f}] spread {(q3 - q1) / med:6.1%}")
            if len(sides) == 2:
                new = sides[1].get(workload, {}).get(metric, {})
                seeds = sorted(set(by_seed) & set(new))
                if seeds:
                    sign = 1 if spec[metric]["better"] == "higher" else -1
                    wins = sum(sign * (new[s] - by_seed[s]) > 0 for s in seeds)
                    n_med = statistics.median(new[s] for s in seeds)
                    change = sign * (n_med - med) / med
                    verdict = ("GAIN" if wins >= 0.9 * len(seeds) and abs(n_med - med) > q3 - q1
                               else "REGRESSION" if -change > spec[metric]["bound"] else "")
                    line += (f" | new median {n_med:11.4f} ({change:+6.1%} better)"
                             f" wins {wins}/{len(seeds)} {verdict}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
