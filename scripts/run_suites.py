#!/usr/bin/env python3
"""Run every axiom suite over every built-in generator pair and carrier.

A quick survey of which structures hold where: the field and its derived
algebras should pass everything applicable, so the interesting output is
the worst residual per cell (how close to the tolerance the randomized
audit came).
"""
from __future__ import annotations

import argparse

from staralg import (
    SUITES,
    UnsupportedSuiteError,
    grid_algebra,
    make_disk_domain,
    pair_of,
    run_axiom_suite,
    scalar_algebra,
)

PAIRS = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]


def carriers(pair):
    dom = make_disk_domain(pair, 2, 8)
    return {
        "scalar": scalar_algebra(pair),
        "grid": grid_algebra(dom),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-9)
    args = ap.parse_args()

    failures = 0
    for alpha, beta in PAIRS:
        pair = pair_of(alpha, beta)
        print(f"== pair ({alpha}, {beta}) ==")
        for carrier_name, algebra in carriers(pair).items():
            for suite in SUITES:
                try:
                    report = run_axiom_suite(
                        suite, algebra, trials=args.trials, tol=args.tol, seed=args.seed
                    )
                except UnsupportedSuiteError:  # the suite does not apply here
                    continue
                status = "pass" if report.passed else "FAIL"
                print(
                    f"  {suite:<14} on {carrier_name:<10} {status}"
                    f"  worst residual {report.worst_residual:.3e}"
                )
                failures += not report.passed
    print(f"\n{failures} failing cells")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
