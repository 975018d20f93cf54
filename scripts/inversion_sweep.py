#!/usr/bin/env python3
"""Sweep the geometric-series inverse across the unit ball.

For x = unit - d with distance d from the unit, the series needs about
log(tol)/log(d) terms; this sweep prints measured terms against that
estimate and the achieved residuals, per generator pair. Points outside
the ball are reported as rejected.
"""
from __future__ import annotations

import argparse
import math
import random

from staralg import (
    NotApplicableError,
    from_preimages,
    neumann_inverse,
    pair_of,
    scalar_algebra,
)

PAIRS = [("identity", "identity"), ("identity", "exp"), ("exp", "exp"), ("cube", "exp")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-10)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    for alpha, beta in PAIRS:
        pair = pair_of(alpha, beta)
        A = scalar_algebra(pair)
        print(f"== pair ({alpha}, {beta}), tol {args.tol:g} ==")
        print(f"  {'distance':>9} {'terms':>6} {'estimate':>9} {'residual':>10}")
        for k in range(1, args.steps + 1):
            d = k / 10.0
            phase = rng.uniform(0.0, 2 * math.pi)
            x = A.sub(
                A.unit,
                from_preimages(pair, d * math.cos(phase), d * math.sin(phase)),
            )
            try:
                rep = neumann_inverse(A, x, tol=args.tol)
            except NotApplicableError as e:
                print(f"  {d:9.2f} rejected: {e}")
                continue
            est = max(1, math.ceil(math.log(args.tol) / math.log(d)))
            print(
                f"  {d:9.2f} {rep.terms_used:6d} {est:9d}"
                f" {rep.to_json_dict()['residual_preimage']:10.2e}"
            )
        # one step past the ball boundary for contrast
        x = A.sub(A.unit, from_preimages(pair, 1.05, 0.0))
        try:
            neumann_inverse(A, x, tol=args.tol)
            print("  1.05 unexpectedly accepted")
        except NotApplicableError:
            print(f"  {1.05:9.2f} rejected (outside the ball, as required)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
