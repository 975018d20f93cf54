"""Direct polynomial results, pinned bit for bit over the four pairs.

Each case is the SHA-256 of the JSON of one result: the preimages of a
polynomial's coefficients, of a grid function's values or of a field
point, or the error type and message when the operation refuses. For
``neumann_inverse`` it is the converged flag, the terms used, the
inverse's coefficient preimages and both residuals. The digests were
taken while polynomials still stored one field point per coefficient and
folded the field operations, before they moved onto one guarded preimage
tuple. An overflow refusal now also names the failing coefficient
(`` at point i``); that suffix is stripped, since it is the one part of a
message the move changed on purpose.
"""

import hashlib
import json
import random
import re

from staralg import (
    StarError,
    from_preimages,
    make_disk_domain,
    make_polynomial,
    neumann_inverse,
    pair_of,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scalar_mul,
    poly_to_grid,
    polynomial_algebra,
    random_point,
)
from staralg.algebra import StarPolynomial

PAIR_NAMES = [
    ("identity", "identity"),
    ("identity", "exp"),
    ("exp", "exp"),
    ("cube", "exp"),
]
SEED = 23
# c in x = 1 - c z: gaps |c|/2 of 0.5 and 0.707 on the 2 x 8 lattice.
# 1 - 1.4z is pinned in test_polynomial_guard.py instead: a Horner partial
# value left exp's working domain there, and only results are guarded now.
NEUMANN_SLOPES = (1.0 + 0.0j, 1.0 + 1.0j)


def _pre(v) -> list:
    """Preimages of a polynomial, a grid function or a field point."""
    if hasattr(v, "coefficients"):
        return [list(c.preimages) for c in v.coefficients]
    if hasattr(v, "values"):
        return [list(c.preimages) for c in v.values]
    return list(v.preimages)


def _outcome(run) -> object:
    try:
        return run()
    except StarError as e:
        return [type(e).__name__, re.sub(r" at point \d+", "", str(e))]


def _inverse(A, x):
    rep = neumann_inverse(A, x)
    return [
        rep.converged,
        rep.terms_used,
        _pre(rep.inverse),
        rep.residual.preimage,
        rep.residual_reversed.preimage,
    ]


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


def _cases():
    """(label, thunk returning a JSON-able result) for every pinned case."""
    for names in PAIR_NAMES:
        pair = pair_of(*names)
        tag = "-".join(names)
        dom = make_disk_domain(pair, 2, 8)
        rng = random.Random(SEED)

        def poly(deg, bound):
            return StarPolynomial(
                pair, tuple(random_point(rng, pair, bound) for _ in range(deg + 1))
            )

        p, q, r, s = poly(3, 1.0), poly(2, 1.0), poly(4, 3.0), poly(2, 1.0)
        lam = random_point(rng, pair, 2.0)
        zs = [random_point(rng, pair, 1.0) for _ in range(3)]
        # hot is in every pair's range, but hot + hot is not in exp's, nor
        # is huge times some coefficients of r; each refused coefficient is
        # one sum or one product, so guarding every partial step and
        # guarding only results refuse the same value
        hot = StarPolynomial(pair, tuple(
            from_preimages(pair, a, b)
            for a, b in ((400.0, -400.0), (100.0, 0.0), (-400.0, 400.0))
        ))
        huge = from_preimages(pair, 300.0, -250.0)
        tiny = from_preimages(pair, 1e-13, -1e-13)
        tail = (from_preimages(pair, 0.0, 0.0), tiny)
        yield f"poly_add/{tag}", lambda: [
            _outcome(lambda: _pre(poly_add(a, b)))
            for a, b in ((p, q), (q, p), (q, r), (r, r), (hot, p), (hot, hot))
        ]
        yield f"poly_mul/{tag}", lambda: [
            _pre(poly_mul(a, b)) for a, b in ((p, q), (q, p), (p, r), (r, r))
        ]
        yield f"poly_scalar_mul/{tag}", lambda: [
            _outcome(lambda: _pre(poly_scalar_mul(c, a)))
            for c in (lam, huge) for a in (p, q, r)
        ]
        yield f"poly_eval/{tag}", lambda: [
            _outcome(lambda: _pre(poly_eval(a, z))) for a in (p, q, r) for z in zs
        ]
        yield f"poly_to_grid/{tag}", lambda: [
            _outcome(lambda: _pre(poly_to_grid(a, dom))) for a in (p, q, r)
        ]
        yield f"make_polynomial/{tag}", lambda: [
            _pre(make_polynomial(pair, a.coefficients + tail))
            for a in (p, q, r)
        ] + [_pre(make_polynomial(pair, tail + tail))]

        def inversions():
            A = polynomial_algebra(dom)
            xs = [
                poly_add(A.unit, StarPolynomial(
                    pair, (from_preimages(pair, 0.0, 0.0),
                           from_preimages(pair, -c.real, -c.imag)),
                ))
                for c in NEUMANN_SLOPES
            ]
            near = poly_scalar_mul(from_preimages(pair, 0.3, 0.0), s)
            xs.append(poly_add(A.unit, near))
            return [_outcome(lambda: _inverse(A, x)) for x in xs]

        yield f"neumann_inverse/{tag}", inversions


def current_digests() -> dict[str, str]:
    return {label: _digest(run()) for label, run in _cases()}


DIGESTS = {
    "poly_add/identity-identity": "e833aadbc08a3dabbd466aee16d37bbfc84753fc7c9230d8ec070dfdd135fc03",
    "poly_mul/identity-identity": "d9d0b3448e3b5e5b3981d7f2ad9314c1c1927a93ac1f413a89b29ba4aeea8ca2",
    "poly_scalar_mul/identity-identity": "d7d4ba4b5f6f270f8cd1e34a0e964b4e4dfc1739684f1998a7207563cfe18dd9",
    "poly_eval/identity-identity": "07a08c4c560cbd8f51a9429ce07e97ea8bf418b1c6170d5e1448fb543f912e7e",
    "poly_to_grid/identity-identity": "4957a71696a186991dc5219c861154c8014d09a2a27e8600861478d22159b1ee",
    "make_polynomial/identity-identity": "89a29bd798641267cf1b6857a71545d514567078b09e99f9bf3274a82c6798a9",
    "neumann_inverse/identity-identity": "bd3f18b4d5793889061a1f658c49c11709ebcaced4eea95ca31209ca0bf699c5",
    "poly_add/identity-exp": "4669fefae25559d42cb458c50311a561e27202c406d43c2e8e18dbec3f19bc47",
    "poly_mul/identity-exp": "d9d0b3448e3b5e5b3981d7f2ad9314c1c1927a93ac1f413a89b29ba4aeea8ca2",
    "poly_scalar_mul/identity-exp": "d7d4ba4b5f6f270f8cd1e34a0e964b4e4dfc1739684f1998a7207563cfe18dd9",
    "poly_eval/identity-exp": "07a08c4c560cbd8f51a9429ce07e97ea8bf418b1c6170d5e1448fb543f912e7e",
    "poly_to_grid/identity-exp": "4957a71696a186991dc5219c861154c8014d09a2a27e8600861478d22159b1ee",
    "make_polynomial/identity-exp": "89a29bd798641267cf1b6857a71545d514567078b09e99f9bf3274a82c6798a9",
    "neumann_inverse/identity-exp": "9389d66fb3c5ad208ff4b75e03b67cfedf4b8c22235c9c522f8ee23df41da2df",
    "poly_add/exp-exp": "4d73e55f36bc1b51cbc3296b5efb87863fd47beb1091e5da0209c04f319113ea",
    "poly_mul/exp-exp": "d9d0b3448e3b5e5b3981d7f2ad9314c1c1927a93ac1f413a89b29ba4aeea8ca2",
    "poly_scalar_mul/exp-exp": "c777cac261b9415bdb44c038554161810584a8993ed7b236d91e295edf1c247c",
    "poly_eval/exp-exp": "07a08c4c560cbd8f51a9429ce07e97ea8bf418b1c6170d5e1448fb543f912e7e",
    "poly_to_grid/exp-exp": "4957a71696a186991dc5219c861154c8014d09a2a27e8600861478d22159b1ee",
    "make_polynomial/exp-exp": "89a29bd798641267cf1b6857a71545d514567078b09e99f9bf3274a82c6798a9",
    "neumann_inverse/exp-exp": "9389d66fb3c5ad208ff4b75e03b67cfedf4b8c22235c9c522f8ee23df41da2df",
    "poly_add/cube-exp": "4669fefae25559d42cb458c50311a561e27202c406d43c2e8e18dbec3f19bc47",
    "poly_mul/cube-exp": "d9d0b3448e3b5e5b3981d7f2ad9314c1c1927a93ac1f413a89b29ba4aeea8ca2",
    "poly_scalar_mul/cube-exp": "d7d4ba4b5f6f270f8cd1e34a0e964b4e4dfc1739684f1998a7207563cfe18dd9",
    "poly_eval/cube-exp": "07a08c4c560cbd8f51a9429ce07e97ea8bf418b1c6170d5e1448fb543f912e7e",
    "poly_to_grid/cube-exp": "4957a71696a186991dc5219c861154c8014d09a2a27e8600861478d22159b1ee",
    "make_polynomial/cube-exp": "89a29bd798641267cf1b6857a71545d514567078b09e99f9bf3274a82c6798a9",
    "neumann_inverse/cube-exp": "9389d66fb3c5ad208ff4b75e03b67cfedf4b8c22235c9c522f8ee23df41da2df",
}


def test_direct_polynomial_results_are_pinned():
    got = current_digests()
    assert sorted(got) == sorted(DIGESTS)
    changed = [label for label in DIGESTS if got[label] != DIGESTS[label]]
    assert changed == []
