"""The two-coordinate field over a generator pair.

A point carries an alpha-line first coordinate and a beta-line second
coordinate. It is stored as one classical complex number of preimages,
so every field operation is Python complex arithmetic followed by the
pair's one point guard (``GeneratorPair.check``) on the result. The
field behaves exactly like the complex numbers seen through the two
generators, which is what the dual-route evaluator checks on every
expression.

StarComplex is a frozen slotted dataclass, built, like StarReal, by
setting its two slots through their member descriptors; equality,
hashing, ``repr`` and immutability are the dataclass's own. Random
points draw each part as ``rng.uniform`` does, written out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .errors import PairMismatchError, StarDivisionError, StarError
from .expr import (
    _CLASSICAL_OPS,
    _DRAW_BOUND,
    Lit,
    Node,
    _divide,
    _product,
    eval_classical,
    fold,
    read_at,
)
from .generators import GeneratorPair, guard
from .star_real import StarReal, from_preimage, preimage_close

__all__ = [
    "StarComplex",
    "from_preimages",
    "from_classical",
    "random_point",
    "c_add",
    "c_sub",
    "c_mul",
    "c_div",
    "c_neg",
    "c_conj",
    "c_norm",
    "zero",
    "one",
    "approx_eq",
    "dual_mode_eval",
]


@dataclass(frozen=True, slots=True, init=False)
class StarComplex:
    """A point of the field: the pair and the classical complex number of
    its preimages (alpha preimage as the real part, beta preimage as the
    imaginary part). ``from_preimages`` builds guarded points; the
    constructor takes the value as given."""

    pair: GeneratorPair
    value: complex

    def __init__(self, pair: GeneratorPair, value: complex):
        _set_pair(self, pair)
        _set_value(self, value)

    @property
    def a(self) -> StarReal:
        return from_preimage(self.pair.alpha, self.value.real)

    @property
    def b(self) -> StarReal:
        return from_preimage(self.pair.beta, self.value.imag)

    @property
    def preimages(self) -> tuple[float, float]:
        return (self.value.real, self.value.imag)

    @property
    def as_complex(self) -> complex:
        """The classical complex number behind the point."""
        return self.value


# the slots' own member descriptors, as in star_real
_set_pair = StarComplex.__dict__["pair"].__set__
_set_value = StarComplex.__dict__["value"].__set__


def from_preimages(pair: GeneratorPair, x: float, y: float) -> StarComplex:
    """The point whose coordinates have preimages (x, y)."""
    return StarComplex(pair, pair.check(complex(x, y)))


def from_classical(pair: GeneratorPair, w: complex) -> StarComplex:
    """Image of an ordinary complex number under the pair."""
    return StarComplex(pair, pair.check(complex(w.real, w.imag)))


# the draw interval [-_DRAW_BOUND, _DRAW_BOUND] as its low end and width,
# the two numbers ``rng.uniform`` computes a part from
_DRAW_LOW = -_DRAW_BOUND
_DRAW_WIDTH = _DRAW_BOUND - _DRAW_LOW


def random_point(rng: random.Random, pair: GeneratorPair) -> StarComplex:
    """A point with both preimages drawn uniformly from the draw interval.

    Each part is ``rng.uniform(-_DRAW_BOUND, _DRAW_BOUND)`` written out,
    as CPython computes it, so the draws and the generator's state are
    the same."""
    r, lo, w = rng.random, _DRAW_LOW, _DRAW_WIDTH
    return from_preimages(pair, lo + w * r(), lo + w * r())


def _same_pair(p: GeneratorPair, q: GeneratorPair) -> None:
    if p is not q and p != q:
        raise PairMismatchError(
            f"cannot combine points over {p.names} and {q.names}"
        )


def c_add(z: StarComplex, w: StarComplex) -> StarComplex:
    """Componentwise addition on the two lines."""
    _same_pair(z.pair, w.pair)
    return StarComplex(z.pair, z.pair.check(z.value + w.value))


def c_sub(z: StarComplex, w: StarComplex) -> StarComplex:
    _same_pair(z.pair, w.pair)
    return StarComplex(z.pair, z.pair.check(z.value - w.value))


def c_neg(z: StarComplex) -> StarComplex:
    """The guarded zero minus z, as the direct route's neg."""
    return c_sub(zero(z.pair), z)


def c_mul(z: StarComplex, w: StarComplex) -> StarComplex:
    """Product: the classical complex product on preimages, by the
    field's one product rule ``expr._product``, so a product of nonzero
    points that rounds to zero raises StarUnderflowError."""
    _same_pair(z.pair, w.pair)
    return StarComplex(z.pair, z.pair.check(_product(z.value, w.value)))


def _quotient(v: complex, w: complex) -> complex:
    """v / w on raw preimages, unguarded, under c_div and the direct
    route's div: dividing by the additive zero raises StarDivisionError,
    and any other quotient is the field's one quotient rule
    ``expr._divide``, the pullback route's too."""
    if not w:
        raise StarDivisionError("division by the field's additive zero")
    return _divide(v, w)


def c_div(z: StarComplex, w: StarComplex) -> StarComplex:
    """Quotient, by ``_quotient``: dividing by the additive zero raises
    StarDivisionError, and a quotient of a nonzero point that rounds to
    zero, even on rescaled operands, raises StarUnderflowError."""
    _same_pair(z.pair, w.pair)
    return StarComplex(z.pair, z.pair.check(_quotient(z.value, w.value)))


def c_conj(z: StarComplex) -> StarComplex:
    """Conjugation: negate the second coordinate."""
    return StarComplex(z.pair, z.pair.check(z.value.conjugate()))


def c_norm(z: StarComplex) -> StarReal:
    """Modulus as a beta-line value: beta(hypot of the preimages)."""
    return from_preimage(z.pair.beta, math.hypot(z.value.real, z.value.imag))


def zero(pair: GeneratorPair) -> StarComplex:
    """Additive identity (alpha(0), beta(0))."""
    return from_preimages(pair, 0.0, 0.0)


def one(pair: GeneratorPair) -> StarComplex:
    """Multiplicative identity (alpha(1), beta(0))."""
    return from_preimages(pair, 1.0, 0.0)


def approx_eq(z: StarComplex, w: StarComplex, rel: float = 1e-9) -> bool:
    """Componentwise preimage closeness, with ``preimage_close``'s
    absolute floor of 1e-12."""
    _same_pair(z.pair, w.pair)
    a1, b1 = z.preimages
    a2, b2 = w.preimages
    return preimage_close(a1, a2, rel) and preimage_close(b1, b2, rel)


# ---------------------------------------------------------------------------
# dual-route expression evaluation


@lru_cache(maxsize=16)
def _direct_ops(pair: GeneratorPair) -> dict[str, Callable]:
    """The direct route's op table over one pair: the field operations on
    raw preimages, each result passing the pair's guard where it is made,
    as ``c_*`` guard theirs."""
    check = pair.check
    beta = pair.beta

    def norm(v: complex) -> complex:
        # beta's guard on the modulus, as c_norm; a norm used as a
        # subexpression then sits on the real axis
        return check(complex(guard(beta, math.hypot(v.real, v.imag)), 0.0))

    return {
        "add": lambda v, w: check(v + w),
        "sub": lambda v, w: check(v - w),
        "mul": lambda v, w: check(_product(v, w)),
        "div": lambda v, w: check(_quotient(v, w)),
        "conj": lambda v: check(v.conjugate()),
        # the guarded zero minus v, as c_neg, so that signed zeros come
        # out as they do from c_sub
        "neg": lambda v: check(check(0j) - v),
        "norm": norm,
    }


def dual_mode_eval(
    tree: Node,
    pair: GeneratorPair,
    mode: str = "direct",
    z: StarComplex | None = None,
) -> StarComplex:
    """Evaluate a tree over the pair by one of two routes.

    "direct" is complex arithmetic on preimages with the pair's guard
    after every step: it reads the tree with the field operations on raw
    preimages and builds one point at the end. "pullback" evaluates the
    whole tree classically on preimages and guards only the result. With
    z bound, both routes call the tree's compiled reading (``read_at``),
    which is built once and kept while one route reads one tree over one
    pair.
    The two must agree to about 1e-9 on preimages; keeping both routes
    alive is the point, so they are never collapsed into one. A bound
    point over another pair raises PairMismatchError on either route,
    whether or not the tree mentions z.
    """
    if mode not in ("direct", "pullback"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if z is not None and z.pair is not pair and z.pair != pair:
        raise PairMismatchError("bound point lives over a different pair")
    if mode == "pullback":
        zc = z.as_complex if z is not None else None
        return from_classical(pair, eval_classical(tree, zc))
    check = pair.check
    # the bound point is taken as given; what is made from it is guarded
    value = read_at(
        tree,
        lambda n: check(complex(n.a, n.b)),
        _direct_ops(pair),
        z.value if z is not None else None,
    )
    return StarComplex(pair, value)


def _columns(op: Callable, *cols: tuple) -> tuple:
    return tuple(map(op, *cols))


def _read_points(
    tree: Node, pair: GeneratorPair, mode: str, zs: tuple[complex, ...]
) -> tuple[complex, ...]:
    """``dual_mode_eval(tree, pair, mode, z=p).value`` at each point p of
    the preimages zs, read by one fold over the whole tuple.

    ``z`` is zs, taken as given; a literal is its value repeated, guarded
    once on the direct route. Each op is the route's own op mapped over
    the columns, and the pullback route guards each result point. On any
    StarError every point is read by ``dual_mode_eval``, so the error is
    the lowest failing point's, with its message and subterm."""
    n, check = len(zs), pair.check
    direct = mode == "direct"
    ops = _direct_ops(pair) if direct else _CLASSICAL_OPS

    def leaf(node: Node) -> tuple[complex, ...]:
        if not isinstance(node, Lit):
            return zs
        v = complex(node.a, node.b)
        return ((check(v) if direct else v),) * n

    try:
        out = fold(tree, leaf, {k: partial(_columns, op) for k, op in ops.items()})
        return out if direct else tuple(map(check, out))
    except StarError:
        return tuple(
            dual_mode_eval(tree, pair, mode, z=StarComplex(pair, p)).value for p in zs
        )
