"""The two-coordinate field over a generator pair.

A point carries an alpha-line first coordinate and a beta-line second
coordinate. It is stored as one classical complex number of preimages,
so every field operation is Python complex arithmetic followed by the
pair's guard on each coordinate of the result. The field behaves
exactly like the complex numbers seen through the two generators, which
is what the dual-route evaluator checks on every expression.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    PairMismatchError,
    StarDivisionError,
    StarError,
    UnboundVariableError,
)
from .expr import Binary, Lit, Node, Unary, Var, eval_classical, to_text
from .generators import GeneratorPair, guard
from .star_real import StarReal, from_preimage, preimage_close

__all__ = [
    "StarComplex",
    "Constants",
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
    "i_unit",
    "constants",
    "approx_eq",
    "dual_mode_eval",
]


@dataclass(frozen=True, slots=True)
class StarComplex:
    """A point of the field: the pair and the classical complex number of
    its preimages (alpha preimage as the real part, beta preimage as the
    imaginary part). ``from_preimages`` builds guarded points."""

    pair: GeneratorPair
    value: complex

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


def _guarded(pair: GeneratorPair, w: complex) -> StarComplex:
    guard(pair.alpha, w.real)
    guard(pair.beta, w.imag)
    return StarComplex(pair, w)


def from_preimages(pair: GeneratorPair, x: float, y: float) -> StarComplex:
    """The point whose coordinates have preimages (x, y)."""
    return _guarded(pair, complex(x, y))


def from_classical(pair: GeneratorPair, w: complex) -> StarComplex:
    """Image of an ordinary complex number under the pair."""
    return from_preimages(pair, w.real, w.imag)


def random_point(
    rng: random.Random, pair: GeneratorPair, bound: float = 3.0
) -> StarComplex:
    """A point with both preimages drawn uniformly from [-bound, bound]."""
    return from_preimages(
        pair, rng.uniform(-bound, bound), rng.uniform(-bound, bound)
    )


def _same_pair(z: StarComplex, w: StarComplex) -> None:
    if z.pair != w.pair:
        raise PairMismatchError(
            f"cannot combine points over {z.pair.names} and {w.pair.names}"
        )


def c_add(z: StarComplex, w: StarComplex) -> StarComplex:
    """Componentwise addition on the two lines."""
    _same_pair(z, w)
    return _guarded(z.pair, z.value + w.value)


def c_sub(z: StarComplex, w: StarComplex) -> StarComplex:
    _same_pair(z, w)
    return _guarded(z.pair, z.value - w.value)


def c_neg(z: StarComplex) -> StarComplex:
    return _guarded(z.pair, -z.value)


def c_mul(z: StarComplex, w: StarComplex) -> StarComplex:
    """Product: the classical complex product on preimages."""
    _same_pair(z, w)
    return _guarded(z.pair, z.value * w.value)


def c_div(z: StarComplex, w: StarComplex) -> StarComplex:
    """Quotient; dividing by the additive zero raises StarDivisionError.
    Python's complex division is scaled (Smith's method), so no
    intermediate square overflows or underflows at extreme magnitudes."""
    _same_pair(z, w)
    try:
        q = z.value / w.value
    except ZeroDivisionError:
        raise StarDivisionError("division by the field's additive zero") from None
    return _guarded(z.pair, q)


def c_conj(z: StarComplex) -> StarComplex:
    """Conjugation: negate the second coordinate."""
    return _guarded(z.pair, z.value.conjugate())


def c_norm(z: StarComplex) -> StarReal:
    """Modulus as a beta-line value: beta(hypot of the preimages)."""
    return from_preimage(z.pair.beta, math.hypot(z.value.real, z.value.imag))


def zero(pair: GeneratorPair) -> StarComplex:
    """Additive identity (alpha(0), beta(0))."""
    return from_preimages(pair, 0.0, 0.0)


def one(pair: GeneratorPair) -> StarComplex:
    """Multiplicative identity (alpha(1), beta(0))."""
    return from_preimages(pair, 1.0, 0.0)


def i_unit(pair: GeneratorPair) -> StarComplex:
    """The imaginary unit (alpha(0), beta(1)); squares to the negated one."""
    return from_preimages(pair, 0.0, 1.0)


class Constants(NamedTuple):
    zero: StarComplex
    one: StarComplex
    i_unit: StarComplex


def constants(pair: GeneratorPair) -> Constants:
    return Constants(zero(pair), one(pair), i_unit(pair))


def approx_eq(
    z: StarComplex, w: StarComplex, rel: float = 1e-9, abs_tol: float = 1e-12
) -> bool:
    """Componentwise preimage closeness."""
    _same_pair(z, w)
    a1, b1 = z.preimages
    a2, b2 = w.preimages
    return preimage_close(a1, a2, rel, abs_tol) and preimage_close(
        b1, b2, rel, abs_tol
    )


# ---------------------------------------------------------------------------
# dual-route expression evaluation


def _eval_direct(
    node: Node, pair: GeneratorPair, z: StarComplex | None
) -> StarComplex:
    try:
        if isinstance(node, Lit):
            return from_preimages(pair, node.a, node.b)
        if isinstance(node, Var):
            if z is None:
                raise UnboundVariableError("z is not bound in this context")
            if z.pair != pair:
                raise PairMismatchError("bound point lives over a different pair")
            return z
        if isinstance(node, Unary):
            v = _eval_direct(node.child, pair, z)
            if node.op == "conj":
                return c_conj(v)
            if node.op == "neg":
                return c_sub(zero(pair), v)
            # a norm used as a subexpression sits on the real axis
            return from_preimages(pair, c_norm(v).preimage, 0.0)
        left = _eval_direct(node.left, pair, z)
        right = _eval_direct(node.right, pair, z)
        if node.op == "add":
            return c_add(left, right)
        if node.op == "sub":
            return c_sub(left, right)
        if node.op == "mul":
            return c_mul(left, right)
        return c_div(left, right)
    except StarError as e:
        # deepest frame wins: only annotate once
        if e.subterm is None:
            e.subterm = to_text(node)
        raise


def dual_mode_eval(
    tree: Node,
    pair: GeneratorPair,
    mode: str = "direct",
    z: StarComplex | None = None,
) -> StarComplex:
    """Evaluate a tree over the pair by one of two routes.

    "direct" folds the field operations node by node, so every step
    passes the pair's guard. "pullback" evaluates the whole tree
    classically on preimages and guards only the result.
    The two must agree to about 1e-9 on preimages; keeping both routes
    alive is the point, so they are never collapsed into one.
    """
    if mode == "direct":
        return _eval_direct(tree, pair, z)
    if mode == "pullback":
        zc = z.as_complex if z is not None else None
        return from_classical(pair, eval_classical(tree, zc))
    raise ValueError(f"unknown evaluation mode {mode!r}")
