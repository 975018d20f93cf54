"""Arithmetic on a single generator's line.

A StarReal stores its generator and its preimage. Every operation is
classical arithmetic on preimages, and its result passes the
generator's guard once, so a value that exists always has a
representable image; a value built from an image passes the same guard.
The image itself is computed only when it is read.

StarReal is a frozen slotted dataclass. Its values are built by setting
the two slots through their member descriptors, which skips the frozen
``__setattr__``; equality, hashing, ``repr`` and immutability are the
dataclass's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    GeneratorMismatchError,
    GeneratorOverflowError,
    NegativeSqrtError,
    StarDivisionError,
)
from .generators import Generator, apply_inverse, guard

__all__ = [
    "StarReal",
    "SeriesResult",
    "from_preimage",
    "arith",
    "compare",
    "square",
    "sqrt",
    "one_of",
    "series_sum",
    "preimage_close",
]

# rounding debris below this magnitude is treated as an exact zero by sqrt
_SQRT_CLAMP = 1e-12


@dataclass(frozen=True, slots=True, init=False)
class StarReal:
    """A value on a generator's line, stored as its preimage.

    ``StarReal(gen, image)`` builds the value from an image: the image is
    checked against the image interval, inverted once, and its preimage
    passes the generator's guard, as ``from_preimage``'s does. Arithmetic
    builds its results with ``from_preimage`` and never inverts.
    """

    gen: Generator
    preimage: float

    def __init__(self, gen: Generator, image: float):
        _set_gen(self, gen)
        _set_preimage(self, guard(gen, apply_inverse(gen, image)))

    @property
    def image(self) -> float:
        return self.gen.forward(self.preimage)


# the slots' own member descriptors: setting through them skips the
# frozen dataclass's __setattr__, which refuses every assignment
_set_gen = StarReal.__dict__["gen"].__set__
_set_preimage = StarReal.__dict__["preimage"].__set__
_new = object.__new__


def from_preimage(g: Generator, t: float) -> StarReal:
    """The line's value whose preimage is t."""
    v = _new(StarReal)
    _set_gen(v, g)
    _set_preimage(v, guard(g, t))
    return v


def one_of(g: Generator) -> StarReal:
    """Multiplicative identity of the line: the image of 1."""
    return from_preimage(g, 1.0)


def _same_gen(y: StarReal, z: StarReal) -> None:
    if y.gen != z.gen:
        raise GeneratorMismatchError(
            f"cannot combine values over {y.gen.name} and {z.gen.name}"
        )


def arith(kind: str, y: StarReal, z: StarReal) -> StarReal:
    """y op z for kind in add/sub/mul/div, computed on preimages.

    Division by the line's additive zero (preimage 0) raises
    StarDivisionError before any float division happens.
    """
    _same_gen(y, z)
    p, q = y.preimage, z.preimage
    if kind == "add":
        r = p + q
    elif kind == "sub":
        r = p - q
    elif kind == "mul":
        r = p * q
    elif kind == "div":
        if q == 0.0:
            raise StarDivisionError(
                f"division by the additive zero of the {y.gen.name} line"
            )
        r = p / q
    else:
        raise ValueError(f"unknown arithmetic kind {kind!r}")
    return from_preimage(y.gen, r)


def compare(y: StarReal, z: StarReal) -> int:
    """-1, 0, or 1 as y is below, equal to, or above z in the line's order."""
    _same_gen(y, z)
    p, q = y.preimage, z.preimage
    return (p > q) - (p < q)


def square(b: StarReal) -> StarReal:
    """b times b in the line's arithmetic."""
    return arith("mul", b, b)


def sqrt(b: StarReal) -> StarReal:
    """The line's square root: the value whose square is b.

    Preimages in [-1e-12, 0) are clamped to 0 (rounding debris from
    cancellations); anything more negative raises NegativeSqrtError.
    """
    p = b.preimage
    if p < 0.0:
        if p >= -_SQRT_CLAMP:
            p = 0.0
        else:
            raise NegativeSqrtError(
                f"square root of a value below zero (preimage {p!r})"
            )
    return from_preimage(b.gen, math.sqrt(p))


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of folding a series on one line.

    ``sum`` is the last partial sum; ``converged`` means either the
    3-consecutive-small-deltas rule fired or a finite term stream was
    exhausted (a finite sum is its own limit). ``reason`` is None on
    convergence, else one of "max_terms", "overflow", "diverged".
    """

    sum: StarReal
    converged: bool
    terms_used: int
    reason: str | None = None


# partial-sum preimages beyond this magnitude are reported as divergent
_DIVERGENCE_BOUND = 1e15


def series_sum(
    terms: Iterable[StarReal], tol: float = 1e-10, max_terms: int = 10_000
) -> SeriesResult:
    """Fold a term stream with the line's addition.

    Convergence rule: three consecutive partial-sum preimage deltas of at
    most ``tol``. Every partial sum passes the generator's guard, so
    overflow on heavily curved lines is caught and reported rather than
    silently saturating.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")

    it: Iterator[StarReal] = iter(terms)
    try:
        total = next(it)
    except StopIteration:
        raise ValueError("series_sum needs at least one term") from None

    used = 1
    small_run = 0
    while True:
        try:
            a = next(it)
        except StopIteration:
            break
        except GeneratorOverflowError:
            # a term itself left the line: same failure as a fold overflow
            return SeriesResult(total, False, used, "overflow")
        if used >= max_terms:
            return SeriesResult(total, False, used, "max_terms")
        prev = total.preimage
        try:
            total = arith("add", total, a)
        except GeneratorOverflowError:
            return SeriesResult(total, False, used, "overflow")
        used += 1
        if abs(total.preimage) > _DIVERGENCE_BOUND:
            return SeriesResult(total, False, used, "diverged")
        if abs(total.preimage - prev) <= tol:
            small_run += 1
            if small_run >= 3:
                return SeriesResult(total, True, used, None)
        else:
            small_run = 0

    # the stream ended on its own: the sum is exact
    return SeriesResult(total, True, used, None)


# preimage_close's absolute floor, the gap it accepts near zero
_CLOSE_FLOOR = 1e-12


def preimage_close(x: float, y: float, rel: float = 1e-9) -> bool:
    """Closeness on preimages: absolute near zero, relative at scale."""
    return abs(x - y) <= max(_CLOSE_FLOOR, rel * max(abs(x), abs(y)))
