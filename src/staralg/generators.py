"""Generators and generator pairs.

A generator is a strictly increasing bijection from the reals onto an
interval of the reals, with an explicit inverse. Its image carries a
transported arithmetic: classical arithmetic on preimages, read through
the generator. Everything in this package is parameterized by a pair of
generators, ``alpha`` for the first coordinate and ``beta`` for the
second. Values are stored as preimages; ``guard`` checks a preimage
against its generator's interval ``[t_min, t_max]``, and is the only
range check on preimages in the package.

Built-ins:

* ``identity``  t -> t, image the whole line (classical arithmetic);
  every finite preimage is allowed.
* ``exp``       t -> e**t, image (0, inf); preimages lie in [-700, 700]
  because e**709.8 overflows binary64 and e**-746 underflows to an image
  of exactly 0, which is outside the open interval.
* ``cube``      t -> t**3, image the whole line (a non-linear bijection
  whose transported arithmetic still looks classical at 0 and 1);
  |t| <= 5.643803094122361e102, the largest float whose cube is finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import GeneratorDomainError, GeneratorOverflowError

__all__ = [
    "Generator",
    "GeneratorPair",
    "IDENTITY",
    "EXP",
    "CUBE",
    "builtin_generator",
    "builtin_names",
    "pair_of",
    "apply_forward",
    "apply_inverse",
    "guard",
]


@dataclass(frozen=True, eq=False)
class Generator:
    """A strictly increasing bijection with an explicit inverse.

    ``lo``/``hi`` bound the image as an open interval. ``[t_min, t_max]``
    is the closed interval of preimages whose images are representable:
    construction checks that ``forward`` maps both ends into the image
    interval, and because ``forward`` is increasing, every preimage in
    between then has a legal image too. ``guard`` checks against it.

    Compared by identity: the built-ins are singletons, and two values
    interoperate exactly when they share the same generator object.
    """

    name: str
    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    lo: float = -math.inf
    hi: float = math.inf
    t_min: float = -sys.float_info.max
    t_max: float = sys.float_info.max

    def __post_init__(self):
        for t in (self.t_min, self.t_max):
            try:
                y = self.forward(t)
            except OverflowError:
                y = math.inf
            if not self.in_range(y):
                raise ValueError(
                    f"{self.name}: preimage bound {t!r} maps to {y!r},"
                    f" outside the image interval ({self.lo}, {self.hi})"
                )

    def in_range(self, y: float) -> bool:
        """True when y is a legal image value."""
        return math.isfinite(y) and self.lo < y < self.hi

    def __repr__(self) -> str:
        return f"Generator({self.name!r})"


def _cbrt(y: float) -> float:
    # math.cbrt arrives in 3.11; this keeps 3.10 working. Relative error
    # of the pow-based root is ~1 ulp, well inside round-trip tolerances.
    if y == 0.0:
        return 0.0
    return math.copysign(abs(y) ** (1.0 / 3.0), y)


IDENTITY = Generator("identity", lambda t: t, lambda y: y)
EXP = Generator("exp", math.exp, math.log, lo=0.0, t_min=-700.0, t_max=700.0)
_CUBE_T_MAX = 5.643803094122361e102  # the largest float whose cube is finite
CUBE = Generator(
    "cube", lambda t: t * t * t, _cbrt, t_min=-_CUBE_T_MAX, t_max=_CUBE_T_MAX
)

_BUILTINS = {g.name: g for g in (IDENTITY, EXP, CUBE)}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_generator(name: str) -> Generator:
    """Look up a generator by its stable name: identity, exp, or cube."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r}; choose from {', '.join(builtin_names())}"
        ) from None


@dataclass(frozen=True)
class GeneratorPair:
    """The (alpha, beta) pair the two-coordinate field is built over."""

    alpha: Generator
    beta: Generator

    @property
    def names(self) -> tuple[str, str]:
        return (self.alpha.name, self.beta.name)

    def __repr__(self) -> str:
        return f"GeneratorPair({self.alpha.name}, {self.beta.name})"


def pair_of(alpha: str, beta: str) -> GeneratorPair:
    """Build a pair from two built-in generator names."""
    return GeneratorPair(builtin_generator(alpha), builtin_generator(beta))


def guard(g: Generator, t: float) -> float:
    """t itself when its image under g is representable, else
    GeneratorOverflowError. NaN fails every comparison, so it is refused."""
    if g.t_min <= t <= g.t_max:
        return t
    raise GeneratorOverflowError(
        f"{g.name}: preimage {t!r} outside the working domain"
        f" [{g.t_min!r}, {g.t_max!r}]"
    )


def apply_forward(g: Generator, t: float) -> float:
    """Image of the preimage t, after the guard."""
    return g.forward(guard(g, t))


def apply_inverse(g: Generator, y: float) -> float:
    """Preimage of the image y; y must lie inside the image interval."""
    if not g.in_range(y):
        raise GeneratorDomainError(
            f"{g.name}: {y!r} is outside the image interval"
            f" ({g.lo}, {g.hi})"
        )
    return g.inverse(y)
