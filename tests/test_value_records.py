"""The two value records keep their dataclass contracts, and their draws
are ``uniform``'s.

``StarReal`` and ``StarComplex`` are frozen slotted dataclasses whose
constructors set the slots through the slots' own member descriptors.
These tests pin what that must not change: immutability, no instance
dict, the fields, ``dataclasses.replace``, ``repr``, ``==`` and
``hash``, and inequality with a plain tuple of the same parts. They
also pin that the samplers' written-out draws are
``rng.uniform(-_DRAW_BOUND, _DRAW_BOUND)`` bit for bit and leave the
generator in the same state.
"""

import dataclasses
import math
import random

import pytest

from staralg import (
    CUBE,
    EXP,
    IDENTITY,
    GeneratorOverflowError,
    StarComplex,
    StarReal,
    from_preimage,
    from_preimages,
    pair_of,
    random_point,
)
from staralg.algebra import _draw
from staralg.expr import _DRAW_BOUND

PAIR = pair_of("identity", "exp")


def _real() -> StarReal:
    return from_preimage(CUBE, 2.0)


def _point() -> StarComplex:
    return from_preimages(PAIR, 0.25, -1.5)


@pytest.mark.parametrize("make", [_real, _point])
def test_a_value_is_frozen_and_has_no_dict(make):
    v = make()
    for name in (f.name for f in dataclasses.fields(v)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, getattr(v, name))
    assert not hasattr(v, "__dict__")


def test_the_fields_keep_their_names():
    assert [f.name for f in dataclasses.fields(StarReal)] == ["gen", "preimage"]
    assert [f.name for f in dataclasses.fields(StarComplex)] == ["pair", "value"]


def test_replace_builds_a_point():
    z = _point()
    w = dataclasses.replace(z, value=3j)
    assert w == StarComplex(PAIR, 3j)
    assert z.value == complex(0.25, -1.5)


def test_replace_on_a_real_value_is_refused_by_its_image_constructor():
    # StarReal's constructor takes an image, not a preimage, so
    # dataclasses.replace, which passes every field by name, is refused
    with pytest.raises(TypeError, match="preimage"):
        dataclasses.replace(_real(), preimage=1.0)


def test_a_real_value_reads_as_one_built_from_its_image():
    v = _real()
    w = StarReal(CUBE, 8.0)
    assert w.preimage == 2.0
    assert (repr(v), v, hash(v)) == (repr(w), w, hash(w))
    assert repr(v) == "StarReal(gen=Generator('cube'), preimage=2.0)"
    assert v != from_preimage(CUBE, 3.0)
    assert v != from_preimage(IDENTITY, 2.0)


def test_a_point_reads_as_one_built_by_its_constructor():
    z = _point()
    w = StarComplex(PAIR, complex(0.25, -1.5))
    assert (repr(z), z, hash(z)) == (repr(w), w, hash(w))
    assert repr(z) == "StarComplex(pair=GeneratorPair(identity, exp), value=(0.25-1.5j))"
    assert z != from_preimages(PAIR, 0.25, 1.5)
    assert StarComplex(pair=PAIR, value=1j) == from_preimages(PAIR, 0.0, 1.0)


def test_neither_value_equals_a_plain_tuple():
    v, z = _real(), _point()
    assert v != (v.gen, v.preimage)
    assert (v.gen, v.preimage) != v
    assert z != (z.pair, z.value)
    assert (z.pair, z.value) != z
    assert not isinstance(v, tuple) and not isinstance(z, tuple)


def test_an_image_whose_preimage_leaves_the_line_is_refused():
    # log(1e-310) is about -713.8, below exp's t_min of -700
    with pytest.raises(
        GeneratorOverflowError, match=r"exp: preimage -713\.8\d* outside the working domain"
    ):
        StarReal(EXP, 1e-310)
    with pytest.raises(GeneratorOverflowError):
        StarReal(EXP, math.exp(-700.0) / 2.0)


def test_the_image_at_the_end_of_the_line_is_kept():
    v = StarReal(EXP, math.exp(-700.0))
    assert v.preimage == -700.0
    assert v == from_preimage(EXP, -700.0)


def test_random_point_draws_uniform_bit_for_bit():
    b = _DRAW_BOUND
    rng, ref = random.Random(2024), random.Random(2024)
    for _ in range(50):
        z = random_point(rng, PAIR)
        want = (ref.uniform(-b, b), ref.uniform(-b, b))
        assert z.preimages == want
    assert rng.getstate() == ref.getstate()


def test_grid_draw_draws_uniform_bit_for_bit():
    b = _DRAW_BOUND
    rng, ref = random.Random(2025), random.Random(2025)
    got = _draw(rng, 40)
    want = tuple(complex(ref.uniform(-b, b), ref.uniform(-b, b)) for _ in range(40))
    assert [(w.real, w.imag) for w in got] == [(w.real, w.imag) for w in want]
    assert rng.getstate() == ref.getstate()
