"""The C-level filter in ``guard_points`` against the exact loop.

``exact_loop`` is the guard over a vector as it was before the filter:
every point through alpha's and beta's chained comparisons, naming the
index of the first that fails. ``guard_points`` must return zs itself
where the loop does, and raise the same message where it raises.
"""

import math
import sys

import pytest

from staralg import (
    IDENTITY,
    Generator,
    GeneratorOverflowError,
    GeneratorPair,
    guard,
    guard_points,
    pair_of,
)

MAX = sys.float_info.max
II = pair_of("identity", "identity")
EE = pair_of("exp", "exp")
CE = pair_of("cube", "exp")
# asymmetric preimage intervals, so that the filter's bound is set by
# the nearer end of each
SKEW = GeneratorPair(
    Generator("skew-a", lambda t: t, lambda y: y, t_min=-2.0, t_max=50.0),
    Generator("skew-b", lambda t: t, lambda y: y, t_min=-30.0, t_max=3.0),
)
SHORT_LO = Generator("short-lo", lambda t: t, lambda y: y, t_min=-3.0, t_max=30.0)
SHORT_HI = Generator("short-hi", lambda t: t, lambda y: y, t_min=-30.0, t_max=3.0)


def exact_loop(pair, zs):
    a_lo, a_hi = pair.alpha.t_min, pair.alpha.t_max
    b_lo, b_hi = pair.beta.t_min, pair.beta.t_max
    for i, w in enumerate(zs):
        if not (a_lo <= w.real <= a_hi and b_lo <= w.imag <= b_hi):
            try:
                guard(pair.alpha, w.real)
                guard(pair.beta, w.imag)
            except GeneratorOverflowError as e:
                raise GeneratorOverflowError(f"{e} at point {i}") from None
    return zs


def outcome(pair, zs):
    """The word "same" when zs itself comes back, else the error's message."""
    try:
        return "same" if guard_points(pair, zs) is zs else "other"
    except GeneratorOverflowError as e:
        return str(e)


def expected(pair, zs):
    try:
        return "same" if exact_loop(pair, zs) is zs else "other"
    except GeneratorOverflowError as e:
        return str(e)


def _with(k, w, n=7):
    zs = [complex(0.5, -0.25)] * n
    zs[k] = w
    return tuple(zs)


def _cases():
    cases = {"empty": (II, ())}
    nan, inf = math.nan, math.inf
    for k in (0, 3, 6):
        cases[f"nan real at {k}"] = (EE, _with(k, complex(nan, 0.0)))
        cases[f"nan imag at {k}"] = (EE, _with(k, complex(0.0, nan)))
        cases[f"nan imag at {k}, identity"] = (II, _with(k, complex(1.0, nan)))
        # abs(complex(nan, inf)) is inf, and abs(complex(nan, 1)) is nan,
        # which max() may pass over
        cases[f"nan and inf at {k}"] = (II, _with(k, complex(nan, inf)))
        for s in (inf, -inf):
            cases[f"{s} real at {k}"] = (II, _with(k, complex(s, 0.0)))
            cases[f"{s} imag at {k}"] = (CE, _with(k, complex(0.0, s)))
    cases["+inf and -inf cancel to nan"] = (II, (complex(inf, 0.0), complex(-inf, 0.0)))
    for name, pair in (("exp", EE), ("cube-exp", CE), ("skew", SKEW)):
        a, b = pair.alpha, pair.beta
        for end, step in ((a.t_min, -math.inf), (a.t_max, math.inf)):
            cases[f"{name} alpha at {end!r}"] = (pair, _with(3, complex(end, 0.0)))
            past = math.nextafter(end, step)
            cases[f"{name} alpha past {end!r}"] = (pair, _with(3, complex(past, 0.0)))
        for end, step in ((b.t_min, -math.inf), (b.t_max, math.inf)):
            cases[f"{name} beta at {end!r}"] = (pair, _with(5, complex(0.0, end)))
            past = math.nextafter(end, step)
            cases[f"{name} beta past {end!r}"] = (pair, _with(5, complex(0.0, past)))
    cases["identity at the largest float"] = (II, _with(2, complex(-MAX, MAX)))
    # abs() overflows here, but both parts are inside identity's interval
    cases["abs overflows"] = (II, _with(4, complex(1.5e308, 1.5e308)))
    cases["abs overflows, refused"] = (EE, _with(4, complex(1.5e308, 1.5e308)))
    # finite parts whose sum overflows (to inf, or to nan under a
    # compensated sum)
    cases["sum overflows"] = (II, (complex(1e308, 1e308),) * 2 + (complex(-1e308, 1e308),))
    cases["skew inside"] = (SKEW, ((-2.0 + 3.0j), (50.0 - 30.0j), (0.0 + 0.0j)))
    cases["skew past the nearer end"] = (SKEW, ((0.0 + 3.0j), (-2.5 + 0.0j)))
    # one end of one interval is the only one that [-5, 5] passes
    for short, w in ((SHORT_LO, -5.0), (SHORT_HI, 5.0)):
        name = short.name
        cases[f"{name} alpha past"] = (GeneratorPair(short, IDENTITY), (1j, complex(w, 0.0)))
        cases[f"{name} beta past"] = (GeneratorPair(IDENTITY, short), (1 + 0j, complex(0.0, w)))
        cases[f"{name} beta inside"] = (GeneratorPair(IDENTITY, short), (complex(-w, -w / 2),))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_filter_answers_as_the_exact_loop(name):
    pair, zs = CASES[name]
    assert outcome(pair, zs) == expected(pair, zs)


def test_the_cases_meet_passes_and_refusals_on_every_path():
    wants = {name: expected(*CASES[name]) for name in CASES}
    assert wants["empty"] == "same"
    assert wants["abs overflows"] == "same"
    assert wants["sum overflows"] == "same"
    assert wants["identity at the largest float"] == "same"
    assert wants["skew inside"] == "same"
    for name in ("short-lo", "short-hi"):
        assert wants[f"{name} beta inside"] == "same"
        for part in ("alpha", "beta"):
            assert wants[f"{name} {part} past"].startswith(f"{name}: preimage ")
            assert wants[f"{name} {part} past"].endswith("at point 1")
    assert wants["abs overflows, refused"].startswith("exp: preimage 1.5e+308")
    assert wants["nan real at 6"].startswith("exp: preimage nan") and wants[
        "nan real at 6"
    ].endswith("at point 6")
    assert wants["nan imag at 0"].endswith("at point 0")
    assert wants["skew past the nearer end"] == (
        "skew-a: preimage -2.5 outside the working domain [-2.0, 50.0] at point 1"
    )
    with pytest.raises(OverflowError):
        abs(CASES["abs overflows"][1][4])
    assert not math.isfinite(sum(CASES["sum overflows"][1], 0j).real)


def test_a_large_vector_passes_whole_and_fails_at_its_index():
    zs = tuple(complex(k / 1000, -k / 2000) for k in range(5000))
    assert guard_points(EE, zs) is zs
    bad = zs[:4321] + (complex(700.5, 0.0),) + zs[4322:]
    with pytest.raises(GeneratorOverflowError, match=r"^exp: preimage 700.5 .* at point 4321$"):
        guard_points(EE, bad)


def one_point(pair, w):
    """w itself through ``pair.check``, else the error's message."""
    try:
        return "same" if pair.check(w) is w else "other"
    except GeneratorOverflowError as e:
        return str(e)


def one_point_expected(pair, w):
    try:
        guard(pair.alpha, w.real)
        guard(pair.beta, w.imag)
    except GeneratorOverflowError as e:
        return str(e)
    return "same"


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_pair_checks_each_point_as_guard_does_alpha_first(name):
    pair, zs = CASES[name]
    for w in zs:
        assert one_point(pair, w) == one_point_expected(pair, w)


def test_alpha_is_named_when_both_parts_are_refused():
    assert one_point(EE, complex(701.0, -701.0)) == (
        "exp: preimage 701.0 outside the working domain [-700.0, 700.0]"
    )
    assert one_point(SKEW, complex(0.0, math.nan)).startswith("skew-b: preimage nan")
