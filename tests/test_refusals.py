"""Refusals and parser errors that no other in-process test reaches.

Each case pins the error type (and, through the CLI, the exact stderr
line and exit code) of one guard in the package, so that a refactor
that moves the guard cannot drop it silently.
"""

import contextlib
import io
import math
from dataclasses import replace

import pytest

from staralg import (
    Binary,
    GridDomain,
    HomomorphismHandle,
    Lit,
    MissingInvolutionError,
    MissingUnitError,
    StarComplex,
    StarDivisionError,
    StarUnderflowError,
    arith,
    broken_involution,
    broken_zero,
    c_div,
    c_mul,
    classify_element,
    dual_mode_eval,
    eval_classical,
    evaluation_functional,
    from_preimage,
    from_preimages,
    grid_algebra,
    hermitian_parts,
    kernel_image_closure_check,
    make_disk_domain,
    neumann_inverse,
    one,
    pair_of,
    parse_expr,
    perturbative_inverse,
    scalar_algebra,
    series_sum,
    unital_functional_check,
    zero,
)
from staralg.axiom_harness import _render
from staralg.cli import main
from staralg.morphisms import _kernel_sampler

IE = pair_of("identity", "exp")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_unit(A):
    return replace(A, unit=None)


def _no_involution(A):
    return replace(A, involution=None)


# --- parser errors through the CLI -----------------------------------------


@pytest.mark.parametrize(
    "expr, line",
    [
        ("(1.2.3,0)", "error: syntax error at offset 1: bad number '1.2.3'"),
        ("(1,0)$", "error: syntax error at offset 5: unexpected character '$'"),
        ("(1,)", "error: syntax error at offset 3: expected a number"),
        (
            "(1e999,0)",
            "error: syntax error at offset 1: literal component '1e999' overflows",
        ),
    ],
)
def test_parser_errors_exit_2_with_one_line(expr, line):
    code, out, err = run(["eval", expr])
    assert code == 2
    assert out == ""
    assert err == line + "\n"


def test_whitespace_around_tokens_is_skipped():
    code, out, err = run(["eval", " ( 1 , 2 ) * i "])
    assert code == 0
    assert err == ""
    assert out.startswith("value (preimages): (-2.0, 1.0)\n")


# --- a modulus past the largest float on the pullback route ----------------------

HUGE_NORM = "norm((1.5e308,1.5e308))"


def test_classical_norm_past_the_largest_float_is_inf():
    assert eval_classical(parse_expr(HUGE_NORM)) == complex(math.inf, 0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mode", "pullback", HUGE_NORM],
        ["grid", "--mode", "pullback", HUGE_NORM + "+z"],
    ],
)
def test_pullback_norm_overflow_is_one_error_line(argv):
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: identity: preimage inf outside the working domain")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["direct", "pullback"])
def test_an_underflowing_quotient_is_one_error_line(mode):
    # eval reads the tree by both routes; the direct route refuses a
    # quotient of nonzero points that rounds to zero
    code, out, err = run(["eval", "--mode", mode, "(1e-320,0)/(1e308,1e308)"])
    assert (code, out) == (1, "")
    assert err == (
        "error: the quotient of a nonzero point underflows to zero"
        " in subterm (1e-320,0.0)/(1e+308,1e+308)\n"
    )


@pytest.mark.parametrize("mode", ["direct", "pullback"])
def test_an_underflowing_quotient_on_a_grid_is_one_error_line(mode):
    # grid reads only its own route, so the pullback route refuses too
    argv = ["grid", "--mode", mode, "--radial", "1", "--angular", "4"]
    code, out, err = run(argv + ["(1e-320,0)/(1e308,1e308)*z"])
    assert (code, out) == (1, "")
    assert err == (
        "error: the quotient of a nonzero point underflows to zero"
        " in subterm (1e-320,0.0)/(1e+308,1e+308)\n"
    )


def test_the_classical_quotient_refuses_underflow_as_c_div_does():
    with pytest.raises(StarUnderflowError):
        eval_classical(parse_expr("(1e-320,0)/(1e308,1e308)"))
    # a zero numerator and an infinite divisor give zero without underflow
    assert eval_classical(parse_expr("(0,0)/(1e308,1e308)")) == 0
    assert eval_classical(Binary("div", Lit(1.0, 0.0), Lit(math.inf, 0.0))) == 0
    # a subnormal quotient is not zero, and passes
    assert eval_classical(parse_expr("(1e-300,0)/(1e10,0)")) == 1e-310
    # division by zero keeps its own refusal
    with pytest.raises(StarDivisionError, match="^division by zero$"):
        eval_classical(parse_expr("(1,0)/(0,0)"))


def test_c_div_refuses_an_underflowing_quotient_but_not_division_by_infinity():
    pair = pair_of("identity", "identity")
    with pytest.raises(StarUnderflowError):
        c_div(from_preimages(pair, 1e-320, 0.0), from_preimages(pair, 1e308, 1e308))
    # a zero numerator, and a quotient by an unguarded infinite point,
    # are zero without underflow
    assert c_div(zero(pair), from_preimages(pair, 1e308, 1e308)).value == 0
    assert c_div(one(pair), StarComplex(pair, complex(math.inf, 0.0))).value == 0
    # a subnormal quotient is not zero, and passes
    tiny = c_div(from_preimages(pair, 1e-300, 0.0), from_preimages(pair, 1e10, 0.0))
    assert tiny.value == 1e-310


@pytest.mark.parametrize("mode", ["direct", "pullback"])
def test_an_underflowing_product_is_one_error_line(mode):
    # the field has no zero divisors, so a zero product of two nonzero
    # points can only be an underflow
    code, out, err = run(["eval", "--mode", mode, "(1e-200,0)*(1e-200,0)"])
    assert (code, out) == (1, "")
    assert err == (
        "error: the product of nonzero points underflows to zero"
        " in subterm (1e-200,0.0)*(1e-200,0.0)\n"
    )
    code, out, err = run(["eval", "--mode", mode, "(1,1)*(1,1)"])
    assert (code, err) == (0, "")
    assert out.startswith("value (preimages): (0.0, 2.0)\n")


def test_every_product_refuses_underflow_but_not_a_zero_operand():
    pair = pair_of("identity", "identity")
    tiny = from_preimages(pair, 1e-200, 0.0)
    with pytest.raises(StarUnderflowError, match="^the product of nonzero points"):
        c_mul(tiny, tiny)
    with pytest.raises(StarUnderflowError, match="^the product of nonzero points"):
        eval_classical(parse_expr("(1e-200,0)*(1e-200,0)"))
    # a zero operand gives zero, on every route
    assert c_mul(zero(pair), tiny).value == 0
    assert eval_classical(parse_expr("(0,0)*(1e-200,0)")) == 0
    for mode in ("direct", "pullback"):
        assert dual_mode_eval(parse_expr("(1e-200,0)*(0,0)"), pair, mode).value == 0
    # a subnormal product is not zero, and passes
    small = c_mul(from_preimages(pair, 1e-300, 0.0), from_preimages(pair, 1e-10, 0.0))
    assert small.value == 1e-310


# --- empty carriers -----------------------------------------------------------


def test_empty_grid_is_refused():
    with pytest.raises(ValueError, match="at least one point"):
        GridDomain(IE, ())


# --- one-line arithmetic and series bounds ------------------------------------


def test_unknown_arithmetic_kind_is_refused():
    y = from_preimage(IE.alpha, 2.0)
    with pytest.raises(ValueError, match="unknown arithmetic kind 'pow'"):
        arith("pow", y, y)


def test_zero_max_terms_is_refused():
    A = scalar_algebra(IE)
    x = from_preimages(IE, 0.5, 0.0)
    x_inv = from_preimages(IE, 2.0, 0.0)
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        series_sum([from_preimage(IE.alpha, 1.0)], max_terms=0)
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        neumann_inverse(A, x, max_terms=0)
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        perturbative_inverse(A, x, x, x_inv, max_terms=0)


# --- carriers without a unit or an involution ---------------------------------


def test_perturbative_inverse_needs_a_unit():
    A = _no_unit(scalar_algebra(IE))
    x = one(IE)
    with pytest.raises(MissingUnitError, match="inversion needs a unit"):
        perturbative_inverse(A, x, x, x)


def test_classification_needs_an_involution_and_a_unit():
    x = one(IE)
    with pytest.raises(MissingInvolutionError):
        classify_element(_no_involution(scalar_algebra(IE)), x)
    with pytest.raises(MissingUnitError, match="unitary flag needs a unit"):
        classify_element(_no_unit(scalar_algebra(IE)), x)


def test_star_and_hermitian_parts_need_an_involution():
    A = _no_involution(grid_algebra(make_disk_domain(IE, 2, 8)))
    with pytest.raises(MissingInvolutionError, match="decomposition"):
        hermitian_parts(A, A.unit)
    with pytest.raises(MissingInvolutionError, match="no involution"):
        A.star(A.unit)


def test_mutants_refuse_carriers_they_cannot_break():
    with pytest.raises(MissingUnitError, match="borrows the unit"):
        broken_zero(_no_unit(scalar_algebra(IE)))
    A = _no_involution(grid_algebra(make_disk_domain(IE, 2, 8)))
    with pytest.raises(MissingInvolutionError, match="nothing to break"):
        broken_involution(A)


def test_default_kernel_sampler_refusals():
    dom = make_disk_domain(IE, 1, 4)
    h = evaluation_functional(dom, from_preimages(IE, 0.0, 0.0))
    with pytest.raises(MissingUnitError, match="unital source"):
        _kernel_sampler(replace(h, source=_no_unit(h.source)))
    ident = HomomorphismHandle(grid_algebra(dom), grid_algebra(dom), lambda f: f)
    with pytest.raises(ValueError, match="non-scalar target"):
        _kernel_sampler(ident)
    with pytest.raises(ValueError, match="non-scalar target"):
        kernel_image_closure_check(ident, trials=1)


def test_unital_functional_check_refusals():
    dom = make_disk_domain(IE, 1, 4)
    h = evaluation_functional(dom, from_preimages(IE, 0.0, 0.0))
    with pytest.raises(MissingUnitError, match="unital source"):
        unital_functional_check(replace(h, source=_no_unit(h.source)), trials=1)
    ident = HomomorphismHandle(grid_algebra(dom), grid_algebra(dom), lambda f: f)
    with pytest.raises(ValueError, match="scalar-valued functional"):
        unital_functional_check(ident, trials=1)


# --- counterexample rendering ----------------------------------------------------


def test_render_of_a_list_of_scalars():
    zs = [from_preimages(IE, 1.0, -2.0), from_preimages(IE, 0.5, 0.25)]
    want = [[1.0, -2.0], [0.5, 0.25]]
    # on the field a scalar is an element; on the grid it is a bare point
    assert _render(scalar_algebra(IE), zs) == want
    assert _render(grid_algebra(make_disk_domain(IE, 1, 4)), zs) == want
