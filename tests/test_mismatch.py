"""One mismatch rule across the field and the carriers.

A value over another generator pair raises PairMismatchError wherever it
enters, a function over another grid raises DomainMismatchError, and a
one-line value over another generator raises GeneratorMismatchError.
DomainMismatchError is the common base, so catching it catches all
three.
"""

import pytest

from staralg import (
    DomainMismatchError,
    EvaluationIdeal,
    GeneratorMismatchError,
    GridDomain,
    GridFunction,
    PairMismatchError,
    StarError,
    arith,
    c_mul,
    coordinate_function,
    dual_mode_eval,
    evaluation_functional,
    fn_add,
    fn_mul,
    fn_scalar_mul,
    from_preimage,
    from_preimages,
    grid_constant,
    make_disk_domain,
    one,
    pair_of,
    parse_expr,
)

IE = pair_of("identity", "exp")
EE = pair_of("exp", "exp")
MESSAGE = r"cannot combine points over \('(identity|exp)', 'exp'\) and"


def test_the_mismatch_errors_share_one_base():
    assert issubclass(PairMismatchError, DomainMismatchError)
    assert issubclass(GeneratorMismatchError, DomainMismatchError)
    assert issubclass(DomainMismatchError, StarError)
    assert not issubclass(PairMismatchError, GeneratorMismatchError)


def _cases():
    dom = make_disk_domain(IE, 1, 4)
    stray = from_preimages(EE, 0.25, 0.0)
    # the grid's origin, but over the other pair
    origin = from_preimages(EE, 0.0, 0.0)
    return {
        "c_mul": lambda: c_mul(one(IE), stray),
        "fn_scalar_mul": lambda: fn_scalar_mul(stray, coordinate_function(dom)),
        "grid_constant": lambda: grid_constant(dom, stray),
        "GridFunction": lambda: GridFunction(dom, (stray,) * len(dom)),
        "GridDomain": lambda: GridDomain(IE, (from_preimages(EE, 0.0, 0.0),)),
        "index_of": lambda: dom.index_of(origin),
        "EvaluationIdeal": lambda: EvaluationIdeal(dom, origin),
        "evaluation_functional": lambda: evaluation_functional(dom, origin),
        "value_at": lambda: coordinate_function(dom).value_at(origin),
    }


@pytest.mark.parametrize("entry", sorted(_cases()))
def test_a_point_over_another_pair_raises_pair_mismatch(entry):
    with pytest.raises(PairMismatchError, match=MESSAGE) as exc:
        _cases()[entry]()
    assert isinstance(exc.value, DomainMismatchError)


def test_a_bound_point_over_another_pair_keeps_its_message():
    tree = parse_expr("z+(1,0)")
    with pytest.raises(PairMismatchError, match="bound point lives over a different pair"):
        dual_mode_eval(tree, IE, "direct", z=from_preimages(EE, 0.0, 0.0))


@pytest.mark.parametrize("mode", ["direct", "pullback"])
@pytest.mark.parametrize("text", ["z+(1,0)", "(1,0)+(0,1)", "(1,0)/(0,0)+z"])
def test_both_routes_refuse_a_bound_point_over_another_pair(mode, text):
    # refused before evaluation, whether or not the tree mentions z, and
    # ahead of any refusal the tree itself would meet
    z = from_preimages(pair_of("identity", "identity"), 0.1, 0.2)
    with pytest.raises(PairMismatchError, match="bound point lives over a different pair") as exc:
        dual_mode_eval(parse_expr(text), EE, mode, z=z)
    assert exc.value.subterm is None
    # a point over an equal pair is the pair's own
    same = from_preimages(pair_of("exp", "exp"), 0.1, 0.2)
    assert dual_mode_eval(parse_expr("z+(1,0)"), EE, mode, z=same).as_complex == 1.1 + 0.2j


@pytest.mark.parametrize("op", [fn_add, fn_mul])
def test_functions_over_two_grids_raise_domain_mismatch_only(op):
    f = coordinate_function(make_disk_domain(IE, 1, 4))
    g = coordinate_function(make_disk_domain(IE, 2, 4))
    with pytest.raises(DomainMismatchError, match="different grids") as exc:
        op(f, g)
    assert not isinstance(exc.value, PairMismatchError)


def test_arith_across_generators_raises_generator_mismatch():
    y, z = from_preimage(IE.alpha, 1.0), from_preimage(IE.beta, 1.0)
    with pytest.raises(GeneratorMismatchError) as exc:
        arith("add", y, z)
    assert isinstance(exc.value, DomainMismatchError)
