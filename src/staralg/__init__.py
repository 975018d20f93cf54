"""Generator-based arithmetic and the structures built on it.

The field of two-coordinate numbers over a pair of strictly increasing
bijections, concrete normed algebras over that field (scalars, finite
grids of function values, polynomials), geometric-series inversion,
homomorphism and ideal machinery, a randomized axiom harness, and a
small CLI.
"""

from .algebra import (
    Algebra,
    ElementClass,
    EvaluationIdeal,
    GridDomain,
    GridFunction,
    StarPolynomial,
    SubsetSpec,
    classify_element,
    coordinate_function,
    fn_add,
    fn_involution,
    fn_mul,
    fn_scalar_mul,
    grid_algebra,
    grid_constant,
    hermitian_parts,
    ideal_membership,
    ideal_subset,
    make_disk_domain,
    make_polynomial,
    norm_ball_subset,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scalar_mul,
    poly_to_grid,
    polynomial_algebra,
    polynomial_subset,
    quotient_norm,
    scalar_algebra,
    sup_norm,
)
from .axiom_harness import (
    SUITES,
    broken_involution,
    broken_mul,
    broken_norm,
    broken_zero,
    random_sample,
    run_axiom_suite,
    subalgebra_closure_check,
)
from .errors import (
    BadInverseError,
    DomainMismatchError,
    GeneratorDomainError,
    GeneratorMismatchError,
    GeneratorOverflowError,
    MissingInvolutionError,
    MissingUnitError,
    NegativeSqrtError,
    NotApplicableError,
    ParseError,
    PairMismatchError,
    StarDivisionError,
    StarError,
    UnboundVariableError,
    UnsupportedSuiteError,
)
from .expr import (
    Binary,
    Lit,
    Node,
    Unary,
    Var,
    eval_classical,
    parse_expr,
    random_tree,
    safe_random_tree,
    to_text,
)
from .generators import (
    CUBE,
    EXP,
    IDENTITY,
    Generator,
    GeneratorPair,
    apply_forward,
    apply_inverse,
    builtin_generator,
    builtin_names,
    guard,
    guard_points,
    pair_of,
)
from .inversion import (
    ContinuityBound,
    InversionReport,
    continuity_bound_check,
    neumann_inverse,
    perturbative_inverse,
)
from .morphisms import (
    Coset,
    HomomorphismHandle,
    evaluation_functional,
    homomorphism_check,
    kernel_image_closure_check,
    kernel_membership,
    quotient_map,
    star_homomorphism_check,
    unital_functional_check,
)
from .cli import main, run_command
from .report import SCHEMA_VERSION, AxiomReport, emit_report, report_to_dict
from .star_complex import (
    Constants,
    StarComplex,
    approx_eq,
    c_add,
    c_conj,
    c_div,
    c_mul,
    c_neg,
    c_norm,
    c_sub,
    constants,
    dual_mode_eval,
    from_classical,
    from_preimages,
    i_unit,
    one,
    random_point,
    zero,
)
from .star_real import (
    SeriesResult,
    StarReal,
    alpha_abs,
    arith,
    compare,
    embed_int,
    from_preimage,
    iota,
    less_equal,
    one_of,
    preimage_close,
    series_sum,
    sqrt,
    square,
    zero_of,
)

__version__ = "0.1.0"
