"""Per-layer counts and self time, taken from outside the package.

Each traced function is wrapped once, and the wrapper replaces the name
in every ``staralg`` module that binds it: modules import each other's
functions by name (``from .star_complex import c_mul`` in ``algebra``),
so patching only the defining module would miss most calls. Install the
tracer before building carriers, since an ``Algebra`` record keeps the
functions it was built with.

Leaf calls run into the millions, so they are kept as a count and a self
time per function. Full spans are kept only for the workload operation
and the suite, inversion and ``cli.main`` calls below it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

# (module, function) pairs; "Class.method" names a method
LAYERS = (
    ("generators", "apply_forward"),
    ("generators", "apply_inverse"),
    ("star_real", "from_preimage"),
    ("star_real", "arith"),
    ("star_complex", "from_preimages"),
    ("star_complex", "c_add"),
    ("star_complex", "c_mul"),
    ("star_complex", "c_div"),
    ("star_complex", "c_conj"),
    ("star_complex", "c_norm"),
    ("star_complex", "dual_mode_eval"),
    ("expr", "parse_expr"),
    ("expr", "eval_classical"),
    ("expr", "to_text"),
    ("algebra", "make_disk_domain"),
    ("algebra", "GridDomain.index_of"),
    ("algebra", "fn_add"),
    ("algebra", "fn_mul"),
    ("algebra", "fn_scalar_mul"),
    ("algebra", "fn_involution"),
    ("algebra", "sup_norm"),
    ("inversion", "neumann_inverse"),
    ("axiom_harness", "run_axiom_suite"),
    ("morphisms", "homomorphism_check"),
    ("morphisms", "kernel_image_closure_check"),
    ("report", "emit_report"),
    ("cli", "main"),
)

# the levels that also get a full span
SPANNED = {
    "axiom_harness.run_axiom_suite",
    "morphisms.homomorphism_check",
    "morphisms.kernel_image_closure_check",
    "inversion.neumann_inverse",
    "cli.main",
}

DUAL = "star_complex.dual_mode_eval"
TERMS = "inversion.neumann_inverse.terms"


def layer_names() -> list[str]:
    """Traced names; dual_mode_eval is split by route."""
    names = []
    for module, func in LAYERS:
        name = f"{module}.{func}"
        names += [f"{name}.direct", f"{name}.pullback"] if name == DUAL else [name]
    return names


def _dual_name(args: tuple, kwargs: dict) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "direct")
    return f"{DUAL}.{mode}"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.terms = 0
        # time spent in traced callees, one slot per open traced call
        self._inner = [0]
        self._open_spans: list[int | None] = [None]
        self.spans: list[list[Any]] = []  # [id, name, start_ns, end_ns, parent id]

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.terms = 0
        self.spans.clear()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter_ns(), None, self._open_spans[-1]]
        self.spans.append(rec)
        self._open_spans.append(sid)
        try:
            yield
        finally:
            self._open_spans.pop()
            rec[3] = time.perf_counter_ns()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        calls, self_ns, inner = self.calls, self.self_ns, self._inner
        name_of = _dual_name if name == DUAL else (lambda args, kwargs: name)
        spanned = name in SPANNED
        tracer = self

        def traced(*args, **kwargs):
            key = name_of(args, kwargs)
            inner.append(0)
            t0 = time.perf_counter_ns()
            try:
                if spanned:
                    with tracer.span(key):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                own_inner = inner.pop()
                inner[-1] += dt
                calls[key] += 1
                self_ns[key] += dt - own_inner
            if key == "inversion.neumann_inverse":
                tracer.terms += result.terms_used
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever staralg binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "staralg" or n.startswith("staralg.")]
        for module, func in LAYERS:
            owner = sys.modules[f"staralg.{module}"]
            if "." in func:
                cls, func = func.split(".")
                owner = getattr(owner, cls)
                setattr(owner, func, self._wrap(getattr(owner, func), f"{module}.{cls}.{func}"))
                continue
            original = getattr(owner, func)
            traced = self._wrap(original, f"{module}.{func}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in layer_names():
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_ms"] = (self.self_ns.get(name, 0) / 1e6, "ms")
        out[TERMS] = (self.terms, "count")
        return out
