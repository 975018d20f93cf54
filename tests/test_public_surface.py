"""The package's public names come from one list per submodule.

``staralg`` re-exports each submodule with ``from .m import *``, so a
submodule's ``__all__`` is the only list of its public names; ``errors``
defines only exception classes and lists none. The expected surface is
derived here from those lists, not kept as a third copy.
"""

import importlib
import pkgutil
import types

import staralg

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(staralg.__path__) if m.name != "__main__"
)


def _module(name):
    return importlib.import_module(f"staralg.{name}")


def _exceptions():
    errors = _module("errors")
    return {
        n: v
        for n, v in vars(errors).items()
        if isinstance(v, type) and issubclass(v, BaseException)
    }


def _listed():
    """(module, name) for every name a submodule lists in its __all__."""
    return [
        (m, n) for m in SUBMODULES for n in getattr(_module(m), "__all__", ())
    ]


def test_every_submodule_but_errors_lists_its_names():
    for m in SUBMODULES:
        assert hasattr(_module(m), "__all__") == (m != "errors"), m


def test_errors_defines_only_exception_classes():
    errors = _module("errors")
    public = {n for n in vars(errors) if not n.startswith("_")}
    assert public == set(_exceptions())


def test_each_listed_name_is_the_same_object_on_the_package():
    for m, n in _listed():
        assert getattr(staralg, n) is getattr(_module(m), n), (m, n)
    for n, cls in _exceptions().items():
        assert getattr(staralg, n) is cls, n


def test_the_public_names_are_exactly_the_listed_ones():
    listed = [n for _, n in _listed()]
    assert len(listed) == len(set(listed)), "a name is listed by two submodules"
    public = {
        n
        for n, v in vars(staralg).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(listed) | set(_exceptions())
    assert "build_parser" in public
