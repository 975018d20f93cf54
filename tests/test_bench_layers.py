"""The benchmark's tracer names functions by module and attribute; each
one must still resolve, so that moving or renaming a traced function
fails here and not in a traced benchmark run."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("staralg_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, name in tracer.LAYERS:
        obj = importlib.import_module(f"staralg.{module}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{name}")
    assert tracer.LAYERS and missing == []
