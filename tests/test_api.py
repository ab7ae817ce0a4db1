"""The package's public surface: __all__ and the functions the benchmark
tracer wraps by name."""

import importlib
import importlib.util
import pathlib
import types

import orderlex

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_all_matches_imported_names():
    imported = {
        name
        for name, value in vars(orderlex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(orderlex.__all__) == imported


def test_tracer_targets_are_plain_functions():
    # A renamed or removed traced function fails here, not only in the
    # benchmark.  The lookup is the one the tracer makes.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, modname, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(modname)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if not isinstance(vars(owner).get(name), types.FunctionType):
            missing.append(f"{modname}.{attr}")
    assert tracer.TARGETS and missing == []
