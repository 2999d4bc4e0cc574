"""The benchmark's tracer wraps cbss functions by name; they must still exist."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """Run bench/tracer.py as a throwaway module, writing no bytecode cache."""
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACER_PATH.read_text(encoding="utf-8"), module.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_wrapped_cbss_name_resolves():
    wrapped = [
        (module_name, attr)
        for module_name, attr, _, _ in _load_tracer().WRAPPED
        if importlib.util.find_spec(f"cbss.{module_name}") is not None
    ]
    # the benchmark's own `workloads` module is the only other caller
    assert {m for m, _ in wrapped} == {"cli", "pipeline", "roomsim", "jointdiag"}
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in wrapped
        if not callable(getattr(importlib.import_module(f"cbss.{module_name}"), attr, None))
    ]
    assert missing == []
    pipeline = importlib.import_module("cbss.pipeline")
    assert callable(pipeline.ImpulseResponseBank.from_room)
