"""The benchmark's tracer wraps stage functions by (module, attribute) name
and silently skips a name the program no longer has, so a renamed stage
would drop its per-layer numbers without any failure. This guard fails
instead."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines WRAPPED; wraps nothing on import
    return module


def test_every_wrapped_stage_exists():
    wrapped = load_tracer().WRAPPED
    assert ("similarity", "compute_theta") in wrapped
    missing = [f"skillscope.{module}.{attr}" for module, attr in wrapped
               if not callable(getattr(importlib.import_module(f"skillscope.{module}"),
                                       attr, None))]
    assert missing == []
