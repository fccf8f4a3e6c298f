"""The benchmark's tracer wraps stage functions by (module, attribute) name
and silently skips a name the program no longer has, so a renamed stage
would drop its per-layer numbers without any failure, and so would a stage
that a caller binds with ``from x import f``. These guards fail instead."""

import importlib
import importlib.util
import json
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


# Two occupations, one of them high in the seed's skills.
SCENARIO = {
    "seed": 3, "n_days": 120, "start_date": "2017-01-01",
    "clusters": [
        {"name": "target", "skills": ["ml", "stats"], "occupations": ["Modeler"],
         "base_daily_rate": 2},
        {"name": "other", "skills": ["filing", "phones"], "occupations": ["Clerk"],
         "base_daily_rate": 2},
    ],
}


def test_every_wrapped_stage_runs_under_synth_and_report(tmp_path, monkeypatch, capsys):
    """A stage bound by ``from x import f`` would escape the tracer's
    wrapper: wrapped here as the tracer wraps it, every stage must be
    entered."""
    from skillscope.cli import main

    tracer = load_tracer()
    spans = tracer.Tracer("guard")
    for module, attr in tracer.WRAPPED:
        mod = importlib.import_module(f"skillscope.{module}")
        monkeypatch.setattr(mod, attr, spans.wrap(f"{module}.{attr}", getattr(mod, attr)))
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(SCENARIO))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert main(["report", "--input", str(tmp_path / "s" / "corpus.jsonl"),
                 "--seed-skill", "ml", "--train-days", "60", "--test-days", "14",
                 "--iterations", "2", "--changepoints", "5",
                 "--out", str(tmp_path / "r")]) == 0, capsys.readouterr().err
    entered = {span[0] for span in spans.spans}
    assert [f"{module}.{attr}" for module, attr in tracer.WRAPPED
            if f"{module}.{attr}" not in entered] == []
