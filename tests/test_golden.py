"""Report outputs pinned against expected files under ``tests/golden``.

The ``tests/test_cli.py`` scenario runs every subcommand that reads a
corpus: ``ingest``, ``skills``, ``occupations`` on a ``skills.csv`` with
mixed-case names, ``backtest --occupation Modeler --holidays``, ``report``
plain, with ``--holidays`` and with ``--default-categories``, and
``indicators`` with ``--holidays`` (two groups plus the market). Plain
``report`` runs once more on the scenario started on 2016-10-01, so that its
ads span a New Year and the report has posting growth, and once on the
scenario run to 800 days with a yearly season and ``--train-days 731``, so
that every fit, the backtest's and the trend's, takes the yearly Fourier
block. ``synth`` itself is
pinned on that scenario and on :data:`SYNTH_BRANCHES`, a small config that
reaches every branch of its draw loop, with and without noise: a change to
the generator must keep every draw and every float operation. SMAPE values
(``boxplot.csv``, ``median_smape`` in ``report.json`` and the scores and
summary of ``backtest.json``) are compared at 1e-9 abs, because a change in
how the backtest solves may move them at the ulp level. So are
the ``trend`` values of ``trend_lines.csv``: they come from a pinv and a
matrix product, whose last digits follow the CPU's BLAS kernel. The other
columns of those files, and every other file except ``provenance.json``,
are compared byte for byte.

The expected files change only with a change that means to change outputs.
Regenerate them from the current tree with ``python tests/test_golden.py``,
or only those of some cases with ``python tests/test_golden.py CASE ...``.
Regeneration writes only the files that this comparison rejects, so the
values it accepts within 1e-9 keep their committed digits.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

from skillscope.cli import main
from test_cli import BACKTEST_FLAGS, SCENARIO

GOLDEN = Path(__file__).resolve().parent / "golden"
HOLIDAYS = "2017-01-02\n2017-02-14\n"
# Skill names as a user might type them; intensity matches them normalized.
SKILLS_CSV = "rank,skill,theta\n1,ML,1.0\n2, Stats ,0.5\n3,PyThon,0.25\n"
SKILLS = ["--seed-skill", "ml", "--per-seed-k", "10", "--cutoff", "5"]
REPORT = ["report", *SKILLS, *BACKTEST_FLAGS]
CASES = {
    "ingest": ["ingest"],
    "skills": ["skills", *SKILLS],
    "occupations-mixed-case": ["occupations", "--skills", "{skills}"],
    "backtest-occupation-holidays": ["backtest", "--occupation", "Modeler",
                                     "--holidays", "{holidays}", *BACKTEST_FLAGS],
    "report-plain": REPORT,
    "report-holidays": [*REPORT, "--holidays", "{holidays}"],
    "report-default-categories": [*REPORT, "--default-categories"],
    "indicators-holidays": ["indicators", "--holidays", "{holidays}", *BACKTEST_FLAGS],
    "report-new-year": REPORT,
    "report-yearly": ["report", *SKILLS, "--train-days", "731", "--test-days", "14",
                      "--iterations", "3", "--changepoints", "5"],
}
# Reaches every branch of synth's draw loop: a cluster at cohesion 1.0; one
# skill at low cohesion, whose empty draws fall back to one drawn skill; a
# background skill that normalizes to a cluster skill, which the dedupe
# drops; salary, education and experience as null and as integers, each
# clamped at its floor on some ads; growth changepoints, one past the last
# day; a season that falls below zero; deterministic counts with noise, and
# Poisson counts without.
SYNTH_BRANCHES = {
    "seed": 11, "n_days": 220, "start_date": "2019-12-20",
    "clusters": [
        {"name": "whole", "skills": ["Python", "SQL", "Spark"],
         "occupations": ["Engineer", "Analyst"], "base_daily_rate": 1.2,
         "annual_growth": 0.5, "growth_changepoints": [[10, -0.5], [25, 2.0], [400, 0.0]],
         "cohesion": 1.0, "salary_level": 90000, "salary_trend": 0.1,
         "education_mean": None, "experience_mean": 3, "experience_trend": 0.5},
        {"name": "single", "skills": ["Welding"], "occupations": ["Welder"],
         "base_daily_rate": 1.5, "cohesion": 0.05, "salary_level": None,
         "education_mean": 0, "experience_mean": None},
        {"name": "sparse", "skills": ["a", "b", "c", "d"], "occupations": ["X", "Y", "Z"],
         "base_daily_rate": 0.8, "cohesion": 0.2, "salary_level": 1,
         "education_mean": 14, "experience_mean": 0.5, "experience_trend": -2.0},
    ],
    "background_skills": [[" python ", 0.5], ["email", 0.0], ["teamwork", 1.0]],
    "weekly_amplitude": 0.9, "yearly_amplitude": 0.6, "noise_level": 0.3,
    "deterministic_counts": True,
}
# Cases that run synth on their own config rather than read the scenario.
SYNTH_CASES = {
    "synth-scenario": SCENARIO,
    "synth-branches": SYNTH_BRANCHES,
    "synth-branches-noiseless": {**SYNTH_BRANCHES, "noise_level": 0,
                                 "deterministic_counts": False},
}
# Cases run on the scenario with these fields changed.
SCENARIO_CHANGES = {
    "report-new-year": {"start_date": "2016-10-01"},
    "report-yearly": {"n_days": 800, "yearly_amplitude": 0.3},
}
SMAPE_ABS = 1e-9


def run_case(name: str, root: Path) -> Path:
    """Synthesize the case's scenario under ``root`` and run case ``name``
    into ``root/name``; returns that output directory."""
    out = root / name
    if name in SYNTH_CASES:
        cfg = root / f"{name}.json"
        cfg.write_text(json.dumps(SYNTH_CASES[name]))
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        return out
    scenario = f"scenario-{name}" if name in SCENARIO_CHANGES else "scenario"
    corpus = root / scenario / "corpus.jsonl"
    if not corpus.is_file():
        cfg = root / f"{scenario}.json"
        cfg.write_text(json.dumps({**SCENARIO, **SCENARIO_CHANGES.get(name, {})}))
        assert main(["synth", "--config", str(cfg), "--out", str(corpus.parent)]) == 0
        (root / "holidays.txt").write_text(HOLIDAYS)
        (root / "skills.csv").write_text(SKILLS_CSV)
    argv = [a.format(holidays=root / "holidays.txt", skills=root / "skills.csv")
            for a in CASES[name]]
    assert main([*argv, "--input", str(corpus), "--out", str(out)]) == 0
    return out


NUMERIC = {"boxplot.csv": "smape", "trend_lines.csv": "trend"}


def split_column(path: Path, column: str):
    """The rows of a CSV file without ``column``, and that column as floats."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, [float(row.pop(column)) for row in rows]


def pop_smapes(payload: dict) -> list:
    """Remove and return every SMAPE value of a report.json payload (each
    ``median_smape``) or of a backtest.json payload (scores and summary)."""
    if "scores" in payload:
        return [*payload.pop("scores"), *payload.pop("summary").values()]
    return [ind.pop("median_smape") for ind in [payload["baseline"], *payload["groups"]]]


def same_output(got: Path, want: Path) -> bool:
    """Whether output file ``got`` matches the expected file ``want``: SMAPE
    and trend values within ``SMAPE_ABS``, everything else exactly."""
    if got.name in NUMERIC:
        (rows, values), (want_rows, want_values) = (
            split_column(got, NUMERIC[got.name]), split_column(want, NUMERIC[got.name]))
        return rows == want_rows and values == pytest.approx(want_values, rel=0,
                                                             abs=SMAPE_ABS)
    if got.name in ("backtest.json", "report.json"):
        payload, want_payload = json.loads(got.read_text()), json.loads(want.read_text())
        return (pop_smapes(payload) == pytest.approx(pop_smapes(want_payload), rel=0,
                                                     abs=SMAPE_ABS)
                and payload == want_payload)
    return got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("name", sorted([*CASES, *SYNTH_CASES]))
def test_outputs_match_expected(tmp_path, capsys, name):
    out, expected = run_case(name, tmp_path), GOLDEN / name
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "provenance.json"])
    for file in names:
        assert same_output(out / file, expected / file), file


def regenerate(name: str, root: Path, golden: Path = GOLDEN) -> list[str]:
    """Run case ``name`` under ``root`` and make ``golden / name`` hold its
    outputs but ``provenance.json``. A committed file that
    :func:`same_output` accepts is kept as it is, so another machine's BLAS
    rewrites no SMAPE digits; any other is written, and a file the case no
    longer writes is deleted. Returns the names written or deleted."""
    out, expected = run_case(name, root), golden / name
    (out / "provenance.json").unlink()
    expected.mkdir(parents=True, exist_ok=True)
    changed = []
    for stale in sorted(expected.iterdir()):
        if not (out / stale.name).exists():
            stale.unlink()
            changed.append(stale.name)
    for got in sorted(out.iterdir()):
        want = expected / got.name
        if not (want.exists() and same_output(got, want)):
            shutil.copyfile(got, want)
            changed.append(got.name)
    return changed


def test_regenerating_an_unchanged_case_keeps_every_file(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN / "report-plain", golden / "report-plain")
    assert regenerate("report-plain", tmp_path, golden) == []
    for want in (GOLDEN / "report-plain").iterdir():
        assert (golden / "report-plain" / want.name).read_bytes() == want.read_bytes()


if __name__ == "__main__":
    import tempfile

    names = [*CASES, *SYNTH_CASES]
    unknown = set(sys.argv[1:]) - set(names)
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(sorted(unknown))}; "
                 f"cases: {', '.join(names)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sys.argv[1:] or names:
            changed = regenerate(name, Path(tmp))
            print(f"{GOLDEN / name}: {', '.join(changed) or 'unchanged'}", file=sys.stderr)
