"""Report outputs pinned against expected files under ``tests/golden``.

The ``tests/test_cli.py`` scenario runs every subcommand that reads a
corpus: ``ingest``, ``skills``, ``occupations`` on a ``skills.csv`` with
mixed-case names, ``backtest --occupation Modeler --holidays``, ``report``
plain, with ``--holidays`` and with ``--default-categories``, and
``indicators`` with ``--holidays`` (two groups plus the market). Plain
``report`` runs once more on the scenario started on 2016-10-01, so that its
ads span a New Year and the report has posting growth. SMAPE values
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
"""

import csv
import json
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
}
# Cases run on the scenario started elsewhere in the year.
START_DATES = {"report-new-year": "2016-10-01"}
SMAPE_ABS = 1e-9


def run_case(name: str, root: Path) -> Path:
    """Synthesize the case's scenario under ``root`` and run case ``name``
    into ``root/name``; returns that output directory."""
    start = START_DATES.get(name, SCENARIO["start_date"])
    corpus = root / f"synth-{start}" / "corpus.jsonl"
    if not corpus.is_file():
        cfg = root / f"scenario-{start}.json"
        cfg.write_text(json.dumps({**SCENARIO, "start_date": start}))
        assert main(["synth", "--config", str(cfg), "--out", str(corpus.parent)]) == 0
        (root / "holidays.txt").write_text(HOLIDAYS)
        (root / "skills.csv").write_text(SKILLS_CSV)
    argv = [a.format(holidays=root / "holidays.txt", skills=root / "skills.csv")
            for a in CASES[name]]
    out = root / name
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_expected(tmp_path, capsys, name):
    out, expected = run_case(name, tmp_path), GOLDEN / name
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "provenance.json"])
    for file in names:
        got, want = out / file, expected / file
        if file in NUMERIC:
            (rows, values), (want_rows, want_values) = (
                split_column(got, NUMERIC[file]), split_column(want, NUMERIC[file]))
            assert rows == want_rows
            assert values == pytest.approx(want_values, rel=0, abs=SMAPE_ABS)
        elif file in ("backtest.json", "report.json"):
            payload, want_payload = json.loads(got.read_text()), json.loads(want.read_text())
            assert pop_smapes(payload) == pytest.approx(
                pop_smapes(want_payload), rel=0, abs=SMAPE_ABS)
            assert payload == want_payload
        else:
            assert got.read_bytes() == want.read_bytes(), file


if __name__ == "__main__":
    import shutil
    import tempfile

    unknown = set(sys.argv[1:]) - set(CASES)
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(sorted(unknown))}; "
                 f"cases: {', '.join(CASES)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sys.argv[1:] or CASES:
            out = run_case(name, Path(tmp))
            (out / "provenance.json").unlink()
            shutil.rmtree(GOLDEN / name, ignore_errors=True)
            shutil.copytree(out, GOLDEN / name)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
