"""Property tests: arbitrary JSON input is either accepted or rejected with
the program's own errors, never with an unexpected exception; ingest of any
list of records, as JSONL or CSV, gives the columns and the report of the
record-at-a-time oracle; arbitrary flag values to ``backtest``, ``skills``,
``occupations``, ``indicators`` and ``report`` end with exit 0, 1 or 2,
one-line warnings and at most one other line on stderr.

Generating a corpus or running a report on arbitrary settings could
allocate without bound, so the CLI runs here read one tiny fixed corpus and
draw window sizes, iterations and list lengths from small ranges."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from skillscope import corpus as corpus_mod
from skillscope.cli import apply_config_file, main
from skillscope.corpus import Corpus, _Columns, ingest
from skillscope.errors import DataError, UsageError
from skillscope.synthgen import config_from_dict

from oracles import NUMBER_FIELDS, brute_ingest


def examples(n: int) -> int:
    """``n`` examples under the default profile, scaled with the profile
    loaded (ten times as many under ``ci``)."""
    return n * settings.default.max_examples // 100


# Every value json.loads can return, NaN and the infinities included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)


def objects(required: dict, optional: dict | None = None):
    """Arbitrary JSON objects, or objects with each of ``required`` and maybe
    each of ``optional``, so that most examples get past the first checks."""
    return (st.fixed_dictionaries(required, optional=optional)
            | st.dictionaries(st.text(max_size=8), json_values, max_size=4))


numbers = (st.sampled_from([float("nan"), float("inf"), "-Infinity"]) | st.integers()
           | st.floats() | st.text(max_size=6) | json_values)
# Text with a lone surrogate, as a JSON escape such as "\ud800" gives it.
surrogate_text = st.builds("{}{}{}".format, st.text(max_size=2),
                           st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
                           st.text(max_size=2))
names = st.lists(st.text(max_size=6) | surrogate_text, max_size=4)
name_lists = names | json_values

records = objects({
    "id": st.text(min_size=1, max_size=6) | json_values,
    "date": st.dates().map(str) | st.sampled_from(["2019-02-30", 20190101]),
    "occupation": (st.sampled_from(["Dev", " \t "]) | st.text(max_size=6) | surrogate_text
                   | json_values),
    "skills": names | st.text(max_size=12) | surrogate_text | json_values,
}, {
    "salary_min": numbers,
    "salary_max": numbers,
    "education_years": numbers,
    "experience_years": numbers,
})

clusters = objects({
    "name": st.text(max_size=6) | json_values,
    "skills": name_lists,
    "occupations": name_lists,
    "base_daily_rate": numbers,
}, {
    "annual_growth": numbers,
    "growth_changepoints": st.lists(st.lists(numbers, max_size=3), max_size=3),
    "cohesion": numbers,
    "salary_level": numbers,
    "education_mean": numbers,
    "experience_mean": numbers,
})

synth_configs = objects({
    "seed": st.integers() | json_values,
    "n_days": st.integers() | json_values,
    "clusters": st.lists(clusters, max_size=3) | json_values,
}, {
    "background_skills": st.lists(st.lists(numbers | st.text(max_size=6), max_size=3),
                                  max_size=3),
    "start_date": st.dates().map(str) | json_values,
    "weekly_amplitude": numbers,
    "noise_level": numbers,
})


@settings(deadline=None)
@given(records)
def test_record_to_ad_rejects_only_with_value_error(rec):
    columns = _Columns()
    try:
        columns.add_record(rec)
    except ValueError:
        assert not (columns.ids or columns.skill_ids or columns.slots or columns.numbers)
        return
    ad = next(Corpus(columns).rows())
    assert ad["occupation"] and ad["skills"]
    assert all(isinstance(v, str) for v in (ad["id"], ad["occupation"], *ad["skills"]))
    for text in (ad["occupation"], *ad["skills"]):
        text.encode("utf-8")
    numbers = [ad.get(key) for key in NUMBER_FIELDS]
    assert all(v is None or type(v) is float for v in numbers)
    json.dumps(numbers, allow_nan=False)


# Few distinct skill texts, dates and numbers, so that records share them;
# about a third of the records are drawn from these alone.
shared_skills = st.sampled_from(["SQL", " sql", "Python", "Machine  Learning",
                                 "machine learning", "", " ", "R", "R\udfff"])
shared_dates = st.sampled_from(["2018-03-01", "2018-03-02", "2020-02-29"])
shared_numbers = st.sampled_from([-1.0, 0.0, 1.5, 2, 10**400, "3.5", "", None])
record_lists = st.lists(
    st.fixed_dictionaries({
        "id": st.sampled_from(["a", "b", 7]),
        "date": shared_dates,
        "occupation": st.sampled_from(["Dev", " QA ", 4132, " \ud800QA"]),
        "skills": st.lists(shared_skills, min_size=1, max_size=5) | shared_skills,
    }, optional=dict.fromkeys(NUMBER_FIELDS, shared_numbers))
    | objects({
        "id": st.sampled_from(["a", ""]) | json_values,
        "date": shared_dates | st.sampled_from(["2019-02-30", 20190101]) | json_values,
        "occupation": st.sampled_from(["Dev", " \t "]) | json_values,
        "skills": st.lists(shared_skills | json_values, max_size=5) | shared_skills,
    }, dict.fromkeys(NUMBER_FIELDS, shared_numbers | numbers))
    | json_values,
    max_size=12)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


@settings(deadline=None)
@given(record_lists)
def test_ingest_equals_record_at_a_time_oracle(tmp_path_factory, recs):
    root = tmp_path_factory.getbasetemp()
    jsonl, csv_path = root / "oracle.jsonl", root / "oracle.csv"
    jsonl.write_text("".join(json.dumps(rec) + "\n" for rec in recs), encoding="utf-8")
    # UTF-8 cannot carry a lone surrogate: the CSV holds "?" in its place
    with csv_path.open("w", encoding="utf-8", errors="replace", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "date", "occupation", "skills", *NUMBER_FIELDS])
        writer.writerows([csv_cell(rec.get(key)) for key in
                          ("id", "date", "occupation", "skills", *NUMBER_FIELDS)]
                         for rec in recs if isinstance(rec, dict))
    for path, fmt in ((jsonl, "jsonl"), (csv_path, "csv")):
        try:
            columns, want = brute_ingest(path, fmt)
        except csv.Error:  # a NUL byte, on Python 3.10
            with pytest.raises(DataError):
                ingest(path, fmt)
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)
            corpus, report = ingest(path, fmt)
        event(f"{fmt}: {'some' if report.accepted else 'no'} records accepted")
        assert (report.accepted, report.rejected, dict(report.reasons)) == (
            want["accepted"], want["rejected"], want["reasons"])
        assert list(corpus.skill_ids.items()) == list(columns["skill_ids"].items())
        for name in ("ids", "occupations", "skill_names"):
            assert getattr(corpus, name) == columns[name], name
        for name in ("ordinals", "years", "occupation_codes", "slots", "indptr",
                     *NUMBER_FIELDS):
            got = getattr(corpus, name)
            assert got.dtype == (np.float64 if name in NUMBER_FIELDS else
                                 np.int32 if name == "slots" else np.int64), name
            np.testing.assert_array_equal(got, columns[name], err_msg=name)


@settings(deadline=None)
@given(synth_configs | json_values)
def test_config_from_dict_rejects_only_with_data_error(raw):
    try:
        config_from_dict(raw)
    except DataError:
        pass


@settings(deadline=None)
@given(json_values | objects({}, {"cutoff": st.integers(), "seed_skill": names}))
def test_apply_config_file_rejects_only_with_own_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "config-file.json"
    path.write_text(json.dumps(doc))
    try:
        argv = apply_config_file(["report", "--config-file", str(path)])
    except (DataError, UsageError):
        return
    assert all(isinstance(a, str) for a in argv)


# A 90-day corpus of about 360 ads over two clusters.
TINY_SCENARIO = {
    "seed": 3, "n_days": 90, "start_date": "2018-01-01",
    "clusters": [
        {"name": "t", "skills": ["ml", "stats", "python"], "occupations": ["Modeler"],
         "base_daily_rate": 2},
        {"name": "o", "skills": ["filing", "phones"], "occupations": ["Clerk"],
         "base_daily_rate": 2},
    ],
    "background_skills": [["email", 0.3]],
}


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "scenario.json"
    cfg.write_text(json.dumps(TINY_SCENARIO))
    assert run_cli(["synth", "--config", str(cfg), "--out", str(root / "synth")])[0] == 0
    return root / "synth" / "corpus.jsonl"


def run_cli(argv):
    """Exit code and stderr of ``main(argv)``; an exception escaping ``main``
    (a traceback on the command line) fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


MALFORMED = st.sampled_from(["", "x", "1.5", "1e3", "nan", "inf", "-inf", "-0",
                             "0x10", " 7"])


def flag_value(ints):
    """An integer from ``ints`` as text, or one time in five a malformed one."""
    return st.integers(0, 4).flatmap(lambda k: ints.map(str) if k else MALFORMED)


def window_flags(value=flag_value):
    return {"--train-days": value(st.integers(-3, 70)),
            "--test-days": value(st.integers(-3, 30)),
            "--iterations": value(st.integers(-3, 20))}


fit_flags = {
    "--changepoints": flag_value(st.integers(-3, 40)),
    "--ridge-lambda": flag_value(st.integers(-3, 10)) | st.floats().map(repr),
}

backtest_flags = st.fixed_dictionaries(window_flags(), optional={
    **fit_flags,
    "--occupation": st.sampled_from(["Modeler", "Clerk", "nobody"]) | st.text(max_size=6),
})


def seed_flags(min_size=0):
    return {"--seed-skill": st.lists(st.integers(0, 4).flatmap(
        lambda k: st.sampled_from(["ml", "stats", " Email", "filing"]) if k
        else st.text(max_size=6)), min_size=min_size, max_size=3)}


expansion_flags = {
    "--per-seed-k": flag_value(st.integers(-3, 50)),
    "--cutoff": flag_value(st.integers(-3, 50)),
    "--avg-over-all-seeds": st.just(None),
}
skills_flags = st.fixed_dictionaries(seed_flags(), optional=expansion_flags)

# Thresholds inside and outside (0, 1), the bounds included.
threshold_flag = {"--threshold": (st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5))
                  .map(repr) | MALFORMED}
# Category maps: two-column rows, blank rows, a duplicate occupation, three
# columns, an empty field and a category named like the market baseline.
MAP_ROWS = ["Modeler,Data", "Clerk,Office", "", "Modeler,Other", "Clerk,Office,extra",
            " ,Data", "Clerk,market", "occupation,category"]
category_flags = {
    "--category-map": st.lists(st.sampled_from(MAP_ROWS), max_size=4),
    "--default-categories": st.just(None),
}
occupations_flags = st.fixed_dictionaries({}, optional={**threshold_flag,
                                                        **category_flags})
indicators_flags = st.fixed_dictionaries(window_flags(), optional={**fit_flags,
                                                                 **category_flags})
# Malformed window values are left to the backtest and indicators tests, so
# that more reports get past parsing.
report_flags = st.fixed_dictionaries({
    **seed_flags(1), **window_flags(lambda ints: ints.map(str))}, optional={
    **expansion_flags, **threshold_flag, **category_flags})


def flag_argv(flags: dict, root) -> list[str]:
    """Flags as argv; ``--category-map`` rows are written to a file under
    ``root``."""
    argv = []
    for flag, value in flags.items():
        if flag == "--category-map":
            path = root / "categories.csv"
            path.write_text("".join(row + "\n" for row in value))
            value = str(path)
        values = value if isinstance(value, list) else [value]
        argv += [flag] if value is None else [a for v in values for a in (flag, v)]
    return argv


def assert_clean_exit(code, err):
    event(f"exit {code}")
    assert code in (0, 1, 2)
    lines = err.splitlines()
    assert len([line for line in lines if not line.startswith("warning: ")]) <= 1, err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_skills(tiny_corpus):
    out = tiny_corpus.parent.parent / "tiny-skills"
    assert run_cli(["skills", "--input", str(tiny_corpus), "--seed-skill", "ml",
                    "--per-seed-k", "5", "--cutoff", "3", "--out", str(out)])[0] == 0
    return out / "skills.csv"


def run_command(command, tiny_corpus, flags, *extra):
    root = tiny_corpus.parent.parent
    assert_clean_exit(*run_cli([command, "--input", str(tiny_corpus), *extra,
                                *flag_argv(flags, root), "--out",
                                str(root / f"{command}-out")]))


@settings(deadline=None, max_examples=examples(60))
@given(flags=backtest_flags)
def test_backtest_flags_exit_cleanly(tiny_corpus, flags):
    run_command("backtest", tiny_corpus, flags)


@settings(deadline=None, max_examples=examples(60))
@given(flags=skills_flags)
def test_skills_flags_exit_cleanly(tiny_corpus, flags):
    run_command("skills", tiny_corpus, flags)


@settings(deadline=None, max_examples=examples(60))
@given(flags=occupations_flags)
def test_occupations_flags_exit_cleanly(tiny_corpus, tiny_skills, flags):
    run_command("occupations", tiny_corpus, flags, "--skills", str(tiny_skills))


@settings(deadline=None, max_examples=examples(100))
@given(flags=indicators_flags)
def test_indicators_flags_exit_cleanly(tiny_corpus, flags):
    run_command("indicators", tiny_corpus, flags)


@settings(deadline=None, max_examples=examples(100))
@given(flags=report_flags)
def test_report_flags_exit_cleanly(tiny_corpus, flags):
    run_command("report", tiny_corpus, flags)
