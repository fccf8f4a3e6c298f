"""Property tests: arbitrary JSON input is either accepted or rejected with
the program's own errors, never with an unexpected exception; ingest of any
list of records, as JSONL or CSV, of any JSONL line text and of any CSV
rows under any header gives the columns and the report of the
record-at-a-time oracle; arbitrary flag values to ``backtest``, ``skills``,
``occupations``, ``indicators`` and ``report`` end with exit 0, 1 or 2,
one-line warnings and at most one other line on stderr. The backtest, the
grouping of ads and every group's yearly figures equal their oracles.

Generating a corpus or running a report on arbitrary settings could
allocate without bound, so the CLI runs here read one tiny fixed corpus and
draw window sizes, iterations and list lengths from small ranges."""

import contextlib
import csv
import datetime as dt
import io
import json
import math
import statistics

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st  # noqa: E402

from skillscope import corpus as corpus_mod, indicators
from skillscope.cli import _group_ads, apply_config_file, main
from skillscope.corpus import (Corpus, IngestReport, _Columns, build_index, ingest,
                               ingest_records, left_sum, normalize_skill)
from skillscope.errors import DataError, UsageError
from skillscope.indicators import compute_indicators
from skillscope.occupations import compute_intensity
from skillscope.skillmetrics import compute_effective_use
from skillscope.synthgen import config_from_dict
from skillscope.timeseries import DailySeries, FitConfig, sliding_window_backtest

from oracles import (NUMBER_FIELDS, ad_ids, brute_effective, brute_eta, brute_groups,
                     brute_indicators, brute_ingest, csr_rows, lstsq_backtest)


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
    columns, report = _Columns(), IngestReport()
    columns.append_records([rec], report)  # any other exception escapes
    if report.rejected:
        assert sum(report.reasons.values()) == report.rejected == 1
        assert not (columns.id_bytes or columns.id_ends or columns.skill_ids or columns.slots
                    or columns.numbers)
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
input_records = (
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
    | json_values)
record_lists = st.lists(input_records, max_size=12)


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


def assert_ingest_equals_oracle(path, fmt):
    """``ingest`` of the file gives ``brute_ingest``'s columns, report and
    reasons, whatever share of its records it rejects."""
    try:
        columns, want = brute_ingest(path, fmt)
    except csv.Error:  # a NUL byte, on Python 3.10
        with pytest.raises(DataError):
            ingest(path, fmt)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)
        corpus, report = ingest(path, fmt)
    event(f"{fmt}: {'some' if report.accepted else 'no'} records accepted")
    assert (report.accepted, report.rejected, dict(report.reasons)) == (
        want["accepted"], want["rejected"], want["reasons"])
    assert list(corpus.skill_ids.items()) == list(columns["skill_ids"].items())
    assert (corpus.id_bytes.dtype, corpus.id_ends.dtype) == (np.uint8, np.int64)
    assert ad_ids(corpus) == columns["ids"]
    for name in ("occupations", "skill_names"):
        assert getattr(corpus, name) == columns[name], name
    for name in ("ordinals", "years", "occupation_codes", "slots", "indptr",
                 *NUMBER_FIELDS):
        got = getattr(corpus, name)
        assert got.dtype == (np.float64 if name in NUMBER_FIELDS else
                             np.int32 if name == "slots" else np.int64), name
        np.testing.assert_array_equal(got, columns[name], err_msg=name)


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
        assert_ingest_equals_oracle(path, fmt)


# Line text around and in place of a JSON document: the whitespace json.loads
# skips and some it does not (form feed, NBSP, U+2028, NEL, vertical tab), a
# byte-order mark, which only the first line may start with, truncated
# documents, data after a document, nesting past the recursion limit and an
# integer past the digit limit; blank and whitespace-only lines too.
padding = st.text(st.sampled_from(" \t\x0c\xa0\u2028\x85\x0b\ufeff"), max_size=2)
documents = input_records.map(json.dumps)
line_bodies = (
    documents
    | documents.flatmap(lambda doc: st.integers(0, len(doc) - 1).map(lambda k: doc[:k]))
    | st.builds("{}{}".format, documents, st.sampled_from([" x", "{}", " 1", "]", '"']))
    | st.sampled_from(["[" * 100_000 + "]" * 100_000,
                       '{"id": "big", "salary_min": ' + "9" * 5000 + "}", ""])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
lines = st.builds("{}{}{}".format, padding, line_bodies, padding)


@settings(deadline=None)
@given(st.lists(lines, max_size=12), st.booleans())
def test_ingest_of_any_jsonl_text_equals_oracle(tmp_path_factory, text_lines, last_newline):
    path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    path.write_text("\n".join(text_lines) + "\n" * last_newline, encoding="utf-8")
    assert_ingest_equals_oracle(path, "jsonl")


# A CSV header of every field and one no check reads, in any order, with
# duplicate names after them, or any of those names in any order, with any
# missing; each row as long as the header, one cell short of it (so a
# trailing duplicate name is missing), or of any length, empty and longer
# than the header included, its cells drawn by the header's names.
CSV_CELLS = {
    "id": st.sampled_from(["a", "7", ""]),
    "date": st.sampled_from(["2018-03-01", "2020-02-29", "2019-02-30", ""]),
    "occupation": st.sampled_from(["Dev", " QA ", " ", ""]),
    "skills": st.lists(shared_skills, max_size=4).map(";".join),
    **dict.fromkeys(NUMBER_FIELDS, st.sampled_from(["", "1.5", "-1", "nan", "x"])),
    "note": st.text(max_size=3),
}
csv_headers = (
    st.permutations(list(CSV_CELLS)).flatmap(
        lambda names: st.lists(st.sampled_from(names), max_size=2).map(names.__add__))
    | st.lists(st.sampled_from(list(CSV_CELLS)), max_size=10))


def csv_rows(header):
    cells = [CSV_CELLS[name] for name in header] + [CSV_CELLS["note"]] * 2
    lengths = st.sampled_from([len(header), max(len(header) - 1, 0)]) | st.integers(
        0, len(cells))
    return st.lists(lengths.flatmap(lambda n: st.tuples(*cells[:n]).map(list)), max_size=8)


@settings(deadline=None)
@given(csv_headers.flatmap(lambda header: st.tuples(st.just(header), csv_rows(header))))
def test_ingest_of_any_csv_rows_equals_oracle(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    with path.open("w", encoding="utf-8", errors="replace", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert_ingest_equals_oracle(path, "csv")


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


# Small corpora for the skill network and intensity: ads of one to six of
# twelve skills, each in one of three occupations, in id order.
skill_sets = st.sets(st.integers(0, 11), min_size=1, max_size=6)
job_lists = st.lists(st.tuples(skill_sets, st.sampled_from(["A", "B", "C"])),
                     min_size=1, max_size=30)
# The slice sizes the sliced stages run at: the module's, one slot and seven.
SLICES = (corpus_mod.SLOT_SLICE, 1, 7)


def job_records(jobs) -> list[dict]:
    return [{"id": f"j{i:03d}", "date": "2018-06-01", "occupation": occupation,
             "skills": sorted(f"s{k}" for k in skills)}
            for i, (skills, occupation) in enumerate(jobs)]


def effective_use_at_each_slice(records):
    """The incidence and, per slice size, the effective use of ``records``
    as ``{job id: set of skill names}``; each must be the incidence itself
    where it keeps every slot."""
    corpus, _ = ingest_records(records)
    index = build_index(corpus)
    for size in SLICES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "SLOT_SLICE", size)
            eff = compute_effective_use(index)
        rows = [{corpus.skill_names[s] for s in row} for row in csr_rows(eff)]
        kept = sum(map(len, rows))
        assert (eff is index) == (kept == len(index.indices))
        np.testing.assert_array_equal(
            eff.skill_job_counts, np.bincount(eff.indices, minlength=len(corpus.skill_ids)))
        yield index, eff, dict(zip(ad_ids(corpus), rows))


@settings(deadline=None)
@given(job_lists)
def test_effective_use_equals_brute_force(jobs):
    records = job_records(jobs)
    want = brute_effective({rec["id"]: set(rec["skills"]) for rec in records})
    for index, eff, got in effective_use_at_each_slice(records):
        event("drops slots" if eff is not index else "keeps every slot")
        assert got == want


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2))
def test_effective_use_at_a_ratio_of_exactly_one(c, n, extra):
    """Skill ``t`` is in ``c`` ads of ``n`` skills each, the other skills
    of every ad its own, so ``c_t * n_j`` is N - ``extra``: at N the ratio is
    exactly 1 and ``t`` drops out; at N - 1 it stays, and its limit
    (N - 1) // c_t equals the longest ad, which keeps every slot."""
    jobs = {f"j{i}": {"t", *(f"u{i}_{k}" for k in range(n - 1))} for i in range(c)}
    jobs.update({f"x{e}": {f"x{e}"} for e in range(extra)})
    records = [{"id": j, "date": "2018-06-01", "occupation": "A", "skills": sorted(s)}
               for j, s in jobs.items()]
    want = brute_effective(jobs)
    for index, eff, got in effective_use_at_each_slice(records):
        assert got == want
        assert all(("t" in got[f"j{i}"]) == (extra > 0) for i in range(c))
        if extra == 1:
            assert eff is index


@settings(deadline=None)
@given(job_lists, st.sets(st.sampled_from(["s0", "S1", " s2", "s5", "nowhere"]), min_size=1))
def test_intensity_equals_brute_force(jobs, targets):
    records = job_records(jobs)
    corpus, _ = ingest_records(records)
    want = brute_eta(records, {normalize_skill(t) for t in targets})
    for size in SLICES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "SLOT_SLICE", size)
            profiles = compute_intensity(corpus, targets)
        assert {p.occupation: p.eta for p in profiles} == want
        assert sum(p.total_slots for p in profiles) == len(corpus.slots)


# Values whose left-to-right sum differs from NumPy's pairwise one, and
# signed zeros, whose order a median must keep; NaN is a missing value.
sum_values = st.sampled_from([1e16, 1.0, 3.0, 0.1, 2.5e15, 0.0, -0.0])
missing = st.just(math.nan)
adversarial = (st.lists(sum_values | st.sampled_from([-1e16, -3.0]) | missing,
                        min_size=8, max_size=40)
               | st.lists(st.floats(allow_nan=False, allow_infinity=False) | missing,
                          min_size=1, max_size=40))
PAIRWISE_DIFFERS = [1e16] + [1.0] * 30


def test_pairwise_differs_on_its_example():
    assert float(np.sum(PAIRWISE_DIFFERS)) != left_sum(PAIRWISE_DIFFERS)


@settings(deadline=None)
@example(PAIRWISE_DIFFERS)
@example([math.nan, -0.0, math.nan])
@given(adversarial)
def test_median_and_mean_equal_statistics_and_left_sum(values):
    """The median and mean of one segment are those of its defined values:
    a missing value, added to the weighted sum as 0.0, moves no bit."""
    defined = [v for v in values if not math.isnan(v)]
    with np.errstate(over="ignore", invalid="ignore"):
        pairwise = float(np.sum(defined))
    event("pairwise sum differs" if pairwise != left_sum(defined) else "pairwise sum agrees")
    event(f"{'some' if len(defined) < len(values) else 'no'} values missing")
    key = np.zeros(len(values), dtype=np.intp)  # one segment
    [median] = indicators._segment_medians(key, np.array(values), 1)
    [mean] = indicators._segment_means(key, np.array(values), 1)
    assert repr(median) == repr(statistics.median(defined) if defined else None)
    assert repr(mean) == repr(left_sum(defined) / len(defined) if defined else None)


@settings(deadline=None)
@example([(0, 1e16, 1e16)] + [(0, 1.0, 1.0)] * 30)
@given(st.lists(st.tuples(st.integers(0, 1), sum_values, sum_values | st.none()), min_size=1,
                max_size=40))
def test_yearly_figures_equal_brute_force_bit_for_bit(ads):
    """Each year's median salary and mean education and experience, over
    the market's whole columns, are ``brute_indicators``' to the bit."""
    records = [{"id": str(i), "date": f"{2017 + year}-03-01", "occupation": "A",
                "skills": ["x"], "education_years": value,
                **({"salary_min": value} if other is None else
                   {"salary_min": min(value, other), "salary_max": max(value, other),
                    "experience_years": other})}
               for i, (year, value, other) in enumerate(ads)]
    corpus, _ = ingest_records(records)
    [ind] = compute_indicators(corpus, [indicators.MARKET], 0, [1.0])
    want = brute_indicators(records)
    assert ind.counts_by_year == want["counts"]
    for name in ("salary", "education", "experience"):
        assert repr(getattr(ind, f"{name}_by_year")) == repr(want[name]), name


occupation_names = st.sampled_from(["Dev", "Ops", "QA", "PM", "HR"])


@settings(deadline=None)
@given(st.lists(occupation_names, min_size=1, max_size=30),
       st.none() | st.dictionaries(occupation_names,
                                   st.sampled_from(["Tech", "Office", "uncategorized"])),
       st.none() | st.sets(occupation_names | st.just("nobody")))
def test_group_ads_equals_one_scan_per_label(occupations, category_map, wanted):
    """The labels sorted, each label's code on exactly its rows and -1 on
    every ad in no group, whatever the occupation codes, with unmapped
    occupations and occupation filters."""
    records = [{"id": str(i), "date": "2018-06-01", "occupation": occ, "skills": ["x"]}
               for i, occ in enumerate(occupations)]
    corpus, _ = ingest_records(records)
    labels, codes = _group_ads(corpus, category_map, wanted)
    want = brute_groups(corpus, category_map, wanted)
    assert labels == sorted(want)
    assert codes.dtype == np.int32 and len(codes) == len(corpus)
    for k, label in enumerate(labels):
        np.testing.assert_array_equal(np.flatnonzero(codes == k), want[label])
    grouped = np.concatenate([np.empty(0, dtype=np.intp), *want.values()])
    assert (np.delete(codes, grouped) == -1).all()


# Salary bounds with signed zeros, a midpoint that overflows and an
# infinite bound; None is a missing one.
salary_bounds = st.sampled_from([None, 0.0, -0.0, 1.0, 2.5, 1e308, math.inf])


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), salary_bounds, salary_bounds,
                          sum_values | st.none(), sum_values | st.none(),
                          st.integers(-1, 2)),
                min_size=1, max_size=30))
def test_group_indicators_equal_brute_force_bit_for_bit(ads):
    """Each ad's group is its code, -1 for none. Each group's yearly counts,
    median salary and mean education and experience from
    ``assemble_report`` are ``brute_indicators``' of its ads, in row order,
    to the bit, for empty groups too, and the market baseline's are those
    of every record; a figure that is not finite is a DataError."""
    records = [{"id": str(i), "date": f"{2017 + year}-03-01", "occupation": "A",
                "skills": ["x"]} for i, (year, *_) in enumerate(ads)]
    corpus, _ = ingest_records(records)
    for k, name in enumerate(NUMBER_FIELDS, start=1):  # values ingest would reject
        getattr(corpus, name)[:] = [math.nan if ad[k] is None else ad[k] for ad in ads]
        for rec, ad in zip(records, ads):
            if ad[k] is not None:
                rec[name] = ad[k]
    labels = ["g1", "g2", "g3"]
    codes = np.array([ad[-1] for ad in ads], dtype=np.int32)
    market = brute_indicators(records)
    wants = {label: brute_indicators([rec for rec, ad in zip(records, ads) if ad[-1] == k])
             for k, label in enumerate(labels)}
    figures = [v for want in [market, *wants.values()]
               for name in ("salary", "education", "experience") for v in want[name].values()]

    def assemble():
        return indicators.assemble_report(corpus, labels, codes, [1.0] * (1 + len(labels)))

    if not all(v is None or math.isfinite(v) for v in figures):
        with pytest.raises(DataError, match="overflow a float"):
            assemble()
        return
    report = assemble()
    assert [ind.label for ind in report.groups] == labels
    for ind, want in [(report.baseline, market),
                      *((ind, wants[ind.label]) for ind in report.groups)]:
        assert ind.counts_by_year == want["counts"]
        for name in ("salary", "education", "experience"):
            assert repr(getattr(ind, f"{name}_by_year")) == repr(want[name]), name


@settings(deadline=None, max_examples=examples(50))
# Without day 0 the design is singular: the min-norm fit splits the
# duplicated holiday's coefficient between its two columns.
@example(14, 1, 1, 5, 0.0, [0, 0], 0)
@given(st.integers(14, 40), st.integers(1, 8), st.integers(1, 6), st.integers(0, 6),
       st.just(0.0) | st.floats(1e-3, 1e3), st.lists(st.integers(-5, 60), max_size=8),
       st.integers(0, 2**32 - 1))
def test_backtest_equals_lstsq_oracle_per_window(train_days, test_days, iterations,
                                                 n_changepoints, ridge_lambda, offsets, seed):
    """Random windows, ridge values and holiday day offsets, duplicated ones
    and ones outside the series included: every window's score is that of
    its own ``lstsq`` fit. No day is empty: where an empty day's forecast is
    zero, a rounding error above it moves SMAPE by up to 200 / test days."""
    counts = 1 + np.random.default_rng(seed).poisson(5, train_days + test_days + iterations - 1)
    start = dt.date(2018, 1, 1)
    config = FitConfig(n_changepoints, ridge_lambda,
                       tuple(start + dt.timedelta(days=h) for h in offsets))
    [scores] = sliding_window_backtest(DailySeries(start, counts.reshape(-1, 1), ("all",)),
                                       train_days, test_days, iterations, config).scores
    want = lstsq_backtest(counts, train_days, test_days, iterations, n_changepoints,
                          ridge_lambda, offsets)
    assert scores == pytest.approx(want, rel=0, abs=1e-9)


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
