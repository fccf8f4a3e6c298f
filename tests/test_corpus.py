import datetime as dt
import json
import math
import random

import numpy as np
import pytest

from skillscope import corpus as corpus_mod
from skillscope.cli import main
from skillscope.corpus import (
    _Columns,
    Corpus,
    IngestReport,
    build_index,
    ingest,
    ingest_records,
    normalize_skill,
    parse_date,
    write_jsonl,
)
from skillscope.errors import DataError
from skillscope.occupations import compute_intensity

from oracles import ad_ids, brute_eta, brute_record, csr_rows, jobs_to_records


def append_one(columns, rec) -> dict:
    """``rec`` appended to ``columns`` as ingest appends it, and the reject
    reasons counted: ``{}`` where it is accepted."""
    report = IngestReport()
    columns.append_records([rec], report)
    return dict(report.reasons)


def validate(rec) -> dict:
    """The record ingest gives back for ``rec``; its reject reason as a
    ValueError if it rejects it."""
    columns = _Columns()
    reasons = append_one(columns, rec)
    if reasons:
        raise ValueError(*reasons)
    return next(Corpus(columns).rows())


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def record(i, **overrides):
    rec = {
        "id": f"ad-{i}",
        "date": "2018-03-01",
        "occupation": "Analyst",
        "skills": ["SQL", "Python"],
    }
    rec.update(overrides)
    return json.dumps(rec)


class TestNormalization:
    def test_trims_collapses_lowercases(self):
        assert normalize_skill("  Machine   Learning ") == "machine learning"

    def test_idempotent(self):
        for raw in ["  SQL ", "Data\t Science", "r"]:
            once = normalize_skill(raw)
            assert normalize_skill(once) == once


class TestIngest:
    def test_three_clean_records(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(i) for i in range(3)])
        corpus, report = ingest(f)
        assert len(corpus) == 3
        assert report.accepted == 3
        assert report.rejected == 0
        assert corpus.skill_names == ["sql", "python"]

    def test_empty_skills_rejected_with_reason(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0), record(1, skills=[])] + [record(i) for i in range(2, 40)])
        corpus, report = ingest(f)
        assert len(corpus) == 39
        assert report.reasons["empty skills"] == 1

    def test_skill_dedup_after_normalization(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0, skills=["SQL", " sql "])])
        corpus, _ = ingest(f)
        assert next(corpus.rows())["skills"] == ["sql"]

    def test_csv_roundtrip(self, tmp_path):
        f = tmp_path / "ads.csv"
        f.write_text(
            "id,date,occupation,skills,salary_min,salary_max\n"
            "a1,2018-01-02,Analyst,SQL;Python,50000,70000\n"
            "a2,2018-01-03,Engineer,C++,,\n"
        )
        corpus, report = ingest(f, fmt="csv")
        ads = list(corpus.rows())
        assert report.accepted == 2
        assert ads[0]["skills"] == ["sql", "python"]
        assert (ads[0]["salary_min"], ads[0]["salary_max"]) == (50000, 70000)
        assert ads[1].get("salary_min") is None
        assert math.isnan(corpus.salary_min[1])

    def test_salary_inversion_rejected(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0, salary_min=90000, salary_max=10000)])
        with pytest.raises(DataError):
            ingest(f)  # 1/1 rejected exceeds the 5% threshold
        write_lines(f, [record(0, salary_min=90000, salary_max=10000)]
                    + [record(i) for i in range(1, 20)])
        _, report = ingest(f)  # 1/20 is at the threshold, not above it
        assert report.reasons["salary_min > salary_max"] == 1

    def test_reject_fraction_threshold_fatal(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        good = [record(i) for i in range(9)]
        write_lines(f, good + [record(9, skills=[])])
        with pytest.raises(DataError, match=r"rejected 1/10 records \(threshold 5%\)"):
            ingest(f)
        write_lines(f, [record(i) for i in range(19)] + [record(19, skills=[])])
        corpus, _ = ingest(f)
        assert len(corpus) == 19

    def test_bad_json_line_rejected(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(i) for i in range(30)] + ["{not json"])
        _, report = ingest(f)
        assert report.reasons["bad json"] == 1

    def test_integer_over_the_digit_limit_is_bad_json(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(i) for i in range(30)]
                    + ['{"id": "big", "salary_min": ' + "9" * 5000 + "}"])
        corpus, report = ingest(f)
        assert (len(corpus), dict(report.reasons)) == (30, {"bad json": 1})

    @pytest.mark.parametrize("field, value, reason", [
        ("occupation", "\ud800bad", "bad occupation"),
        ("skills", ["SQL", "\ud800bad"], "bad skills"),
        ("skills", "SQL;bad\udfff", "bad skills")])
    def test_lone_surrogate_rejected_appending_nothing(self, field, value, reason):
        columns = _Columns()
        for _ in range(2):  # the second time past the memos too
            assert append_one(columns, json.loads(record(0, **{field: value}))) == {reason: 1}
        assert not (columns.id_bytes or columns.id_ends or columns.occupation_codes
                    or columns.skill_ids or columns.slots)

    def test_parse_error_field_is_an_ordinary_field(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0, **{"__parse_error__": ["a", "list"]}),
                        record(1, **{"__parse_error__": "bad date"})])
        corpus, report = ingest(f)
        assert (ad_ids(corpus), report.rejected) == (["ad-0", "ad-1"], 0)

    def test_parse_error_column_is_an_ordinary_column(self, tmp_path):
        f = tmp_path / "ads.csv"
        f.write_text("id,date,occupation,skills,__parse_error__\n"
                     "a1,2018-01-02,Analyst,SQL,bad json\n")
        corpus, report = ingest(f, fmt="csv")
        assert (ad_ids(corpus), report.rejected) == (["a1"], 0)

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "nope.jsonl")

    def test_deterministic(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(i) for i in range(20)] + [record(99, skills=[""])])
        c1, r1 = ingest(f)
        c2, r2 = ingest(f)
        assert ad_ids(c1) == ad_ids(c2)
        assert vars(r1) == vars(r2)


class TestInterning:
    """Skill ids are interned once at ingest; their order is what keeps
    ``skills.csv`` byte-identical."""

    @pytest.fixture(autouse=True)
    def accept_any_reject_share(self, monkeypatch):
        monkeypatch.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)

    def ingest_lines(self, tmp_path, lines):
        f = tmp_path / "ads.jsonl"
        write_lines(f, lines)
        return ingest(f)

    def test_skill_of_rejected_record_not_in_vocabulary(self, tmp_path):
        corpus, report = self.ingest_lines(tmp_path, [
            record(0, skills=["Rust", "SQL"], salary_min=9, salary_max=1),
            record(1),
        ])
        assert report.reasons["salary_min > salary_max"] == 1
        assert "rust" not in corpus.skill_ids
        assert corpus.skill_names == ["sql", "python"]

    def test_ids_follow_first_occurrence_in_accepted_ads(self, tmp_path):
        corpus, _ = self.ingest_lines(tmp_path, [
            record(0, skills=["Zig", "C"], date="not a date"),
            record(1, skills=["B", "A"]),
            record(2, skills=["C", "A", "Zig"]),
        ])
        assert corpus.skill_names == ["b", "a", "c", "zig"]
        assert corpus.slots.tolist() == [0, 1, 2, 1, 3]  # each ad's own order
        index = build_index(corpus)
        assert csr_rows(index) == [[0, 1], [2, 1, 3]]

    def test_spellings_share_one_id(self, tmp_path):
        corpus, _ = self.ingest_lines(tmp_path, [
            record(0, skills=[" Python "]),
            record(1, skills=["python", "PYTHON", "Machine  Learning"]),
            record(2, skills=["machine learning"]),
        ])
        assert corpus.skill_names == ["python", "machine learning"]
        index = build_index(corpus)
        assert csr_rows(index) == [[0], [0, 1], [1]]

    def test_skill_id_memo_follows_accepted_records_only(self):
        columns = _Columns()
        assert append_one(columns, json.loads(record(0, skills=["B", "A"], salary_min=9,
                                                      salary_max=1))) == {
            "salary_min > salary_max": 1}
        assert columns.text_ids == {}  # a rejected record fills no memo entry
        assert append_one(columns, json.loads(record(1, skills=["a ", "b"]))) == {}
        assert append_one(columns, json.loads(record(2, skills=["A", "B", " "]))) == {}
        assert columns.text_ids == {"a ": 0, "b": 1, "A": 0, "B": 1, " ": -1}
        # all memo hits
        assert append_one(columns, json.loads(record(3, skills=["B", " ", "a ", "B"]))) == {}
        assert append_one(columns, json.loads(record(4, skills=[" ", " "]))) == {
            "empty skills": 1}
        corpus = Corpus(columns)
        assert corpus.skill_names == ["a", "b"]
        assert corpus.slots.tolist() == [0, 1, 0, 1, 1, 0]
        assert corpus.indptr.tolist() == [0, 2, 4, 6]

    def test_csv_skill_text_on_the_memo_path(self, tmp_path):
        f = tmp_path / "ads.csv"
        f.write_text("id,date,occupation,skills\n"
                     "a1,2018-03-01,Analyst,SQL;;Python\n"
                     "a2,2018-03-01,Analyst,Python;SQL;Python\n"
                     "a3,2018-03-01,Analyst,;\n"
                     "a4,2018-03-01,Analyst,Excel; sql\n")
        corpus, report = ingest(f, fmt="csv")
        assert dict(report.reasons) == {"empty skills": 1}
        assert corpus.skill_names == ["sql", "python", "excel"]
        assert csr_rows(build_index(corpus)) == [[0, 1], [1, 0], [2, 0]]

    def test_jsonl_and_csv_give_the_same_ids(self, tmp_path):
        rows = [("a1", ["SQL", " Excel", "r"]), ("a2", ["R", "Tableau"]),
                ("a3", ["excel ", "Power  BI", "sql"])]
        jsonl = tmp_path / "ads.jsonl"
        write_lines(jsonl, [record(i, id=ad_id, skills=skills)
                            for i, (ad_id, skills) in enumerate(rows)])
        csv_file = tmp_path / "ads.csv"
        csv_file.write_text("id,date,occupation,skills\n" + "".join(
            f"{ad_id},2018-03-01,Analyst,{';'.join(skills)}\n" for ad_id, skills in rows))
        (corpus_j, _), (corpus_c, _) = ingest(jsonl), ingest(csv_file, fmt="csv")
        assert corpus_j.skill_names == corpus_c.skill_names == [
            "sql", "excel", "r", "tableau", "power bi"]
        assert csr_rows(build_index(corpus_j)) == csr_rows(build_index(corpus_c))


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestRecordValidation:
    @pytest.mark.parametrize("field", ["salary_min", "salary_max", "education_years",
                                       "experience_years"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "-Infinity"])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^non-finite {field}$"):
            validate(json.loads(record(0, **{field: value})))

    def test_whitespace_occupation_rejected(self):
        with pytest.raises(ValueError, match="^missing occupation$"):
            validate(json.loads(record(0, occupation=" \t ")))

    @pytest.mark.parametrize("skills", [5, {"sql": 1}, True])
    def test_skills_must_be_list_or_string(self, skills):
        with pytest.raises(ValueError, match="^bad skills$"):
            validate(json.loads(record(0, skills=skills)))

    @pytest.mark.parametrize("skills", [[None, "SQL"], [["x"]], [{"k": 1}], [True],
                                        ["SQL", 5]])
    def test_skill_that_is_not_a_string_rejected(self, skills):
        with pytest.raises(ValueError, match="^bad skills$"):
            validate(json.loads(record(0, skills=skills)))

    @pytest.mark.parametrize("field", ["id", "occupation"])
    @pytest.mark.parametrize("value", [["Dev"], {"x": 1}, True, False, 1.5])
    def test_id_and_occupation_must_be_text_or_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^bad {field}$"):
            validate(json.loads(record(0, **{field: value})))

    def test_integer_id_and_occupation_kept_as_codes(self):
        ad = validate(json.loads(record(0, id=17, occupation=2512)))
        assert (ad["id"], ad["occupation"]) == ("17", "2512")

    @pytest.mark.parametrize("field", ["salary_min", "salary_max", "education_years",
                                       "experience_years"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^bad number in {field}$"):
            validate(json.loads(record(0, **{field: value})))

    @pytest.mark.parametrize("date", ["20160101", "2016-W01-1", "2016-001", "2016-1-4",
                                      " 2016-01-04", "2016-01-04\n", "2016-01-04T00:00",
                                      "\uff12016-01-04", "2016-02-30"])
    def test_only_yyyy_mm_dd_dates_accepted(self, date):
        with pytest.raises(ValueError, match="^bad date$"):
            validate(json.loads(record(0, date=date)))
        ad = validate(json.loads(record(0, date="2016-01-04")))
        assert parse_date(ad["date"]) == dt.date(2016, 1, 4)

    def test_non_object_lines_rejected(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        write_lines(f, [record(i) for i in range(60)] + ["5", '["ad"]', deep])
        _, report = ingest(f)
        assert report.reasons["bad json"] == 3

    def test_written_corpus_is_standard_json(self, tmp_path):
        src = tmp_path / "ads.jsonl"
        write_lines(src, [record(i, salary_min=1.5, education_years=12) for i in range(30)]
                    + [record(99, salary_max=float("inf"))])
        corpus, report = ingest(src)
        assert report.reasons["non-finite salary_max"] == 1
        out = tmp_path / "out.jsonl"
        write_jsonl(corpus.rows(), out)
        for line in out.read_text().splitlines():
            json.loads(line, parse_constant=refuse_constant)


class TestRejectPrecedence:
    """A record that fails two checks is counted under the earlier one, in
    the order: type, required keys, id and occupation, occupation text,
    date, skills, salary_min, salary_max, salary order, education,
    experience."""

    @pytest.mark.parametrize("fields, reason", [
        ({"salary_min": 9, "salary_max": 1, "experience_years": -1}, "salary_min > salary_max"),
        ({"salary_min": 9, "salary_max": 1, "education_years": "x"}, "salary_min > salary_max"),
        ({"education_years": -1, "experience_years": "x"}, "negative education_years"),
        ({"education_years": 0, "experience_years": -0.5}, "negative experience_years"),
        ({"salary_max": "x", "salary_min": float("nan")}, "non-finite salary_min"),
        ({"date": "2016-02-30", "skills": []}, "bad date"),
        ({"date": ["2016-02-01"], "skills": 5}, "bad date"),
        # "SQL" is already normalized from the record before
        ({"skills": ["SQL", 5]}, "bad skills"),
        ({"skills": ["SQL", None], "salary_min": "x"}, "bad skills"),
        ({"skills": ["SQL", ["Python"]]}, "bad skills"),
        ({"occupation": " ", "date": "bad"}, "missing occupation"),
        ({"id": True, "skills": 5}, "bad id"),
        ({"id": "", "occupation": None}, "missing id"),
    ])
    def test_first_failed_check_names_the_reason(self, tmp_path, monkeypatch, fields, reason):
        monkeypatch.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0), record(1, **fields), record(2)])
        corpus, report = ingest(f)
        assert dict(report.reasons) == {reason: 1}
        assert ad_ids(corpus) == ["ad-0", "ad-2"]
        assert corpus.slots.tolist() == [0, 1, 0, 1]

    def test_rejected_record_appends_nothing(self):
        columns = _Columns()
        assert append_one(columns, json.loads(record(0))) == {}
        assert append_one(columns, json.loads(record(1, skills=["Rust", "SQL", 5]))) == {
            "bad skills": 1}
        corpus = Corpus(columns)
        assert (ad_ids(corpus), corpus.skill_names) == (["ad-0"], ["sql", "python"])
        assert corpus.slots.tolist() == [0, 1] and len(corpus.salary_min) == 1


def random_records(rng: random.Random, n: int) -> list[str]:
    """JSONL records in mixed skill spellings, with optional fields sometimes
    missing and a few records that ingest rejects."""
    spellings = ["SQL", " sql", "Python", "Machine  Learning", "machine learning",
                 "R", "Excel ", "Power BI"]
    lines = []
    for i in range(n):
        fields = {k: round(rng.uniform(0, 1e5), rng.randint(0, 3))
                  for k in ("salary_min", "education_years", "experience_years")
                  if rng.random() < 0.5}
        if "salary_min" in fields and rng.random() < 0.7:
            fields["salary_max"] = fields["salary_min"] + rng.uniform(0, 1e4)
        lines.append(record(i, date=f"{rng.randint(2014, 2019)}-0{rng.randint(1, 9)}-1"
                               f"{rng.randint(0, 9)}",
                            occupation=rng.choice(["Analyst", "Dev", "QA", 4132]),
                            skills=rng.sample(spellings, rng.randint(0, 5)), **fields))
    return lines


class TestCorpusColumns:
    def test_rows_give_back_the_ingested_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)
        rng = random.Random(5)
        for trial in range(20):
            lines = random_records(rng, 40)
            f = tmp_path / f"ads{trial}.jsonl"
            write_lines(f, lines)
            corpus, report = ingest(f)
            expected = []
            for line in lines:
                try:
                    expected.append(brute_record(json.loads(line), {}))
                except ValueError:
                    pass
            assert report.accepted == len(expected) == len(corpus)
            assert list(corpus.rows()) == expected
            assert list(ingest_records(expected)[0].rows()) == expected

    def test_columns_hold_each_field(self):
        records = [
            {"id": "a", "date": "2016-12-31", "occupation": "Dev", "skills": ["sql", "r"],
             "salary_max": 5.0},
            {"id": "b", "date": "2017-01-01", "occupation": "QA", "skills": ["r"],
             "salary_min": 1.0, "salary_max": 2.0, "education_years": 12.0,
             "experience_years": 0.0},
            {"id": "c", "date": "1969-12-31", "occupation": "Dev", "skills": ["c", "sql"]},
        ]
        corpus, _ = ingest_records(records)
        assert corpus.ordinals.tolist() == [parse_date(r["date"]).toordinal()
                                            for r in records]
        assert corpus.years.tolist() == [2016, 2017, 1969]
        assert corpus.occupations == ["Dev", "QA"]
        assert corpus.occupation_codes.tolist() == [0, 1, 0]
        assert corpus.skill_names == ["sql", "r", "c"]
        assert corpus.skill_ids == {"sql": 0, "r": 1, "c": 2}
        assert corpus.slots.tolist() == [0, 1, 1, 2, 0]
        assert corpus.indptr.tolist() == [0, 2, 3, 5]
        np.testing.assert_array_equal(corpus.salary_max, [5.0, 2.0, np.nan])
        np.testing.assert_array_equal(corpus.experience_years, [np.nan, 0.0, np.nan])
        assert corpus.span() == (dt.date(1969, 12, 31), dt.date(2017, 1, 1))

    def test_empty_corpus_has_no_span(self):
        corpus, _ = ingest_records([])
        assert len(corpus) == 0 and list(corpus.rows()) == []
        with pytest.raises(DataError, match="no accepted ads"):
            corpus.span()

    def test_intensity_equals_brute_force_exactly(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)
        rng = random.Random(9)
        for trial in range(20):
            f = tmp_path / f"ads{trial}.jsonl"
            write_lines(f, random_records(rng, 60))
            corpus, _ = ingest(f)
            targets = set(rng.sample(corpus.skill_names,
                                     rng.randint(1, len(corpus.skill_names))))
            want = brute_eta(list(corpus.rows()), targets)
            assert {p.occupation: p.eta for p in compute_intensity(corpus, targets)} == want


@pytest.mark.parametrize("ad_id, back", [
    ("Ärztin-ñ-工作-😀", "Ärztin-ñ-工作-😀"),
    ("\ud800", "\ud800"),  # a lone surrogate, as the JSON escape gives it
    (0, "0"),
    ("x" * 1000, "x" * 1000),
    ("", None),  # rejected as missing id
], ids=["non-ascii", "lone-surrogate", "integer-0", "1000-chars", "empty"])
def test_id_comes_back_from_rows_and_the_ingest_command(tmp_path, monkeypatch, ad_id, back):
    monkeypatch.setattr(corpus_mod, "REJECT_THRESHOLD", 1.0)
    records = [json.loads(record(0)), json.loads(record(1, id=ad_id)), json.loads(record(2))]
    want = ["ad-0", "ad-2"] if back is None else ["ad-0", back, "ad-2"]
    corpus, report = ingest_records(records)
    assert dict(report.reasons) == ({} if back is not None else {"missing id": 1})
    assert corpus.id_bytes.tobytes() == "".join(want).encode("utf-8", "surrogatepass")
    assert [rec["id"] for rec in corpus.rows()] == ad_ids(corpus) == want
    write_lines(tmp_path / "ads.jsonl", map(json.dumps, records))
    assert main(["ingest", "--input", str(tmp_path / "ads.jsonl"),
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "corpus.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == want


def worked_corpus():
    return {"J1": {"A", "B"}, "J2": {"A"}, "J3": {"B", "C"}}


class TestIncidenceIndex:
    def test_worked_marginals(self):
        corpus, _ = ingest_records(jobs_to_records(worked_corpus()))
        index = build_index(corpus)
        assert len(index.indices) == 5
        assert index.skill_job_counts[corpus.skill_ids["a"]] == 2
        assert len(index.indices) == int(np.diff(index.indptr).sum())

    def test_single_job_single_skill(self):
        index = build_index(ingest_records(jobs_to_records({"J1": {"A"}}))[0])
        assert len(index.indices) == 1

    def test_empty_corpus_fatal(self):
        with pytest.raises(DataError, match="empty corpus"):
            build_index(ingest_records([])[0])

    def test_reads_the_corpus_slots_in_place(self):
        corpus, _ = ingest_records(jobs_to_records(worked_corpus()))
        assert np.shares_memory(build_index(corpus).indices, corpus.slots)

    def test_grand_total_is_sum_of_skill_counts(self):
        records = jobs_to_records({"J1": {"A", "B", "C"}, "J2": {"B"}})
        index = build_index(ingest_records(records)[0])
        assert len(index.indices) == sum(len(r["skills"]) for r in records)

    def test_duplicating_ads_doubles_marginals(self):
        records = jobs_to_records(worked_corpus())
        doubled = records + [{**r, "id": r["id"] + "-copy"} for r in records]
        i1 = build_index(ingest_records(records)[0])
        i2 = build_index(ingest_records(doubled)[0])
        assert len(i2.indices) == 2 * len(i1.indices)
        assert (i2.skill_job_counts == 2 * i1.skill_job_counts).all()


def test_jsonl_writer_roundtrips(tmp_path):
    records = [
        {"id": "x", "date": "2019-02-03", "occupation": "Dev", "skills": ["python"],
         "salary_min": 1.0, "salary_max": 2.0, "education_years": 16, "experience_years": 3},
    ]
    path = tmp_path / "out.jsonl"
    write_jsonl(records, path)
    back, _ = ingest(path)
    assert list(back.rows()) == records
