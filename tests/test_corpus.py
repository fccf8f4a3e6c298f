import datetime as dt
import json

import pytest

from skillscope import corpus as corpus_mod
from skillscope.corpus import (
    _record_to_ad,
    JobAd,
    SkillVocabulary,
    build_index,
    ingest,
    normalize_skill,
    write_jsonl,
)
from skillscope.errors import DataError

from oracles import jobs_to_ads


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
        ads, vocab, report = ingest(f)
        assert len(ads) == 3
        assert report.accepted == 3
        assert report.rejected == 0
        assert vocab.names == ["sql", "python"]

    def test_empty_skills_rejected_with_reason(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0), record(1, skills=[])] + [record(i) for i in range(2, 40)])
        ads, _, report = ingest(f)
        assert len(ads) == 39
        assert report.reasons["empty skills"] == 1

    def test_skill_dedup_after_normalization(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0, skills=["SQL", " sql "])])
        ads, _, _ = ingest(f)
        assert ads[0].skills == ("sql",)

    def test_csv_roundtrip(self, tmp_path):
        f = tmp_path / "ads.csv"
        f.write_text(
            "id,date,occupation,skills,salary_min,salary_max\n"
            "a1,2018-01-02,Analyst,SQL;Python,50000,70000\n"
            "a2,2018-01-03,Engineer,C++,,\n"
        )
        ads, _, report = ingest(f, fmt="csv")
        assert report.accepted == 2
        assert ads[0].skills == ("sql", "python")
        assert ads[0].salary_midpoint() == 60000
        assert ads[1].salary_min is None

    def test_salary_inversion_rejected(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(0, salary_min=90000, salary_max=10000)])
        with pytest.raises(DataError):
            ingest(f)  # 1/1 rejected exceeds the 5% threshold
        write_lines(f, [record(0, salary_min=90000, salary_max=10000)]
                    + [record(i) for i in range(1, 20)])
        _, _, report = ingest(f)  # 1/20 is at the threshold, not above it
        assert report.reasons["salary_min > salary_max"] == 1

    def test_reject_fraction_threshold_fatal(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        good = [record(i) for i in range(9)]
        write_lines(f, good + [record(9, skills=[])])
        with pytest.raises(DataError, match=r"rejected 1/10 records \(threshold 5%\)"):
            ingest(f)
        write_lines(f, [record(i) for i in range(19)] + [record(19, skills=[])])
        ads, _, _ = ingest(f)
        assert len(ads) == 19

    def test_bad_json_line_rejected(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(i) for i in range(30)] + ["{not json"])
        _, _, report = ingest(f)
        assert report.reasons["bad json"] == 1

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest(tmp_path / "nope.jsonl")

    def test_deterministic(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        write_lines(f, [record(i) for i in range(20)] + [record(99, skills=[""])])
        a1, _, r1 = ingest(f)
        a2, _, r2 = ingest(f)
        assert [a.id for a in a1] == [a.id for a in a2]
        assert r1.to_json() == r2.to_json()


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
        ads, vocab, report = self.ingest_lines(tmp_path, [
            record(0, skills=["Rust", "SQL"], salary_min=9, salary_max=1),
            record(1),
        ])
        assert report.reasons["salary_min > salary_max"] == 1
        assert "rust" not in vocab
        assert vocab.names == ["sql", "python"]

    def test_ids_follow_first_occurrence_in_accepted_ads(self, tmp_path):
        ads, vocab, _ = self.ingest_lines(tmp_path, [
            record(0, skills=["Zig", "C"], date="not a date"),
            record(1, skills=["B", "A"]),
            record(2, skills=["C", "A", "Zig"]),
        ])
        assert vocab.names == ["b", "a", "c", "zig"]
        index = build_index(ads, vocab)
        assert [r.tolist() for r in index.job_skills] == [[0, 1], [1, 2, 3]]

    def test_spellings_share_one_id(self, tmp_path):
        ads, vocab, _ = self.ingest_lines(tmp_path, [
            record(0, skills=[" Python "]),
            record(1, skills=["python", "PYTHON", "Machine  Learning"]),
            record(2, skills=["machine learning"]),
        ])
        assert vocab.names == ["python", "machine learning"]
        index = build_index(ads, vocab)
        assert [r.tolist() for r in index.job_skills] == [[0], [0, 1], [1]]

    def test_jsonl_and_csv_give_the_same_ids(self, tmp_path):
        rows = [("a1", ["SQL", " Excel", "r"]), ("a2", ["R", "Tableau"]),
                ("a3", ["excel ", "Power  BI", "sql"])]
        jsonl = tmp_path / "ads.jsonl"
        write_lines(jsonl, [record(i, id=ad_id, skills=skills)
                            for i, (ad_id, skills) in enumerate(rows)])
        csv_file = tmp_path / "ads.csv"
        csv_file.write_text("id,date,occupation,skills\n" + "".join(
            f"{ad_id},2018-03-01,Analyst,{';'.join(skills)}\n" for ad_id, skills in rows))
        (ads_j, vocab_j, _), (ads_c, vocab_c, _) = ingest(jsonl), ingest(csv_file, fmt="csv")
        assert vocab_j.names == vocab_c.names == ["sql", "excel", "r", "tableau", "power bi"]
        rows_j = [r.tolist() for r in build_index(ads_j, vocab_j).job_skills]
        assert rows_j == [r.tolist() for r in build_index(ads_c, vocab_c).job_skills]


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestRecordValidation:
    @pytest.mark.parametrize("field", ["salary_min", "salary_max", "education_years",
                                       "experience_years"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "-Infinity"])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^non-finite {field}$"):
            _record_to_ad(json.loads(record(0, **{field: value})), {})

    def test_whitespace_occupation_rejected(self):
        with pytest.raises(ValueError, match="^missing occupation$"):
            _record_to_ad(json.loads(record(0, occupation=" \t ")), {})

    @pytest.mark.parametrize("skills", [5, {"sql": 1}, True])
    def test_skills_must_be_list_or_string(self, skills):
        with pytest.raises(ValueError, match="^bad skills$"):
            _record_to_ad(json.loads(record(0, skills=skills)), {})

    @pytest.mark.parametrize("date", ["20160101", "2016-W01-1", "2016-001", "2016-1-4",
                                      " 2016-01-04", "2016-01-04\n", "2016-01-04T00:00",
                                      "\uff12016-01-04", "2016-02-30"])
    def test_only_yyyy_mm_dd_dates_accepted(self, date):
        with pytest.raises(ValueError, match="^bad date$"):
            _record_to_ad(json.loads(record(0, date=date)), {})
        ad = _record_to_ad(json.loads(record(0, date="2016-01-04")), {})
        assert ad.posted_date == dt.date(2016, 1, 4)

    def test_non_object_lines_rejected(self, tmp_path):
        f = tmp_path / "ads.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        write_lines(f, [record(i) for i in range(60)] + ["5", '["ad"]', deep])
        _, _, report = ingest(f)
        assert report.reasons["bad json"] == 3

    def test_written_corpus_is_standard_json(self, tmp_path):
        src = tmp_path / "ads.jsonl"
        write_lines(src, [record(i, salary_min=1.5, education_years=12) for i in range(30)]
                    + [record(99, salary_max=float("inf"))])
        ads, _, report = ingest(src)
        assert report.reasons["non-finite salary_max"] == 1
        out = tmp_path / "out.jsonl"
        write_jsonl(ads, out)
        for line in out.read_text().splitlines():
            json.loads(line, parse_constant=refuse_constant)


def worked_corpus():
    return {"J1": {"A", "B"}, "J2": {"A"}, "J3": {"B", "C"}}


class TestIncidenceIndex:
    def test_worked_marginals(self):
        ads = jobs_to_ads(worked_corpus())
        vocab = SkillVocabulary.from_ads(ads)
        index = build_index(ads, vocab)
        assert index.grand_total == 5
        assert index.skill_job_counts[vocab.index_of("A")] == 2
        assert index.grand_total == int(index.job_skill_counts.sum())

    def test_single_job_single_skill(self):
        ads = jobs_to_ads({"J1": {"A"}})
        index = build_index(ads, SkillVocabulary.from_ads(ads))
        assert index.grand_total == 1

    def test_empty_corpus_fatal(self):
        with pytest.raises(DataError, match="empty corpus"):
            build_index([], SkillVocabulary())

    def test_unknown_skill_fatal(self):
        ads = jobs_to_ads(worked_corpus())
        vocab = SkillVocabulary()
        vocab.add("A")
        with pytest.raises(DataError, match="unknown skill"):
            build_index(ads, vocab)

    def test_grand_total_is_sum_of_skill_counts(self):
        ads = jobs_to_ads({"J1": {"A", "B", "C"}, "J2": {"B"}})
        index = build_index(ads, SkillVocabulary.from_ads(ads))
        assert index.grand_total == sum(len(a.skills) for a in ads)

    def test_duplicating_ads_doubles_marginals(self):
        ads = jobs_to_ads(worked_corpus())
        doubled = ads + [
            JobAd(id=a.id + "-copy", posted_date=a.posted_date,
                  occupation=a.occupation, skills=a.skills)
            for a in ads
        ]
        vocab = SkillVocabulary.from_ads(ads)
        i1 = build_index(ads, vocab)
        i2 = build_index(doubled, vocab)
        assert i2.grand_total == 2 * i1.grand_total
        assert (i2.skill_job_counts == 2 * i1.skill_job_counts).all()


def test_jsonl_writer_roundtrips(tmp_path):
    ads = [
        JobAd(id="x", posted_date=dt.date(2019, 2, 3), occupation="Dev",
              skills=("python",), salary_min=1.0, salary_max=2.0,
              education_years=16, experience_years=3),
    ]
    path = tmp_path / "out.jsonl"
    write_jsonl(ads, path)
    back, _, _ = ingest(path)
    assert back[0] == ads[0]
