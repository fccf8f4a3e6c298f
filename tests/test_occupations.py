import random

import pytest

from skillscope.corpus import ingest_records
from skillscope.errors import DataError
from skillscope.occupations import (
    UNCATEGORIZED,
    compute_intensity,
    default_category_map_path,
    load_category_map,
    select_occupations,
    write_selection_csv,
)

from oracles import brute_eta, jobs_to_records, random_jobs


def ad(i, occupation, skills, date="2018-01-01"):
    return {"id": f"a{i}", "date": date, "occupation": occupation, "skills": list(skills)}


def corpus_of(records):
    return ingest_records(records)[0]


class TestComputeIntensity:
    def test_worked_two_thirds(self):
        ads = [ad(1, "Dev", ["a", "b"]), ad(2, "Dev", ["a"])]
        profiles = compute_intensity(corpus_of(ads), ["a"])
        assert profiles[0].eta == pytest.approx(2 / 3)
        assert profiles[0].ads == 2
        assert profiles[0].total_slots == 3
        assert profiles[0].target_slots == 2

    def test_full_target_set_gives_one(self):
        ads = [ad(1, "Dev", ["a", "b"]), ad(2, "QA", ["b", "c"])]
        for p in compute_intensity(corpus_of(ads), ["a", "b", "c"]):
            assert p.eta == 1.0

    def test_no_target_skills_gives_zero(self):
        ads = [ad(1, "Dev", ["a", "b"])]
        assert compute_intensity(corpus_of(ads), ["zzz"])[0].eta == 0.0

    def test_sorted_by_eta_then_name(self):
        ads = [
            ad(1, "B-high", ["t", "x"]),
            ad(2, "A-high", ["t", "x"]),
            ad(3, "C-low", ["x", "y"]),
        ]
        profiles = compute_intensity(corpus_of(ads), ["t"])
        assert [p.occupation for p in profiles] == ["A-high", "B-high", "C-low"]

    def test_empty_corpus_fatal(self):
        with pytest.raises(DataError):
            compute_intensity(corpus_of([]), ["a"])

    def test_empty_target_set_fatal(self):
        with pytest.raises(DataError):
            compute_intensity(corpus_of([ad(1, "Dev", ["a"])]), [])

    def test_monotone_in_target_set(self):
        rng = random.Random(77)
        for _ in range(20):
            jobs = random_jobs(rng)
            ads = jobs_to_records(jobs)
            skills = sorted({s for a in ads for s in a["skills"]})
            small = set(rng.sample(skills, max(1, len(skills) // 2)))
            large = small | set(skills[:1])
            eta_small = {p.occupation: p.eta for p in compute_intensity(corpus_of(ads), small)}
            eta_large = {p.occupation: p.eta for p in compute_intensity(corpus_of(ads), large)}
            for occ in eta_small:
                assert eta_large[occ] >= eta_small[occ]

    def test_duplication_invariance(self):
        ads = [ad(1, "Dev", ["a", "b"]), ad(2, "Dev", ["a"]), ad(3, "QA", ["b"])]
        doubled = ads + [{**a, "id": a["id"] + "d"} for a in ads]
        e1 = {p.occupation: p.eta for p in compute_intensity(corpus_of(ads), ["a"])}
        e2 = {p.occupation: p.eta for p in compute_intensity(corpus_of(doubled), ["a"])}
        assert e1 == e2

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(50):
            jobs = random_jobs(rng)
            ads = [{**a, "occupation": f"occ{i % 3}"}
                   for i, a in enumerate(jobs_to_records(jobs))]
            skills = sorted({s for a in ads for s in a["skills"]})
            targets = set(rng.sample(skills, max(1, len(skills) // 2)))
            expected = brute_eta(ads, targets)
            profiles = compute_intensity(corpus_of(ads), targets)
            assert {p.occupation: p.eta for p in profiles} == expected


class TestSelection:
    def profiles(self):
        ads = (
            [ad(i, "High", ["t", "x", "y", "z", "w"]) for i in range(20)]
            + [ad(100 + i, "Edge", ["t", "x", "y", "z", "w", "q", "r"][:7]) for i in range(20)]
            + [ad(200 + i, "Low", ["x", "y", "z", "w", "q", "r", "s", "u", "v", "p"]) for i in range(20)]
        )
        return ads

    def test_strict_threshold_boundary(self):
        # etas 0.20, 0.15, 0.10 against threshold 0.15: only 0.20 survives
        ads = (
            [ad(i, "A20", ["t", "b", "c", "d", "e"]) for i in range(4)]       # 1/5
            + [ad(10 + i, "B15", ["t"] + [f"k{j}" for j in range(19)]) for i in range(3)]
        )
        profiles = compute_intensity(corpus_of(ads), ["t"])
        etas = {p.occupation: p.eta for p in profiles}
        assert etas["A20"] == pytest.approx(0.20)
        assert etas["B15"] == pytest.approx(0.05)
        selected = select_occupations(profiles, threshold=0.15)
        assert [p.occupation for p in selected.profiles] == ["A20"]

    def test_exactly_at_threshold_excluded(self):
        ads = [ad(1, "AtCut", ["t", "a", "b", "c"] + [f"k{j}" for j in range(16)])]
        profiles = compute_intensity(corpus_of(ads), ["t", "a", "b"])  # 3/20 = 0.15
        assert profiles[0].eta == pytest.approx(0.15)
        assert select_occupations(profiles, threshold=0.15).profiles == []

    def test_category_attachment_and_uncategorized(self, tmp_path):
        mapping = tmp_path / "map.csv"
        mapping.write_text("occupation,category\nHigh,Analysts\n")
        ads = [ad(1, "High", ["t", "x"]), ad(2, "Other", ["t", "y"])]
        profiles = compute_intensity(corpus_of(ads), ["t"])
        selected = select_occupations(
            profiles, threshold=0.3, category_map=load_category_map(mapping))
        cats = {p.occupation: p.category for p in selected.profiles}
        assert cats == {"High": "Analysts", "Other": UNCATEGORIZED}

    def test_malformed_map_reports_line(self, tmp_path):
        mapping = tmp_path / "map.csv"
        mapping.write_text("occupation,category\nGood,Cat\nbad-line-only-one-column\n")
        with pytest.raises(DataError, match="line 3"):
            load_category_map(mapping)

    def test_occupation_under_two_categories_reports_line(self, tmp_path):
        mapping = tmp_path / "map.csv"
        mapping.write_text("occupation,category\nDev,IT\nNurse,Health\n Dev ,Data\n")
        with pytest.raises(DataError, match=r"map\.csv at line 4: occupation 'Dev' is "
                                            r"under both 'IT' and 'Data'$"):
            load_category_map(mapping)

    def test_repeated_pair_accepted(self, tmp_path):
        mapping = tmp_path / "map.csv"
        mapping.write_text("Dev,IT\nNurse,Health\nDev, IT\n")
        assert load_category_map(mapping) == {"Dev": "IT", "Nurse": "Health"}

    def test_low_support_flagged_not_dropped(self):
        ads = [ad(1, "Tiny", ["t", "x"])] + [
            ad(10 + i, "Big", ["t", "x"]) for i in range(15)
        ]
        profiles = compute_intensity(corpus_of(ads), ["t"])
        selected = select_occupations(profiles, threshold=0.2)  # floor of 10 ads
        flags = {p.occupation: p.low_support for p in selected.profiles}
        assert flags == {"Tiny": True, "Big": False}

    def test_invalid_threshold(self):
        with pytest.raises(DataError):
            select_occupations([], threshold=0.0)

    def test_summary_and_csv(self, tmp_path):
        ads = [ad(1, "High", ["t", "x"]), ad(2, "High", ["t"]), ad(3, "Mid", ["t", "x", "y"])]
        selected = select_occupations(compute_intensity(corpus_of(ads), ["t"]),
                                      threshold=0.25)
        assert len(selected.profiles) == 2
        assert selected.total_ads == 3
        out = tmp_path / "occ.csv"
        write_selection_csv(selected, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "category,occupation,ads,eta,low_support"
        assert lines[-1].startswith("TOTALS,2 occupations,3")


def test_default_category_map_ships_23_occupations():
    mapping = load_category_map(default_category_map_path())
    assert len(mapping) == 23
    assert mapping["Data Scientist"] == "Data Scientists and Advanced Analysts"
    assert len(set(mapping.values())) == 4
