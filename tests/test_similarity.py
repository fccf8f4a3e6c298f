import copy
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skillscope import similarity
from skillscope.corpus import IncidenceIndex, build_index, ingest_records, normalize_skill
from skillscope.errors import DataError
from skillscope.similarity import SkillScore, SkillSetResult, compute_theta, expand_seeds
from skillscope.skillmetrics import compute_effective_use

from oracles import (
    brute_theta,
    csr_rows,
    jobs_to_records,
    random_jobs,
    rca_value,
    theta_pairs,
    theta_value,
)


def eff_from_jobs(jobs):
    corpus, _ = ingest_records(jobs_to_records(jobs))
    return compute_effective_use(build_index(corpus)), corpus


WORKED = {"J1": {"A", "B"}, "J2": {"A"}, "J3": {"B", "C"}}


class TestTheta:
    def test_worked_value(self):
        eff, corpus = eff_from_jobs(WORKED)
        assert theta_value(eff, corpus.skill_ids["a"], corpus.skill_ids["b"]) == \
            pytest.approx(0.5, abs=1e-12)

    def test_perfect_cooccurrence_is_one(self):
        # P and Q always together, never with others; distinct other ads
        jobs = {"J1": {"P", "Q"}, "J2": {"P", "Q"}, "J3": {"X"}, "J4": {"X", "Y"}}
        eff, corpus = eff_from_jobs(jobs)
        assert theta_value(eff, corpus.skill_ids["p"], corpus.skill_ids["q"]) == 1.0

    def test_never_coeffective_is_zero(self):
        eff, corpus = eff_from_jobs(WORKED)
        assert theta_value(eff, corpus.skill_ids["a"], corpus.skill_ids["c"]) == 0.0

    def test_symmetry_and_range(self):
        rng = random.Random(5)
        for _ in range(30):
            eff, _ = eff_from_jobs(random_jobs(rng))
            for a, b, v in theta_pairs(eff):
                assert 0.0 <= v <= 1.0
                assert theta_value(eff, a, b) == theta_value(eff, b, a)

    def test_theta_one_iff_identical_effective_sets(self):
        rng = random.Random(11)
        for _ in range(30):
            jobs = random_jobs(rng)
            eff, corpus = eff_from_jobs(jobs)
            brute = brute_theta(jobs)  # oracle-side effective sets via names
            for a, b, v in theta_pairs(eff):
                want = brute[tuple(sorted((corpus.skill_names[a], corpus.skill_names[b])))]
                assert v == pytest.approx(want, rel=1e-12)

    def test_duplication_invariance(self):
        records = jobs_to_records(WORKED)
        doubled = records + [{**r, "id": r["id"] + "d"} for r in records]
        e1, _ = eff_from_jobs(WORKED)
        e2 = compute_effective_use(build_index(ingest_records(doubled)[0]))
        for a, b, v in theta_pairs(e1):
            assert theta_value(e2, a, b) == pytest.approx(v, rel=1e-12)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(321)
        for _ in range(100):
            jobs = random_jobs(rng)
            eff, corpus = eff_from_jobs(jobs)
            expected = brute_theta(jobs)
            for (a, b), want in expected.items():
                got = theta_value(eff, corpus.skill_ids[a], corpus.skill_ids[b])
                assert got == pytest.approx(want, abs=1e-12)

    def test_seed_without_effective_use(self):
        # Every RCA is exactly 1, so no ad holds a skill in effective use.
        eff, corpus = eff_from_jobs({"J1": {"A", "B"}, "J2": {"A", "B"}})
        assert len(eff.indices) == 0 and len(eff.indptr) == 3
        assert compute_theta(eff, corpus.skill_ids["a"]) == []
        with pytest.warns(UserWarning, match="no complementarity"):
            result = expand_seeds(eff, ["a"])
        assert result.entries == [SkillScore("a", 1.0, is_seed=True)]


def dict_pair_theta(eff):
    """theta by a pair loop: one dict update per co-effective pair, then
    joint / max of the two counts."""
    co = {}
    for row in csr_rows(eff):
        for i, a in enumerate(row):
            for b in row[i + 1:]:
                pair = (min(a, b), max(a, b))
                co[pair] = co.get(pair, 0) + 1
    counts = eff.skill_job_counts
    return {(a, b): joint / float(max(counts[a], counts[b]))
            for (a, b), joint in co.items()}


class TestPairCodes:
    """Each skill's theta row against a pair loop over the whole matrix."""

    def effective_use(self, jobs):
        return eff_from_jobs(jobs)[0]

    def test_equals_dict_pair_loop_exactly(self):
        rng = random.Random(77)
        seen = {"empty row": False, "one-skill row": False, "no partner": False}
        for trial in range(150):
            size = 1 + trial % 3  # mixes row lengths
            eff = self.effective_use(random_jobs(rng, max_ads=15 * size,
                                                 max_skills=8 * size))
            expected = dict_pair_theta(eff)
            assert {(a, b): v for a, b, v in theta_pairs(eff)} == expected
            lengths = [len(r) for r in csr_rows(eff)]
            seen["empty row"] |= 0 in lengths
            seen["one-skill row"] |= 1 in lengths
            partnered = {s for pair in expected for s in pair}
            seen["no partner"] |= any(c > 0 and s not in partnered
                                      for s, c in enumerate(eff.skill_job_counts))
        assert all(seen.values()), seen

    def test_no_pairs(self):
        eff = self.effective_use({"J1": {"A"}, "J2": {"B"}, "J3": {"C"}})
        assert theta_pairs(eff) == [] and dict_pair_theta(eff) == {}
        assert all(compute_theta(eff, s) == [] for s in range(3))

    def test_ids_at_the_top_of_a_large_vocabulary(self):
        n = 50_000
        rows = [[0, n - 2, n - 1], [n - 1, n - 2], [n - 1, 0]]
        eff = IncidenceIndex({f"s{i}": i for i in range(n)},
                             np.cumsum([0] + [len(r) for r in rows]),
                             np.array(sum(rows, []), dtype=np.int32))
        pairs = [(0, n - 2), (0, n - 1), (n - 2, n - 1)]
        for (a, b), want in zip(pairs, [1 / 2, 2 / 3, 2 / 3]):
            assert theta_value(eff, a, b) == theta_value(eff, b, a) == want
        assert compute_theta(eff, n - 1) == [(0, 2 / 3), (n - 2, 2 / 3)]

    def test_memory_is_one_slice_plus_distinct_pairs(self):
        # 4,000 rows of 30 of 40 skills: 120,000 slots, 780 pairs. One row
        # is counted over gathered slots, never over its pairs.
        rng = np.random.default_rng(3)
        rows = np.argsort(rng.random((4000, 40)), axis=1)[:, :30]
        eff = IncidenceIndex({f"s{i}": i for i in range(40)}, np.arange(4001) * 30,
                             rows.ravel().astype(np.int32))
        tracemalloc.start()
        try:
            row = compute_theta(eff, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(row) == 39
        assert len(theta_pairs(eff)) == 780
        assert peak < 16 * len(eff.indices)

    def test_neighbours_match_scan_of_pairs(self):
        rng = random.Random(8)
        for _ in range(40):
            eff = self.effective_use(random_jobs(rng, max_ads=40, max_skills=12))
            expected = dict_pair_theta(eff)
            for s in range(len(eff.skill_ids)):
                scan = [(b, v) for (a, b), v in expected.items() if a == s] + \
                       [(a, v) for (a, b), v in expected.items() if b == s]
                assert compute_theta(eff, s) == sorted(scan)  # in id order


def flip_rows(corpus):
    """The corpus with each ad's skill ids in reverse order, ids kept."""
    flipped = copy.copy(corpus)
    flipped.slots = np.concatenate([corpus.slots[lo:hi][::-1] for lo, hi
                                    in zip(corpus.indptr[:-1], corpus.indptr[1:])])
    return flipped


def test_skill_order_within_ads_changes_nothing():
    rng = random.Random(19)
    for _ in range(40):
        corpus, _ = ingest_records(jobs_to_records(random_jobs(rng, max_ads=30,
                                                               max_skills=12)))
        views = []
        for c in (corpus, flip_rows(corpus)):
            index = build_index(c)
            eff = compute_effective_use(index)
            views.append((
                {(i, s): rca_value(index, i, s) for i in range(len(c))
                 for s in c.slots[c.indptr[i]:c.indptr[i + 1]].tolist()},
                [set(row) for row in csr_rows(eff)],
                theta_pairs(eff),
                [compute_theta(eff, s) for s in range(len(c.skill_ids))],
            ))
        assert views[0] == views[1]


@pytest.fixture
def manual_theta(monkeypatch):
    """Hand-built scores for expansion tests: ``compute_theta`` is replaced
    by a lookup of them, over an empty effective-use matrix of ``names``."""
    def build(names, pairs):
        skill_ids = {normalize_skill(n): i for i, n in enumerate(names)}
        rows = {}
        for (x, y), v in pairs.items():
            a, b = skill_ids[normalize_skill(x)], skill_ids[normalize_skill(y)]
            rows.setdefault(a, {})[b] = rows.setdefault(b, {})[a] = v
        monkeypatch.setattr(similarity, "compute_theta",
                            lambda eff, s: sorted(rows.get(s, {}).items()))
        return IncidenceIndex(skill_ids, np.zeros(1, dtype=np.int64),
                              np.zeros(0, dtype=np.int32))
    return build


class TestExpandSeeds:
    def test_single_seed_single_neighbour(self, manual_theta):
        eff = manual_theta(["S", "B"], {("S", "B"): 0.4})
        result = expand_seeds(eff, ["S"], per_seed_k=10, cutoff=10)
        # names come out normalized whatever the seed's casing
        assert [(e.skill, e.score) for e in result.entries] == [("s", 1.0), ("b", 0.4)]
        assert result.entries[0].is_seed

    def test_mean_over_appearing_lists(self, manual_theta):
        eff = manual_theta(
            ["S1", "S2", "X"],
            {("S1", "X"): 0.2, ("S2", "X"): 0.4, ("S1", "S2"): 0.05},
        )
        result = expand_seeds(eff, ["S1", "S2"], per_seed_k=10, cutoff=10)
        scores = {e.skill: e.score for e in result.entries}
        assert scores["x"] == pytest.approx(0.3)

    def test_mean_sums_left_to_right(self, manual_theta):
        eff = manual_theta(
            ["S1", "S2", "S3", "X"],
            {("S1", "X"): 0.1, ("S2", "X"): 0.2, ("S3", "X"): 0.3},
        )
        result = expand_seeds(eff, ["S1", "S2", "S3"], per_seed_k=10, cutoff=10)
        # 0.20000000000000004, where a compensated sum gives 0.19999999999999998
        assert {e.skill: e.score for e in result.entries}["x"] == (0.1 + 0.2 + 0.3) / 3

    def test_avg_over_all_seeds_switch(self, manual_theta):
        eff = manual_theta(
            ["S1", "S2", "X"],
            {("S1", "X"): 0.4, ("S1", "S2"): 0.05},
        )
        by_appearance = expand_seeds(eff, ["S1", "S2"], per_seed_k=10, cutoff=10)
        by_all = expand_seeds(eff, ["S1", "S2"], per_seed_k=10, cutoff=10,
                              avg_over_all_seeds=True)
        assert {e.skill: e.score for e in by_appearance.entries}["x"] == pytest.approx(0.4)
        assert {e.skill: e.score for e in by_all.entries}["x"] == pytest.approx(0.2)

    def test_seed_sentinel_is_max_pairwise_theta(self, manual_theta):
        eff = manual_theta(
            ["S1", "S2", "X"],
            {("S1", "S2"): 0.7, ("S1", "X"): 0.3},
        )
        result = expand_seeds(eff, ["S1", "S2"], per_seed_k=10, cutoff=10)
        assert result.entries[0].score == pytest.approx(0.7)
        assert result.entries[1].score == pytest.approx(0.7)

    def test_unknown_seed_fatal_names_seed(self, manual_theta):
        eff = manual_theta(["A", "B"], {("A", "B"): 0.5})
        with pytest.raises(DataError, match="nosuch"):
            expand_seeds(eff, ["nosuch"])

    def test_seed_without_neighbours_warns(self, manual_theta):
        eff = manual_theta(["A", "B", "C"], {("A", "B"): 0.5})
        with pytest.warns(UserWarning, match="no complementarity"):
            result = expand_seeds(eff, ["A", "C"], per_seed_k=10, cutoff=10)
        assert "b" in [e.skill for e in result.entries]

    def test_cutoff_truncates(self, manual_theta):
        pairs = {("S", f"n{i}"): 0.9 - i * 0.01 for i in range(20)}
        eff = manual_theta(["S"] + [f"n{i}" for i in range(20)], pairs)
        result = expand_seeds(eff, ["S"], per_seed_k=300, cutoff=5)
        assert len(result.entries) == 5

    def test_per_seed_k_limits_each_list(self, manual_theta):
        pairs = {("S", f"n{i}"): 0.9 - i * 0.01 for i in range(20)}
        eff = manual_theta(["S"] + [f"n{i}" for i in range(20)], pairs)
        result = expand_seeds(eff, ["S"], per_seed_k=3, cutoff=50)
        assert [e.skill for e in result.entries] == ["s", "n0", "n1", "n2"]

    def test_deterministic_tie_order(self, manual_theta):
        pairs = {("S", "zeta"): 0.5, ("S", "alpha"): 0.5, ("S", "mid"): 0.5}
        eff = manual_theta(["S", "zeta", "alpha", "mid"], pairs)
        r1 = expand_seeds(eff, ["S"], per_seed_k=10, cutoff=10)
        r2 = expand_seeds(eff, ["S"], per_seed_k=10, cutoff=10)
        tail = [e.skill for e in r1.entries[1:]]
        assert tail == ["alpha", "mid", "zeta"]  # ties break by name
        assert [e.skill for e in r2.entries] == [e.skill for e in r1.entries]

    def test_expanded_tail_scores_non_increasing(self):
        rng = random.Random(2024)
        jobs = random_jobs(rng, max_ads=20, max_skills=10)
        eff, corpus = eff_from_jobs(jobs)
        seed = corpus.skill_names[0]
        result = expand_seeds(eff, [seed], per_seed_k=5, cutoff=20)
        tail = [e.score for e in result.entries if not e.is_seed]
        assert tail == sorted(tail, reverse=True)


class TestSkillSetSerialization:
    def test_csv_roundtrip(self, tmp_path):
        result = SkillSetResult(
            entries=[SkillScore("Machine Learning", 0.375, True),
                     SkillScore("R", 0.12)],
            seeds=["Machine Learning"], per_seed_k=300, cutoff=150,
        )
        path = tmp_path / "skills.csv"
        result.to_csv(path)
        back = SkillSetResult.from_csv(path)
        assert back.skills == ["Machine Learning", "R"]
        assert back.entries[1].score == pytest.approx(0.12)

    def test_shipped_appendix_fixture_parses(self):
        fixture = Path(__file__).parent / "fixtures" / "dsa_skills_top150.csv"
        result = SkillSetResult.from_csv(fixture)
        assert len(result.entries) == 150
        assert result.entries[0].skill == "Machine Learning"
        assert result.entries[0].score == pytest.approx(0.375157109)
        assert result.entries[-1].skill == "Economics"
        scores = [e.score for e in result.entries]
        assert scores == sorted(scores, reverse=True)
