import copy
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skillscope import similarity
from skillscope.corpus import IncidenceIndex, build_index, ingest_records, normalize_skill
from skillscope.errors import DataError
from skillscope.similarity import (
    SkillScore,
    SkillSetResult,
    ThetaMatrix,
    compute_theta,
    expand_seeds,
)
from skillscope.skillmetrics import compute_effective_use, compute_rca

from oracles import brute_theta, csr_rows, jobs_to_records, random_jobs


def theta_from_jobs(jobs):
    corpus, _ = ingest_records(jobs_to_records(jobs))
    eff = compute_effective_use(compute_rca(build_index(corpus)))
    return compute_theta(eff), corpus


WORKED = {"J1": {"A", "B"}, "J2": {"A"}, "J3": {"B", "C"}}


class TestTheta:
    def test_worked_value(self):
        theta, corpus = theta_from_jobs(WORKED)
        assert theta.value(corpus.skill_ids["a"], corpus.skill_ids["b"]) == \
            pytest.approx(0.5, abs=1e-12)

    def test_perfect_cooccurrence_is_one(self):
        # P and Q always together, never with others; distinct other ads
        jobs = {"J1": {"P", "Q"}, "J2": {"P", "Q"}, "J3": {"X"}, "J4": {"X", "Y"}}
        theta, corpus = theta_from_jobs(jobs)
        assert theta.value(corpus.skill_ids["p"], corpus.skill_ids["q"]) == 1.0

    def test_never_coeffective_is_zero(self):
        theta, corpus = theta_from_jobs(WORKED)
        assert theta.value(corpus.skill_ids["a"], corpus.skill_ids["c"]) == 0.0

    def test_symmetry_and_range(self):
        rng = random.Random(5)
        for _ in range(30):
            theta, _ = theta_from_jobs(random_jobs(rng))
            for a, b, v in theta.pairs():
                assert 0.0 <= v <= 1.0
                assert theta.value(a, b) == theta.value(b, a)

    def test_theta_one_iff_identical_effective_sets(self):
        rng = random.Random(11)
        for _ in range(30):
            jobs = random_jobs(rng)
            theta, corpus = theta_from_jobs(jobs)
            eff = brute_theta(jobs)  # oracle-side effective sets via names
            for a, b, v in theta.pairs():
                want = eff[tuple(sorted((corpus.skill_names[a], corpus.skill_names[b])))]
                assert v == pytest.approx(want, rel=1e-12)

    def test_duplication_invariance(self):
        records = jobs_to_records(WORKED)
        doubled = records + [{**r, "id": r["id"] + "d"} for r in records]
        t1, _ = theta_from_jobs(WORKED)
        t2 = compute_theta(compute_effective_use(compute_rca(build_index(
            ingest_records(doubled)[0]))))
        for a, b, v in t1.pairs():
            assert t2.value(a, b) == pytest.approx(v, rel=1e-12)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(321)
        for _ in range(100):
            jobs = random_jobs(rng)
            theta, corpus = theta_from_jobs(jobs)
            expected = brute_theta(jobs)
            for (a, b), want in expected.items():
                got = theta.value(corpus.skill_ids[a], corpus.skill_ids[b])
                assert got == pytest.approx(want, abs=1e-12)


def dict_pair_theta(eff):
    """theta by the pair loop that pair-code counting replaced: one dict
    update per co-effective pair, then joint / max of the two counts."""
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
    def effective_use(self, jobs):
        return compute_effective_use(compute_rca(build_index(
            ingest_records(jobs_to_records(jobs))[0])))

    def test_equals_dict_pair_loop_exactly(self):
        rng = random.Random(77)
        seen = {"empty row": False, "one-skill row": False, "no partner": False}
        for trial in range(150):
            size = 1 + trial % 3  # mixes row lengths, hence buckets
            eff = self.effective_use(random_jobs(rng, max_ads=15 * size,
                                                 max_skills=8 * size))
            theta = compute_theta(eff)
            expected = dict_pair_theta(eff)
            assert {(a, b): v for a, b, v in theta.pairs()} == expected
            lengths = [len(r) for r in csr_rows(eff)]
            seen["empty row"] |= 0 in lengths
            seen["one-skill row"] |= 1 in lengths
            partnered = {s for pair in expected for s in pair}
            seen["no partner"] |= any(c > 0 and s not in partnered
                                      for s, c in enumerate(eff.skill_job_counts))
        assert all(seen.values()), seen

    # Slices of one row, buckets split mid-way, many pending parts per merge.
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_equals_dict_pair_loop_exactly_in_small_slices(self, monkeypatch, chunk):
        monkeypatch.setattr(similarity, "THETA_CHUNK", chunk)
        self.test_equals_dict_pair_loop_exactly()

    def test_no_pairs(self):
        eff = self.effective_use({"J1": {"A"}, "J2": {"B"}, "J3": {"C"}})
        theta = compute_theta(eff)
        assert list(theta.pairs()) == [] and dict_pair_theta(eff) == {}
        assert all(theta.neighbours(s) == [] for s in range(3))

    def test_codes_are_int64_above_int32_vocabulary_limit(self):
        # a * V + b passes 2**31 once V > 46,340, so int32 codes would wrap.
        n = 50_000
        rows = [[0, n - 2, n - 1], [n - 1, n - 2], [n - 1, 0]]
        eff = IncidenceIndex({f"s{i}": i for i in range(n)},
                             np.cumsum([0] + [len(r) for r in rows]),
                             np.array(sum(rows, []), dtype=np.int32))
        theta = compute_theta(eff)
        pairs = [(0, n - 2), (0, n - 1), (n - 2, n - 1)]
        assert theta._codes.tolist() == [a * n + b for a, b in pairs]
        assert max(theta._codes.tolist()) > 2**31
        for (a, b), want in zip(pairs, [1 / 2, 2 / 3, 2 / 3]):
            assert theta.value(a, b) == theta.value(b, a) == want

    def test_memory_is_one_slice_plus_distinct_pairs(self):
        # 4,000 rows of 30 of 40 skills: 1.74M pair visits, 780 pairs.
        rng = np.random.default_rng(3)
        rows = np.argsort(rng.random((4000, 40)), axis=1)[:, :30]
        eff = IncidenceIndex({f"s{i}": i for i in range(40)}, np.arange(4001) * 30,
                             rows.ravel().astype(np.int32))
        tracemalloc.start()
        try:
            theta = compute_theta(eff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list(theta.pairs())) == 780
        assert peak < 12 * 8 * similarity.THETA_CHUNK

    def test_neighbours_match_scan_of_pairs(self):
        rng = random.Random(8)
        for _ in range(40):
            eff = self.effective_use(random_jobs(rng, max_ads=40, max_skills=12))
            theta = compute_theta(eff)
            triples = list(theta.pairs())
            for s in range(len(eff.skill_ids)):
                scan = [(b, v) for a, b, v in triples if a == s] + \
                       [(a, v) for a, b, v in triples if b == s]
                assert theta.neighbours(s) == sorted(scan)  # in id order


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
            rca = compute_rca(build_index(c))
            eff = compute_effective_use(rca)
            theta = compute_theta(eff)
            views.append((
                {(i, s): rca.value(i, s) for i in range(len(c))
                 for s in c.slots[c.indptr[i]:c.indptr[i + 1]].tolist()},
                [set(row) for row in csr_rows(eff)],
                list(theta.pairs()),
                [theta.neighbours(s) for s in range(len(c.skill_ids))],
            ))
        assert views[0] == views[1]


def manual_theta(names, pairs, counts=None):
    """Hand-built matrix for expansion tests."""
    skill_ids = {normalize_skill(n): i for i, n in enumerate(names)}
    a = np.array([skill_ids[normalize_skill(x)] for x, _ in pairs], dtype=np.int64)
    b = np.array([skill_ids[normalize_skill(y)] for _, y in pairs], dtype=np.int64)
    codes = np.minimum(a, b) * len(names) + np.maximum(a, b)
    order = np.argsort(codes)
    v = np.array(list(pairs.values()), dtype=np.float64)
    c = np.ones(len(names), dtype=int) if counts is None else np.asarray(counts)
    return ThetaMatrix(skill_ids, c, codes[order], v[order]), skill_ids


class TestExpandSeeds:
    def test_single_seed_single_neighbour(self):
        theta, _ = manual_theta(["S", "B"], {("S", "B"): 0.4})
        result = expand_seeds(theta, ["S"], per_seed_k=10, cutoff=10)
        # names come out normalized whatever the seed's casing
        assert [(e.skill, e.score) for e in result.entries] == [("s", 1.0), ("b", 0.4)]
        assert result.entries[0].is_seed

    def test_mean_over_appearing_lists(self):
        theta, _ = manual_theta(
            ["S1", "S2", "X"],
            {("S1", "X"): 0.2, ("S2", "X"): 0.4, ("S1", "S2"): 0.05},
        )
        result = expand_seeds(theta, ["S1", "S2"], per_seed_k=10, cutoff=10)
        scores = {e.skill: e.score for e in result.entries}
        assert scores["x"] == pytest.approx(0.3)

    def test_avg_over_all_seeds_switch(self):
        theta, _ = manual_theta(
            ["S1", "S2", "X"],
            {("S1", "X"): 0.4, ("S1", "S2"): 0.05},
        )
        by_appearance = expand_seeds(theta, ["S1", "S2"], per_seed_k=10, cutoff=10)
        by_all = expand_seeds(theta, ["S1", "S2"], per_seed_k=10, cutoff=10,
                              avg_over_all_seeds=True)
        assert {e.skill: e.score for e in by_appearance.entries}["x"] == pytest.approx(0.4)
        assert {e.skill: e.score for e in by_all.entries}["x"] == pytest.approx(0.2)

    def test_seed_sentinel_is_max_pairwise_theta(self):
        theta, _ = manual_theta(
            ["S1", "S2", "X"],
            {("S1", "S2"): 0.7, ("S1", "X"): 0.3},
        )
        result = expand_seeds(theta, ["S1", "S2"], per_seed_k=10, cutoff=10)
        assert result.entries[0].score == pytest.approx(0.7)
        assert result.entries[1].score == pytest.approx(0.7)

    def test_unknown_seed_fatal_names_seed(self):
        theta, _ = manual_theta(["A", "B"], {("A", "B"): 0.5})
        with pytest.raises(DataError, match="nosuch"):
            expand_seeds(theta, ["nosuch"])

    def test_seed_without_neighbours_warns(self):
        theta, _ = manual_theta(["A", "B", "C"], {("A", "B"): 0.5})
        with pytest.warns(UserWarning, match="no complementarity"):
            result = expand_seeds(theta, ["A", "C"], per_seed_k=10, cutoff=10)
        assert "b" in [e.skill for e in result.entries]

    def test_cutoff_truncates(self):
        pairs = {("S", f"n{i}"): 0.9 - i * 0.01 for i in range(20)}
        theta, _ = manual_theta(["S"] + [f"n{i}" for i in range(20)], pairs)
        result = expand_seeds(theta, ["S"], per_seed_k=300, cutoff=5)
        assert len(result.entries) == 5

    def test_per_seed_k_limits_each_list(self):
        pairs = {("S", f"n{i}"): 0.9 - i * 0.01 for i in range(20)}
        theta, _ = manual_theta(["S"] + [f"n{i}" for i in range(20)], pairs)
        result = expand_seeds(theta, ["S"], per_seed_k=3, cutoff=50)
        assert [e.skill for e in result.entries] == ["s", "n0", "n1", "n2"]

    def test_deterministic_tie_order(self):
        pairs = {("S", "zeta"): 0.5, ("S", "alpha"): 0.5, ("S", "mid"): 0.5}
        theta, _ = manual_theta(["S", "zeta", "alpha", "mid"], pairs)
        r1 = expand_seeds(theta, ["S"], per_seed_k=10, cutoff=10)
        r2 = expand_seeds(theta, ["S"], per_seed_k=10, cutoff=10)
        tail = [e.skill for e in r1.entries[1:]]
        assert tail == ["alpha", "mid", "zeta"]  # ties break by name
        assert [e.skill for e in r2.entries] == [e.skill for e in r1.entries]

    def test_expanded_tail_scores_non_increasing(self):
        rng = random.Random(2024)
        jobs = random_jobs(rng, max_ads=20, max_skills=10)
        theta, corpus = theta_from_jobs(jobs)
        seed = corpus.skill_names[0]
        result = expand_seeds(theta, [seed], per_seed_k=5, cutoff=20)
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
