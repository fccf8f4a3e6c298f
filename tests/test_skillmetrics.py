import random

import numpy as np
import pytest

from skillscope.corpus import IncidenceIndex, build_index, ingest_records
from skillscope.errors import DataError, InvariantError
from skillscope.skillmetrics import compute_effective_use, compute_rca

from oracles import (ad_ids, brute_effective, brute_rca, csr_rows, jobs_to_records,
                     random_jobs, rca_value)


def make_index(jobs):
    corpus, _ = ingest_records(jobs_to_records(jobs))
    return build_index(corpus), corpus


def job_rca(index, corpus, job_id, skill):
    return rca_value(index, ad_ids(corpus).index(job_id), corpus.skill_ids[skill])


WORKED = {"J1": {"A", "B"}, "J2": {"A"}, "J3": {"B", "C"}}


class TestRca:
    def test_worked_values(self):
        index, corpus = make_index(WORKED)
        assert job_rca(index, corpus, "J1", "a") == pytest.approx(1.25, abs=1e-12)
        assert job_rca(index, corpus, "J2", "a") == pytest.approx(2.5, abs=1e-12)

    def test_single_job_single_skill_is_one(self):
        index, corpus = make_index({"J1": {"A"}})
        assert job_rca(index, corpus, "J1", "a") == 1.0

    def test_absent_entry_reads_zero(self):
        index, corpus = make_index(WORKED)
        assert job_rca(index, corpus, "J2", "b") == 0.0

    def test_stored_entries_positive(self):
        index, _ = make_index(WORKED)
        assert all(rca_value(index, pos, s) > 0 for pos, row in enumerate(csr_rows(index))
                   for s in row)

    def test_duplication_invariance(self):
        records = jobs_to_records(WORKED)
        doubled = records + [{**r, "id": r["id"] + "d"} for r in records]
        (c1, _), (c2, _) = ingest_records(records), ingest_records(doubled)
        i1, i2 = build_index(c1), build_index(c2)
        ids2 = ad_ids(c2)
        for pos, (job_id, row) in enumerate(zip(ad_ids(c1), csr_rows(i1))):
            pos2 = ids2.index(job_id)
            for s in row:
                assert rca_value(i2, pos2, s) == pytest.approx(rca_value(i1, pos, s),
                                                               rel=1e-12)

    def test_ad_without_skills_is_an_invariant_error(self):
        index, _ = make_index(WORKED)  # ingest rejects an ad without skills
        indptr = np.append(index.indptr, index.indptr[-1])
        bad = IncidenceIndex(index.skill_ids, indptr, index.indices)
        for stage in (compute_rca, compute_effective_use):
            with pytest.raises(InvariantError, match="at least one skill"):
                stage(bad)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(1234)
        for _ in range(100):
            jobs = random_jobs(rng)
            index, corpus = make_index(jobs)
            expected = brute_rca(jobs)
            for (j, s), want in expected.items():
                assert job_rca(index, corpus, j, s) == pytest.approx(want, rel=1e-12)

    def test_limit_decides_a_ratio_above_one(self):
        rng = random.Random(4321)
        for _ in range(100):
            jobs = random_jobs(rng)
            index, corpus = make_index(jobs)
            limit = compute_rca(index)
            assert limit.dtype == np.int64 and len(limit) == len(corpus.skill_ids)
            ids = ad_ids(corpus)
            for (j, s), ratio in brute_rca(jobs).items():
                pos = ids.index(j)
                n_j = index.indptr[pos + 1] - index.indptr[pos]
                assert (n_j <= limit[corpus.skill_ids[s]]) == (ratio > 1.0)


class TestEffectiveUse:
    def test_strictly_above_one_is_effective(self):
        index, corpus = make_index(WORKED)
        eff = compute_effective_use(index)
        pos = ad_ids(corpus).index("J1")
        assert corpus.skill_ids["a"] in csr_rows(eff)[pos]

    def test_exactly_one_is_not_effective(self):
        index, corpus = make_index({"J1": {"A"}})
        eff = compute_effective_use(index)
        assert corpus.skill_ids["a"] not in csr_rows(eff)[0]

    def test_boundary_just_above_one_is_effective(self):
        # N = 5, n_j = 2, c_s = 2: the ratio is 5/4, c_s == (N - 1) // n_j
        index, corpus = make_index({"J1": {"A", "B"}, "J2": {"A"}, "J3": {"C", "D"}})
        assert (len(index.indices), index.skill_job_counts[corpus.skill_ids["a"]]) == (5, 2)
        assert rca_value(index, 0, corpus.skill_ids["a"]) == 1.25
        eff = compute_effective_use(index)
        assert corpus.skill_ids["a"] in csr_rows(eff)[0]
        assert corpus.skill_ids["b"] in csr_rows(eff)[0]  # 5/2

    def test_absent_incidence_not_effective(self):
        index, corpus = make_index(WORKED)
        eff = compute_effective_use(index)
        pos = ad_ids(corpus).index("J2")
        assert corpus.skill_ids["c"] not in csr_rows(eff)[pos]

    def test_is_an_incidence_index_like_the_incidence(self):
        index, _ = make_index(WORKED)
        eff = compute_effective_use(index)
        for m in (index, eff):
            assert type(m) is IncidenceIndex
            assert set(vars(m)) == {"skill_ids", "indptr", "indices", "skill_job_counts"}
            assert m.skill_ids is index.skill_ids

    def test_no_slot_filtered_gives_the_incidence_itself(self):
        # N = 4, n_j = 2, c_s = 1: every ratio is 2
        jobs = {"J1": {"A", "B"}, "J2": {"C", "D"}}
        index, _ = make_index(jobs)
        assert compute_effective_use(index) is index
        assert brute_effective(jobs) == jobs
        filtered, _ = make_index({"J1": {"A"}})  # a ratio of exactly 1 drops out
        assert compute_effective_use(filtered) is not filtered

    def test_counts_consistent_with_entries(self):
        rng = random.Random(7)
        jobs = random_jobs(rng)
        index, _ = make_index(jobs)
        eff = compute_effective_use(index)
        for s in range(len(index.skill_ids)):
            direct = sum(s in row for row in csr_rows(eff))
            assert direct == eff.skill_job_counts[s]

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(50):
            jobs = random_jobs(rng)
            index, corpus = make_index(jobs)
            eff = compute_effective_use(index)
            expected = brute_effective(jobs)
            for job_id, row in zip(ad_ids(corpus), csr_rows(eff)):
                got = {corpus.skill_names[s] for s in row}
                assert got == expected[job_id]


def test_empty_corpus_fatal():
    with pytest.raises(DataError):
        build_index(ingest_records([])[0])
