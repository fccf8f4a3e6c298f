import random

import pytest

from skillscope.corpus import Corpus, IncidenceIndex, JobAd, build_index
from skillscope.errors import DataError, InvariantError
from skillscope.skillmetrics import compute_effective_use, compute_rca

from oracles import brute_effective, brute_rca, csr_rows, jobs_to_ads, random_jobs


def make_index(jobs):
    corpus = Corpus(jobs_to_ads(jobs))
    return build_index(corpus), corpus


def rca_value(rca, corpus, job_id, skill):
    pos = corpus.ids.index(job_id)
    return rca.value(pos, corpus.skill_ids[skill])


WORKED = {"J1": {"A", "B"}, "J2": {"A"}, "J3": {"B", "C"}}


class TestRca:
    def test_worked_values(self):
        index, corpus = make_index(WORKED)
        rca = compute_rca(index)
        assert rca_value(rca, corpus, "J1", "A") == pytest.approx(1.25, abs=1e-12)
        assert rca_value(rca, corpus, "J2", "A") == pytest.approx(2.5, abs=1e-12)

    def test_single_job_single_skill_is_one(self):
        index, corpus = make_index({"J1": {"A"}})
        rca = compute_rca(index)
        assert rca_value(rca, corpus, "J1", "A") == 1.0

    def test_absent_entry_reads_zero(self):
        index, corpus = make_index(WORKED)
        rca = compute_rca(index)
        assert rca_value(rca, corpus, "J2", "B") == 0.0

    def test_stored_entries_positive(self):
        index, _ = make_index(WORKED)
        rca = compute_rca(index)
        assert all(rca.value(pos, s) > 0 for pos, row in enumerate(csr_rows(index))
                   for s in row)

    def test_duplication_invariance(self):
        ads = jobs_to_ads(WORKED)
        doubled = ads + [
            JobAd(id=a.id + "d", posted_date=a.posted_date,
                  occupation=a.occupation, skills=a.skills)
            for a in ads
        ]
        c1, c2 = Corpus(ads), Corpus(doubled)
        r1, r2 = compute_rca(build_index(c1)), compute_rca(build_index(c2))
        for pos, (job_id, row) in enumerate(zip(c1.ids, csr_rows(r1.index))):
            pos2 = c2.ids.index(job_id)
            for s in row:
                assert r2.value(pos2, s) == pytest.approx(r1.value(pos, s), rel=1e-12)

    def test_job_positions_index_like_a_sequence(self):
        index, corpus = make_index(WORKED)
        rca = compute_rca(index)
        a = corpus.skill_ids["A"]
        assert rca.value(-3, a) == rca.value(0, a) == pytest.approx(1.25, abs=1e-12)
        for pos in (3, -4):
            with pytest.raises(IndexError):
                rca.value(pos, a)

    def test_ad_without_skills_is_an_invariant_error(self):
        ads = jobs_to_ads(WORKED)
        ads.append(JobAd(id="J4", posted_date=ads[0].posted_date, occupation="O", skills=()))
        with pytest.raises(InvariantError, match="at least one skill"):
            compute_rca(build_index(Corpus(ads)))

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(1234)
        for _ in range(100):
            jobs = random_jobs(rng)
            index, corpus = make_index(jobs)
            rca = compute_rca(index)
            expected = brute_rca(jobs)
            for (j, s), want in expected.items():
                assert rca_value(rca, corpus, j, s) == pytest.approx(want, rel=1e-12)


class TestEffectiveUse:
    def test_strictly_above_one_is_effective(self):
        index, corpus = make_index(WORKED)
        eff = compute_effective_use(compute_rca(index))
        pos = corpus.ids.index("J1")
        assert corpus.skill_ids["A"] in csr_rows(eff)[pos]

    def test_exactly_one_is_not_effective(self):
        index, corpus = make_index({"J1": {"A"}})
        eff = compute_effective_use(compute_rca(index))
        assert corpus.skill_ids["A"] not in csr_rows(eff)[0]

    def test_boundary_just_above_one_is_effective(self):
        # N = 5, n_j = 2, c_s = 2: the ratio is 5/4, c_s == (N - 1) // n_j
        index, corpus = make_index({"J1": {"A", "B"}, "J2": {"A"}, "J3": {"C", "D"}})
        assert (len(index.indices), index.skill_job_counts[corpus.skill_ids["A"]]) == (5, 2)
        assert compute_rca(index).value(0, corpus.skill_ids["A"]) == 1.25
        eff = compute_effective_use(compute_rca(index))
        assert corpus.skill_ids["A"] in csr_rows(eff)[0]
        assert corpus.skill_ids["B"] in csr_rows(eff)[0]  # 5/2

    def test_absent_incidence_not_effective(self):
        index, corpus = make_index(WORKED)
        eff = compute_effective_use(compute_rca(index))
        pos = corpus.ids.index("J2")
        assert corpus.skill_ids["C"] not in csr_rows(eff)[pos]

    def test_is_an_incidence_index_like_the_incidence(self):
        index, _ = make_index(WORKED)
        eff = compute_effective_use(compute_rca(index))
        for m in (index, eff):
            assert type(m) is IncidenceIndex
            assert set(vars(m)) == {"skill_ids", "indptr", "indices", "skill_job_counts"}
            assert m.skill_ids is index.skill_ids

    def test_counts_consistent_with_entries(self):
        rng = random.Random(7)
        jobs = random_jobs(rng)
        index, _ = make_index(jobs)
        eff = compute_effective_use(compute_rca(index))
        for s in range(len(index.skill_ids)):
            direct = sum(s in row for row in csr_rows(eff))
            assert direct == eff.skill_job_counts[s]

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(50):
            jobs = random_jobs(rng)
            index, corpus = make_index(jobs)
            eff = compute_effective_use(compute_rca(index))
            expected = brute_effective(jobs)
            for job_id, row in zip(corpus.ids, csr_rows(eff)):
                got = {corpus.skill_names[s] for s in row}
                assert got == expected[job_id]


def test_empty_corpus_fatal():
    with pytest.raises(DataError):
        build_index(Corpus([]))
