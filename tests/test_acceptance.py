"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margin. Run with ``pytest -s`` to see them.
"""

import datetime as dt
import json
import random
import time

import numpy as np
import pytest

from skillscope.cli import _group_ads, main
from skillscope.corpus import build_index, ingest_records
from skillscope.indicators import assemble_report, daily_series
from skillscope.occupations import compute_intensity, select_occupations
from skillscope.similarity import expand_seeds
from skillscope.skillmetrics import compute_effective_use
from skillscope.synthgen import ClusterSpec, SynthConfig, generate, ground_truth
from skillscope.timeseries import (
    DailySeries,
    FitConfig,
    fit,
    forecast,
    sliding_window_backtest,
    smape,
)

from oracles import (
    ad_ids,
    brute_eta,
    brute_rca,
    brute_theta,
    csr_rows,
    jobs_to_records,
    model_values,
    random_jobs,
    rca_value,
    theta_pairs,
    theta_value,
)

START = dt.date(2012, 1, 1)


def pipeline(records):
    corpus, _ = ingest_records(records)
    index = build_index(corpus)
    eff = compute_effective_use(index)
    return corpus, index, eff


def test_criterion_1_formula_oracles():
    """rca / theta / eta match brute-force formula evaluation to 1e-12."""
    rng = random.Random(20240501)
    t0 = time.time()
    checked = 0
    for trial in range(100):
        jobs = random_jobs(rng, max_ads=20, max_skills=10)
        ads = [{**a, "occupation": f"occ{i % 3}"}
               for i, a in enumerate(jobs_to_records(jobs))]
        corpus, index, eff = pipeline(ads)

        ids = ad_ids(corpus)
        for (j, s), want in brute_rca(jobs).items():
            pos = ids.index(j)
            got = rca_value(index, pos, corpus.skill_ids[s])
            assert got == pytest.approx(want, rel=1e-12)
            checked += 1
        for (a, b), want in brute_theta(jobs).items():
            got = theta_value(eff, corpus.skill_ids[a], corpus.skill_ids[b])
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1
        skills = sorted({s for skills in jobs.values() for s in skills})
        targets = set(rng.sample(skills, max(1, len(skills) // 2)))
        etas = {p.occupation: p.eta for p in compute_intensity(corpus, targets)}
        for occ, want in brute_eta(ads, targets).items():
            assert etas[occ] == pytest.approx(want, rel=1e-12)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: {checked} oracle comparisons over 100 corpora "
          f"in {elapsed:.2f}s")


def test_criterion_2_invariance_suite():
    """Duplication invariance, theta symmetry/range, SMAPE properties."""
    rng = random.Random(77)
    for _ in range(25):
        jobs = random_jobs(rng)
        ads = jobs_to_records(jobs)
        doubled = ads + [{**a, "id": a["id"] + "-dup"} for a in ads]
        corpus, index, eff = pipeline(ads)
        corpus2, index2, eff2 = pipeline(doubled)
        ids2 = ad_ids(corpus2)
        for pos, (j, row) in enumerate(zip(ad_ids(corpus), csr_rows(index))):
            for s in row:
                assert rca_value(index2, ids2.index(j), s) == pytest.approx(
                    rca_value(index, pos, s), rel=1e-12)
        for a, b, v in theta_pairs(eff):
            assert 0.0 <= v <= 1.0
            assert theta_value(eff, b, a) == v
            assert theta_value(eff2, a, b) == pytest.approx(v, abs=1e-12)
        skills = sorted({s for sk in jobs.values() for s in sk})
        targets = set(skills[: max(1, len(skills) // 2)])
        e1 = {p.occupation: p.eta for p in compute_intensity(corpus, targets)}
        e2 = {p.occupation: p.eta for p in compute_intensity(corpus2, targets)}
        for occ in e1:
            assert e2[occ] == pytest.approx(e1[occ], rel=1e-12)

    # SMAPE: worked values, zero rule, symmetry, scale invariance, range
    assert smape([10], [30]) == pytest.approx(100.0)
    assert smape([10, 0], [30, 0]) == pytest.approx(50.0)
    assert smape([0, 0], [0, 0]) == 0.0
    rng2 = np.random.default_rng(9)
    for _ in range(50):
        a, f = rng2.random(40) * 20, rng2.random(40) * 20
        v = smape(a, f)
        assert 0.0 <= v <= 200.0
        assert smape(f, a) == pytest.approx(v)
        assert smape(5.0 * a, 5.0 * f) == pytest.approx(v)
    print("\nPASS criterion 2: invariance suite (duplication, symmetry, SMAPE)")


def cluster_scenario(seed):
    cluster_skills = tuple(f"core{i}" for i in range(8))
    return SynthConfig(
        seed=seed,
        n_days=90,
        clusters=(
            ClusterSpec(name="planted", skills=cluster_skills,
                        occupations=("Specialist",), base_daily_rate=4.0,
                        cohesion=0.92),
            ClusterSpec(name="office", skills=tuple(f"office{i}" for i in range(6)),
                        occupations=("Generalist",), base_daily_rate=8.0,
                        cohesion=0.8),
        ),
        background_skills=tuple((f"bg{i}", 0.08) for i in range(50)),
    )


def test_criterion_3_cluster_recovery():
    """All 7 co-members outrank every background skill, from any member."""
    t0 = time.time()
    for seed in range(10):
        config = cluster_scenario(seed)
        _, _, eff = pipeline(generate(config))
        truth = ground_truth(config)
        members = truth.clusters["planted"]
        background = set(truth.background_skills)
        for seed_skill in members:
            result = expand_seeds(eff, [seed_skill], per_seed_k=300, cutoff=100)
            ranking = [e.skill for e in result.entries]
            others = [m for m in members if m != seed_skill]
            worst_member = max(ranking.index(m) for m in others)
            bg_positions = [ranking.index(s) for s in background if s in ranking]
            assert bg_positions, "background skills should appear in the ranking"
            assert worst_member < min(bg_positions), (
                f"seed {seed}, member {seed_skill}: cluster not separated")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: 8-skill cluster recovered from every member, "
          f"10/10 seeds in {elapsed:.2f}s")


def intensity_scenario(seed):
    target_skills = tuple(f"t{i}" for i in range(8))
    office = lambda k: tuple(f"o{k}_{i}" for i in range(8))
    return SynthConfig(
        seed=seed,
        n_days=90,
        clusters=(
            ClusterSpec(name="planted", skills=target_skills,
                        occupations=("Planted",), base_daily_rate=4.0),
            ClusterSpec(name="b1", skills=office(1), occupations=("Back1",),
                        base_daily_rate=6.0),
            ClusterSpec(name="b2", skills=office(2), occupations=("Back2",),
                        base_daily_rate=6.0),
            ClusterSpec(name="b3", skills=office(3), occupations=("Back3",),
                        base_daily_rate=6.0),
        ),
        background_skills=tuple((f"bg{i}", 0.16) for i in range(50)),
    )


def test_criterion_4_occupation_selection():
    """Designed intensity 0.50 +/- 0.02 vs backgrounds <= 0.05 at cutoff 0.15."""
    for seed in range(20):
        config = intensity_scenario(seed)
        targets = ground_truth(config).clusters["planted"]
        profiles = compute_intensity(ingest_records(generate(config))[0], targets)
        etas = {p.occupation: p.eta for p in profiles}
        assert etas["Planted"] == pytest.approx(0.50, abs=0.02)
        for occ in ("Back1", "Back2", "Back3"):
            assert etas[occ] <= 0.05
        selected = select_occupations(profiles, threshold=0.15)
        assert [p.occupation for p in selected.profiles] == ["Planted"]
    print("\nPASS criterion 4: planted occupation uniquely selected, 20/20 seeds")


def test_criterion_5_trend_seasonality_recovery():
    """Planted slope and weekly amplitude within 1%; pure linear to 1e-6."""
    t = np.arange(1095, dtype=float)
    y = 10 + 0.05 * t + 3 * np.sin(2 * np.pi * t / 7)
    model = fit(DailySeries(START, y.reshape(-1, 1), ("planted",)))
    g = model_values(model, np.array([0.0, 1.0]), trend_only=True)
    slope = g[1] - g[0]
    [amp] = model.weekly_amplitude()
    assert slope == pytest.approx(0.05, rel=0.01)
    assert amp == pytest.approx(3.0, rel=0.01)

    linear = fit(DailySeries(START, (2.0 + 0.5 * t).reshape(-1, 1), ("linear",)))
    gl = model_values(linear, np.array([0.0, 1.0]), trend_only=True)
    assert gl[1] - gl[0] == pytest.approx(0.5, abs=1e-6)
    print(f"\nPASS criterion 5: slope {slope:.6f} (true 0.05), weekly amplitude "
          f"{amp:.4f} (true 3.0), linear slope error "
          f"{abs(gl[1] - gl[0] - 0.5):.2e}")


def test_criterion_6_backtest_protocol():
    """365 scores in range; constant series all-zero; volatile > stable."""
    t0 = time.time()
    n = 1915
    t = np.arange(n, dtype=float)

    constant = DailySeries(START, np.full((n, 1), 50.0), ("stable",))
    report_const = sliding_window_backtest(constant)
    assert report_const.scores.shape == (1, 365)
    assert all(0.0 <= s <= 200.0 for s in report_const.scores[0])
    assert report_const.scores.max() < 1e-9  # all-zero up to float residue

    wave = 50.0 + 35.0 * np.sign(np.sin(2 * np.pi * t / 450.0))
    volatile = DailySeries(START, np.maximum(wave, 0.0).reshape(-1, 1), ("volatile",))
    report_vol = sliding_window_backtest(volatile)
    assert report_vol.scores.shape == (1, 365)
    assert all(0.0 <= s <= 200.0 for s in report_vol.scores[0])
    [median_const], [median_vol] = report_const.medians(), report_vol.medians()
    assert median_vol > median_const

    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nPASS criterion 6: 365 scores per run, constant max "
          f"{report_const.scores.max():.2e}, volatile median "
          f"{median_vol:.2f} > stable median {median_const:.2e}, "
          f"in {elapsed:.1f}s")


def shortage_scenario(seed):
    filler = lambda k: tuple(f"f{k}_{i}" for i in range(3))
    back = lambda k, occ: ClusterSpec(
        name=f"back{k}", skills=filler(k), occupations=(occ,),
        base_daily_rate=10.0, salary_level=80_000.0,
        education_mean=12.0, experience_mean=3.0,
    )
    return SynthConfig(
        seed=seed,
        n_days=1095,
        start_date=dt.date(2015, 1, 1),
        clusters=(
            ClusterSpec(
                name="hot", skills=("ml", "dl", "stats", "py"),
                occupations=("Quant",), base_daily_rate=5.0,
                annual_growth=0.6,
                growth_changepoints=((365, -0.1), (730, 0.9)),
                salary_level=150_000.0, salary_trend=0.04,
                education_mean=18.0,
                experience_mean=1.5, experience_trend=-0.15,
            ),
            back(1, "Admin"), back(2, "Sales"),
            back(3, "Support"), back(4, "Ops"),
        ),
        background_skills=(("email", 0.3), ("teamwork", 0.3)),
    )


def run_shortage_report(seed):
    corpus, _ = ingest_records(generate(shortage_scenario(seed)))
    labels, codes = _group_ads(corpus, None)

    backtest = sliding_window_backtest(daily_series(corpus, labels, codes), train_days=180,
                                       test_days=60, iterations=30,
                                       config=FitConfig(n_changepoints=10))
    return assemble_report(corpus, labels, codes, backtest.medians())


def test_criterion_7_end_to_end_shortage_detection():
    """Planted occupation flagged 5/5; every other occupation <= 2/5."""
    t0 = time.time()
    for seed in range(10):
        report = run_shortage_report(seed)
        assert report.flag_count("Quant") == 5, (
            f"seed {seed}: Quant flags {report.flags['Quant']}")
        for label in report.flags:
            if label != "Quant":
                assert report.flag_count(label) <= 2, (
                    f"seed {seed}: {label} flags {report.flags[label]}")
    print(f"\nPASS criterion 7: planted occupation 5/5, others <= 2/5, "
          f"10/10 seeds in {time.time() - t0:.1f}s")


def test_criterion_8_report_determinism(tmp_path):
    """Two full report runs are byte-identical outside provenance timestamps."""
    scenario = {
        "seed": 5,
        "n_days": 140,
        "start_date": "2017-01-01",
        "clusters": [
            {"name": "target", "skills": ["ml", "stats", "python"],
             "occupations": ["Modeler"], "base_daily_rate": 4,
             "salary_level": 120000, "education_mean": 16,
             "experience_mean": 2},
            {"name": "other", "skills": ["filing", "phones"],
             "occupations": ["Clerk"], "base_daily_rate": 6,
             "salary_level": 60000, "education_mean": 12,
             "experience_mean": 4},
        ],
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "synth")]) == 0
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("ml\n")

    def run(name):
        out = tmp_path / name
        rc = main(["report", "--input", str(tmp_path / "synth" / "corpus.jsonl"),
                   "--seeds", str(seeds), "--per-seed-k", "10", "--cutoff", "5",
                   "--train-days", "60", "--test-days", "14", "--iterations", "5",
                   "--changepoints", "5", "--out", str(out)])
        assert rc == 0
        return out

    out1, out2 = run("run1"), run("run2")
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        b1, b2 = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        if name == "provenance.json":
            p1, p2 = json.loads(b1), json.loads(b2)
            p1.pop("created_at"), p2.pop("created_at")
            assert p1 == p2
        else:
            assert b1 == b2, f"{name} differs between runs"
    print(f"\nPASS criterion 8: {len(names)} output files byte-identical "
          "across reruns (provenance timestamp excluded)")
