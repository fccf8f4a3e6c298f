import dataclasses
import datetime as dt
import json

import pytest

from skillscope.corpus import build_index, ingest, ingest_records
from skillscope.errors import DataError
from skillscope.skillmetrics import compute_effective_use, compute_rca
from skillscope.synthgen import (
    ClusterSpec,
    SynthConfig,
    config_from_dict,
    generate,
    write_scenario,
)

from oracles import theta_value


def basic_config(**overrides):
    kwargs = dict(
        seed=42,
        n_days=30,
        clusters=(
            ClusterSpec(name="pq", skills=("P", "Q"), occupations=("Planted",),
                        base_daily_rate=3.0),
            ClusterSpec(name="bg", skills=("X", "Y", "Z"), occupations=("Back",),
                        base_daily_rate=5.0, cohesion=0.7),
        ),
    )
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_identical_corpora(self):
        a1, t1 = generate(basic_config())
        a2, t2 = generate(basic_config())
        assert a1 == a2
        assert t1.clusters == t2.clusters

    def test_different_seed_differs(self):
        a1, _ = generate(basic_config())
        a2, _ = generate(basic_config(seed=43))
        assert a1 != a2

    def test_deterministic_counts_exact(self):
        config = basic_config(deterministic_counts=True, clusters=(
            ClusterSpec(name="c", skills=("s",), occupations=("o",),
                        base_daily_rate=7.0),
        ))
        ads, _ = generate(config)
        per_day = {}
        for ad in ads:
            per_day[ad["date"]] = per_day.get(ad["date"], 0) + 1
        assert set(per_day.values()) == {7}
        assert len(per_day) == 30


class TestPlantedStructure:
    def test_perfect_cluster_reaches_theta_one(self):
        config = basic_config()
        ads, truth = generate(config)
        corpus, _ = ingest_records(ads)
        eff = compute_effective_use(compute_rca(build_index(corpus)))
        p, q = corpus.skill_ids["p"], corpus.skill_ids["q"]
        assert theta_value(eff, p, q) == 1.0
        assert truth.clusters["pq"] == ["p", "q"]

    def test_cohesion_controls_cooccurrence(self):
        config = basic_config(n_days=60)
        ads, _ = generate(config)
        bg_ads = [a for a in ads if a["occupation"] == "Back"]
        rate = sum("x" in a["skills"] for a in bg_ads) / len(bg_ads)
        assert rate == pytest.approx(0.7, abs=0.08)

    def test_background_ubiquity_observed(self):
        config = basic_config(
            n_days=60,
            background_skills=(("common", 0.5), ("rare", 0.05)),
        )
        ads, truth = generate(config)
        common = sum("common" in a["skills"] for a in ads) / len(ads)
        rare = sum("rare" in a["skills"] for a in ads) / len(ads)
        assert common == pytest.approx(0.5, abs=0.07)
        assert rare == pytest.approx(0.05, abs=0.04)
        assert truth.background_skills == ["common", "rare"]

    def test_growth_raises_posting_rate(self):
        config = basic_config(
            n_days=365 * 2,
            clusters=(ClusterSpec(name="g", skills=("s",), occupations=("o",),
                                  base_daily_rate=20.0, annual_growth=0.5),),
            deterministic_counts=True,
        )
        ads, _ = generate(config)
        year1 = sum(a["date"][:4] == str(config.start_date.year) for a in ads)
        year2 = len(ads) - year1
        assert year2 / year1 == pytest.approx(1.5, rel=0.05)

    def test_planted_fields(self):
        config = basic_config(clusters=(
            ClusterSpec(name="c", skills=("s",), occupations=("o",),
                        base_daily_rate=2.0, salary_level=100_000.0,
                        education_mean=16.0, experience_mean=3.0),
        ))
        ads, _ = generate(config)
        ad = ads[0]
        assert (ad["salary_min"] + ad["salary_max"]) / 2 == pytest.approx(100_000.0)
        assert ad["education_years"] == 16.0
        assert ad["experience_years"] == 3.0

    def test_experience_trend_applies(self):
        config = basic_config(
            n_days=365 * 2, deterministic_counts=True,
            clusters=(ClusterSpec(name="c", skills=("s",), occupations=("o",),
                                  base_daily_rate=1.0, experience_mean=4.0,
                                  experience_trend=-0.5),),
        )
        ads, _ = generate(config)
        first, last = ads[0], ads[-1]
        assert last["experience_years"] < first["experience_years"]
        assert first["experience_years"] - last["experience_years"] == pytest.approx(
            1.0, abs=0.05)


class TestValidation:
    def test_bad_days(self):
        with pytest.raises(DataError, match="n_days"):
            basic_config(n_days=0).validate()

    def test_bad_cohesion_names_field(self):
        config = basic_config(clusters=(
            ClusterSpec(name="c", skills=("s",), occupations=("o",),
                        base_daily_rate=1.0, cohesion=1.5),
        ))
        with pytest.raises(DataError, match="cohesion"):
            config.validate()

    def test_empty_skills_names_cluster(self):
        config = basic_config(clusters=(
            ClusterSpec(name="broken", skills=(), occupations=("o",),
                        base_daily_rate=1.0),
        ))
        with pytest.raises(DataError, match="broken"):
            config.validate()

    def test_bad_background_probability(self):
        with pytest.raises(DataError, match="background"):
            basic_config(background_skills=(("x", 1.7),)).validate()

    def test_config_from_dict_missing_field(self):
        with pytest.raises(DataError, match="clusters"):
            config_from_dict({"seed": 1, "n_days": 10})


def test_write_scenario_roundtrips(tmp_path):
    corpus_path, truth_path = write_scenario(basic_config(), tmp_path)
    corpus, report = ingest(corpus_path)
    assert report.rejected == 0
    direct, _ = generate(basic_config())
    assert list(corpus.rows()) == direct
    truth = json.loads(truth_path.read_text())
    assert truth["seed"] == 42
    assert truth["occupations"]["Planted"] == "pq"


def test_config_from_dict_full():
    raw = {
        "seed": 7,
        "n_days": 14,
        "start_date": "2016-05-01",
        "clusters": [{
            "name": "a", "skills": ["S1"], "occupations": ["O1"],
            "base_daily_rate": 2, "annual_growth": 0.25,
            "growth_changepoints": [[7, -0.1]],
        }],
        "background_skills": [["bg", 0.2]],
        "weekly_amplitude": 0.1,
        "deterministic_counts": True,
    }
    config = config_from_dict(raw)
    assert config.start_date == dt.date(2016, 5, 1)
    assert config.clusters[0].growth_changepoints == ((7, -0.1),)
    ads, _ = generate(config)
    assert ads


def test_config_from_dict_leaves_absent_fields_at_their_defaults():
    raw = {"seed": 42, "n_days": 30, "clusters": [
        {"name": "pq", "skills": ["P", "Q"], "occupations": ["Planted"],
         "base_daily_rate": 3.0},
        {"name": "bg", "skills": ["X", "Y", "Z"], "occupations": ["Back"],
         "base_daily_rate": 5.0, "cohesion": 0.7}]}
    config = config_from_dict(raw)
    assert config == basic_config()
    _, truth = generate(config)
    assert set(truth.params["bg"]) == {
        f.name for f in dataclasses.fields(ClusterSpec)} - {"name", "skills", "occupations"}
    assert truth.params["bg"]["cohesion"] == 0.7
