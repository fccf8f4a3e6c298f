import dataclasses
import datetime as dt
import json
from pathlib import Path

import pytest

from skillscope.corpus import build_index, ingest, ingest_records
from skillscope.errors import DataError
from skillscope.skillmetrics import compute_effective_use
from skillscope.synthgen import (
    ClusterSpec,
    GroundTruth,
    SynthConfig,
    config_from_dict,
    generate,
    ground_truth,
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
        assert list(generate(basic_config())) == list(generate(basic_config()))
        assert ground_truth(basic_config()) == ground_truth(basic_config())

    def test_different_seed_differs(self):
        assert list(generate(basic_config())) != list(generate(basic_config(seed=43)))

    def test_deterministic_counts_exact(self):
        config = basic_config(deterministic_counts=True, clusters=(
            ClusterSpec(name="c", skills=("s",), occupations=("o",),
                        base_daily_rate=7.0),
        ))
        per_day = {}
        for ad in generate(config):
            per_day[ad["date"]] = per_day.get(ad["date"], 0) + 1
        assert set(per_day.values()) == {7}
        assert len(per_day) == 30


class TestPlantedStructure:
    def test_perfect_cluster_reaches_theta_one(self):
        config = basic_config()
        corpus, _ = ingest_records(generate(config))
        eff = compute_effective_use(build_index(corpus))
        p, q = corpus.skill_ids["p"], corpus.skill_ids["q"]
        assert theta_value(eff, p, q) == 1.0
        assert ground_truth(config).clusters["pq"] == ["p", "q"]

    def test_cohesion_controls_cooccurrence(self):
        bg_ads = [a for a in generate(basic_config(n_days=60)) if a["occupation"] == "Back"]
        rate = sum("x" in a["skills"] for a in bg_ads) / len(bg_ads)
        assert rate == pytest.approx(0.7, abs=0.08)

    def test_background_ubiquity_observed(self):
        config = basic_config(
            n_days=60,
            background_skills=(("common", 0.5), ("rare", 0.05)),
        )
        ads = list(generate(config))
        common = sum("common" in a["skills"] for a in ads) / len(ads)
        rare = sum("rare" in a["skills"] for a in ads) / len(ads)
        assert common == pytest.approx(0.5, abs=0.07)
        assert rare == pytest.approx(0.05, abs=0.04)
        assert ground_truth(config).background_skills == ["common", "rare"]

    def test_growth_raises_posting_rate(self):
        config = basic_config(
            n_days=365 * 2,
            clusters=(ClusterSpec(name="g", skills=("s",), occupations=("o",),
                                  base_daily_rate=20.0, annual_growth=0.5),),
            deterministic_counts=True,
        )
        ads = list(generate(config))
        year1 = sum(a["date"][:4] == str(config.start_date.year) for a in ads)
        year2 = len(ads) - year1
        assert year2 / year1 == pytest.approx(1.5, rel=0.05)

    def test_planted_fields(self):
        config = basic_config(clusters=(
            ClusterSpec(name="c", skills=("s",), occupations=("o",),
                        base_daily_rate=2.0, salary_level=100_000.0,
                        education_mean=16.0, experience_mean=3.0),
        ))
        ad = next(generate(config))
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
        first, *_, last = generate(config)
        assert last["experience_years"] < first["experience_years"]
        assert first["experience_years"] - last["experience_years"] == pytest.approx(
            1.0, abs=0.05)


def limit_crossed_config():
    """A config whose second cluster crosses the Poisson limit on day 0,
    after the first cluster's ads of that day are drawn."""
    return basic_config(clusters=(
        basic_config().clusters[0],
        ClusterSpec(name="huge", skills=("s",), occupations=("o",), base_daily_rate=1e300),
    ))


class TestStreaming:
    def test_config_is_validated_at_the_call(self):
        with pytest.raises(DataError, match="n_days"):
            generate(basic_config(n_days=0))

    def test_records_are_drawn_as_they_are_taken(self):
        records = generate(limit_crossed_config())
        assert next(records)["occupation"] == "Planted"
        with pytest.raises(DataError, match="'huge': daily rate 1e\\+300 on day 0"):
            list(records)

    def test_failed_write_leaves_the_earlier_scenario(self, tmp_path):
        corpus_path, truth_path = write_scenario(basic_config(), tmp_path)
        before = corpus_path.read_bytes(), truth_path.read_bytes()
        with pytest.raises(DataError, match="huge"):
            write_scenario(limit_crossed_config(), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl",
                                                              "ground_truth.json"]
        assert (corpus_path.read_bytes(), truth_path.read_bytes()) == before

    def test_failed_truth_write_leaves_the_earlier_scenario(self, tmp_path, monkeypatch):
        corpus_path, truth_path = write_scenario(basic_config(), tmp_path)
        before = corpus_path.read_bytes(), truth_path.read_bytes()

        def full_disk(self, path):
            Path(path).write_text("{")
            raise OSError("No space left on device")

        monkeypatch.setattr(GroundTruth, "to_json", full_disk)
        with pytest.raises(OSError, match="No space"):
            write_scenario(basic_config(seed=7), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl",
                                                              "ground_truth.json"]
        assert (corpus_path.read_bytes(), truth_path.read_bytes()) == before


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
    assert list(corpus.rows()) == list(generate(basic_config()))
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
    assert next(generate(config), None) is not None


def test_config_from_dict_leaves_absent_fields_at_their_defaults():
    raw = {"seed": 42, "n_days": 30, "clusters": [
        {"name": "pq", "skills": ["P", "Q"], "occupations": ["Planted"],
         "base_daily_rate": 3.0},
        {"name": "bg", "skills": ["X", "Y", "Z"], "occupations": ["Back"],
         "base_daily_rate": 5.0, "cohesion": 0.7}]}
    config = config_from_dict(raw)
    assert config == basic_config()
    truth = ground_truth(config)
    assert set(truth.params["bg"]) == {
        f.name for f in dataclasses.fields(ClusterSpec)} - {"name", "skills", "occupations"}
    assert truth.params["bg"]["cohesion"] == 0.7
