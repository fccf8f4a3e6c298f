"""Synthetic job-ad corpora with planted ground truth.

Every downstream stage is tested against corpora generated here: planted
skill clusters (for complementarity recovery), designed per-occupation
intensity, and planted growth / salary / education / experience /
seasonality signals (for the shortage indicators and the backtest).

One explicitly seeded generator drives the whole run; the seed fully
determines the output.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import JobAd, normalize_skill, parse_date, write_jsonl
from .errors import DataError

WEEK_PERIOD = 7.0
YEAR_PERIOD = 365.25
DAYS_PER_YEAR = 365.0
# The largest rate numpy's Poisson sampler accepts (int64 max less ten
# standard deviations); a larger deterministic count would never finish.
POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ClusterSpec:
    """One planted group of co-posted skills tied to a set of occupations.

    ``annual_growth`` compounds daily; ``growth_changepoints`` switches the
    annual growth rate at given day offsets (for volatile series).
    ``cohesion`` is the probability that each cluster skill appears in one
    of the cluster's ads.
    """

    name: str
    skills: tuple[str, ...]
    occupations: tuple[str, ...]
    base_daily_rate: float
    annual_growth: float = 0.0
    growth_changepoints: tuple[tuple[int, float], ...] = ()
    cohesion: float = 1.0
    salary_level: Optional[float] = None
    salary_trend: float = 0.0           # relative change per year
    education_mean: Optional[float] = None
    experience_mean: Optional[float] = None
    experience_trend: float = 0.0       # years per year


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_days: int
    clusters: tuple[ClusterSpec, ...]
    background_skills: tuple[tuple[str, float], ...] = ()  # (name, ubiquity prob)
    start_date: dt.date = dt.date(2015, 1, 1)
    weekly_amplitude: float = 0.0
    yearly_amplitude: float = 0.0
    noise_level: float = 0.0
    deterministic_counts: bool = False   # round(rate) instead of Poisson

    def validate(self) -> None:
        if self.seed < 0:
            raise DataError("invalid SynthConfig.seed: must be >= 0")
        if not 1 <= self.n_days <= (dt.date.max - self.start_date).days + 1:
            raise DataError("invalid SynthConfig.n_days: must be >= 1 and end "
                            f"by {dt.date.max}")
        if not self.clusters:
            raise DataError("invalid SynthConfig.clusters: need at least one cluster")
        for c in self.clusters:
            if not c.skills:
                raise DataError(f"invalid ClusterSpec.skills for {c.name!r}: empty")
            if not c.occupations:
                raise DataError(f"invalid ClusterSpec.occupations for {c.name!r}: empty")
            if c.base_daily_rate < 0:
                raise DataError(f"invalid ClusterSpec.base_daily_rate for {c.name!r}")
            if min([c.annual_growth, *(g for _, g in c.growth_changepoints)]) < -1:
                raise DataError(f"invalid ClusterSpec growth for {c.name!r}: "
                                "must be >= -1")
            if not 0 < c.cohesion <= 1:
                raise DataError(f"invalid ClusterSpec.cohesion for {c.name!r}: "
                                "must be in (0, 1]")
        for name, prob in self.background_skills:
            if not 0 <= prob <= 1:
                raise DataError(f"invalid background skill probability for {name!r}")
        if not 0 <= self.weekly_amplitude < 1:
            raise DataError("invalid SynthConfig.weekly_amplitude: must be in [0, 1)")
        if not 0 <= self.yearly_amplitude < 1:
            raise DataError("invalid SynthConfig.yearly_amplitude: must be in [0, 1)")
        if self.noise_level < 0:
            raise DataError("invalid SynthConfig.noise_level: must be >= 0")


@dataclass
class GroundTruth:
    """What was planted: cluster memberships and per-cluster signal params."""

    clusters: dict[str, list[str]]
    occupations: dict[str, str]               # occupation -> cluster name
    params: dict[str, dict]
    background_skills: list[str]
    seasonality: dict[str, float]
    seed: int
    n_days: int
    start_date: str

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _daily_rate(cluster: ClusterSpec, t: int) -> float:
    """Compound the (possibly piecewise) annual growth up to day t."""
    rate = cluster.base_daily_rate
    growth = cluster.annual_growth
    prev_day = 0
    for day, new_growth in sorted(cluster.growth_changepoints):
        if t <= day:
            break
        rate *= (1.0 + growth) ** ((day - prev_day) / DAYS_PER_YEAR)
        growth = new_growth
        prev_day = day
    rate *= (1.0 + growth) ** ((t - prev_day) / DAYS_PER_YEAR)
    return rate


def generate(config: SynthConfig) -> tuple[list[JobAd], GroundTruth]:
    """Generate the corpus and its ground-truth sidecar. Deterministic for
    a fixed seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    ads: list[JobAd] = []
    ad_no = 0
    bg_names = [normalize_skill(n) for n, _ in config.background_skills]
    bg_probs = np.array([p for _, p in config.background_skills], dtype=np.float64)
    cluster_names = [[normalize_skill(s) for s in c.skills] for c in config.clusters]

    for t in range(config.n_days):
        date = config.start_date + dt.timedelta(days=t)
        season = 1.0
        if config.weekly_amplitude:
            season += config.weekly_amplitude * np.sin(2 * np.pi * t / WEEK_PERIOD)
        if config.yearly_amplitude:
            season += config.yearly_amplitude * np.sin(2 * np.pi * t / YEAR_PERIOD)
        season = max(0.0, season)
        for cluster, names in zip(config.clusters, cluster_names):
            rate = _daily_rate(cluster, t) * season
            if not rate <= POISSON_LAM_MAX:
                raise DataError(f"synth cluster {cluster.name!r}: daily rate {rate:g} "
                                f"on day {t} is above the limit {POISSON_LAM_MAX:g}")
            if config.deterministic_counts:
                count = int(round(rate))
            else:
                count = int(rng.poisson(rate))
            for _ in range(count):
                ad_no += 1
                occ = cluster.occupations[int(rng.integers(len(cluster.occupations)))]

                if cluster.cohesion >= 1.0:
                    skills = list(names)
                else:
                    keep = rng.random(len(names)) < cluster.cohesion
                    skills = [n for n, k in zip(names, keep) if k]
                    if not skills:
                        # an ad must demand at least one skill
                        skills.append(names[int(rng.integers(len(names)))])
                if len(bg_names):
                    keep = rng.random(len(bg_names)) < bg_probs
                    skills.extend(n for n, k in zip(bg_names, keep) if k)

                years = t / DAYS_PER_YEAR
                salary_min = salary_max = None
                if cluster.salary_level is not None:
                    mid = cluster.salary_level * (1.0 + cluster.salary_trend * years)
                    if config.noise_level:
                        mid *= 1.0 + config.noise_level * rng.standard_normal()
                    mid = max(1.0, mid)
                    salary_min, salary_max = 0.9 * mid, 1.1 * mid
                education = None
                if cluster.education_mean is not None:
                    education = cluster.education_mean
                    if config.noise_level:
                        education += config.noise_level * rng.standard_normal()
                    education = max(0.0, education)
                experience = None
                if cluster.experience_mean is not None:
                    experience = (cluster.experience_mean
                                  + cluster.experience_trend * years)
                    if config.noise_level:
                        experience += config.noise_level * rng.standard_normal()
                    experience = max(0.0, experience)

                ads.append(JobAd(
                    id=f"ad-{ad_no:08d}",
                    posted_date=date,
                    occupation=occ,
                    skills=tuple(dict.fromkeys(skills)),
                    salary_min=salary_min,
                    salary_max=salary_max,
                    education_years=education,
                    experience_years=experience,
                ))

    truth = GroundTruth(
        clusters={c.name: names for c, names in zip(config.clusters, cluster_names)},
        occupations={occ: c.name for c in config.clusters for occ in c.occupations},
        params={c.name: {k: v for k, v in asdict(c).items()
                         if k not in ("name", "skills", "occupations")}
                for c in config.clusters},
        background_skills=list(bg_names),
        seasonality={
            "weekly_amplitude": config.weekly_amplitude,
            "yearly_amplitude": config.yearly_amplitude,
        },
        seed=config.seed,
        n_days=config.n_days,
        start_date=config.start_date.isoformat(),
    )
    return ads, truth


def write_scenario(config: SynthConfig, out_dir) -> tuple[Path, Path]:
    """Generate and write ``corpus.jsonl`` plus ``ground_truth.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ads, truth = generate(config)
    corpus_path = out_dir / "corpus.jsonl"
    truth_path = out_dir / "ground_truth.json"
    write_jsonl(ads, corpus_path)
    truth.to_json(truth_path)
    return corpus_path, truth_path


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _optional_number(value):
    """A finite number kept as given (an int stays an int), or None."""
    if value is None or (type(value) in (int, float) and math.isfinite(value)):
        return value
    raise ValueError(f"expected a finite number or null, got {value!r}")


def _names(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a list of names, got {value!r}")
    return tuple(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _build(cls, raw, parsers: dict):
    """A ``cls`` from the fields ``raw`` gives, each parsed in field order;
    an absent field takes its default, so each default is stated once, on
    ``cls``. KeyError names the first absent required field."""
    given = {}
    for f in fields(cls):
        try:
            value = raw[f.name]
        except KeyError:
            if f.default is MISSING:
                raise
            continue
        given[f.name] = parsers[f.name](value)
    return cls(**given)


_CLUSTER_PARSERS = {
    "name": str, "skills": _names, "occupations": _names, "base_daily_rate": _finite,
    "annual_growth": _finite,
    "growth_changepoints": lambda v: tuple((int(d), _finite(g)) for d, g in v),
    "cohesion": _finite, "salary_level": _optional_number, "salary_trend": _finite,
    "education_mean": _optional_number, "experience_mean": _optional_number,
    "experience_trend": _finite,
}
_CONFIG_PARSERS = {
    "seed": int, "n_days": int, "clusters": tuple,
    "background_skills": lambda v: tuple((str(n), _finite(p)) for n, p in v),
    "start_date": parse_date, "weekly_amplitude": _finite, "yearly_amplitude": _finite,
    "noise_level": _finite, "deterministic_counts": _boolean,
}


def config_from_dict(raw) -> SynthConfig:
    """Build a SynthConfig from a parsed JSON document (the CLI format)."""
    if not isinstance(raw, dict):
        raise DataError("invalid synth config: expected a JSON object")
    try:
        clusters = [_build(ClusterSpec, c, _CLUSTER_PARSERS) for c in raw["clusters"]]
        config = _build(SynthConfig, {**raw, "clusters": clusters}, _CONFIG_PARSERS)
    except KeyError as exc:
        raise DataError(f"invalid synth config: missing field {exc.args[0]!r}")
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"invalid synth config: {exc}") from None
    config.validate()
    return config
