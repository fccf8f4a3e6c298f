"""Synthetic job-ad corpora with planted ground truth.

Every downstream stage is tested against corpora generated here: planted
skill clusters (for complementarity recovery), designed per-occupation
intensity, and planted growth / salary / education / experience /
seasonality signals (for the shortage indicators and the backtest).

One explicitly seeded generator drives the whole run; the seed fully
determines the output. :func:`generate` yields the records one at a time,
drawn as they are taken, and :func:`ground_truth` reads only the config, so
:func:`write_scenario` writes each record as it is drawn and its memory does
not grow with the corpus. The draws follow NumPy's ``Generator`` streams,
which may change between NumPy releases (NEP 19); the golden cases of
``tests/test_golden.py`` pin them.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import compress
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .corpus import normalize_skill, parse_date, write_json, write_jsonl
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
            if any(day < 0 for day, _ in c.growth_changepoints):
                raise DataError(f"invalid ClusterSpec.growth_changepoints for {c.name!r}: "
                                "days must be >= 0")
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
        write_json(path, asdict(self))


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


def generate(config: SynthConfig) -> Iterator[dict]:
    """The corpus as input records, drawn one at a time as they are taken.

    The config is validated at the call; a daily rate above the Poisson
    limit raises DataError when its day is reached. Deterministic for a
    fixed seed."""
    config.validate()
    return _records(config)


def _records(config: SynthConfig) -> Iterator[dict]:
    """Per ad, in this order: the occupation, the cluster skills kept (one
    drawn skill when none is), the background skills kept, then one noise
    normal per planted field. Whatever depends only on the day and the
    cluster is computed once per day and cluster."""
    rng = np.random.default_rng(config.seed)
    noise = config.noise_level
    bg_names = [normalize_skill(n) for n, _ in config.background_skills]
    bg_probs = np.array([p for _, p in config.background_skills], dtype=np.float64)
    clusters = []
    for c in config.clusters:
        planted = (c.salary_level, c.education_mean, c.experience_mean)
        clusters.append((c, [normalize_skill(s) for s in c.skills],
                         sum(v is not None for v in planted) if noise else 0))

    ad_no = 0
    for t in range(config.n_days):
        date = (config.start_date + dt.timedelta(days=t)).isoformat()
        season = 1.0
        if config.weekly_amplitude:
            season += config.weekly_amplitude * np.sin(2 * np.pi * t / WEEK_PERIOD)
        if config.yearly_amplitude:
            season += config.yearly_amplitude * np.sin(2 * np.pi * t / YEAR_PERIOD)
        season = max(0.0, float(season))
        years = t / DAYS_PER_YEAR
        for cluster, names, n_noise in clusters:
            rate = _daily_rate(cluster, t) * season
            if not rate <= POISSON_LAM_MAX:
                raise DataError(f"synth cluster {cluster.name!r}: daily rate {rate:g} "
                                f"on day {t} is above the limit {POISSON_LAM_MAX:g}")
            if config.deterministic_counts:
                count = int(round(rate))
            else:
                count = int(rng.poisson(rate))
            salary = education = experience = None
            if cluster.salary_level is not None:
                salary = cluster.salary_level * (1.0 + cluster.salary_trend * years)
            if cluster.education_mean is not None:
                education = cluster.education_mean
            if cluster.experience_mean is not None:
                experience = cluster.experience_mean + cluster.experience_trend * years
            occupations, cohesion = cluster.occupations, cluster.cohesion
            for _ in range(count):
                ad_no += 1
                occ = occupations[int(rng.integers(len(occupations)))]
                if cohesion >= 1.0:
                    skills = list(names)
                else:
                    skills = list(compress(names, (rng.random(len(names)) < cohesion)
                                           .tolist()))
                    if not skills:
                        # an ad must demand at least one skill
                        skills.append(names[int(rng.integers(len(names)))])
                if bg_names:
                    skills.extend(compress(bg_names, (rng.random(len(bg_names)) < bg_probs)
                                           .tolist()))
                rec = {"id": f"ad-{ad_no:08d}", "date": date, "occupation": occ,
                       "skills": list(dict.fromkeys(skills))}
                mid, edu, exp = salary, education, experience
                if n_noise:
                    z = iter(rng.standard_normal(n_noise).tolist())
                    if mid is not None:
                        mid *= 1.0 + noise * next(z)
                    if edu is not None:
                        edu += noise * next(z)
                    if exp is not None:
                        exp += noise * next(z)
                if mid is not None:
                    mid = max(1.0, mid)
                    rec["salary_min"], rec["salary_max"] = 0.9 * mid, 1.1 * mid
                if edu is not None:
                    rec["education_years"] = max(0.0, edu)
                if exp is not None:
                    rec["experience_years"] = max(0.0, exp)
                yield rec


def ground_truth(config: SynthConfig) -> GroundTruth:
    """What ``generate(config)`` plants, from the config alone."""
    return GroundTruth(
        clusters={c.name: [normalize_skill(s) for s in c.skills] for c in config.clusters},
        occupations={occ: c.name for c in config.clusters for occ in c.occupations},
        params={c.name: {k: v for k, v in asdict(c).items()
                         if k not in ("name", "skills", "occupations")}
                for c in config.clusters},
        background_skills=[normalize_skill(n) for n, _ in config.background_skills],
        seasonality={
            "weekly_amplitude": config.weekly_amplitude,
            "yearly_amplitude": config.yearly_amplitude,
        },
        seed=config.seed,
        n_days=config.n_days,
        start_date=config.start_date.isoformat(),
    )


def write_scenario(config: SynthConfig, out_dir) -> tuple[Path, Path]:
    """Write ``corpus.jsonl`` through :func:`~skillscope.corpus.write_jsonl`,
    each record as it is drawn, and ``ground_truth.json``. Both are written under temporary names and put in
    place only once both are complete, so a run that fails partway leaves
    neither file (and any earlier pair as it was)."""
    records = generate(config)  # validates before any file is opened
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.jsonl"
    truth_path = out_dir / "ground_truth.json"
    partials = [path.with_name(path.name + ".partial") for path in (corpus_path, truth_path)]
    try:
        write_jsonl(records, partials[0])
        ground_truth(config).to_json(partials[1])
    except BaseException:
        for path in partials:
            path.unlink(missing_ok=True)
        raise
    partials[0].replace(corpus_path)
    partials[1].replace(truth_path)
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


def _integer(value) -> int:
    if type(value) is not int:  # not a bool either
        raise ValueError(f"expected an integer, got {value!r}")
    return value


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
    "growth_changepoints": lambda v: tuple((_integer(d), _finite(g)) for d, g in v),
    "cohesion": _finite, "salary_level": _optional_number, "salary_trend": _finite,
    "education_mean": _optional_number, "experience_mean": _optional_number,
    "experience_trend": _finite,
}
_CONFIG_PARSERS = {
    "seed": _integer, "n_days": _integer, "clusters": tuple,
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
