"""Independent brute-force evaluations used as oracles in the tests.

Everything here works on plain job->skills dicts, ad lists or count
vectors and deliberately avoids the package's data structures and solves:
loops straight off the formula definitions, and ``np.linalg.lstsq`` for the
decomposition fit.
"""

from __future__ import annotations

import datetime as dt
import random
import statistics

import numpy as np

from skillscope.corpus import JobAd


def brute_rca(jobs: dict[str, set[str]]) -> dict[tuple[str, str], float]:
    """RCA per (job, skill) with incidence 1, by direct formula evaluation."""
    all_skills = sorted({s for skills in jobs.values() for s in skills})
    grand = sum(1 for skills in jobs.values() for s in all_skills if s in skills)
    out = {}
    for j, skills in jobs.items():
        per_job = sum(1 for s2 in all_skills if s2 in skills)
        for s in all_skills:
            if s not in skills:
                continue
            per_skill = sum(1 for skills2 in jobs.values() if s in skills2)
            out[(j, s)] = (1.0 / per_job) / (per_skill / grand)
    return out


def brute_effective(jobs: dict[str, set[str]]) -> dict[str, set[str]]:
    rca = brute_rca(jobs)
    eff: dict[str, set[str]] = {j: set() for j in jobs}
    for (j, s), v in rca.items():
        if v > 1.0:
            eff[j].add(s)
    return eff


def brute_theta(jobs: dict[str, set[str]]) -> dict[tuple[str, str], float]:
    """Theta per unordered skill pair (keyed with sorted names)."""
    eff = brute_effective(jobs)
    skills = sorted({s for skills in jobs.values() for s in skills})
    out = {}
    for i, a in enumerate(skills):
        for b in skills[i + 1:]:
            joint = sum(1 for j in jobs if a in eff[j] and b in eff[j])
            ca = sum(1 for j in jobs if a in eff[j])
            cb = sum(1 for j in jobs if b in eff[j])
            out[(a, b)] = joint / max(ca, cb) if max(ca, cb) > 0 else 0.0
    return out


def brute_eta(ads: list[JobAd], targets: set[str]) -> dict[str, float]:
    """Per-occupation intensity by direct double loop over ads and skills."""
    total: dict[str, int] = {}
    hit: dict[str, int] = {}
    for ad in ads:
        total[ad.occupation] = total.get(ad.occupation, 0)
        hit[ad.occupation] = hit.get(ad.occupation, 0)
        for s in ad.skills:
            total[ad.occupation] += 1
            if s in targets:
                hit[ad.occupation] += 1
    return {occ: hit[occ] / total[occ] for occ in total}


def brute_indicators(ads: list[JobAd]) -> dict[str, dict]:
    """Per-year ad counts, median salary midpoint and mean education and
    experience, each over the year's ads that carry the value, in list
    order and summed left to right; None for a year where none does."""
    def midpoint(ad):
        if ad.salary_min is not None and ad.salary_max is not None:
            return (ad.salary_min + ad.salary_max) / 2.0
        return ad.salary_min if ad.salary_min is not None else ad.salary_max

    def mean(values):
        total = 0.0
        for v in values:
            total += v
        return total / len(values) if values else None

    out = {"counts": {}, "salary": {}, "education": {}, "experience": {}}
    for year in sorted({ad.posted_date.year for ad in ads}):
        in_year = [ad for ad in ads if ad.posted_date.year == year]
        mids = [m for m in map(midpoint, in_year) if m is not None]
        out["counts"][year] = len(in_year)
        out["salary"][year] = statistics.median(mids) if mids else None
        out["education"][year] = mean([ad.education_years for ad in in_year
                                       if ad.education_years is not None])
        out["experience"][year] = mean([ad.experience_years for ad in in_year
                                        if ad.experience_years is not None])
    return out


def lstsq_decomposition(counts, n_changepoints: int = 25, ridge_lambda: float = 1.0,
                        holiday_offsets=(), horizon: int = 0):
    """Coefficients of the trend + seasonality + holiday regression on the
    daily ``counts``, solved by ``np.linalg.lstsq``, and its unclipped
    prediction over the fit days and ``horizon`` days after them.

    The design follows the model's formulas: ones, the day offset, one hinge
    at each of k changepoints spaced evenly from L/(k+1) to L, where L is
    80% of the last fit day's offset, weekly Fourier terms of order 3, yearly
    ones of order 10 from two years of data on, and one indicator per
    holiday day offset in ascending order, zero outside the fit days. A
    positive ridge penalty is one row of sqrt(lambda) per hinge column
    against a zero target."""
    y = np.asarray(counts, dtype=np.float64)
    n = len(y)
    t = np.arange(n + horizon, dtype=np.float64)
    limit = 0.8 * (n - 1)
    changepoints = np.linspace(limit / (n_changepoints + 1), limit, n_changepoints)
    cols = [np.ones_like(t), t] + [np.maximum(0.0, t - c) for c in changepoints]
    seasons = [(7.0, 3)] + ([(365.25, 10)] if n >= 2 * 365.25 else [])
    for period, order in seasons:
        for k in range(1, order + 1):
            arg = 2.0 * np.pi * k * t / period
            cols += [np.sin(arg), np.cos(arg)]
    cols += [(t == off) & (t < n) for off in sorted(holiday_offsets)]
    full = np.column_stack(cols).astype(np.float64)
    penalized = n_changepoints if ridge_lambda > 0 else 0
    ridge = np.sqrt(ridge_lambda) * np.eye(full.shape[1])[2:2 + penalized]
    beta, *_ = np.linalg.lstsq(np.vstack([full[:n], ridge]),
                               np.concatenate([y, np.zeros(penalized)]), rcond=None)
    return beta, full @ beta


def random_jobs(rng: random.Random, max_ads: int = 20, max_skills: int = 10) -> dict[str, set[str]]:
    """A random small corpus: every ad has at least one skill."""
    n_skills = rng.randint(2, max_skills)
    skills = [f"s{i}" for i in range(n_skills)]
    n_ads = rng.randint(1, max_ads)
    jobs = {}
    for j in range(n_ads):
        k = rng.randint(1, n_skills)
        jobs[f"j{j}"] = set(rng.sample(skills, k))
    return jobs


def jobs_to_ads(jobs: dict[str, set[str]],
                occupation: str = "generic",
                date: dt.date = dt.date(2018, 6, 1)) -> list[JobAd]:
    return [
        JobAd(id=j, posted_date=date, occupation=occupation,
              skills=tuple(sorted(skills)))
        for j, skills in sorted(jobs.items())
    ]
