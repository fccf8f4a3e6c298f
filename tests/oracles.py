"""Independent brute-force evaluations used as oracles in the tests.

Everything here works on plain job->skills dicts, ad lists or count
vectors and deliberately avoids the package's data structures and solves:
loops straight off the formula definitions, ``np.linalg.lstsq`` for the
decomposition fit, and for ingest one :class:`JobAd` per record folded into
plain lists one skill slot at a time.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import random
import statistics
from collections import Counter
from typing import Optional

import numpy as np

from skillscope.corpus import JobAd, normalize_skill, parse_date


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


def csr_rows(m) -> list[list[int]]:
    """Each row of a CSR matrix (``indptr``, ``indices``) as a list of ids."""
    return [m.indices[lo:hi].tolist() for lo, hi in zip(m.indptr[:-1], m.indptr[1:])]


def jobs_to_ads(jobs: dict[str, set[str]],
                occupation: str = "generic",
                date: dt.date = dt.date(2018, 6, 1)) -> list[JobAd]:
    return [
        JobAd(id=j, posted_date=date, occupation=occupation,
              skills=tuple(sorted(skills)))
        for j, skills in sorted(jobs.items())
    ]


def _parse_optional_float(value, field_name: str) -> Optional[float]:
    if value is None or value == "":
        return None
    if isinstance(value, bool):
        raise ValueError(f"bad number in {field_name}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"bad number in {field_name}")
    if not math.isfinite(number):
        raise ValueError(f"non-finite {field_name}")
    return number


def utf8_encodable(text: str) -> bool:
    """False for text holding a lone surrogate, which UTF-8 cannot encode."""
    return not any(0xD800 <= ord(c) <= 0xDFFF for c in text)


def brute_record_to_ad(rec, normalized: dict[str, str]) -> JobAd:
    """Validate one raw record into a row, each check in turn; raises
    ValueError with a short reason. ``normalized`` memoizes raw skill text ->
    normalized name across calls."""
    if not isinstance(rec, dict):
        raise ValueError("bad json")
    for key in ("id", "date", "occupation", "skills"):
        if key not in rec or rec[key] in (None, ""):
            raise ValueError(f"missing {key}")
    for key in ("id", "occupation"):  # text, or an integer code
        if not isinstance(rec[key], (str, int)) or isinstance(rec[key], bool):
            raise ValueError(f"bad {key}")
    occupation = str(rec["occupation"]).strip()
    if not occupation:
        raise ValueError("missing occupation")
    if not utf8_encodable(occupation):
        raise ValueError("bad occupation")
    try:
        posted = parse_date(str(rec["date"]))
    except ValueError:
        raise ValueError("bad date")

    raw_skills = rec["skills"]
    if isinstance(raw_skills, str):
        raw_skills = raw_skills.split(";")
    elif not isinstance(raw_skills, list):
        raise ValueError("bad skills")
    skills: dict[str, None] = {}  # an ordered set
    for text in raw_skills:
        if not isinstance(text, str) or not utf8_encodable(text):
            raise ValueError("bad skills")
        key = normalized.get(text)
        if key is None:
            key = normalized[text] = normalize_skill(text)
        if key:
            skills[key] = None
    if not skills:
        raise ValueError("empty skills")

    salary_min = _parse_optional_float(rec.get("salary_min"), "salary_min")
    salary_max = _parse_optional_float(rec.get("salary_max"), "salary_max")
    if salary_min is not None and salary_max is not None and salary_min > salary_max:
        raise ValueError("salary_min > salary_max")
    years = {}
    for key in ("education_years", "experience_years"):
        years[key] = _parse_optional_float(rec.get(key), key)
        if years[key] is not None and years[key] < 0:
            raise ValueError(f"negative {key}")
    return JobAd(str(rec["id"]), posted, occupation, tuple(skills),
                 salary_min, salary_max, **years)


def brute_ingest(path, fmt: str) -> tuple[dict, dict]:
    """The corpus columns and the ingest report of a JSONL or CSV file.

    Every record is validated into a :class:`JobAd` first; the accepted rows
    are then folded into plain lists one skill slot at a time, interning
    skills and occupations in first-occurrence order. Returns the columns
    by ``Corpus`` attribute name and the report as ``accepted``,
    ``rejected`` and ``reasons``."""
    with open(path, encoding="utf-8-sig", newline="" if fmt == "csv" else None) as fh:
        if fmt == "csv":
            records = list(csv.DictReader(fh))
        else:
            records = []
            for line in fh:
                if line.strip():
                    try:
                        records.append(json.loads(line))
                    except (json.JSONDecodeError, RecursionError):
                        records.append(None)
    normalized: dict[str, str] = {}
    ads, reasons = [], Counter()
    for rec in records:
        try:
            ads.append(brute_record_to_ad(rec, normalized))
        except ValueError as exc:
            reasons[str(exc)] += 1

    number_fields = ("salary_min", "salary_max", "education_years", "experience_years")
    columns = {key: [] for key in ("ids", "ordinals", "years", "occupation_codes", "slots",
                                   *number_fields)}
    skill_ids: dict[str, int] = {}
    occupation_codes: dict[str, int] = {}
    columns.update(skill_ids=skill_ids, indptr=[0])
    for ad in ads:
        columns["ids"].append(ad.id)
        columns["ordinals"].append(ad.posted_date.toordinal())
        columns["years"].append(ad.posted_date.year)
        columns["occupation_codes"].append(
            occupation_codes.setdefault(ad.occupation, len(occupation_codes)))
        for s in ad.skills:
            columns["slots"].append(skill_ids.setdefault(s, len(skill_ids)))
        columns["indptr"].append(len(columns["slots"]))
        for key in number_fields:
            value = getattr(ad, key)
            columns[key].append(math.nan if value is None else value)
    columns["occupations"] = list(occupation_codes)
    columns["skill_names"] = list(columns["skill_ids"])
    report = {"accepted": len(ads), "rejected": sum(reasons.values()), "reasons": dict(reasons)}
    return columns, report
