"""Independent brute-force evaluations used as oracles in the tests.

Everything here works on plain job->skills dicts, lists of records or
count vectors and deliberately avoids the package's data structures and
solves: loops straight off the formula definitions, ``np.linalg.lstsq`` for
the decomposition fit, and for ingest each input record validated into a
record of the interchange form (ISO date text, a ``skills`` list, only the
numbers present), then folded into plain lists one skill slot at a time.
Two readers, :func:`theta_value` and :func:`theta_pairs`, put the
package's theta rows in the shape of :func:`brute_theta` for comparison;
:func:`rca_value` reads one ratio off an incidence index, as
:func:`brute_rca` gives it;
:func:`ad_ids` reads a corpus's ids as a list. :func:`brute_groups` scans
the corpus once per group label. :func:`model_values` reads one label's
fitted values off a decomposition model.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from collections import Counter
from typing import Optional

import numpy as np

from skillscope.corpus import normalize_skill, parse_date
from skillscope.occupations import UNCATEGORIZED
from skillscope.similarity import compute_theta
from skillscope.timeseries import _columns, _trend_columns

NUMBER_FIELDS = ("salary_min", "salary_max", "education_years", "experience_years")


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


def theta_value(eff, a: int, b: int) -> float:
    """theta(a, b) from row ``a`` of ``compute_theta``, 0.0 where it holds
    no entry; on the diagonal, 1.0 when the skill is in effective use."""
    if a == b:
        return 1.0 if eff.skill_job_counts[a] > 0 else 0.0
    return dict(compute_theta(eff, a)).get(b, 0.0)


def theta_pairs(eff) -> list[tuple[int, int, float]]:
    """Every positive (a, b, theta) with a < b, read from each skill's row."""
    return [(a, b, v) for a in range(len(eff.skill_ids))
            for b, v in compute_theta(eff, a) if a < b]


def rca_value(index, pos: int, s: int) -> float:
    """The ratio ``N / (n_j * c_s)`` of skill ``s`` in the ad at ``pos``,
    from the index's counts; 0.0 where the skill is absent from the ad."""
    lo, hi = int(index.indptr[pos]), int(index.indptr[pos + 1])
    if s not in index.indices[lo:hi].tolist():
        return 0.0
    return len(index.indices) / ((hi - lo) * int(index.skill_job_counts[s]))


def brute_eta(records: list[dict], targets: set[str]) -> dict[str, float]:
    """Per-occupation intensity by direct double loop over ads and skills."""
    total: dict[str, int] = {}
    hit: dict[str, int] = {}
    for rec in records:
        occupation = rec["occupation"]
        total[occupation] = total.get(occupation, 0)
        hit[occupation] = hit.get(occupation, 0)
        for s in rec["skills"]:
            total[occupation] += 1
            if s in targets:
                hit[occupation] += 1
    return {occ: hit[occ] / total[occ] for occ in total}


def brute_indicators(records: list[dict]) -> dict[str, dict]:
    """Per-year ad counts, median salary midpoint and mean education and
    experience, each over the year's ads that carry the value, in list
    order and summed left to right; None for a year where none does."""
    def midpoint(rec):
        low, high = rec.get("salary_min"), rec.get("salary_max")
        if low is not None and high is not None:
            return (low + high) / 2.0
        return low if low is not None else high

    def mean(values):
        total = 0.0
        for v in values:
            total += v
        return total / len(values) if values else None

    def year(rec):
        return parse_date(rec["date"]).year

    out = {"counts": {}, "salary": {}, "education": {}, "experience": {}}
    for y in sorted(set(map(year, records))):
        in_year = [rec for rec in records if year(rec) == y]
        mids = [m for m in map(midpoint, in_year) if m is not None]
        out["counts"][y] = len(in_year)
        out["salary"][y] = statistics.median(mids) if mids else None
        for key, name in [("education", "education_years"),
                          ("experience", "experience_years")]:
            out[key][y] = mean([rec[name] for rec in in_year if rec.get(name) is not None])
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


def model_values(model, t, j: int = 0, trend_only: bool = False) -> np.ndarray:
    """Label ``j``'s values of the decomposition ``model`` at day offsets
    ``t``: its trend alone, or trend, seasonality and holidays unclipped;
    the trend columns or the whole design times ``model.coef[j]``."""
    if trend_only:
        return _trend_columns(t, model.changepoints) @ model.coef[j, :2 + len(model.changepoints)]
    holidays = [(date - model.start).days for date in model.holiday_dates]
    return _columns(t, model.changepoints, model.use_yearly, holidays) @ model.coef[j]


def lstsq_backtest(counts, train_days: int, test_days: int, iterations: int,
                   n_changepoints: int = 25, ridge_lambda: float = 1.0,
                   holiday_offsets=()) -> list[float]:
    """SMAPE of each sliding window: the window's training days fit on their
    own by :func:`lstsq_decomposition`, with the holiday day offsets (counted
    from the first day of ``counts``) moved to the window's first day, and
    its test days scored against the forecast clipped at zero."""
    y = np.asarray(counts, dtype=np.float64)
    scores = []
    for shift in range(iterations):
        _, predicted = lstsq_decomposition(
            y[shift:shift + train_days], n_changepoints, ridge_lambda,
            [h - shift for h in holiday_offsets], horizon=test_days)
        f = np.maximum(predicted[train_days:], 0.0)
        a = y[shift + train_days:shift + train_days + test_days]
        terms = [abs(fi - ai) / (abs(ai) + abs(fi)) if ai or fi else 0.0
                 for ai, fi in zip(a.tolist(), f.tolist())]
        scores.append(200.0 * sum(terms) / len(terms))
    return scores


def brute_groups(corpus, category_map, occupations=None) -> dict[str, np.ndarray]:
    """Ascending row positions of each group's ads, by one ``np.isin`` scan
    of the occupation codes per label: the category of each occupation when
    a map is given (``uncategorized`` for one it does not name), else the
    occupation itself; with ``occupations``, only theirs. Labels come in the
    order of their first occupation code."""
    codes: dict[str, list[int]] = {}
    for code, occ in enumerate(corpus.occupations):
        if occupations is None or occ in occupations:
            label = category_map.get(occ, UNCATEGORIZED) if category_map is not None else occ
            codes.setdefault(label, []).append(code)
    return {label: np.flatnonzero(np.isin(corpus.occupation_codes, c))
            for label, c in codes.items()}


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


def ad_ids(corpus) -> list[str]:
    """A corpus's ad ids, each decoded from its slice of the UTF-8 id
    buffer."""
    buf, ends = corpus.id_bytes.tobytes(), corpus.id_ends.tolist()
    return [buf[lo:hi].decode("utf-8", "surrogatepass") for lo, hi in zip([0] + ends, ends)]


def csr_rows(m) -> list[list[int]]:
    """Each row of a CSR matrix (``indptr``, ``indices``) as a list of ids."""
    return [m.indices[lo:hi].tolist() for lo, hi in zip(m.indptr[:-1], m.indptr[1:])]


def jobs_to_records(jobs: dict[str, set[str]], occupation: str = "generic",
                    date: str = "2018-06-01") -> list[dict]:
    """One input record per job, in job id order."""
    return [{"id": j, "date": date, "occupation": occupation, "skills": sorted(skills)}
            for j, skills in sorted(jobs.items())]


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


def brute_record(rec, normalized: dict[str, str]) -> dict:
    """Validate one raw record into the interchange form, each check in
    turn; raises ValueError with a short reason. ``normalized`` memoizes raw
    skill text -> normalized name across calls."""
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
    out = {"id": str(rec["id"]), "date": posted.isoformat(), "occupation": occupation,
           "skills": list(skills)}
    numbers = {"salary_min": salary_min, "salary_max": salary_max, **years}
    out.update((key, value) for key, value in numbers.items() if value is not None)
    return out


def brute_ingest(path, fmt: str) -> tuple[dict, dict]:
    """The corpus columns and the ingest report of a JSONL or CSV file.

    Every record is validated into the interchange form first; the accepted
    ones are then folded into plain lists one skill slot at a time, interning
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
                    except (ValueError, RecursionError):  # ValueError: not JSON, or an
                        records.append(None)  # integer over the digit limit
    normalized: dict[str, str] = {}
    accepted, reasons = [], Counter()
    for rec in records:
        try:
            accepted.append(brute_record(rec, normalized))
        except ValueError as exc:
            reasons[str(exc)] += 1

    columns = {key: [] for key in ("ids", "ordinals", "years", "occupation_codes", "slots",
                                   *NUMBER_FIELDS)}
    skill_ids: dict[str, int] = {}
    occupation_codes: dict[str, int] = {}
    columns.update(skill_ids=skill_ids, indptr=[0])
    for rec in accepted:
        posted = parse_date(rec["date"])
        columns["ids"].append(rec["id"])
        columns["ordinals"].append(posted.toordinal())
        columns["years"].append(posted.year)
        columns["occupation_codes"].append(
            occupation_codes.setdefault(rec["occupation"], len(occupation_codes)))
        for s in rec["skills"]:
            columns["slots"].append(skill_ids.setdefault(s, len(skill_ids)))
        columns["indptr"].append(len(columns["slots"]))
        for key in NUMBER_FIELDS:
            columns[key].append(rec.get(key, math.nan))
    columns["occupations"] = list(occupation_codes)
    columns["skill_names"] = list(columns["skill_ids"])
    report = {"accepted": len(accepted), "rejected": sum(reasons.values()), "reasons": dict(reasons)}
    return columns, report
