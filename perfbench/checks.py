"""Correctness gate for one ``skillscope report`` output directory.

Two kinds of check:

* planted truth, read from the generator's ``ground_truth.json``: the seeds
  lead ``skills.csv``, the planted clusters' skills are in it, the selected
  occupations are exactly the planted targets, and the high-growth
  occupations are flagged on ``growth``;
* numbers, against an independent NumPy reference computed here from the
  generated corpus: theta scores in ``skills.csv``, eta in
  ``occupations.csv``, and the SMAPE of sampled backtest windows in
  ``boxplot.csv``. The reference follows the formulas of the program as
  released with this benchmark; tolerances are stated below.

The same reference supplies the exact work counts the benchmark reports
(vocabulary, skill slots, effective entries, theta pair visits and pairs).
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances. A batched or reordered least-squares solve moves SMAPE by
# about 1e-10 (SMAPE is on a 0..200 scale); theta and eta are ratios of
# integer counts and move at most by an ulp when the arithmetic is reordered.
SMAPE_ABS_TOL = 1e-6
RATIO_REL_TOL = 1e-9

# Fit settings the report uses by default (timeseries.FitConfig).
N_CHANGEPOINTS = 25
CHANGEPOINT_RANGE = 0.8
RIDGE_LAMBDA = 1.0
WEEKLY_ORDER = 3
YEARLY_ORDER = 10
YEAR_PERIOD = 365.25
INTENSITY_THRESHOLD = 0.15
PER_SEED_K = 300


@dataclass
class Corpus:
    """Accepted ads of a generated corpus as flat arrays (CSR skill ids)."""

    names: list[str]          # skill id -> normalized name
    indptr: np.ndarray
    indices: np.ndarray
    occupations: list[str]    # per ad
    days: np.ndarray          # per ad, date ordinal


def load_corpus(path: Path) -> Corpus:
    ids: dict[str, int] = {}
    indptr = [0]
    indices: list[int] = []
    occupations: list[str] = []
    days: list[int] = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for s in rec["skills"]:
                indices.append(ids.setdefault(s, len(ids)))
            indptr.append(len(indices))
            occupations.append(rec["occupation"])
            days.append(dt.date.fromisoformat(rec["date"]).toordinal())
    names = [""] * len(ids)
    for name, i in ids.items():
        names[i] = name
    return Corpus(names, np.asarray(indptr), np.asarray(indices, dtype=np.int64),
                  occupations, np.asarray(days, dtype=np.int64))


@dataclass
class Network:
    """Effective-use rows and the counts theta is built from."""

    eff_indptr: np.ndarray
    eff_indices: np.ndarray
    eff_counts: np.ndarray    # per skill
    incidence_entries: int

    @property
    def effective_entries(self) -> int:
        return int(len(self.eff_indices))

    def pair_visits(self) -> int:
        k = np.diff(self.eff_indptr)
        return int((k * (k - 1) // 2).sum())

    def distinct_pairs(self, n_skills: int) -> int:
        codes = []
        for lo, hi in zip(self.eff_indptr[:-1], self.eff_indptr[1:]):
            row = self.eff_indices[lo:hi]
            if len(row) > 1:
                a, b = np.triu_indices(len(row), 1)
                codes.append(row[a] * n_skills + row[b])
        return int(len(np.unique(np.concatenate(codes)))) if codes else 0

    def theta_row(self, s: int) -> np.ndarray:
        """theta(s, x) for every skill x (the diagonal is left as computed)."""
        row_of = np.repeat(np.arange(len(self.eff_indptr) - 1), np.diff(self.eff_indptr))
        has = np.zeros(len(self.eff_indptr) - 1, dtype=bool)
        has[row_of[self.eff_indices == s]] = True
        joint = np.bincount(self.eff_indices[has[row_of]],
                            minlength=len(self.eff_counts)).astype(np.float64)
        denom = np.maximum(self.eff_counts[s], self.eff_counts).astype(np.float64)
        out = np.zeros(len(self.eff_counts))
        np.divide(joint, denom, out=out, where=denom > 0)
        return out


def build_network(c: Corpus) -> Network:
    """Skill ids sorted within each ad, RCA > 1 kept as effective use."""
    n_ads = len(c.indptr) - 1
    row_of = np.repeat(np.arange(n_ads), np.diff(c.indptr))
    order = np.lexsort((c.indices, row_of))
    skills = c.indices[order]
    n_j = np.diff(c.indptr).astype(np.float64)
    counts = np.bincount(skills, minlength=len(c.names)).astype(np.float64)
    total = float(len(skills))
    rca = total / (n_j[row_of] * counts[skills])
    keep = rca > 1.0
    eff_rows = row_of[keep]
    eff_indices = skills[keep]
    eff_indptr = np.concatenate([[0], np.cumsum(np.bincount(eff_rows, minlength=n_ads))])
    return Network(eff_indptr, eff_indices,
                   np.bincount(eff_indices, minlength=len(c.names)), len(skills))


def expected_skill_scores(c: Corpus, net: Network, seeds: list[str]) -> dict[str, float]:
    """Score of every skill that expand_seeds can rank, seeds included."""
    ids = {n: i for i, n in enumerate(c.names)}
    seed_ids = [ids[s] for s in seeds]
    rows = {s: net.theta_row(s) for s in seed_ids}
    lists: dict[int, list[float]] = {}
    for s in seed_ids:
        nbrs = [x for x in np.flatnonzero(rows[s] > 0) if x != s]
        nbrs.sort(key=lambda x: (-rows[s][x], c.names[x]))
        for x in nbrs[:PER_SEED_K]:
            lists.setdefault(int(x), []).append(float(rows[s][x]))
    scores = {c.names[x]: sum(v) / len(v) for x, v in lists.items() if x not in seed_ids}
    for s in seed_ids:
        others = [float(rows[s][t]) for t in seed_ids if t != s]
        scores[c.names[s]] = max(others) if others else 1.0
    return scores


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def check_skills(out: Path, c: Corpus, net: Network, seeds: list[str],
                 planted: list[str], cutoff: int) -> list[str]:
    errors = []
    with (out / "skills.csv").open(encoding="utf-8", newline="") as fh:
        rows = [(r["skill"].lower(), float(r["theta"])) for r in csv.DictReader(fh)]
    names = [n for n, _ in rows]
    if set(names[:len(seeds)]) != set(seeds):
        errors.append(f"skills.csv does not start with the seeds {seeds}")
    missing = sorted(set(planted) - set(names))
    if missing:
        errors.append(f"skills.csv misses {len(missing)} planted skills, e.g. {missing[:3]}")
    expected = expected_skill_scores(c, net, seeds)
    if len(rows) != min(cutoff, len(expected)):
        errors.append(f"skills.csv has {len(rows)} rows, expected "
                      f"{min(cutoff, len(expected))}")
    for name, score in rows:
        if name not in expected or not _close(score, expected[name], RATIO_REL_TOL):
            errors.append(f"theta score of {name!r}: {score!r}, reference "
                          f"{expected.get(name)!r}")
            break
    tail = [s for n, s in rows[len(seeds):]]
    if any(b > a * (1 + RATIO_REL_TOL) for a, b in zip(tail, tail[1:])):
        errors.append("skills.csv tail is not sorted by score")
    if tail and len(rows) == cutoff:
        left_out = [s for n, s in expected.items() if n not in set(names)]
        if left_out and max(left_out) > tail[-1] * (1 + RATIO_REL_TOL):
            errors.append("skills.csv leaves out a skill that scores above its last row")
    return errors


def check_occupations(out: Path, c: Corpus, targets: set[str]) -> list[str]:
    errors = []
    with (out / "skills.csv").open(encoding="utf-8", newline="") as fh:
        skill_set = {r["skill"].lower() for r in csv.DictReader(fh)}
    in_set = np.array([n in skill_set for n in c.names])
    per_ad_total = np.diff(c.indptr)
    per_ad_target = np.add.reduceat(in_set[c.indices].astype(np.int64), c.indptr[:-1])
    totals: dict[str, list[int]] = {}
    for occ, n, t in zip(c.occupations, per_ad_total.tolist(), per_ad_target.tolist()):
        rec = totals.setdefault(occ, [0, 0])
        rec[0] += n
        rec[1] += t
    eta = {occ: t / n for occ, (n, t) in totals.items()}
    with (out / "occupations.csv").open(encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["category"] != "TOTALS"]
    selected = {r["occupation"] for r in rows}
    if selected != targets:
        errors.append(f"selected {len(selected)} occupations, planted targets are "
                      f"{len(targets)}; differing: "
                      f"{sorted(selected ^ targets)[:4]}")
    if selected != {o for o, e in eta.items() if e > INTENSITY_THRESHOLD}:
        errors.append("selection disagrees with the reference eta threshold")
    for r in rows:
        if not _close(float(r["eta"]), eta.get(r["occupation"], -1.0), RATIO_REL_TOL):
            errors.append(f"eta of {r['occupation']!r}: {r['eta']}, reference "
                          f"{eta.get(r['occupation'])!r}")
            break
    return errors


def _fourier(t: np.ndarray, period: float, order: int) -> list[np.ndarray]:
    cols = []
    for k in range(1, order + 1):
        arg = 2.0 * np.pi * k * t / period
        cols += [np.sin(arg), np.cos(arg)]
    return cols


def window_smape(counts: np.ndarray, shift: int, train: int, test: int,
                 holiday_offsets: list[int]) -> float:
    """Fit the trend + seasonality + holiday regression on one training
    window and score its forecast, as the report's backtest does."""
    y = counts[shift:shift + train]
    actual = counts[shift + train:shift + train + test]
    t = np.arange(train + test, dtype=np.float64)
    cp_limit = CHANGEPOINT_RANGE * (train - 1)
    cps = np.linspace(cp_limit / (N_CHANGEPOINTS + 1), cp_limit, N_CHANGEPOINTS)
    cols = [np.ones_like(t), t] + [np.maximum(0.0, t - cp) for cp in cps]
    cols += _fourier(t, 7.0, WEEKLY_ORDER)
    if train >= 2 * YEAR_PERIOD:
        cols += _fourier(t, YEAR_PERIOD, YEARLY_ORDER)
    cols += [(t == float(off - shift)).astype(np.float64) for off in sorted(holiday_offsets)]
    full = np.column_stack(cols)
    design = full[:train]
    p = design.shape[1]
    ridge = np.zeros((N_CHANGEPOINTS, p))
    ridge[np.arange(N_CHANGEPOINTS), 2 + np.arange(N_CHANGEPOINTS)] = math.sqrt(RIDGE_LAMBDA)
    beta, *_ = np.linalg.lstsq(np.vstack([design, ridge]),
                               np.concatenate([y, np.zeros(N_CHANGEPOINTS)]), rcond=None)
    f = np.maximum(full[train:] @ beta, 0.0)
    denom = np.abs(actual) + np.abs(f)
    terms = np.zeros_like(actual)
    nz = denom > 0
    terms[nz] = np.abs(f[nz] - actual[nz]) / denom[nz]
    return float(200.0 * terms.mean())


def daily_counts(c: Corpus, occupation: str) -> np.ndarray:
    """Ads of one occupation per day over the whole corpus span."""
    lo, hi = int(c.days.min()), int(c.days.max())
    days = c.days[np.array([o == occupation for o in c.occupations])]
    return np.bincount(days - lo, minlength=hi - lo + 1).astype(np.float64)


def check_backtests(out: Path, c: Corpus, train: int, test: int, iterations: int,
                    holidays: list[str]) -> list[str]:
    errors = []
    scores: dict[str, list[float]] = {}
    with (out / "boxplot.csv").open(encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            scores.setdefault(r["label"], []).append(float(r["smape"]))
    report = json.loads((out / "report.json").read_text())
    groups = {g["label"]: g for g in report["groups"]}
    if set(scores) != set(groups):
        return ["boxplot.csv and report.json name different groups"]
    for label, vals in scores.items():
        if len(vals) != iterations:
            errors.append(f"{label}: {len(vals)} backtest scores, expected {iterations}")
        elif not _close(groups[label]["median_smape"], float(np.median(vals)), 1e-12):
            errors.append(f"{label}: median_smape disagrees with its boxplot scores")
    if errors:
        return errors
    start = int(c.days.min())
    hol = [dt.date.fromisoformat(h).toordinal() - start for h in holidays]
    labels = sorted(scores)
    for label in {labels[0], labels[-1]}:
        counts = daily_counts(c, label)
        for shift in sorted({0, iterations // 2, iterations - 1}):
            ref = window_smape(counts, shift, train, test, hol)
            got = scores[label][shift]
            if abs(got - ref) > SMAPE_ABS_TOL:
                errors.append(f"{label} window {shift}: SMAPE {got!r}, reference {ref!r}")
    return errors


def check_flags(out: Path, growth_occupations: set[str]) -> list[str]:
    flags = json.loads((out / "report.json").read_text())["flags"]
    missed = sorted(o for o in growth_occupations if not flags.get(o, {}).get("growth"))
    return [f"planted high-growth occupations not flagged on growth: {missed}"] if missed else []


def analysis_files(out: Path) -> dict[str, bytes]:
    """Every output file except the time-stamped provenance record."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and p.name != "provenance.json"}


def digest(out: Path) -> dict:
    """The report's main numbers, for comparison with a recorded reference."""
    with (out / "skills.csv").open(encoding="utf-8", newline="") as fh:
        skills = [[r["skill"], float(r["theta"])] for r in csv.DictReader(fh)]
    with (out / "occupations.csv").open(encoding="utf-8", newline="") as fh:
        eta = {r["occupation"]: float(r["eta"]) for r in csv.DictReader(fh)
               if r["category"] != "TOTALS"}
    report = json.loads((out / "report.json").read_text())
    return {
        "skills": skills,
        "eta": eta,
        "median_smape": {g["label"]: g["median_smape"]
                         for g in [report["baseline"]] + report["groups"]},
        "flags": {label: per["shortage_consistent"]
                  for label, per in report["flags"].items()},
    }


def compare_digest(got: dict, ref: dict) -> list[str]:
    """Differences beyond the stated tolerances."""
    errors = []
    if [n for n, _ in got["skills"]] != [n for n, _ in ref["skills"]]:
        errors.append("skill list differs from the reference")
    elif not all(_close(a, b, RATIO_REL_TOL)
                 for (_, a), (_, b) in zip(got["skills"], ref["skills"])):
        errors.append("theta scores differ from the reference")
    if got["eta"].keys() != ref["eta"].keys() or not all(
            _close(got["eta"][k], v, RATIO_REL_TOL) for k, v in ref["eta"].items()):
        errors.append("eta differs from the reference")
    if got["median_smape"].keys() != ref["median_smape"].keys() or not all(
            abs(got["median_smape"][k] - v) <= SMAPE_ABS_TOL
            for k, v in ref["median_smape"].items()):
        errors.append("median SMAPE differs from the reference")
    if got["flags"] != ref["flags"]:
        errors.append("shortage flags differ from the reference")
    return errors
