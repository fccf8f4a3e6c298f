"""The five shortage indicators and the assembled shortage report.

Per occupation/category group: yearly posting counts and year-on-year
growth, yearly median salary, yearly mean education and experience years,
and forecast predictability (median SMAPE from the sliding-window
backtest). Each indicator is compared against the whole-market baseline;
the shortage-consistent direction is "above baseline" for everything
except experience, where low demands signal shortage.

The groups are one label column: each ad's code indexes the sorted
labels, -1 for an ad in no group, and the market is the same call with
one code for every ad. The market is label 0 of ``daily_series``, so of
its backtest and fit, and the indicators take its median SMAPE first.
Every ad is read from the whole columns, with no gather, keyed by group
and year, each key one segment: one
``np.bincount`` counts every segment, one lexsort by segment and value
orders every segment's salaries for their medians, taken as
``statistics.median`` takes them, from a stable sort, and a mean is a
weighted ``np.bincount`` of the defined values over their count. A
weighted ``bincount`` adds one value at a time, in row order, from 0.0,
as :func:`~skillscope.corpus.left_sum` does (and a mean of a Python list
is ``left_sum``'s), so no figure depends on NumPy's pairwise summation or
on the Python version.

No scalar shortage score is computed; the report keeps the per-indicator
flags side by side.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import timeseries
from .corpus import Corpus, left_sum, write_csv, write_json
from .errors import DataError

MARKET = "market"  # label of the whole-market baseline; no group may use it

# Each yearly figure's file name and its ShortageIndicators field.
_YEARLY = (("posting_counts", "counts_by_year"), ("posting_growth", "growth_by_year"),
          ("median_salary", "salary_by_year"), ("education_years", "education_by_year"),
          ("experience_years", "experience_by_year"))


def posting_growth(counts_by_year: dict[int, int]) -> tuple[dict[int, float], Optional[float]]:
    """Year-on-year growth per year (count_y / count_{y-1} - 1) and its mean.

    Growth is defined only where the previous calendar year has a positive
    count; undefined years are excluded from the mean, which is None when no
    year has growth (as with fewer than two years of counts)."""
    years = sorted(counts_by_year)
    growth: dict[int, float] = {}
    for prev, year in zip(years, years[1:]):
        if year - prev == 1 and counts_by_year[prev] > 0:
            growth[year] = counts_by_year[year] / counts_by_year[prev] - 1.0
    return growth, _mean(list(growth.values()))


def _mean(values: list) -> Optional[float]:
    """The mean of a list, summed left to right by
    :func:`~skillscope.corpus.left_sum`; None for an empty one."""
    return left_sum(values) / len(values) if values else None


@dataclass
class ShortageIndicators:
    """All five indicator series for one group of ads."""

    label: str
    counts_by_year: dict[int, int]
    growth_by_year: dict[int, float]
    mean_growth: Optional[float]
    salary_by_year: dict[int, Optional[float]]
    education_by_year: dict[int, Optional[float]]
    experience_by_year: dict[int, Optional[float]]
    median_smape: float


def _midpoints(corpus: Corpus) -> np.ndarray:
    """Each ad's salary: the midpoint of its range, or its one bound."""
    low, high = corpus.salary_min, corpus.salary_max
    with np.errstate(over="ignore"):  # an infinite midpoint is reported by assemble_report
        mids = low + high
        mids /= 2.0
    np.copyto(mids, high, where=np.isnan(low))
    np.copyto(mids, low, where=np.isnan(high))
    return mids


def _segment_medians(key: np.ndarray, values: np.ndarray, n_keys: int) -> list:
    """``statistics.median`` of the defined values of each segment ``key``
    in ``range(n_keys)``, None for one without: one lexsort by segment and
    value, stable as ``sorted`` is, -0.0 and 0.0 included, which puts NaN
    last in each segment."""
    ordered = values[np.lexsort((values, key))]
    sizes = np.bincount(key, minlength=n_keys)
    starts = np.cumsum(sizes) - sizes
    defined = np.bincount(key[~np.isnan(values)], minlength=n_keys)
    found = np.flatnonzero(defined)
    lo = starts[found] + (defined[found] - 1) // 2
    hi = starts[found] + defined[found] // 2
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats add
        mid = np.where(defined[found] % 2 == 1, ordered[hi], (ordered[lo] + ordered[hi]) / 2)
    out = [None] * n_keys
    for k, value in zip(found.tolist(), mid.tolist()):
        out[k] = value
    return out


def _segment_means(key: np.ndarray, values: np.ndarray, n_keys: int) -> list:
    """``_mean`` of the defined values of each segment ``key``, None for one
    without. A weighted ``bincount`` sums each segment from 0.0, one value
    at a time in row order, as ``left_sum`` does, a missing value as 0.0,
    which moves no sum; the count of defined values divides it."""
    missing = np.isnan(values)
    defined = np.bincount(key, weights=~missing, minlength=n_keys).tolist()
    sums = np.bincount(key, weights=np.where(missing, 0.0, values), minlength=n_keys)
    return [total / n if n else None for total, n in zip(sums.tolist(), defined)]


def daily_series(corpus: Corpus, labels: list[str],
                 codes: np.ndarray | int) -> timeseries.DailySeries:
    """The daily series of the market baseline, as label 0, then of every
    group of ``labels``, each ad's group given by its code, over the
    corpus's span. A group labelled as the market is a DataError."""
    if MARKET in labels:
        raise DataError(f"group label {MARKET!r} is reserved for the whole-market "
                        "baseline; rename that occupation or category")
    span = corpus.span()
    return timeseries.DailySeries(span[0], np.hstack([
        timeseries.aggregate_daily(corpus.ordinals, 0, [MARKET], *span).counts,
        timeseries.aggregate_daily(corpus.ordinals, codes, labels, *span).counts,
    ]), (MARKET, *labels))


def compute_indicators(corpus: Corpus, labels: list[str], codes: np.ndarray | int,
                       median_smape: list[float]) -> list[ShortageIndicators]:
    """The indicators of every group, in the order of ``labels``, each ad's
    group given by its code: the index of its label, -1 for an ad of none,
    or one code for every ad, and its median SMAPE that of the same place
    in ``median_smape``. Every ad is read from the whole columns, keyed
    ``(code + 1) * n_years + year``: each group's ads of one year are one
    segment of the counts, medians and means, and the ads of no group fill
    the first ``n_years`` segments, which are dropped. An ad's salary is the
    midpoint of its range, or its one bound."""
    first = int(corpus.years.min())
    n_years = int(corpus.years.max()) - first + 1
    n_keys = (len(labels) + 1) * n_years
    key = np.multiply(codes, n_years, out=np.empty(len(corpus), dtype=np.int64),
                      dtype=np.int64)
    key += corpus.years
    key += n_years - first
    counts = np.bincount(key, minlength=n_keys).tolist()
    salary = _segment_medians(key, _midpoints(corpus), n_keys)
    education = _segment_means(key, corpus.education_years, n_keys)
    experience = _segment_means(key, corpus.experience_years, n_keys)
    out = []
    for g, (label, smape) in enumerate(zip(labels, median_smape, strict=True), start=1):
        keys = [k for k in range(g * n_years, (g + 1) * n_years) if counts[k]]
        years = [first + k - g * n_years for k in keys]
        by_year = dict(zip(years, [counts[k] for k in keys]))
        growth, mean_growth = posting_growth(by_year)
        out.append(ShortageIndicators(
            label=label,
            counts_by_year=by_year,
            growth_by_year=growth,
            mean_growth=mean_growth,
            salary_by_year=dict(zip(years, [salary[k] for k in keys])),
            education_by_year=dict(zip(years, [education[k] for k in keys])),
            experience_by_year=dict(zip(years, [experience[k] for k in keys])),
            median_smape=smape,
        ))
    return out


@dataclass
class ShortageReport:
    baseline: ShortageIndicators
    groups: list[ShortageIndicators]
    flags: dict[str, dict[str, bool]]
    partial_years: list[int]

    def flag_count(self, label: str) -> int:
        return sum(self.flags[label].values())


def _levels(ind: ShortageIndicators) -> dict[str, Optional[float]]:
    """The figure each flag compares: mean growth, the means of the defined
    yearly salary, education and experience figures, and the median SMAPE."""
    def mean_level(per_year: dict[int, Optional[float]]) -> Optional[float]:
        return _mean([v for v in per_year.values() if v is not None])
    return {"growth": ind.mean_growth, "salary": mean_level(ind.salary_by_year),
            "education": mean_level(ind.education_by_year),
            "experience": mean_level(ind.experience_by_year),
            "predictability": ind.median_smape}


def _check_finite(ind: ShortageIndicators) -> None:
    """DataError naming ``ind``'s first yearly figure that is not finite, as
    a sum or midpoint of huge inputs can be: JSON cannot hold it."""
    for name, by_year in _YEARLY:
        for year, value in getattr(ind, by_year).items():
            if value is not None and not math.isfinite(value):
                raise DataError(f"group {ind.label!r}: {name} in {year} is {value!r}; "
                                "its ads' figures overflow a float")


def _flag(group_value, baseline_value, higher_is_shortage: bool) -> bool:
    if group_value is None or baseline_value is None:
        return False
    if higher_is_shortage:
        return group_value > baseline_value
    return group_value < baseline_value


def assemble_report(corpus: Corpus, labels: list[str], codes: np.ndarray | int,
                    median_smape: list[float]) -> ShortageReport:
    """Score every group of ``labels``, each ad's index into them given by
    ``codes`` (-1: in no group), against the whole corpus as the market
    baseline on all five indicators. Experience flags in the low direction;
    everything else flags when strictly above baseline.

    ``median_smape`` holds the market's median SMAPE first, then each
    group's, in the order of ``daily_series``. A year that the span from the
    first to the last posting date covers only in part is listed in
    ``partial_years``. A yearly figure that is not finite is a DataError."""
    if not len(corpus):
        raise DataError("missing market baseline: no ads")
    [baseline] = compute_indicators(corpus, [MARKET], 0, median_smape[:1])
    _check_finite(baseline)

    base_levels = _levels(baseline)
    report_groups = compute_indicators(corpus, labels, codes, median_smape[1:])
    flags: dict[str, dict[str, bool]] = {}
    for ind in report_groups:
        _check_finite(ind)
        flags[ind.label] = {name: _flag(level, base_levels[name], name != "experience")
                            for name, level in _levels(ind).items()}

    first, last = corpus.span()
    partial = []
    if (first.month, first.day) != (1, 1):
        partial.append(first.year)
    if (last.month, last.day) != (12, 31):
        partial.append(last.year)

    return ShortageReport(
        baseline=baseline,
        groups=report_groups,
        flags=flags,
        partial_years=sorted(set(partial)),
    )


def _fmt(value) -> str:
    """A count as an integer, any other figure as a float, None as empty."""
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else repr(float(value))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row."""
    csv.writer(buf := io.StringIO()).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _write_indicator_csv(path: Path, baseline, groups, by_year: str) -> None:
    """One row per group of its ``by_year`` field, the baseline's first."""
    years = sorted(baseline.counts_by_year)
    write_csv(path, ["label"] + [str(y) for y in years],
              ([ind.label] + [_fmt(getattr(ind, by_year).get(y)) for y in years]
               for ind in [baseline] + groups))


def write_boxplot(labels: tuple[str, ...], scores: np.ndarray, path) -> None:
    """One ``label,smape`` row per backtest window, labels in sorted order,
    each label's scores the row of ``scores`` in its place."""
    write_csv(path, ["label", "smape"],
              ([label, repr(score)] for label, row in sorted(zip(labels, scores.tolist()))
               for score in row))


def write_report(report: ShortageReport, backtest: timeseries.BacktestReport,
                 trend: timeseries.DecompositionModel, out_dir) -> None:
    """Emit the report into the existing directory ``out_dir``: one CSV per
    indicator, report.json, boxplot.csv of every label of ``backtest`` but
    the market, label 0, and trend_lines.csv of every label of ``trend``."""
    out_dir = Path(out_dir)
    base, groups = report.baseline, report.groups

    for name, by_year in _YEARLY:
        _write_indicator_csv(out_dir / f"{name}.csv", base, groups, by_year)

    write_boxplot(backtest.labels[1:], backtest.scores[1:], out_dir / "boxplot.csv")

    # Each label's trend at the knots only, labels in sorted order. The rows
    # are those csv.writer would write: only a label can need quoting, so
    # each is quoted once and its block joined as text.
    dates = [(trend.start + dt.timedelta(days=d)).isoformat() for d in trend.knots().tolist()]
    with (out_dir / "trend_lines.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("label,date,trend\r\n")
        for label, values in sorted(zip(trend.labels, trend.knot_trends())):
            quoted = _csv_field(label)
            fh.write("".join([f"{quoted},{date},{value!r}\r\n"
                              for date, value in zip(dates, values)]))

    payload = {
        "baseline": _indicators_dict(base),
        "groups": [_indicators_dict(g) for g in groups],
        "flags": {
            label: {
                **{k: bool(v) for k, v in per.items()},
                "shortage_consistent": f"{report.flag_count(label)}/5",
            }
            for label, per in sorted(report.flags.items())
        },
        "partial_years": report.partial_years,
    }
    write_json(out_dir / "report.json", payload)


def _indicators_dict(ind: ShortageIndicators) -> dict:
    """Every field, with the years of the per-year ones as text keys."""
    return {name: {str(y): v for y, v in value.items()} if isinstance(value, dict) else value
            for name, value in vars(ind).items()}
