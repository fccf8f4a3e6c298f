"""The five shortage indicators and the assembled shortage report.

Per occupation/category group: yearly posting counts and year-on-year
growth, yearly median salary, yearly mean education and experience years,
and forecast predictability (median SMAPE from the sliding-window
backtest). Each indicator is compared against the whole-market baseline;
the shortage-consistent direction is "above baseline" for everything
except experience, where low demands signal shortage.

A group is a set of row positions into the corpus columns; the market is
every row. Yearly medians use ``statistics.median`` and yearly means sum
left to right in row order, so no figure depends on NumPy's summation order.

No scalar shortage score is computed; the report keeps the per-indicator
flags side by side.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import Corpus
from .errors import DataError
from .timeseries import BacktestReport, DecompositionModel

MARKET = "market"  # label of the whole-market baseline; no group may use it

# Each yearly figure's file name and its ShortageIndicators field.
_YEARLY = (("posting_counts", "counts_by_year"), ("posting_growth", "growth_by_year"),
          ("median_salary", "salary_by_year"), ("education_years", "education_by_year"),
          ("experience_years", "experience_by_year"))


def yearly_counts(years: np.ndarray) -> dict[int, int]:
    """Ads per year, from one year per ad."""
    found, counts = np.unique(years, return_counts=True)
    return dict(zip(found.tolist(), counts.tolist()))


def posting_growth(counts_by_year: dict[int, int]) -> tuple[dict[int, float], Optional[float]]:
    """Year-on-year growth per year (count_y / count_{y-1} - 1) and its mean.

    Growth is defined only where the previous calendar year has a positive
    count; undefined years are excluded from the mean."""
    years = sorted(counts_by_year)
    if len(years) < 2:
        raise DataError("posting growth needs at least two years of counts")
    growth: dict[int, float] = {}
    for prev, year in zip(years, years[1:]):
        if year - prev == 1 and counts_by_year[prev] > 0:
            growth[year] = counts_by_year[year] / counts_by_year[prev] - 1.0
    mean = sum(growth.values()) / len(growth) if growth else None
    return growth, mean


def _mean(values: list[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _by_year(values: np.ndarray, years: np.ndarray,
             reduce) -> dict[int, Optional[float]]:
    """``reduce`` of each year's defined (non-NaN) values, taken in row
    order; None for a year where every value is missing."""
    out = {}
    for year in np.unique(years).tolist():
        defined = values[(years == year) & ~np.isnan(values)].tolist()
        out[year] = reduce(defined) if defined else None
    return out


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


def compute_indicators(label: str, corpus: Corpus, rows: np.ndarray,
                       backtest: BacktestReport) -> ShortageIndicators:
    """The indicators of the ads at row positions ``rows`` of ``corpus``. An
    ad's salary is the midpoint of its range, or its one bound."""
    years = corpus.years[rows]
    low, high = corpus.salary_min[rows], corpus.salary_max[rows]
    with np.errstate(over="ignore"):  # an infinite midpoint is reported by assemble_report
        mids = np.where(np.isnan(high), low, np.where(np.isnan(low), high, (low + high) / 2.0))
    counts = yearly_counts(years)
    if len(counts) >= 2:
        growth, mean_growth = posting_growth(counts)
    else:
        growth, mean_growth = {}, None
    return ShortageIndicators(
        label=label,
        counts_by_year=counts,
        growth_by_year=growth,
        mean_growth=mean_growth,
        salary_by_year=_by_year(mids, years, statistics.median),
        education_by_year=_by_year(corpus.education_years[rows], years, _mean),
        experience_by_year=_by_year(corpus.experience_years[rows], years, _mean),
        median_smape=backtest.median,
    )


@dataclass
class ShortageReport:
    baseline: ShortageIndicators
    groups: list[ShortageIndicators]
    flags: dict[str, dict[str, bool]]
    partial_years: list[int]
    backtests: dict[str, BacktestReport]
    trend_models: dict[str, DecompositionModel]

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


def assemble_report(
    corpus: Corpus,
    groups: dict[str, np.ndarray],
    backtests: dict[str, BacktestReport],
    market_backtest: BacktestReport,
    trend_models: dict[str, DecompositionModel],
) -> ShortageReport:
    """Score every group, given as row positions of ``corpus``, against the
    whole corpus as the market baseline on all five indicators. Experience
    flags in the low direction; everything else flags when strictly above
    baseline.

    ``backtests`` holds one report per group label, ``market_backtest`` the
    market's, and ``trend_models`` the fits ``trend_lines.csv`` draws. A
    year that the span from the first to the last posting date covers only
    in part is listed in ``partial_years``. A yearly figure that is not
    finite is a DataError."""
    if not len(corpus):
        raise DataError("missing market baseline: no ads")
    baseline = compute_indicators(MARKET, corpus, np.arange(len(corpus)),
                                  market_backtest)
    _check_finite(baseline)

    base_levels = _levels(baseline)
    report_groups: list[ShortageIndicators] = []
    flags: dict[str, dict[str, bool]] = {}
    for label in sorted(groups):
        ind = compute_indicators(label, corpus, groups[label], backtests[label])
        _check_finite(ind)
        report_groups.append(ind)
        flags[label] = {name: _flag(level, base_levels[name], name != "experience")
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
        backtests=backtests,
        trend_models=trend_models,
    )


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row."""
    csv.writer(buf := io.StringIO()).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _write_indicator_csv(path: Path, baseline, groups, by_year: str) -> None:
    """One row per group of its ``by_year`` field, the baseline's first."""
    years = sorted(baseline.counts_by_year)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [str(y) for y in years])
        for ind in [baseline] + groups:
            writer.writerow([ind.label] + [_fmt(getattr(ind, by_year).get(y)) for y in years])


def write_boxplot(backtests: dict[str, BacktestReport], path) -> None:
    """One ``label,smape`` row per backtest window, labels in sorted order."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "smape"])
        for label in sorted(backtests):
            for row in backtests[label].boxplot_rows():
                writer.writerow([row[0], repr(row[1])])


def write_report(report: ShortageReport, out_dir) -> None:
    """Emit the report into the existing directory ``out_dir``: one CSV per
    indicator, report.json, boxplot.csv, and trend_lines.csv."""
    out_dir = Path(out_dir)
    base, groups = report.baseline, report.groups

    for name, by_year in _YEARLY:
        _write_indicator_csv(out_dir / f"{name}.csv", base, groups, by_year)

    write_boxplot(report.backtests, out_dir / "boxplot.csv")

    # The rows csv.writer would write: only a label can need quoting, so
    # each is quoted once and its block joined as text.
    with (out_dir / "trend_lines.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write("label,date,trend\r\n")
        for k, label in enumerate(sorted(report.trend_models)):
            model = report.trend_models[label]
            if k == 0:  # the models come from one fit, so share one span
                dates = [(model.start + dt.timedelta(days=d)).isoformat()
                         for d in range(model.train_len)]
            trend = model.trend(np.arange(model.train_len)).tolist()
            quoted = _csv_field(label)
            fh.write("".join([f"{quoted},{date},{value!r}\r\n"
                              for date, value in zip(dates, trend)]))

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
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _indicators_dict(ind: ShortageIndicators) -> dict:
    """Every field, with the years of the per-year ones as text keys."""
    return {name: {str(y): v for y, v in value.items()} if isinstance(value, dict) else value
            for name, value in vars(ind).items()}
