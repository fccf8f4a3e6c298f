"""Daily posting series, trend/seasonality decomposition, SMAPE, and the
sliding-window backtest.

The decomposition y(t) = g(t) + s(t) + h(t) + eps_t is fit as one linear
regression: a continuous piecewise-linear trend over evenly spaced
changepoints, weekly (order 3) and yearly (order 10) Fourier seasonality,
and one indicator column per holiday date. The changepoint slope deltas
carry a ridge penalty; everything else is unpenalized. The fit is a
deterministic least-squares solve, so identical inputs give identical
coefficients.

The sliding-window backtest refits the same model on every window along
one path, for all series of a run at once. They share one span, and the
trend and seasonality columns depend only on the window length and the
``FitConfig``, so the backtest builds them once. A window adds one
indicator column per holiday inside its training days and is re-factored
only when that set of in-window holiday days, counted from the window's
first day, differs from the previous window's; without holidays every
window shares one pseudo-inverse. Every series shares each window's factor
and is scored in one SMAPE step.
"""

from __future__ import annotations

import datetime as dt
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

WEEK_PERIOD = 7.0
YEAR_PERIOD = 365.25
WEEKLY_ORDER = 3
YEARLY_ORDER = 10          # on from two yearly periods of data
CHANGEPOINT_RANGE = 0.8    # changepoints live in the first 80% of the span
MIN_FIT_DAYS = 14


@dataclass(frozen=True)
class DailySeries:
    """Contiguous, zero-filled daily counts starting at ``start``."""

    start: dt.date
    counts: np.ndarray
    label: str = "all"

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or len(counts) == 0:
            raise DataError("daily series must be a non-empty 1-d vector")
        if np.any(counts < 0):
            raise DataError("daily counts must be non-negative")

    def __len__(self) -> int:
        return len(self.counts)


def aggregate_daily(
    days: np.ndarray,
    start: dt.date,
    end: dt.date,
    label: str = "all",
) -> DailySeries:
    """Count ads per calendar day over [start, end] inclusive, from their
    posting dates as ordinals (``Corpus.ordinals``), in one ``bincount``.

    Days with no ads are zeros, not gaps."""
    span = (end - start).days + 1
    if span < 1:
        raise DataError("empty date span")
    offsets = np.asarray(days, dtype=np.int64) - start.toordinal()
    offsets = offsets[(offsets >= 0) & (offsets < span)]
    counts = np.bincount(offsets, minlength=span).astype(np.float64)
    return DailySeries(start=start, counts=counts, label=label)


@dataclass(frozen=True)
class FitConfig:
    n_changepoints: int = 25
    ridge_lambda: float = 1.0        # penalty on changepoint slope deltas only
    holidays: tuple[dt.date, ...] = ()


def _fourier_block(t: np.ndarray, period: float, order: int) -> np.ndarray:
    cols = []
    for k in range(1, order + 1):
        arg = 2.0 * np.pi * k * t / period
        cols.append(np.sin(arg))
        cols.append(np.cos(arg))
    return np.column_stack(cols)


@dataclass
class DecompositionModel:
    start: dt.date
    train_len: int
    changepoints: np.ndarray        # day offsets within the training span
    offset: float
    base_slope: float
    deltas: np.ndarray              # per-changepoint slope changes
    weekly_coef: np.ndarray
    yearly_coef: Optional[np.ndarray]
    holiday_dates: tuple[dt.date, ...]
    holiday_effects: np.ndarray
    residual_var: float

    def trend(self, t: np.ndarray) -> np.ndarray:
        """Continuous piecewise-linear trend at day offsets ``t``."""
        t = np.asarray(t, dtype=np.float64)
        g = self.offset + self.base_slope * t
        for c, d in zip(self.changepoints, self.deltas):
            g = g + d * np.maximum(0.0, t - c)
        return g

    def seasonal(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        s = _fourier_block(t, WEEK_PERIOD, WEEKLY_ORDER) @ self.weekly_coef
        if self.yearly_coef is not None:
            s = s + _fourier_block(t, YEAR_PERIOD, YEARLY_ORDER) @ self.yearly_coef
        return s

    def holiday(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        h = np.zeros_like(t)
        for date, effect in zip(self.holiday_dates, self.holiday_effects):
            h = h + effect * (t == float((date - self.start).days))
        return h

    def predict(self, t: np.ndarray) -> np.ndarray:
        """g(t) + s(t) + h(t) at arbitrary day offsets (unclipped)."""
        return self.trend(t) + self.seasonal(t) + self.holiday(t)

    def weekly_amplitude(self) -> float:
        """Half the peak-to-trough range of the weekly component."""
        t = np.linspace(0.0, WEEK_PERIOD, 1401)
        w = _fourier_block(t, WEEK_PERIOD, WEEKLY_ORDER) @ self.weekly_coef
        return float((w.max() - w.min()) / 2.0)


def _design(n: int, config: FitConfig, horizon: int = 0) -> tuple[np.ndarray, np.ndarray, bool]:
    """Trend and seasonality columns of a fit on days ``0..n-1``, evaluated
    at days ``0..n+horizon-1``: ones, the day offset, one hinge per
    changepoint, weekly and, from two yearly periods of data on, yearly
    Fourier terms. Holiday columns depend on the calendar and are left to
    the caller.

    Returns the design, the changepoint offsets and whether yearly
    seasonality is on."""
    if n < MIN_FIT_DAYS:
        raise DataError(f"series of {n} days is shorter than two weeks; cannot fit")
    t = np.arange(n + horizon, dtype=np.float64)
    use_yearly = n >= 2 * YEAR_PERIOD
    cp_limit = CHANGEPOINT_RANGE * (n - 1)
    n_cp = max(0, int(config.n_changepoints))
    changepoints = (
        np.linspace(cp_limit / (n_cp + 1), cp_limit, n_cp) if n_cp else np.empty(0)
    )

    blocks = [np.ones((len(t), 1)), t.reshape(-1, 1)]
    if n_cp:
        blocks.append(np.maximum(0.0, t.reshape(-1, 1) - changepoints.reshape(1, -1)))
    blocks.append(_fourier_block(t, WEEK_PERIOD, WEEKLY_ORDER))
    if use_yearly:
        blocks.append(_fourier_block(t, YEAR_PERIOD, YEARLY_ORDER))
    return np.hstack(blocks), changepoints, use_yearly


def _ridge_augment(design: np.ndarray, n_cp: int, ridge_lambda: float) -> np.ndarray:
    """The design with one row per penalized column appended. Against zero
    targets these rows implement the ridge penalty on the changepoint delta
    columns (2..2+n_cp) only."""
    penalty = np.zeros(design.shape[1])
    penalty[2:2 + n_cp] = np.sqrt(ridge_lambda)
    return np.vstack([design, np.diag(penalty)[penalty > 0]])


def _holiday_columns(offsets: Sequence[int], n: int) -> np.ndarray:
    """One indicator column per holiday day offset on a fit over days
    ``0..n-1``; a holiday outside those days gets an all-zero column."""
    columns = np.zeros((n, len(offsets)))
    for k, off in enumerate(offsets):
        if 0 <= off < n:
            columns[off, k] = 1.0
    return columns


def fit(series: DailySeries, config: FitConfig = FitConfig()) -> DecompositionModel:
    """Deterministic ridge-regularized least-squares decomposition fit.

    Yearly seasonality needs at least two yearly periods of data and is
    otherwise disabled with a warning. Series shorter than two weeks are
    rejected.
    """
    n = len(series)
    design, changepoints, use_yearly = _design(n, config)
    y = series.counts
    if not use_yearly:
        warnings.warn(
            f"series of {n} days is shorter than two yearly periods; "
            "yearly seasonality disabled"
        )
    n_cp = len(changepoints)

    holiday_dates = tuple(sorted(config.holidays))
    offsets = [(date - series.start).days for date in holiday_dates]
    design = np.hstack([design, _holiday_columns(offsets, n)])

    # lstsq keeps the solve deterministic and rank-deficiency safe.
    p = design.shape[1]
    aug = _ridge_augment(design, n_cp, config.ridge_lambda)
    rhs = np.concatenate([y, np.zeros(len(aug) - n)])
    beta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)

    pos = 2 + n_cp
    weekly_dim = 2 * WEEKLY_ORDER
    weekly_coef = beta[pos:pos + weekly_dim]
    pos += weekly_dim
    yearly_coef = None
    if use_yearly:
        yearly_dim = 2 * YEARLY_ORDER
        yearly_coef = beta[pos:pos + yearly_dim]
        pos += yearly_dim
    holiday_effects = beta[pos:pos + len(holiday_dates)]

    residuals = y - design @ beta
    dof = max(1, n - p)
    return DecompositionModel(
        start=series.start,
        train_len=n,
        changepoints=changepoints,
        offset=float(beta[0]),
        base_slope=float(beta[1]),
        deltas=beta[2:2 + n_cp].copy(),
        weekly_coef=weekly_coef.copy(),
        yearly_coef=None if yearly_coef is None else yearly_coef.copy(),
        holiday_dates=holiday_dates,
        holiday_effects=holiday_effects.copy(),
        residual_var=float(residuals @ residuals / dof),
    )


def forecast(model: DecompositionModel, horizon: int) -> np.ndarray:
    """Extend the fitted decomposition ``horizon`` days past the training
    end. Negative predictions are clipped to 0 (a negative daily ad count
    is meaningless)."""
    if horizon < 1:
        raise DataError("forecast horizon must be >= 1")
    t = np.arange(model.train_len, model.train_len + horizon, dtype=np.float64)
    return np.maximum(model.predict(t), 0.0)


def smape(actual, predicted):
    """Symmetric mean absolute percentage error on [0, 200] over the last
    axis: a float for two vectors, an array of scores for stacked rows.

    A term with both values zero contributes 0 (perfect prediction of an
    empty day)."""
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(predicted, dtype=np.float64)
    if a.shape != f.shape or a.ndim == 0:
        raise DataError("smape requires two arrays of equal shape")
    if a.shape[-1] == 0:
        raise DataError("smape requires at least one observation")
    denom = np.abs(a) + np.abs(f)
    terms = np.divide(np.abs(f - a), denom, out=np.zeros_like(denom), where=denom > 0)
    scores = 200.0 * terms.mean(axis=-1)
    return float(scores) if scores.ndim == 0 else scores


@dataclass
class BacktestReport:
    scores: list[float]
    train_days: int
    test_days: int
    iterations: int
    label: str = "all"

    def quantiles(self) -> dict[str, float]:
        s = np.asarray(self.scores)
        return {
            "min": float(s.min()),
            "q1": float(np.percentile(s, 25)),
            "median": float(np.median(s)),
            "q3": float(np.percentile(s, 75)),
            "max": float(s.max()),
        }

    @property
    def median(self) -> float:
        return float(np.median(self.scores))

    def to_json(self, path) -> None:
        payload = {
            "label": self.label,
            "train_days": self.train_days,
            "test_days": self.test_days,
            "iterations": self.iterations,
            "scores": self.scores,
            "summary": self.quantiles(),
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def boxplot_rows(self) -> list[tuple[str, float]]:
        return [(self.label, s) for s in self.scores]


def sliding_window_backtest(
    series: Sequence[DailySeries],
    train_days: int = 1186,
    test_days: int = 365,
    iterations: int = 365,
    config: FitConfig = FitConfig(),
) -> list[BacktestReport]:
    """Fixed-length train and test windows advance together one day per
    iteration; each iteration fits the train window and scores the forecast
    of the test window with SMAPE. The series share one start and length;
    each gets one report, in input order.

    The trend and seasonality design is built once. Each window adds one
    indicator column per holiday inside its training days and re-takes the
    pseudo-inverse only when that set of in-window holiday days, counted from
    the window's first day, differs from the previous window's; without
    holidays every window shares one factor. Every series of a run shares
    each window's factor. Holiday coefficients are left out of the forecast:
    a holiday in the training days is zero on every test day, and one
    outside them has an all-zero column and a zero min-norm coefficient."""
    if len({(s.start, len(s)) for s in series}) != 1:
        raise DataError("backtest series must share one start and length")
    start, n_days = series[0].start, len(series[0])
    if train_days < MIN_FIT_DAYS:
        raise DataError(f"backtest train window of {train_days} days is shorter "
                        "than two weeks; cannot fit")
    if test_days < 1:
        raise DataError(f"backtest test window of {test_days} days; needs at least 1")
    if iterations < 1:
        raise DataError(f"backtest of {iterations} iterations; needs at least 1")
    required = train_days + test_days + iterations - 1
    if n_days < required:
        raise DataError(
            f"series of {n_days} days is too short for the backtest; "
            f"needs at least {required} (train {train_days} + test {test_days} "
            f"+ iterations {iterations} - 1)"
        )
    design, changepoints, _ = _design(train_days, config, horizon=test_days)
    train, future = design[:train_days], design[train_days:]
    p = design.shape[1]
    holidays = sorted((date - start).days for date in config.holidays)
    y = np.column_stack([s.counts for s in series])
    in_window = solve = None
    scores = np.empty((len(series), iterations))
    for shift in range(iterations):
        window_holidays = [h - shift for h in holidays if 0 <= h - shift < train_days]
        if window_holidays != in_window:
            in_window = window_holidays
            aug = _ridge_augment(np.hstack([train, _holiday_columns(in_window, train_days)]),
                                 len(changepoints), config.ridge_lambda)
            # The singular-value cutoff of lstsq(rcond=None), as in fit. The
            # ridge rows' targets are zero, so only the first train_days
            # columns are kept, and only the first p coefficients forecast.
            cutoff = np.finfo(np.float64).eps * max(aug.shape)
            solve = np.linalg.pinv(aug, cutoff)[:p, :train_days]
        beta = solve @ y[shift:shift + train_days]
        predicted = np.maximum(future @ beta, 0.0)
        actual = y[shift + train_days:shift + train_days + test_days]
        scores[:, shift] = smape(actual.T, predicted.T)
    return [BacktestReport(row.tolist(), train_days, test_days, iterations, s.label)
            for s, row in zip(series, scores)]
