"""Daily posting series, trend/seasonality decomposition, SMAPE, and the
sliding-window backtest.

The decomposition y(t) = g(t) + s(t) + h(t) + eps_t is fit as one linear
regression: a continuous piecewise-linear trend over evenly spaced
changepoints, weekly (order 3) and yearly (order 10) Fourier seasonality,
and one indicator column per holiday date. The changepoint slope deltas
carry a ridge penalty; everything else is unpenalized. The fit is a
deterministic least-squares solve, so identical inputs give identical
coefficients.

The sliding-window backtest refits the same model on every window. Without
holidays the window design depends only on the window length and the
``FitConfig``, so the backtest builds it once, pseudo-inverts it once and
scores each window with two matrix-vector products. Holiday columns move
with the window, so with holidays every window is refit with ``fit`` and
``forecast``.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .corpus import JobAd
from .errors import DataError

WEEK_PERIOD = 7.0
YEAR_PERIOD = 365.25
MIN_FIT_DAYS = 14
DELTA_EPS = 1e-8  # changepoint deltas below this are reported as zero


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

    def date_of(self, offset: int) -> dt.date:
        return self.start + dt.timedelta(days=int(offset))

    def slice(self, start_offset: int, length: int) -> "DailySeries":
        return DailySeries(
            start=self.date_of(start_offset),
            counts=self.counts[start_offset:start_offset + length],
            label=self.label,
        )

    def to_csv(self, path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "value"])
            for i, v in enumerate(self.counts):
                writer.writerow([self.date_of(i).isoformat(), repr(float(v))])


def aggregate_daily(
    ads: Sequence[JobAd],
    start: dt.date,
    end: dt.date,
    label: str = "all",
    selector: Optional[Callable[[JobAd], bool]] = None,
) -> DailySeries:
    """Count matching ads per calendar day over [start, end] inclusive.

    Days with no ads are zeros, not gaps."""
    span = (end - start).days + 1
    if span < 1:
        raise DataError("empty date span")
    counts = np.zeros(span, dtype=np.float64)
    for ad in ads:
        if selector is not None and not selector(ad):
            continue
        offset = (ad.posted_date - start).days
        if 0 <= offset < span:
            counts[offset] += 1
    return DailySeries(start=start, counts=counts, label=label)


@dataclass(frozen=True)
class FitConfig:
    n_changepoints: int = 25
    changepoint_range: float = 0.8   # changepoints live in the first 80% of the span
    ridge_lambda: float = 1.0        # penalty on changepoint slope deltas only
    weekly_order: int = 3
    yearly_order: int = 10
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
    config: FitConfig = field(repr=False, default=FitConfig())

    def trend(self, t: np.ndarray) -> np.ndarray:
        """Continuous piecewise-linear trend at day offsets ``t``."""
        t = np.asarray(t, dtype=np.float64)
        g = self.offset + self.base_slope * t
        for c, d in zip(self.changepoints, self.deltas):
            g = g + d * np.maximum(0.0, t - c)
        return g

    def seasonal(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        s = _fourier_block(t, WEEK_PERIOD, self.config.weekly_order) @ self.weekly_coef
        if self.yearly_coef is not None:
            s = s + _fourier_block(t, YEAR_PERIOD, self.config.yearly_order) @ self.yearly_coef
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

    def fitted_values(self) -> np.ndarray:
        return self.predict(np.arange(self.train_len))

    def weekly_amplitude(self) -> float:
        """Half the peak-to-trough range of the weekly component."""
        t = np.linspace(0.0, WEEK_PERIOD, 1401)
        w = _fourier_block(t, WEEK_PERIOD, self.config.weekly_order) @ self.weekly_coef
        return float((w.max() - w.min()) / 2.0)

    def significant_changepoints(self) -> list[tuple[dt.date, float]]:
        """Changepoints whose slope delta is meaningfully non-zero."""
        out = []
        for c, d in zip(self.changepoints, self.deltas):
            if abs(d) >= DELTA_EPS:
                out.append((self.start + dt.timedelta(days=int(c)), float(d)))
        return out


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
    cp_limit = config.changepoint_range * (n - 1)
    n_cp = max(0, int(config.n_changepoints))
    changepoints = (
        np.linspace(cp_limit / (n_cp + 1), cp_limit, n_cp) if n_cp else np.empty(0)
    )

    blocks = [np.ones((len(t), 1)), t.reshape(-1, 1)]
    if n_cp:
        blocks.append(np.maximum(0.0, t.reshape(-1, 1) - changepoints.reshape(1, -1)))
    blocks.append(_fourier_block(t, WEEK_PERIOD, config.weekly_order))
    if use_yearly:
        blocks.append(_fourier_block(t, YEAR_PERIOD, config.yearly_order))
    return np.hstack(blocks), changepoints, use_yearly


def _ridge_augment(design: np.ndarray, n_cp: int, ridge_lambda: float) -> np.ndarray:
    """The design with one row per penalized column appended. Against zero
    targets these rows implement the ridge penalty on the changepoint delta
    columns (2..2+n_cp) only."""
    penalty = np.zeros(design.shape[1])
    penalty[2:2 + n_cp] = np.sqrt(ridge_lambda)
    return np.vstack([design, np.diag(penalty)[penalty > 0]])


def fit(series: DailySeries, config: FitConfig = FitConfig()) -> DecompositionModel:
    """Deterministic ridge-regularized least-squares decomposition fit.

    Yearly seasonality needs at least two yearly periods of data and is
    otherwise disabled with a warning. Series shorter than two weeks are
    rejected.
    """
    n = len(series)
    design, changepoints, use_yearly = _design(n, config)
    y = series.counts
    if not use_yearly and config.yearly_order > 0:
        warnings.warn(
            f"series of {n} days is shorter than two yearly periods; "
            "yearly seasonality disabled"
        )
    n_cp = len(changepoints)

    holiday_dates = tuple(sorted(config.holidays))
    if holiday_dates:
        hday = np.zeros((n, len(holiday_dates)))
        for k, date in enumerate(holiday_dates):
            off = (date - series.start).days
            if 0 <= off < n:
                hday[off, k] = 1.0
        design = np.hstack([design, hday])

    # lstsq keeps the solve deterministic and rank-deficiency safe.
    p = design.shape[1]
    aug = _ridge_augment(design, n_cp, config.ridge_lambda)
    rhs = np.concatenate([y, np.zeros(len(aug) - n)])
    beta, *_ = np.linalg.lstsq(aug, rhs, rcond=None)

    pos = 2 + n_cp
    weekly_dim = 2 * config.weekly_order
    weekly_coef = beta[pos:pos + weekly_dim]
    pos += weekly_dim
    yearly_coef = None
    if use_yearly:
        yearly_dim = 2 * config.yearly_order
        yearly_coef = beta[pos:pos + yearly_dim]
        pos += yearly_dim
    holiday_effects = beta[pos:pos + len(holiday_dates)]

    residuals = y - design @ beta
    dof = max(1, n - p)
    model = DecompositionModel(
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
        config=config,
    )
    return model


def forecast(model: DecompositionModel, horizon: int, clip_negative: bool = True) -> np.ndarray:
    """Extend the fitted decomposition ``horizon`` days past the training
    end. Negative predictions are clipped to 0 by default (a negative daily
    ad count is meaningless)."""
    if horizon < 1:
        raise DataError("forecast horizon must be >= 1")
    t = np.arange(model.train_len, model.train_len + horizon, dtype=np.float64)
    values = model.predict(t)
    return np.maximum(values, 0.0) if clip_negative else values


def smape(actual, predicted) -> float:
    """Symmetric mean absolute percentage error on [0, 200].

    A term with both values zero contributes 0 (perfect prediction of an
    empty day)."""
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(predicted, dtype=np.float64)
    if a.shape != f.shape or a.ndim != 1:
        raise DataError("smape requires two equal-length vectors")
    if len(a) == 0:
        raise DataError("smape requires at least one observation")
    denom = np.abs(a) + np.abs(f)
    terms = np.zeros_like(a)
    nonzero = denom > 0
    terms[nonzero] = np.abs(f[nonzero] - a[nonzero]) / denom[nonzero]
    return float(200.0 * terms.mean())


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


def _backtest_iteration(series: DailySeries, shift: int, train_days: int,
                        test_days: int, config: FitConfig) -> float:
    train = series.slice(shift, train_days)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit(train, config)
    predicted = forecast(model, test_days)
    actual = series.counts[shift + train_days:shift + train_days + test_days]
    return smape(actual, predicted)


def _shared_design_scores(y: np.ndarray, train_days: int, test_days: int,
                          iterations: int, config: FitConfig) -> list[float]:
    """Backtest scores of a holiday-free model, whose design is the same for
    every window: one pseudo-inverse, then two mat-vecs per window."""
    design, changepoints, _ = _design(train_days, config, horizon=test_days)
    aug = _ridge_augment(design[:train_days], len(changepoints), config.ridge_lambda)
    # The singular-value cutoff of lstsq(rcond=None), as in fit; the ridge
    # rows' targets are zero, so only the first train_days columns are kept.
    cutoff = np.finfo(np.float64).eps * max(aug.shape)
    solve = np.linalg.pinv(aug, cutoff)[:, :train_days]
    future = design[train_days:]
    scores = []
    for shift in range(iterations):
        beta = solve @ y[shift:shift + train_days]
        predicted = np.maximum(future @ beta, 0.0)
        actual = y[shift + train_days:shift + train_days + test_days]
        scores.append(smape(actual, predicted))
    return scores


def sliding_window_backtest(
    series: DailySeries,
    train_days: int = 1186,
    test_days: int = 365,
    iterations: int = 365,
    config: FitConfig = FitConfig(),
) -> BacktestReport:
    """Fixed-length train and test windows advance together one day per
    iteration; each iteration fits the train window and scores the forecast
    of the test window with SMAPE.

    Without holidays all windows share one factored design; with holidays
    each window is refit with ``fit`` and ``forecast``."""
    if train_days < MIN_FIT_DAYS:
        raise DataError(f"backtest train window of {train_days} days is shorter "
                        "than two weeks; cannot fit")
    if test_days < 1:
        raise DataError(f"backtest test window of {test_days} days; needs at least 1")
    if iterations < 1:
        raise DataError(f"backtest of {iterations} iterations; needs at least 1")
    required = train_days + test_days + iterations - 1
    if len(series) < required:
        raise DataError(
            f"series of {len(series)} days is too short for the backtest; "
            f"needs at least {required} (train {train_days} + test {test_days} "
            f"+ iterations {iterations} - 1)"
        )
    if config.holidays:
        scores = [
            _backtest_iteration(series, shift, train_days, test_days, config)
            for shift in range(iterations)
        ]
    else:
        scores = _shared_design_scores(series.counts, train_days, test_days,
                                       iterations, config)
    return BacktestReport(
        scores=scores,
        train_days=train_days,
        test_days=test_days,
        iterations=iterations,
        label=series.label,
    )
