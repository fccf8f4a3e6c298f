"""Daily posting series, trend/seasonality decomposition, SMAPE, and the
sliding-window backtest.

A run's daily series are one days × labels matrix (``DailySeries``): every
label shares one start and span, and so one design. The decomposition
y(t) = g(t) + s(t) + h(t) + eps_t is fit as one linear regression: a
continuous piecewise-linear trend over evenly spaced changepoints, weekly
(order 3) and yearly (order 10) Fourier seasonality, and one indicator
column per holiday date. ``_columns`` alone builds that design, at any day
offsets, and a model holds one coefficient row per label in its column
order. The changepoint slope deltas carry a ridge penalty; everything else
is unpenalized. Every fit is one deterministic solve: the pseudo-inverse of
the ridge-augmented design, at the cutoff of ``lstsq(rcond=None)``, from
one thin SVD (``_factor``), times the whole count matrix. ``fit`` solves
the full span.

The sliding-window backtest factors once. Days count from each window's
first day, so every window shares the design without holidays and its one
SVD; the test days' columns are built once. A holiday's indicator column
fits its training day exactly, which gives the other coefficients the fit
without that day's row, so a window with holidays in its training days
drops those rows from the shared factor by a k×k Woodbury downdate, k the
number of distinct holiday days in the window. Only where the base or the
reduced design may be rank-deficient at ``lstsq``'s cutoff, or the
downdate ill-conditioned, is a window's design with its holiday columns
factored on its own. ``forecast`` turns a window's coefficients into its
test days' predictions, clipped at zero, and every series is scored in one
SMAPE step per window, into the one labels × windows score matrix of a
``BacktestReport``.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import write_json
from .errors import DataError

WEEK_PERIOD = 7.0
YEAR_PERIOD = 365.25
WEEKLY_ORDER = 3
YEARLY_ORDER = 10          # on from two yearly periods of data
CHANGEPOINT_RANGE = 0.8    # changepoints live in the first 80% of the span
MIN_FIT_DAYS = 14
TRAIN_DAYS, TEST_DAYS, ITERATIONS = 1186, 365, 365  # the reference backtest
N_CHANGEPOINTS, RIDGE_LAMBDA = 25, 1.0
# Smallest eigenvalue of I - u_H u_Hᵀ at which a backtest window drops its
# holiday rows by downdate: the days' joint leverage is at most 0.999.
DOWNDATE_FLOOR = 1e-3


@dataclass(frozen=True)
class DailySeries:
    """Contiguous, zero-filled daily counts from ``start``: one row per day
    and one column per label, in the order of ``labels``."""

    start: dt.date
    counts: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.float64)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", tuple(self.labels))
        if counts.ndim != 2 or len(counts) == 0:
            raise DataError("daily series must be a matrix of at least one day")
        if counts.shape[1] != len(self.labels):
            raise DataError(f"daily series of {counts.shape[1]} columns "
                            f"for {len(self.labels)} labels")
        if not np.isfinite(counts).all() or np.any(counts < 0):
            raise DataError("daily counts must be finite and non-negative")


def aggregate_daily(
    days: np.ndarray,
    codes: np.ndarray | int,
    labels: Sequence[str],
    start: dt.date,
    end: dt.date,
) -> DailySeries:
    """Count each label's ads per calendar day over [start, end] inclusive,
    one column per label, in order, from the ads' posting dates as ordinals
    (``Corpus.ordinals``) and their codes: the index of each ad's label, -1
    for an ad of none, or one code for every ad.

    One ``bincount`` of ``(code + 1) * span + day`` counts every series; the
    ads of no label fill the first ``span`` bins, which are dropped, as are
    days outside the span. Days with no ads are zeros, not gaps."""
    span = (end - start).days + 1
    if span < 1:
        raise DataError("empty date span")
    for code in (np.min(codes, initial=-1), np.max(codes, initial=-1)):
        if not -1 <= code < len(labels):
            raise DataError(f"ad code {int(code)} is not -1 or the index of "
                            f"one of {len(labels)} labels")
    offsets = np.asarray(days, dtype=np.int64) - start.toordinal()
    key = np.add(codes, 1, dtype=np.int64) * span + offsets
    counts = np.bincount(key[(offsets >= 0) & (offsets < span)],
                         minlength=(len(labels) + 1) * span)
    return DailySeries(start, counts[span:].reshape(-1, span).T, labels)


@dataclass(frozen=True)
class FitConfig:
    n_changepoints: int = N_CHANGEPOINTS
    ridge_lambda: float = RIDGE_LAMBDA  # penalty on changepoint slope deltas only
    holidays: tuple[dt.date, ...] = ()


def _fourier_block(t: np.ndarray, period: float, order: int) -> np.ndarray:
    cols = []
    for k in range(1, order + 1):
        arg = 2.0 * np.pi * k * t / period
        cols.append(np.sin(arg))
        cols.append(np.cos(arg))
    return np.column_stack(cols)


def _trend_columns(t: np.ndarray, changepoints: np.ndarray) -> np.ndarray:
    """Ones, the day offset and one hinge ``max(0, t - c)`` per changepoint
    ``c``, at day offsets ``t``: the first columns of ``_columns``."""
    t = np.asarray(t, dtype=np.float64).reshape(-1, 1)
    return np.hstack([np.ones_like(t), t, np.maximum(0.0, t - changepoints)])


def _columns(t: np.ndarray, changepoints: np.ndarray, use_yearly: bool,
             holidays: Sequence[int] = ()) -> np.ndarray:
    """The design at day offsets ``t``, one column per coefficient in order:
    the trend columns, weekly and, when ``use_yearly`` is set, yearly
    Fourier terms, and one indicator ``t == offset`` per holiday day offset."""
    t = np.asarray(t, dtype=np.float64)
    blocks = [_trend_columns(t, changepoints), _fourier_block(t, WEEK_PERIOD, WEEKLY_ORDER)]
    if use_yearly:
        blocks.append(_fourier_block(t, YEAR_PERIOD, YEARLY_ORDER))
    blocks.append(t.reshape(-1, 1) == np.asarray(holidays, dtype=np.float64))
    return np.hstack(blocks)


def _layout(n: int, config: FitConfig) -> tuple[np.ndarray, bool]:
    """The changepoint offsets of a fit on days ``0..n-1``, evenly spaced
    over the first 80% of them, and whether yearly seasonality is on (from
    two yearly periods of data). Fits shorter than two weeks are rejected."""
    if n < MIN_FIT_DAYS:
        raise DataError(f"series of {n} days is shorter than two weeks; cannot fit")
    cp_limit = CHANGEPOINT_RANGE * (n - 1)
    n_cp = max(0, int(config.n_changepoints))
    return np.linspace(cp_limit / (n_cp + 1), cp_limit, n_cp), n >= 2 * YEAR_PERIOD


@dataclass
class DecompositionModel:
    """A fit of every label's series on days ``0..train_len-1`` counted from
    ``start``: row j of ``coef`` holds label j's coefficients, one per
    ``_columns`` column, in that order, and ``residual_var[j]`` its
    residual variance."""

    start: dt.date
    train_len: int
    changepoints: np.ndarray        # day offsets within the training span
    use_yearly: bool
    holiday_dates: tuple[dt.date, ...]
    labels: tuple[str, ...]
    coef: np.ndarray
    residual_var: np.ndarray

    def knots(self) -> np.ndarray:
        """Day 0, the whole days either side of each changepoint and the
        last day, ascending and distinct: between two consecutive knots the
        trend is one line, so linear interpolation of its values at the
        knots gives back every day of the training span."""
        cp = self.changepoints
        return np.array(sorted({0, self.train_len - 1, *np.floor(cp).tolist(),
                                *np.ceil(cp).tolist()}), dtype=np.int64)

    def weekly_amplitude(self) -> np.ndarray:
        """Half the peak-to-trough range of each label's weekly component."""
        k = 2 + len(self.changepoints)
        t = np.linspace(0.0, WEEK_PERIOD, 1401)
        w = _fourier_block(t, WEEK_PERIOD, WEEKLY_ORDER) @ self.coef[:, k:k + 2 * WEEKLY_ORDER].T
        return (w.max(axis=0) - w.min(axis=0)) / 2.0

    def knot_trends(self) -> list[list[float]]:
        """Each label's trend at ``knots()``, one row per label in order: the
        trend columns times its coefficients, one product per label, as for
        a lone label (one product for every label can round otherwise)."""
        columns = _trend_columns(self.knots(), self.changepoints)
        return [(columns @ beta).tolist() for beta in self.coef[:, :columns.shape[1]]]


def _augmented(design: np.ndarray, n_cp: int, ridge_lambda: float) -> np.ndarray:
    """The design with one row per penalized changepoint column, against a
    zero target, which implements the ridge penalty."""
    penalty = np.zeros(design.shape[1])
    penalty[2:2 + n_cp] = np.sqrt(ridge_lambda)
    return np.vstack([design, np.diag(penalty)[penalty > 0]])


def _factor(aug: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The map from targets on the first ``n`` rows of the augmented design
    ``aug`` to the min-norm ridge least-squares coefficients, and the thin
    SVD ``u, sv, vt`` of ``aug`` it comes from: the pseudo-inverse at the
    singular-value cutoff of ``lstsq(rcond=None)``, as ``np.linalg.pinv``
    takes it, to the bit. The penalty rows' targets are zero, so only the
    design-row columns of the pseudo-inverse are kept."""
    u, sv, vt = np.linalg.svd(aug, full_matrices=False)
    large = sv > np.finfo(np.float64).eps * max(aug.shape) * sv[0]
    inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=large)
    return (vt.T @ (inverse[:, None] * u.T))[:, :n], u, sv, vt


def fit(series: DailySeries, config: FitConfig = FitConfig()) -> DecompositionModel:
    """Ridge-regularized least-squares decomposition fit of every label's
    series in one solve, one model for them all.

    The model holds each label's coefficients of ``_columns`` on the fit
    days, with one holiday column per date of ``config.holidays`` in
    ascending order. Yearly seasonality is on from two yearly periods of
    data (``model.use_yearly`` is false below that). Series shorter than
    two weeks are rejected.
    """
    start, y = series.start, series.counts
    n = len(y)
    changepoints, use_yearly = _layout(n, config)
    holiday_dates = tuple(sorted(config.holidays))
    # The design is held only as the first n rows of the augmented one, so
    # the SVD's working copies sit beside one copy of it, not two.
    aug = _augmented(_columns(np.arange(n), changepoints, use_yearly,
                              [(date - start).days for date in holiday_dates]),
                     len(changepoints), config.ridge_lambda)
    beta = _factor(aug, n)[0] @ y

    residuals = aug[:n] @ beta
    residuals -= y
    dof = max(1, n - aug.shape[1])
    residual_var = np.einsum("ij,ij->j", residuals, residuals) / dof
    return DecompositionModel(start, n, changepoints, use_yearly, holiday_dates,
                              series.labels, beta.T.copy(), residual_var)


def forecast(future: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The forecast days' design ``future`` times the coefficients ``beta``,
    one column per label, clipped at 0: a negative daily ad count is
    meaningless."""
    return np.maximum(future @ beta, 0.0)


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
    if a.size and not np.isfinite([a.min(), a.max(), f.min(), f.max()]).all():
        raise DataError("smape requires finite values")
    denom = np.abs(a) + np.abs(f)
    terms = np.divide(np.abs(f - a), denom, out=np.zeros_like(denom), where=denom > 0)
    scores = 200.0 * terms.mean(axis=-1)
    return float(scores) if scores.ndim == 0 else scores


def _percentile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of ascending ``ordered`` as ``np.percentile``'s
    default linear method gives it, to the bit: ``a + (b - a) * t`` below
    the midpoint between neighbours ``a`` and ``b``, ``b - (b - a) * (1 - t)``
    from it on. ``np.percentile`` itself would import ``numpy.ma``."""
    index = (len(ordered) - 1) * q
    j = int(index)
    if j >= len(ordered) - 1:
        return float(ordered[-1])
    t = index - j
    a, b = ordered[j], ordered[j + 1]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def _median(ordered: list[float]) -> float:
    """``statistics.median`` of ascending ``ordered``, to the bit; that
    module would import ``fractions`` and ``decimal``."""
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class BacktestReport:
    """One backtest of every label of a series: row j of ``scores`` holds
    label j's SMAPE of each window, in window order."""

    labels: tuple[str, ...]
    scores: np.ndarray              # labels × iterations
    train_days: int
    test_days: int
    iterations: int

    def quantiles(self, j: int) -> dict[str, float]:
        """Label ``j``'s minimum, quartiles, median and maximum score."""
        s = sorted(self.scores[j].tolist())
        return {"min": s[0], "q1": _percentile(s, 0.25), "median": _median(s),
                "q3": _percentile(s, 0.75), "max": s[-1]}

    def medians(self) -> list[float]:
        """Each label's median score, in order."""
        return [_median(sorted(row)) for row in self.scores.tolist()]

    def to_json(self, path, j: int) -> None:
        """Label ``j``, its scores and ``quantiles`` as ``summary``, and the window sizes."""
        write_json(path, {"label": self.labels[j], "scores": self.scores[j].tolist(),
                          "train_days": self.train_days, "test_days": self.test_days,
                          "iterations": self.iterations, "summary": self.quantiles(j)})


def check_windows(train_days: int, test_days: int, iterations: int) -> None:
    """DataError unless a backtest of these windows can be fitted on a
    series long enough for it."""
    if train_days < MIN_FIT_DAYS:
        raise DataError(f"backtest train window of {train_days} days is shorter "
                        "than two weeks; cannot fit")
    if test_days < 1:
        raise DataError(f"backtest test window of {test_days} days; needs at least 1")
    if iterations < 1:
        raise DataError(f"backtest of {iterations} iterations; needs at least 1")


def _drop_days(window: np.ndarray, days: np.ndarray, u: np.ndarray, sv: np.ndarray,
               vt: np.ndarray, floor: float) -> np.ndarray | None:
    """The ridge fit of ``window`` without the distinct training rows
    ``days``, which is what one indicator column per day gives the other
    coefficients, from the thin SVD ``u sv vt`` of the full-rank augmented
    design by a Woodbury downdate: with ``u_H`` those rows of ``u`` and
    ``c = uᵀ window``, the fit is ``vtᵀ (c - u_Hᵀ (I - u_H u_Hᵀ)⁻¹ r) / sv``,
    ``r`` the full fit's residuals ``window[days] - u_H c``. Only the k×k
    matrix is solved, and everything but ``/ sv`` works on orthonormal
    columns.

    None when that matrix's smallest eigenvalue is at most ``floor``: the
    reduced design may then be rank-deficient and the caller refits."""
    rows = u[days]
    mu, q = np.linalg.eigh(np.eye(len(days)) - rows @ rows.T)
    if mu[0] <= floor:
        return None
    c = u[:len(window)].T @ window
    c -= rows.T @ (q @ ((q.T @ (window[days] - rows @ c)) / mu[:, None]))
    return vt.T @ (c / sv[:, None])


def sliding_window_backtest(
    series: DailySeries,
    train_days: int = TRAIN_DAYS,
    test_days: int = TEST_DAYS,
    iterations: int = ITERATIONS,
    config: FitConfig = FitConfig(),
) -> BacktestReport:
    """Fixed-length train and test windows advance together one day per
    iteration; each iteration fits the train window and scores its
    ``forecast`` of the test window with SMAPE, every label in one report.

    Days count from each window's first day, so every window shares one
    design without holidays and one thin SVD of its ridge-augmented form,
    whose pseudo-inverse solves every series of a window in one product.
    A holiday's indicator column fits its training day exactly, which gives
    the other coefficients the fit without that day's row; so a window
    with holidays in its training days drops their distinct rows from the
    shared fit by a k×k Woodbury downdate (``_drop_days``). Where the base
    or the reduced design may be rank-deficient at ``lstsq``'s cutoff, or
    the downdate would lose more than three digits (``DOWNDATE_FLOOR``),
    that window's design with one indicator per holiday is solved by its
    own pseudo-inverse instead. Holiday coefficients are left out of the
    forecast: a holiday in the training days is zero on every test day, and
    one outside them has an all-zero column and a zero min-norm coefficient."""
    check_windows(train_days, test_days, iterations)
    start, y = series.start, series.counts
    required = train_days + test_days + iterations - 1
    if len(y) < required:
        raise DataError(
            f"series of {len(y)} days is too short for the backtest; "
            f"needs at least {required} (train {train_days} + test {test_days} "
            f"+ iterations {iterations} - 1)"
        )
    changepoints, use_yearly = _layout(train_days, config)
    n_cp, train = len(changepoints), np.arange(train_days)
    future = _columns(np.arange(train_days, train_days + test_days), changepoints,
                      use_yearly)
    p = future.shape[1]
    solve, u, sv, vt = _factor(_augmented(_columns(train, changepoints, use_yearly), n_cp,
                                          config.ridge_lambda), train_days)
    holidays = np.array(sorted((date - start).days for date in config.holidays),
                        dtype=np.int64)
    # Downdates need a base design of full rank at lstsq's cutoff. A reduced
    # design's smallest singular value is at least sv[-1] * sqrt(mu[0]), so
    # above ``floor`` it keeps full rank at the cutoff of any window's design
    # with holiday columns; the downdate's rounding grows as 1 / mu[0].
    eps, floor = np.finfo(np.float64).eps, None
    if len(sv) == p and sv[-1] > eps * max(len(u), p) * sv[0]:
        cutoff = eps * max(len(u), p + len(holidays)) * sv[0]
        floor = max((cutoff / sv[-1]) ** 2, DOWNDATE_FLOOR)
    scores = np.empty((len(series.labels), iterations))
    for shift in range(iterations):
        window = y[shift:shift + train_days]
        lo, hi = np.searchsorted(holidays, [shift, shift + train_days])
        held = holidays[lo:hi] - shift  # ascending, a duplicated date twice
        if not len(held):
            beta = solve @ window
        else:
            distinct = held[np.diff(held, prepend=-1) > 0]
            beta = _drop_days(window, distinct, u, sv, vt, floor) if floor else None
            if beta is None:
                # A duplicated date's two equal columns matter only here: the
                # min-norm fit of a rank-deficient design splits its
                # coefficient between them.
                beta = _factor(_augmented(_columns(train, changepoints, use_yearly, held),
                                          n_cp, config.ridge_lambda), train_days)[0][:p] @ window
        actual = y[shift + train_days:shift + train_days + test_days]
        scores[:, shift] = smape(actual.T, forecast(future, beta).T)
    return BacktestReport(series.labels, scores, train_days, test_days, iterations)
