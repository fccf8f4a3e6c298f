import datetime as dt
import math
import statistics

import numpy as np
import pytest

from skillscope.corpus import ingest_records
from skillscope.errors import DataError
from skillscope.timeseries import (
    BacktestReport,
    DailySeries,
    FitConfig,
    _columns,
    aggregate_daily,
    fit,
    forecast,
    sliding_window_backtest,
    smape,
)
from skillscope.indicators import write_boxplot

from oracles import lstsq_backtest, lstsq_decomposition, model_values

START = dt.date(2015, 1, 1)


def series(values, label="test"):
    """One label's daily ``values`` from START."""
    return DailySeries(START, np.asarray(values, dtype=float).reshape(-1, 1), (label,))


def trend(model, t):
    return model_values(model, t, trend_only=True)


def extrapolate(model, horizon):
    """``forecast`` of the ``horizon`` days after ``model``'s training span:
    their design, holiday columns included, times its coefficients."""
    t = np.arange(model.train_len, model.train_len + horizon)
    holidays = [(date - model.start).days for date in model.holiday_dates]
    return forecast(_columns(t, model.changepoints, model.use_yearly, holidays), model.coef.T)


def days(*offsets):
    return tuple(START + dt.timedelta(days=d) for d in offsets)


def reference(counts, config, horizon=0):
    """``lstsq_decomposition`` of daily ``counts`` from START."""
    offsets = [(date - START).days for date in config.holidays]
    return lstsq_decomposition(counts, config.n_changepoints, config.ridge_lambda,
                               offsets, horizon)


def per_window_scores(s, config, train_days, test_days, iterations):
    """Reference backtest: solve every window with the lstsq oracle."""
    return lstsq_backtest(s.counts[:, 0], train_days, test_days, iterations,
                          config.n_changepoints, config.ridge_lambda,
                          [(date - START).days for date in config.holidays])


# Fit configs over which the solve is checked against the lstsq oracle:
# (train days, config).
SOLVE_CASES = [
    (60, FitConfig(n_changepoints=0)),
    (60, FitConfig()),
    (200, FitConfig(ridge_lambda=0.05)),
    (200, FitConfig(ridge_lambda=10.0)),
    (20, FitConfig(ridge_lambda=0.0)),   # more columns than rows
    (730, FitConfig()),                  # yearly seasonality off
    (731, FitConfig(n_changepoints=0)),  # yearly seasonality on
    pytest.param(40, FitConfig(holidays=days(20, 65)), id="holidays"),
    pytest.param(20, FitConfig(ridge_lambda=0.0, holidays=days(5, 22)),
                 id="holidays-rank-deficient"),
    # day 65 enters the training days at the seventh window
    pytest.param(60, FitConfig(holidays=days(30, 30, 65)), id="holiday-duplicated"),
    pytest.param(60, FitConfig(holidays=days(85)), id="holiday-test-window-only"),
    pytest.param(60, FitConfig(holidays=days(-10)), id="holiday-before-start"),
    pytest.param(731, FitConfig(holidays=tuple(
        dt.date(2015 + m // 12, m % 12 + 1, 1) for m in range(24))),
                 id="holidays-monthly-yearly-on"),
    # the sixth window trains on days 5..64
    pytest.param(60, FitConfig(holidays=days(5, 64)), id="holidays-first-and-last-training-day"),
    pytest.param(60, FitConfig(holidays=days(*range(3, 110, 10))), id="holidays-in-every-window"),
]


def many_series(seed):
    """Three Poisson series and an empty one as one matrix."""
    rng = np.random.default_rng(seed)
    columns = [rng.poisson(lam, size=100).astype(float) for lam in (0.2, 3, 40)]
    return DailySeries(START, np.column_stack(columns + [np.zeros(100)]),
                       ("s0.2", "s3", "s40", "empty"))


class TestAggregateDaily:
    def days_on(self, dates):
        return np.array([d.toordinal() for d in dates], dtype=np.int64)

    def test_placement(self):
        day = START + dt.timedelta(days=2)
        s = aggregate_daily(self.days_on([day, day, day]), 0, ["all"], START,
                            START + dt.timedelta(days=4))
        assert s.labels == ("all",)
        assert s.counts.tolist() == [[0], [0], [3], [0], [0]]

    def test_one_series_per_label(self):
        """Each label counts its own ads in its own column, as one C-ordered
        days × labels matrix; an ad of code -1, or on a day outside the
        span, is in no series."""
        dates = [START + dt.timedelta(days=d) for d in (0, 1, 1, 2, 2, 9, -1, 2)]
        series = aggregate_daily(self.days_on(dates), np.array([1, 0, 1, -1, 1, 1, 0, 0]),
                                 ["a", "b"], START, START + dt.timedelta(days=3))
        assert series.labels == ("a", "b")
        assert series.counts.T.tolist() == [[0, 1, 1, 0], [1, 1, 1, 0]]
        assert series.counts.dtype == np.float64 and series.counts.flags.c_contiguous

    def test_no_matches_all_zero(self):
        s = aggregate_daily([], 0, ["all"], START, START + dt.timedelta(days=2))
        assert s.counts.tolist() == [[0], [0], [0]]

    def test_sum_equals_matching_ads(self):
        dates = [START + dt.timedelta(days=i % 5) for i in range(17)]
        s = aggregate_daily(self.days_on(dates), 0, ["all"], START,
                            START + dt.timedelta(days=9))
        assert s.counts.sum() == 17

    @pytest.mark.parametrize("codes,offsets,bad", [
        ([0, 1, 1], (1, 1, 0), 1),
        ([0, 1, 1], (0, 1, 1), 1),
        ([0, -2, 0], (0, 1, 1), -2),
    ], ids=["last-ad-on-day-0", "last-ad-later", "below-minus-one"])
    def test_code_without_label_fatal(self, codes, offsets, bad):
        """With one label, a code other than -1 and 0 names no label,
        whichever day its ads fall on."""
        dates = [START + dt.timedelta(days=d) for d in offsets]
        with pytest.raises(DataError, match=f"ad code {bad} "):
            aggregate_daily(self.days_on(dates), np.array(codes), ["a"], START,
                            START + dt.timedelta(days=1))

    def test_empty_span_fatal(self):
        with pytest.raises(DataError, match="empty date span"):
            aggregate_daily([], 0, ["all"], START, START - dt.timedelta(days=1))

    def test_deterministic_synth_constant_rate(self):
        from skillscope.synthgen import ClusterSpec, SynthConfig, generate
        config = SynthConfig(
            seed=0, n_days=10, deterministic_counts=True,
            clusters=(ClusterSpec(name="c", skills=("s",), occupations=("o",),
                                  base_daily_rate=7.0),),
        )
        s = aggregate_daily(ingest_records(generate(config))[0].ordinals, 0, ["all"],
                            config.start_date, config.start_date + dt.timedelta(days=9))
        assert s.counts.tolist() == [[7.0]] * 10


class TestSmape:
    def test_worked_value_100(self):
        assert smape([10], [30]) == pytest.approx(100.0)

    def test_perfect_prediction_zero(self):
        assert smape([1, 2, 3], [1, 2, 3]) == 0.0

    def test_zero_rule_worked_value_50(self):
        assert smape([10, 0], [30, 0]) == pytest.approx(50.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, f = rng.random(50) * 10, rng.random(50) * 10
        assert smape(a, f) == pytest.approx(smape(f, a))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a, f = rng.random(50) * 10, rng.random(50) * 10
        for k in (0.5, 3.0, 1000.0):
            assert smape(k * a, k * f) == pytest.approx(smape(a, f))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, f = rng.random(30), rng.random(30)
            assert 0.0 <= smape(a, f) <= 200.0
        assert smape([1, 2], [0, 0]) == pytest.approx(200.0)

    def test_length_mismatch_fatal(self):
        with pytest.raises(DataError):
            smape([1, 2], [1])

    def test_empty_fatal(self):
        with pytest.raises(DataError):
            smape([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["actual", "predicted"])
    def test_non_finite_value_fatal(self, bad, side):
        finite, other = [1.0, 1.0], [bad, 1.0]
        args = (other, finite) if side == "actual" else (finite, other)
        with pytest.raises(DataError, match="^smape requires finite values$"):
            smape(*args)

    def test_rows_scored_over_last_axis(self):
        scores = smape([[10, 0], [1, 2], [0, 0]], [[30, 0], [0, 0], [0, 0]])
        assert scores.tolist() == pytest.approx([50.0, 200.0, 0.0])

    def test_no_rows_scored_as_no_scores(self):
        assert smape(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


class TestFit:
    def test_pure_linear_recovery(self):
        t = np.arange(100, dtype=float)
        model = fit(series(2 + 0.5 * t))
        # piecewise trend: total slope past all changepoints
        g = trend(model, np.array([90.0, 91.0]))
        assert g[1] - g[0] == pytest.approx(0.5, abs=1e-6)
        assert model.weekly_amplitude()[0] == pytest.approx(0.0, abs=1e-6)

    def test_planted_weekly_seasonality(self):
        t = np.arange(3 * 365, dtype=float)
        y = 10 + 0.05 * t + 3 * np.sin(2 * np.pi * t / 7)
        model = fit(series(y))
        g = trend(model, np.array([0.0, 1.0]))
        assert g[1] - g[0] == pytest.approx(0.05, rel=0.01)
        assert model.weekly_amplitude()[0] == pytest.approx(3.0, rel=0.01)

    def test_planted_changepoint_slopes(self):
        n = 400
        t = np.arange(n, dtype=float)
        y = 5 + 0.2 * t
        y[200:] = y[199] + 0.8 * (t[200:] - 199)
        model = fit(series(y), FitConfig(n_changepoints=40, ridge_lambda=0.01))
        g = trend(model, t)
        left = (g[150] - g[100]) / 50
        right = (g[310] - g[260]) / 50  # inside the changepoint span
        assert left == pytest.approx(0.2, rel=0.05)
        assert right == pytest.approx(0.8, rel=0.05)

    def test_constant_series_degenerate_fit(self):
        model = fit(series([4.0] * 60))
        assert model_values(model, np.arange(60)) == pytest.approx(np.full(60, 4.0), abs=1e-8)
        assert model.weekly_amplitude()[0] == pytest.approx(0.0, abs=1e-8)

    def test_short_series_fatal(self):
        with pytest.raises(DataError, match="two weeks"):
            fit(series([1.0] * 10))

    @pytest.mark.parametrize("train_days,config", SOLVE_CASES)
    def test_coefficients_match_lstsq_reference(self, train_days, config):
        rng = np.random.default_rng(train_days)
        s = series(rng.poisson(6, size=train_days).astype(float))
        model = fit(s, config)
        beta, _ = reference(s.counts[:, 0], config)
        assert model.coef[0] == pytest.approx(beta, rel=0, abs=1e-9)
        assert (not model.use_yearly) == (train_days < 2 * 365.25)

    @pytest.mark.parametrize("train_days,config", SOLVE_CASES)
    def test_predict_and_forecast_match_lstsq_reference(self, train_days, config):
        rng = np.random.default_rng(train_days)
        s = series(rng.poisson(6, size=train_days).astype(float))
        model = fit(s, config)
        _, predicted = reference(s.counts[:, 0], config, horizon=30)
        assert model_values(model, np.arange(train_days + 30)) == pytest.approx(
            predicted, rel=0, abs=1e-9)
        assert extrapolate(model, 30)[:, 0] == pytest.approx(
            np.maximum(predicted[train_days:], 0.0), rel=0, abs=1e-9)

    @pytest.mark.parametrize("config", [
        FitConfig(),
        pytest.param(FitConfig(holidays=days(20, 65, 90)), id="holidays"),
    ])
    def test_many_series_match_one_series_calls(self, config):
        many = many_series(9)
        model = fit(many, config)
        assert model.labels == many.labels
        assert model.coef.shape[0] == model.residual_var.shape[0] == len(many.labels)
        for j, label in enumerate(many.labels):
            alone = fit(series(many.counts[:, j], label), config)
            assert model.coef[j] == pytest.approx(alone.coef[0], rel=0, abs=1e-12)
            assert model.residual_var[j] == pytest.approx(alone.residual_var[0],
                                                          rel=1e-12, abs=1e-12)
            assert extrapolate(model, 10)[:, j] == pytest.approx(
                extrapolate(alone, 10)[:, 0], rel=0, abs=1e-9)
            assert model.weekly_amplitude()[j] == pytest.approx(
                alone.weekly_amplitude()[0], rel=0, abs=1e-9)

    def test_yearly_disabled_below_two_years(self):
        model = fit(series([1.0] * 100))
        assert not model.use_yearly

    def test_deterministic_refit(self):
        rng = np.random.default_rng(8)
        y = 10 + rng.poisson(5, size=200).astype(float)
        m1 = fit(series(y))
        m2 = fit(series(y))
        assert (m1.coef == m2.coef).all()

    def test_knot_trends_are_each_labels_own_product(self):
        """One row per label, in order: the trend columns at the knots times
        that label's trend coefficients, to the bit."""
        model = fit(many_series(5), FitConfig(n_changepoints=4))
        rows = model.knot_trends()
        assert len(rows) == len(model.labels)
        for j, row in enumerate(rows):
            assert row == model_values(model, model.knots(), j, trend_only=True).tolist()

    def test_holiday_effect_recovered(self):
        t = np.arange(120, dtype=float)
        y = np.full(120, 10.0)
        holiday = START + dt.timedelta(days=60)
        y[60] += 8.0
        model = fit(series(y), FitConfig(holidays=(holiday,)))
        assert model.coef[0, -1] == pytest.approx(8.0, rel=0.05)
        pred = model_values(model, np.array([59.0, 60.0, 61.0]))
        assert pred[1] == pytest.approx(18.0, rel=0.02)


class TestForecast:
    def test_flat_model(self):
        model = fit(series([6.0] * 50))
        assert extrapolate(model, 10) == pytest.approx(np.full((10, 1), 6.0), abs=1e-6)

    def test_linear_extrapolation(self):
        t = np.arange(50, dtype=float)
        model = fit(series(3 + 2 * t))
        expected = 3 + 2 * np.arange(50, 60, dtype=float)
        assert extrapolate(model, 10)[:, 0] == pytest.approx(expected, rel=1e-4)

    def test_negative_clip(self):
        t = np.arange(50, dtype=float)
        model = fit(series(np.maximum(0.0, 20 - 1.0 * t)))
        assert (extrapolate(model, 30) >= 0.0).all()


class TestBacktest:
    def test_score_count(self):
        s = series([5.0] * 22)
        report = sliding_window_backtest(s, train_days=14, test_days=5, iterations=4)
        assert report.scores.shape == (1, 4)
        assert report.iterations == 4

    def test_constant_series_scores_zero(self):
        s = series([5.0] * 30)
        report = sliding_window_backtest(s, train_days=20, test_days=5, iterations=6)
        assert report.scores.max() < 1e-8

    def test_insufficient_length_reports_minimum(self):
        with pytest.raises(DataError, match="at least 383"):
            sliding_window_backtest(series([1.0] * 100), train_days=365,
                                    test_days=14, iterations=5)

    def test_scores_in_range(self):
        rng = np.random.default_rng(21)
        y = rng.poisson(4, size=80).astype(float)
        report = sliding_window_backtest(series(y), train_days=30, test_days=10,
                                         iterations=10)
        assert ((0.0 <= report.scores) & (report.scores <= 200.0)).all()

    def test_volatile_series_scores_worse(self):
        n = 140
        t = np.arange(n, dtype=float)
        stable = series(np.full(n, 50.0), label="stable")
        wave = 50.0 + 30.0 * np.sign(np.sin(2 * np.pi * t / 60.0))
        volatile = series(np.maximum(wave, 0.0), label="volatile")
        kw = dict(train_days=40, test_days=20, iterations=20)
        assert (sliding_window_backtest(volatile, **kw).medians()
                > sliding_window_backtest(stable, **kw).medians())

    @pytest.mark.parametrize("train_days,config", SOLVE_CASES)
    def test_shared_design_matches_per_window_fit(self, train_days, config):
        rng = np.random.default_rng(train_days)
        s = series(rng.poisson(6, size=train_days + 40).astype(float))
        kw = dict(train_days=train_days, test_days=30, iterations=11)
        [shared] = sliding_window_backtest(s, config=config, **kw).scores
        assert shared == pytest.approx(per_window_scores(s, config, **kw), rel=0, abs=1e-9)

    def test_holiday_in_every_window_factors_once(self, monkeypatch):
        """Each of 30 windows holds a holiday in its training days, at a
        different offset; one SVD serves them all (a pseudo-inverse per
        window would take 30, np.linalg.pinv's included)."""
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # the name np.linalg.pinv looks up in its own module
        monkeypatch.setitem(np.linalg.pinv.__wrapped__.__globals__, "svd", counted)
        rng = np.random.default_rng(30)
        s = series(rng.poisson(6, size=100).astype(float))
        config = FitConfig(holidays=days(40, 55, 70))
        kw = dict(train_days=45, test_days=26, iterations=30)
        [scores] = sliding_window_backtest(s, config=config, **kw).scores
        assert len(calls) == 1
        monkeypatch.undo()
        assert scores == pytest.approx(per_window_scores(s, config, **kw), rel=0, abs=1e-9)

    @pytest.mark.parametrize("config", [
        FitConfig(),
        pytest.param(FitConfig(holidays=days(20, 65, 90)), id="holidays"),
    ])
    def test_many_series_match_one_series_calls(self, config):
        many = many_series(8)
        kw = dict(train_days=60, test_days=20, iterations=21, config=config)
        report = sliding_window_backtest(many, **kw)
        assert report.labels == many.labels
        assert report.scores.shape == (4, 21)
        for j, label in enumerate(many.labels):
            [alone] = sliding_window_backtest(series(many.counts[:, j], label), **kw).scores
            assert report.scores[j] == pytest.approx(alone, rel=0, abs=1e-9)

    @pytest.mark.parametrize("train_days", [10, -5])
    @pytest.mark.parametrize("config", [FitConfig(), FitConfig(holidays=(START,))])
    def test_short_train_window_fatal(self, config, train_days):
        with pytest.raises(DataError, match="two weeks"):
            sliding_window_backtest(series([1.0] * 40), train_days=train_days,
                                    test_days=5, iterations=3, config=config)

    @pytest.mark.parametrize("kw,match", [
        (dict(test_days=0, iterations=3), "test window of 0 days"),
        (dict(test_days=5, iterations=0), "0 iterations"),
    ])
    def test_empty_test_window_or_no_iterations_fatal(self, kw, match):
        with pytest.raises(DataError, match=match):
            sliding_window_backtest(series([1.0] * 40), train_days=20, **kw)

    def test_report_serialization(self, tmp_path):
        report = BacktestReport(("y", "x"), np.array([[4.0, 6.0, 5.0], [1.0, 3.0, 2.0]]),
                                train_days=10, test_days=5, iterations=3)
        q = report.quantiles(1)
        assert q["min"] == 1.0 and q["max"] == 3.0 and q["median"] == 2.0
        out = tmp_path / "bt.json"
        report.to_json(out, 1)
        import json
        assert json.loads(out.read_text()) == {
            "label": "x", "scores": [1.0, 3.0, 2.0], "train_days": 10, "test_days": 5,
            "iterations": 3, "summary": q}
        write_boxplot(report.labels, report.scores, tmp_path / "boxplot.csv")
        assert (tmp_path / "boxplot.csv").read_bytes() == (
            b"label,smape\r\nx,1.0\r\nx,3.0\r\nx,2.0\r\ny,4.0\r\ny,6.0\r\ny,5.0\r\n")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 365])
    def test_quantiles_equal_numpy_to_the_bit(self, n):
        """Every row of a multi-label score matrix, and each row alone."""
        rng = np.random.default_rng(n)
        rows = np.array([rng.random(n) * 200, rng.integers(0, 3, n) * 1e-3 + 7.0,
                         rng.random(n) * rng.choice([1e-12, 1.0, 1e6], n)])
        report = BacktestReport(("a", "b", "c"), rows, train_days=10, test_days=5,
                                iterations=n)
        medians = report.medians()
        for j, scores in enumerate(rows.tolist()):
            want = {"min": np.min(scores), "q1": np.percentile(scores, 25),
                    "median": np.median(scores), "q3": np.percentile(scores, 75),
                    "max": np.max(scores)}
            assert report.quantiles(j) == {key: float(v) for key, v in want.items()}
            assert repr(medians[j]) == repr(float(np.median(scores)))
            assert repr(medians[j]) == repr(statistics.median(scores))
            alone = BacktestReport(("a",), rows[j:j + 1], 10, 5, n)
            assert repr(alone.medians()) == repr([medians[j]])


@pytest.mark.parametrize("bad", [-2.0, np.nan, np.inf, -np.inf])
def test_series_rejects_negative_counts(bad):
    with pytest.raises(DataError, match="finite and non-negative"):
        series([1.0, bad])


@pytest.mark.parametrize("columns", [0, 2])
def test_series_rejects_a_column_count_other_than_its_labels(columns):
    with pytest.raises(DataError, match=f"{columns} columns for 1 labels"):
        DailySeries(START, np.ones((5, columns)), ("a",))
