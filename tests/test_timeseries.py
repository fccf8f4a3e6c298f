import datetime as dt
import warnings

import numpy as np
import pytest

from skillscope.corpus import JobAd
from skillscope.errors import DataError
from skillscope.timeseries import (
    BacktestReport,
    DailySeries,
    FitConfig,
    aggregate_daily,
    fit,
    forecast,
    sliding_window_backtest,
    smape,
)

START = dt.date(2015, 1, 1)


def series(values, label="test"):
    return DailySeries(start=START, counts=np.asarray(values, dtype=float), label=label)


def quiet_fit(s, config=FitConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit(s, config)


def per_window_scores(s, config, train_days, test_days, iterations):
    """Reference backtest: refit every window with fit and forecast."""
    scores = []
    for shift in range(iterations):
        model = quiet_fit(s.slice(shift, train_days), config)
        actual = s.counts[shift + train_days:shift + train_days + test_days]
        scores.append(smape(actual, forecast(model, test_days)))
    return scores


class TestAggregateDaily:
    def ads_on(self, dates, occupation="Dev"):
        return [
            JobAd(id=f"a{i}", posted_date=d, occupation=occupation, skills=("x",))
            for i, d in enumerate(dates)
        ]

    def test_placement(self):
        day = START + dt.timedelta(days=2)
        s = aggregate_daily(self.ads_on([day, day, day]), START,
                            START + dt.timedelta(days=4))
        assert s.counts.tolist() == [0, 0, 3, 0, 0]

    def test_no_matches_all_zero(self):
        s = aggregate_daily(self.ads_on([START]), START, START + dt.timedelta(days=2),
                            selector=lambda ad: ad.occupation == "Nobody")
        assert s.counts.tolist() == [0, 0, 0]

    def test_sum_equals_matching_ads(self):
        dates = [START + dt.timedelta(days=i % 5) for i in range(17)]
        s = aggregate_daily(self.ads_on(dates), START, START + dt.timedelta(days=9))
        assert s.counts.sum() == 17

    def test_empty_span_fatal(self):
        with pytest.raises(DataError, match="empty date span"):
            aggregate_daily([], START, START - dt.timedelta(days=1))

    def test_deterministic_synth_constant_rate(self):
        from skillscope.synthgen import ClusterSpec, SynthConfig, generate
        config = SynthConfig(
            seed=0, n_days=10, deterministic_counts=True,
            clusters=(ClusterSpec(name="c", skills=("s",), occupations=("o",),
                                  base_daily_rate=7.0),),
        )
        ads, _ = generate(config)
        s = aggregate_daily(ads, config.start_date,
                            config.start_date + dt.timedelta(days=9))
        assert s.counts.tolist() == [7.0] * 10


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


class TestFit:
    def test_pure_linear_recovery(self):
        t = np.arange(100, dtype=float)
        model = quiet_fit(series(2 + 0.5 * t))
        # piecewise trend: total slope past all changepoints
        g = model.trend(np.array([90.0, 91.0]))
        assert g[1] - g[0] == pytest.approx(0.5, abs=1e-6)
        assert model.weekly_amplitude() == pytest.approx(0.0, abs=1e-6)

    def test_planted_weekly_seasonality(self):
        t = np.arange(3 * 365, dtype=float)
        y = 10 + 0.05 * t + 3 * np.sin(2 * np.pi * t / 7)
        model = quiet_fit(series(y))
        g = model.trend(np.array([0.0, 1.0]))
        assert g[1] - g[0] == pytest.approx(0.05, rel=0.01)
        assert model.weekly_amplitude() == pytest.approx(3.0, rel=0.01)

    def test_planted_changepoint_slopes(self):
        n = 400
        t = np.arange(n, dtype=float)
        y = 5 + 0.2 * t
        y[200:] = y[199] + 0.8 * (t[200:] - 199)
        model = quiet_fit(series(y), FitConfig(n_changepoints=40, ridge_lambda=0.01))
        g = model.trend(t)
        left = (g[150] - g[100]) / 50
        right = (g[310] - g[260]) / 50  # inside the changepoint span
        assert left == pytest.approx(0.2, rel=0.05)
        assert right == pytest.approx(0.8, rel=0.05)

    def test_constant_series_degenerate_fit(self):
        model = quiet_fit(series([4.0] * 60))
        assert model.predict(np.arange(60)) == pytest.approx(np.full(60, 4.0), abs=1e-8)
        assert model.weekly_amplitude() == pytest.approx(0.0, abs=1e-8)

    def test_short_series_fatal(self):
        with pytest.raises(DataError, match="two weeks"):
            fit(series([1.0] * 10))

    def test_yearly_disabled_with_warning(self):
        with pytest.warns(UserWarning, match="yearly seasonality disabled"):
            model = fit(series([1.0] * 100))
        assert model.yearly_coef is None

    def test_deterministic_refit(self):
        rng = np.random.default_rng(8)
        y = 10 + rng.poisson(5, size=200).astype(float)
        m1 = quiet_fit(series(y))
        m2 = quiet_fit(series(y))
        assert m1.offset == m2.offset
        assert m1.base_slope == m2.base_slope
        assert (m1.deltas == m2.deltas).all()
        assert (m1.weekly_coef == m2.weekly_coef).all()

    def test_significant_changepoints_filters_tiny_deltas(self):
        t = np.arange(100, dtype=float)
        model = quiet_fit(series(1 + 0.1 * t))
        assert model.significant_changepoints() == []

    def test_holiday_effect_recovered(self):
        t = np.arange(120, dtype=float)
        y = np.full(120, 10.0)
        holiday = START + dt.timedelta(days=60)
        y[60] += 8.0
        model = quiet_fit(series(y), FitConfig(holidays=(holiday,)))
        assert model.holiday_effects[0] == pytest.approx(8.0, rel=0.05)
        pred = model.predict(np.array([59.0, 60.0, 61.0]))
        assert pred[1] == pytest.approx(18.0, rel=0.02)


class TestForecast:
    def test_flat_model(self):
        model = quiet_fit(series([6.0] * 50))
        assert forecast(model, 10) == pytest.approx(np.full(10, 6.0), abs=1e-6)

    def test_linear_extrapolation(self):
        t = np.arange(50, dtype=float)
        model = quiet_fit(series(3 + 2 * t))
        expected = 3 + 2 * np.arange(50, 60, dtype=float)
        assert forecast(model, 10) == pytest.approx(expected, rel=1e-4)

    def test_negative_clip(self):
        t = np.arange(50, dtype=float)
        model = quiet_fit(series(np.maximum(0.0, 20 - 1.0 * t)))
        assert (forecast(model, 30) >= 0.0).all()

    def test_in_sample_consistency(self):
        rng = np.random.default_rng(12)
        y = 10 + rng.poisson(6, size=90).astype(float)
        model = quiet_fit(series(y))
        fitted = model.fitted_values()
        again = model.predict(np.arange(90))
        assert fitted == pytest.approx(again, abs=0)

    def test_bad_horizon(self):
        model = quiet_fit(series([1.0] * 20))
        with pytest.raises(DataError):
            forecast(model, 0)


class TestBacktest:
    def test_score_count(self):
        s = series([5.0] * 22)
        report = sliding_window_backtest(s, train_days=14, test_days=5, iterations=4)
        assert len(report.scores) == 4
        assert report.iterations == 4

    def test_constant_series_scores_zero(self):
        s = series([5.0] * 30)
        report = sliding_window_backtest(s, train_days=20, test_days=5, iterations=6)
        assert max(report.scores) < 1e-8

    def test_insufficient_length_reports_minimum(self):
        with pytest.raises(DataError, match="at least 383"):
            sliding_window_backtest(series([1.0] * 100), train_days=365,
                                    test_days=14, iterations=5)

    def test_scores_in_range(self):
        rng = np.random.default_rng(21)
        y = rng.poisson(4, size=80).astype(float)
        report = sliding_window_backtest(series(y), train_days=30, test_days=10,
                                         iterations=10)
        assert all(0.0 <= v <= 200.0 for v in report.scores)

    def test_volatile_series_scores_worse(self):
        n = 140
        t = np.arange(n, dtype=float)
        stable = series(np.full(n, 50.0), label="stable")
        wave = 50.0 + 30.0 * np.sign(np.sin(2 * np.pi * t / 60.0))
        volatile = series(np.maximum(wave, 0.0), label="volatile")
        kw = dict(train_days=40, test_days=20, iterations=20)
        assert (sliding_window_backtest(volatile, **kw).median
                > sliding_window_backtest(stable, **kw).median)

    @pytest.mark.parametrize("train_days,config", [
        (60, FitConfig(n_changepoints=0)),
        (60, FitConfig()),
        (200, FitConfig(ridge_lambda=0.05)),
        (200, FitConfig(ridge_lambda=10.0)),
        (20, FitConfig(ridge_lambda=0.0)),   # more columns than rows
        (730, FitConfig()),                  # yearly seasonality off
        (731, FitConfig(n_changepoints=0)),  # yearly seasonality on
    ])
    def test_shared_design_matches_per_window_fit(self, train_days, config):
        rng = np.random.default_rng(train_days)
        s = series(rng.poisson(6, size=train_days + 40).astype(float))
        kw = dict(train_days=train_days, test_days=30, iterations=11)
        shared = sliding_window_backtest(s, config=config, **kw).scores
        assert shared == pytest.approx(per_window_scores(s, config, **kw), rel=0, abs=1e-9)

    def test_holidays_refit_every_window(self):
        rng = np.random.default_rng(41)
        s = series(rng.poisson(6, size=90).astype(float))
        config = FitConfig(holidays=(START + dt.timedelta(days=20),
                                     START + dt.timedelta(days=65)))
        kw = dict(train_days=40, test_days=30, iterations=21)
        assert (sliding_window_backtest(s, config=config, **kw).scores
                == per_window_scores(s, config, **kw))

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
        report = BacktestReport(scores=[1.0, 3.0, 2.0], train_days=10,
                                test_days=5, iterations=3, label="x")
        q = report.quantiles()
        assert q["min"] == 1.0 and q["max"] == 3.0 and q["median"] == 2.0
        out = tmp_path / "bt.json"
        report.to_json(out)
        import json
        payload = json.loads(out.read_text())
        assert payload["scores"] == [1.0, 3.0, 2.0]
        assert report.boxplot_rows()[0] == ("x", 1.0)


def test_series_csv_export(tmp_path):
    s = series([1.0, 2.0])
    out = tmp_path / "s.csv"
    s.to_csv(out)
    assert out.read_text().splitlines()[1] == "2015-01-01,1.0"


def test_series_rejects_negative_counts():
    with pytest.raises(DataError):
        series([1.0, -2.0])
