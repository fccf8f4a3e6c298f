import csv
import datetime as dt
import io
import json
import re

import random

import numpy as np
import pytest

from skillscope import indicators
from skillscope.cli import _group_ads
from skillscope.corpus import ingest_records
from skillscope.errors import DataError
from skillscope.indicators import (
    MARKET,
    assemble_report,
    compute_indicators,
    daily_series,
    posting_growth,
    write_report,
)
from skillscope.timeseries import BacktestReport, FitConfig, fit

from oracles import brute_indicators, model_values


def ad(i, year, occupation="Dev", skills=("x",), **fields):
    return {"id": f"a{i}", "date": f"{year}-06-15", "occupation": occupation,
            "skills": list(skills), **fields}


def indicators_of(ads):
    [ind] = compute_indicators(ingest_records(ads)[0], ["g"], 0, [1.0])
    return ind


class TestPostingGrowth:
    def test_worked_13_percent(self):
        growth, mean = posting_growth({2017: 100, 2018: 113})
        assert growth[2018] == pytest.approx(0.13)
        assert mean == pytest.approx(0.13)

    def test_flat_counts_zero_growth(self):
        growth, mean = posting_growth({2016: 100, 2017: 100, 2018: 100})
        assert list(growth.values()) == [0.0, 0.0]
        assert mean == 0.0

    def test_zero_previous_year_excluded(self):
        growth, mean = posting_growth({2016: 0, 2017: 50, 2018: 100})
        assert 2017 not in growth
        assert growth[2018] == pytest.approx(1.0)
        assert mean == pytest.approx(1.0)

    def test_single_year_fatal(self):
        assert posting_growth({2018: 10}) == ({}, None)

    def test_planted_growth_recovered(self):
        from skillscope.synthgen import ClusterSpec, SynthConfig, generate
        config = SynthConfig(
            seed=11, n_days=365 * 3,
            clusters=(ClusterSpec(name="g", skills=("s",), occupations=("o",),
                                  base_daily_rate=200.0, annual_growth=0.28),),
        )
        [market] = compute_indicators(ingest_records(generate(config))[0], [MARKET], 0,
                                      [1.0])
        counts = market.counts_by_year
        full_years = {y: c for y, c in counts.items() if y < 2017}  # 2017 partial
        _, mean = posting_growth(full_years)
        assert mean == pytest.approx(0.28, abs=0.03)


class TestPerYearAggregates:
    def test_median_salary_midpoints(self):
        ads = [
            ad(1, 2018, salary_min=70_000, salary_max=90_000),
            ad(2, 2018, salary_min=90_000, salary_max=110_000),
            ad(3, 2018, salary_min=110_000, salary_max=130_000),
        ]
        assert indicators_of(ads).salary_by_year[2018] == pytest.approx(100_000)

    def test_single_range_midpoint(self):
        ads = [ad(1, 2018, salary_min=90_000, salary_max=110_000)]
        assert indicators_of(ads).salary_by_year[2018] == pytest.approx(100_000)

    def test_one_bound_is_the_midpoint(self):
        ads = [ad(1, 2018, salary_min=90_000), ad(2, 2018, salary_max=50_000)]
        assert indicators_of(ads).salary_by_year[2018] == 70_000

    def test_no_salaried_ads_absent(self):
        assert indicators_of([ad(1, 2018)]).salary_by_year[2018] is None

    def test_mean_education(self):
        ads = [ad(i, 2018, education_years=y) for i, y in enumerate([12, 16, 20])]
        assert indicators_of(ads).education_by_year[2018] == pytest.approx(16.0)

    def test_means_sum_left_to_right(self):
        # A compensated sum, as the builtin one from Python 3.12, gives 1/3
        # and 0.19999999999999998.
        assert indicators._mean([1e16, 1.0, -1e16]) == 0.0
        ads = [ad(i, 2018, education_years=y) for i, y in enumerate([0.1, 0.2, 0.3])]
        assert indicators_of(ads).education_by_year[2018] == (0.1 + 0.2 + 0.3) / 3

    def test_all_absent_education(self):
        assert indicators_of([ad(1, 2018)]).education_by_year[2018] is None

    def test_mean_experience_subset_only(self):
        ads = [ad(1, 2018, experience_years=2.0), ad(2, 2018)]
        assert indicators_of(ads).experience_by_year[2018] == pytest.approx(2.0)

    def test_permutation_invariance(self):
        ads = [ad(i, 2018, education_years=float(i)) for i in range(9)]
        assert (indicators_of(ads).education_by_year
                == indicators_of(list(reversed(ads))).education_by_year)


def random_ads(rng: random.Random) -> list[dict]:
    """Ads over a few years with every optional field sometimes missing;
    some years have no salaried ad."""
    years = rng.sample(range(2010, 2020), rng.randint(1, 4))
    unsalaried = set(rng.sample(years, rng.randint(0, len(years))))
    ads = []
    for i in range(rng.randint(1, 60)):
        year = rng.choice(years)
        low = rng.uniform(1e4, 2e5) if year not in unsalaried and rng.random() < 0.7 else None
        high = (low or 1e4) + rng.uniform(0, 5e4) if year not in unsalaried \
            and rng.random() < 0.7 else None
        numbers = dict(
            salary_min=low, salary_max=high,
            education_years=rng.uniform(8, 22) if rng.random() < 0.6 else None,
            experience_years=rng.uniform(0, 15) if rng.random() < 0.6 else None,
        )
        ads.append(ad(i, year, occupation=f"occ{rng.randint(0, 2)}",
                      date=f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                      **{k: v for k, v in numbers.items() if v is not None}))
    return ads


def test_yearly_figures_equal_brute_force_exactly():
    """Medians and left-to-right means, bit for bit, for the whole corpus
    and for each occupation's ads."""
    rng = random.Random(2718)
    seen_unsalaried_year = False
    for _ in range(200):
        ads = random_ads(rng)
        corpus, _ = ingest_records(ads)
        occupations = list(corpus.occupations)
        inds = (compute_indicators(corpus, ["g"], 0, [1.0])
                + compute_indicators(corpus, occupations, corpus.occupation_codes,
                                     [1.0] * len(occupations)))
        wants = [ads] + [[a for a in ads if a["occupation"] == occ] for occ in occupations]
        for ind, group_ads in zip(inds, wants, strict=True):
            want = brute_indicators(group_ads)
            assert ind.counts_by_year == want["counts"]
            assert ind.salary_by_year == want["salary"]
            assert ind.education_by_year == want["education"]
            assert ind.experience_by_year == want["experience"]
            seen_unsalaried_year |= None in want["salary"].values()
    assert seen_unsalaried_year


def shortage_corpus():
    """Planted: high growth/salary/education, low experience. Back: flat."""
    ads = []
    i = 0
    for year, n in [(2016, 10), (2017, 20), (2018, 40)]:
        for _ in range(n):
            i += 1
            ads.append(ad(i, year, occupation="Hot", skills=("t",),
                          salary_min=140_000, salary_max=160_000,
                          education_years=18.0, experience_years=1.0))
    for year in (2016, 2017, 2018):
        for _ in range(50):
            i += 1
            ads.append(ad(i, year, occupation="Cold", skills=("x",),
                          salary_min=75_000, salary_max=85_000,
                          education_years=12.0, experience_years=4.0))
    return ads


class TestAssembleReport:
    # The median SMAPE of the market, then of the groups Cold and Hot.
    MEDIANS = [12.0, 6.0, 50.0]

    def assemble(self, ads):
        corpus, _ = ingest_records(ads)
        labels, codes = _group_ads(corpus, None)
        assert labels == ["Cold", "Hot"]
        return assemble_report(corpus, labels, codes, self.MEDIANS)

    def write(self, out_dir):
        """The shortage corpus's report, written with a backtest whose
        medians it was assembled from and the fit of its daily series."""
        corpus, _ = ingest_records(shortage_corpus())
        labels, codes = _group_ads(corpus, None)
        series = daily_series(corpus, labels, codes)
        backtest = BacktestReport(series.labels, np.array(
            [[10.0, 12.0, 14.0], [5.0, 6.0, 7.0], [40.0, 50.0, 60.0]]), 10, 5, 3)
        assert backtest.medians() == self.MEDIANS
        write_report(assemble_report(corpus, labels, codes, backtest.medians()), backtest,
                     fit(series), out_dir)

    def test_flags_five_of_five_and_zero_of_five(self):
        report = self.assemble(shortage_corpus())
        assert report.flag_count("Hot") == 5
        assert report.flag_count("Cold") == 0
        assert report.flags["Hot"]["experience"] is True  # low side flags

    def test_baseline_counts_dominate_groups(self):
        report = self.assemble(shortage_corpus())
        for g in report.groups:
            for year, count in g.counts_by_year.items():
                assert count <= report.baseline.counts_by_year[year]

    def test_partial_year_flagging(self):
        def spanning(first, last):  # the first and last ads fall on these dates
            return shortage_corpus() + [
                {"id": f"edge{i}", "date": date.isoformat(), "occupation": "Cold",
                 "skills": ["x"]}
                for i, date in enumerate((first, last))]

        full_start, full_end = dt.date(2016, 1, 1), dt.date(2018, 12, 31)
        assert self.assemble(spanning(full_start, full_end)).partial_years == []
        assert self.assemble(spanning(dt.date(2016, 3, 1), full_end)).partial_years == [2016]
        assert self.assemble(spanning(full_start, dt.date(2018, 12, 30))).partial_years == [2018]

    @pytest.mark.parametrize("n,numbers,message", [
        (3, {"education_years": 1.7e308}, "group 'market': education_years in 2017 is inf"),
        (20, {"salary_min": 1.7e308, "salary_max": 1.7e308},
         "group 'Hot': median_salary in 2017 is inf"),
    ], ids=["market-mean-overflows", "group-midpoints-overflow"])
    def test_yearly_figure_that_is_not_finite_is_a_data_error(self, n, numbers, message):
        ads = shortage_corpus()
        hot = [i for i, a in enumerate(ads)
               if a["occupation"] == "Hot" and a["date"].startswith("2017-")]
        assert len(hot) == 20
        for i in hot[:n]:
            ads[i] = {**ads[i], **numbers}
        with pytest.raises(DataError, match=re.escape(message)):
            self.assemble(ads)

    def test_written_report_directory(self, tmp_path):
        self.write(tmp_path)
        for name in ["posting_counts.csv", "posting_growth.csv", "median_salary.csv",
                     "education_years.csv", "experience_years.csv",
                     "boxplot.csv", "trend_lines.csv", "report.json"]:
            assert (tmp_path / name).is_file(), name
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["flags"]["Hot"]["shortage_consistent"] == "5/5"
        assert payload["flags"]["Cold"]["shortage_consistent"] == "0/5"
        assert [payload["baseline"]["median_smape"]] + [
            g["median_smape"] for g in payload["groups"]] == self.MEDIANS
        # The groups' backtest scores, not the market's; every label's trend.
        assert (tmp_path / "boxplot.csv").read_text().splitlines() == [
            "label,smape", "Cold,5.0", "Cold,6.0", "Cold,7.0", "Hot,40.0", "Hot,50.0",
            "Hot,60.0"]
        with (tmp_path / "trend_lines.csv").open(newline="") as fh:
            assert list(dict.fromkeys(row["label"] for row in csv.DictReader(fh))) == [
                "Cold", "Hot", "market"]

    def test_counts_written_as_integers_and_whole_figures_as_floats(self, tmp_path):
        self.write(tmp_path)
        assert (tmp_path / "posting_counts.csv").read_text().splitlines() == [
            "label,2016,2017,2018", "market,60,70,90", "Cold,50,50,50", "Hot,10,20,40"]
        assert (tmp_path / "median_salary.csv").read_text().splitlines()[2:] == [
            "Cold,80000.0,80000.0,80000.0", "Hot,150000.0,150000.0,150000.0"]

    def test_growth_csv_oracle_recompute(self, tmp_path):
        # growth CSV must match a spreadsheet-style recompute from the counts CSV
        self.write(tmp_path)
        with (tmp_path / "posting_counts.csv").open() as fh:
            counts = {row["label"]: row for row in csv.DictReader(fh)}
        with (tmp_path / "posting_growth.csv").open() as fh:
            growth = {row["label"]: row for row in csv.DictReader(fh)}
        for label, row in counts.items():
            for prev, year in [("2016", "2017"), ("2017", "2018")]:
                want = float(row[year]) / float(row[prev]) - 1
                assert float(growth[label][year]) == pytest.approx(want, rel=1e-12)


def test_daily_series_puts_the_market_first():
    """Label 0 counts every ad, those in no group too, and the groups follow
    in the order of their labels; a group may not take the market's label."""
    corpus, _ = ingest_records(shortage_corpus())
    labels, codes = _group_ads(corpus, None, {"Hot"})
    series = daily_series(corpus, labels, codes)
    assert series.labels == (MARKET, "Hot")
    assert series.counts.sum(axis=0).tolist() == [220.0, 70.0]
    with pytest.raises(DataError, match="'market' is reserved"):
        daily_series(corpus, [MARKET], 0)


def test_compute_indicators_fields():
    ads = shortage_corpus()
    [ind] = compute_indicators(ingest_records(ads)[0], ["all"], 0, [2.0])
    assert ind.counts_by_year == {2016: 60, 2017: 70, 2018: 90}
    assert ind.median_smape == 2.0
    assert ind.mean_growth == pytest.approx(
        ((70 / 60 - 1) + (90 / 70 - 1)) / 2)


def test_trend_lines_quote_labels_as_csv_writer_does(tmp_path, capsys):
    from skillscope.cli import main
    from skillscope.corpus import write_jsonl

    label = 'Ré, "Chef"'
    start = dt.date(2017, 12, 1)
    ads = [{"id": f"a{i}", "date": (start + dt.timedelta(days=i // 3)).isoformat(),
            "occupation": (label, "Dev")[i % 2], "skills": ["x"]} for i in range(270)]
    write_jsonl(ads, tmp_path / "ads.jsonl")
    out = tmp_path / "out"
    assert main(["indicators", "--input", str(tmp_path / "ads.jsonl"), "--out", str(out),
                 "--train-days", "30", "--test-days", "10", "--iterations", "3"]) == 0
    text = (out / "trend_lines.csv").read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["label", "date", "trend"]
    assert list(dict.fromkeys(r[0] for r in rows[1:])) == ["Dev", label, "market"]  # sorted
    assert f'\r\n"Ré, ""Chef""",2017-12-01,' in text
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(rows)
    assert text == expected.getvalue()


@pytest.mark.parametrize("n_days,n_changepoints,rows_per_label", [
    (101, 0, 2),     # day 0 and the last day
    (101, 3, 5),     # changepoints on days 20, 50 and 80: one row each
    (120, 25, None),
], ids=["no-changepoints", "whole-day-changepoints", "default-changepoints"])
def test_trend_lines_interpolate_to_every_daily_value(tmp_path, n_days, n_changepoints,
                                                      rows_per_label):
    rng = np.random.default_rng(n_days + n_changepoints)
    start = dt.date(2018, 1, 1)
    ads = [{"id": f"{occ}{d}_{i}", "date": (start + dt.timedelta(days=d)).isoformat(),
            "occupation": occ, "skills": ["x"]}
           for occ, rate in [("Dev", lambda d: 2 + d / 20), ("Ops", lambda d: 9 - d / 15)]
           for d in range(n_days) for i in range(rng.poisson(max(rate(d), 0.5)))]
    corpus, _ = ingest_records(ads)
    assert corpus.span() == (start, start + dt.timedelta(days=n_days - 1))
    labels, codes = _group_ads(corpus, None)
    series = daily_series(corpus, labels, codes)
    model = fit(series, FitConfig(n_changepoints=n_changepoints))
    backtest = BacktestReport(series.labels, np.ones((3, 1)), 14, 1, 1)
    write_report(assemble_report(corpus, labels, codes, backtest.medians()), backtest,
                 model, tmp_path)

    with (tmp_path / "trend_lines.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(dict.fromkeys(row["label"] for row in rows)) == ["Dev", "Ops", "market"]
    cp = model.changepoints
    if n_changepoints == 3:
        assert np.array_equal(cp, np.floor(cp))
    for j, label in enumerate(model.labels):
        days = [(dt.date.fromisoformat(row["date"]) - start).days
                for row in rows if row["label"] == label]
        values = [float(row["trend"]) for row in rows if row["label"] == label]
        assert days[0] == 0 and days[-1] == n_days - 1
        assert all(a < b for a, b in zip(days, days[1:]))
        assert len(days) <= 2 + 2 * n_changepoints
        if rows_per_label:
            assert len(days) == rows_per_label
        want = model_values(model, np.arange(model.train_len), j, trend_only=True)
        got = np.interp(np.arange(model.train_len), days, values)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
