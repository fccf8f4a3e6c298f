import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import skillscope
from skillscope import corpus as corpus_mod
from skillscope import skillmetrics
from skillscope.cli import _sha256, main
from skillscope.errors import InvariantError

# small end-to-end scenario: one high-intensity cluster, one background
SCENARIO = {
    "seed": 5,
    "n_days": 140,
    "start_date": "2017-01-01",
    "clusters": [
        {
            "name": "target",
            "skills": ["ml", "stats", "python"],
            "occupations": ["Modeler"],
            "base_daily_rate": 4,
            "salary_level": 120000,
            "education_mean": 16,
            "experience_mean": 2,
        },
        {
            "name": "other",
            "skills": ["filing", "phones", "rostering"],
            "occupations": ["Clerk"],
            "base_daily_rate": 6,
            "salary_level": 60000,
            "education_mean": 12,
            "experience_mean": 4,
        },
    ],
    "background_skills": [["email", 0.3], ["teamwork", 0.4]],
}

BACKTEST_FLAGS = [
    "--train-days", "60", "--test-days", "14", "--iterations", "5",
    "--changepoints", "5",
]


@pytest.fixture()
def corpus(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(SCENARIO))
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "corpus.jsonl"


def seeds_file(tmp_path, skills=("ml",)):
    path = tmp_path / "seeds.txt"
    path.write_text("\n".join(skills) + "\n")
    return path


class TestExitCodes:
    def test_missing_seeds_file_exit_1_names_file(self, corpus, tmp_path, capsys):
        rc = main(["skills", "--input", str(corpus),
                   "--seeds", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing.txt" in capsys.readouterr().err

    def test_seeds_file_of_blank_lines_exit_1(self, corpus, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("\n  \n\t\n")
        assert main(["skills", "--input", str(corpus), "--seeds", str(seeds),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"usage error: seeds file is empty: {seeds}" in one_line_error(capsys)

    def test_missing_input_exit_1(self, tmp_path, capsys):
        rc = main(["ingest", "--input", str(tmp_path / "none.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["skills", "--nonsense"]) == 1

    def test_data_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n')  # missing everything else
        rc = main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err


@pytest.fixture()
def no_ingest(monkeypatch):
    """Make any ingest fail the test: the command must end before it."""
    def ingest(*args, **kwargs):
        raise AssertionError("ingest ran")

    monkeypatch.setattr(corpus_mod, "ingest", ingest)


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


class TestBacktestInputErrors:
    @pytest.mark.parametrize("flags,rc,message", [
        (["--iterations", "0"], 2, "0 iterations; needs at least 1"),
        (["--test-days", "0"], 2, "test window of 0 days; needs at least 1"),
        (["--changepoints", "-1"], 1, "--changepoints: must be >= 0"),
        (["--ridge-lambda", "-0.5"], 1, "--ridge-lambda: must be >= 0"),
        (["--ridge-lambda", "inf"], 1, "--ridge-lambda: must be >= 0 and finite"),
    ])
    def test_out_of_range_flag(self, corpus, tmp_path, capsys, flags, rc, message):
        assert main(["backtest", "--input", str(corpus), *BACKTEST_FLAGS, *flags,
                     "--out", str(tmp_path / "bt")]) == rc
        assert message in one_line_error(capsys)

    @pytest.mark.parametrize("command", [["backtest"], ["indicators"],
                                         ["report", "--seed-skill", "ml"]])
    def test_changepoints_above_train_days_exit_1_before_ingest(
            self, corpus, tmp_path, capsys, no_ingest, command):
        tracemalloc.start()
        try:
            rc = main([*command, "--input", str(corpus), *BACKTEST_FLAGS,
                       "--changepoints", str(10**8), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "--changepoints 100000000 is above --train-days 60" in one_line_error(capsys)
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("command,flags,message", [
        *[(command, ["--threshold", value], "threshold must be in (0, 1)")
          for command in (["occupations", "--skills", "skills.csv"],
                          ["report", "--seed-skill", "ml"])
          for value in ("0", "1", "-0.5", "1.5", "nan")],
        *[(command, flags, message)
          for command in (["skills", "--seed-skill", "ml"], ["report", "--seed-skill", "ml"])
          for flags, message in ((["--per-seed-k", "0"], "per_seed_k must be >= 1"),
                                 (["--cutoff", "-2"], "cutoff must be >= 1"))],
        *[(command, [*BACKTEST_FLAGS, *flags], message)
          for command in (["backtest"], ["indicators"], ["report", "--seed-skill", "ml"])
          for flags, message in (
              (["--train-days", "13"], "train window of 13 days is shorter than two weeks"),
              (["--test-days", "0"], "test window of 0 days; needs at least 1"),
              (["--iterations", "-1"], "-1 iterations; needs at least 1"))],
    ])
    def test_value_no_corpus_makes_valid_exit_2_before_ingest(
            self, corpus, tmp_path, capsys, no_ingest, command, flags, message):
        out = tmp_path / "o"
        assert main([*command, "--input", str(corpus), *flags, "--out", str(out)]) == 2
        assert message in one_line_error(capsys)
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command,flag", [
        (["occupations", "--skills", "{skills}"], "--category-map"),
        (["indicators", *BACKTEST_FLAGS], "--category-map"),
        (["report", "--seed-skill", "ml", *BACKTEST_FLAGS], "--category-map"),
        (["occupations"], "--skills"),
    ], ids=["occupations-map", "indicators-map", "report-map", "occupations-skills"])
    # Three columns: too many for a category map, and no theta for a skill set.
    @pytest.mark.parametrize("content,rc", [(None, 1), (b"skill,rank,extra\nml,1,2\n", 2)],
                             ids=["missing", "malformed"])
    def test_bad_side_input_file_exits_before_ingest(
            self, corpus, tmp_path, capsys, no_ingest, command, flag, content, rc):
        skills = tmp_path / "skills.csv"
        skills.write_text("skill,theta\nml,1.0\n")
        bad = tmp_path / "side-input"
        if content is not None:
            bad.write_bytes(content)
        out = tmp_path / "o"
        argv = [a.format(skills=skills) for a in command]
        assert main([*argv, flag, str(bad), "--input", str(corpus), "--out", str(out)]) == rc
        assert str(bad) in one_line_error(capsys)
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", [
        ["occupations", "--skills", "{skills}"], ["indicators", *BACKTEST_FLAGS],
        ["report", "--seed-skill", "ml", *BACKTEST_FLAGS]],
        ids=["occupations", "indicators", "report"])
    def test_occupation_under_two_categories_exit_2_before_ingest(
            self, corpus, tmp_path, capsys, no_ingest, command):
        skills = tmp_path / "skills.csv"
        skills.write_text("skill,theta\nml,1.0\n")
        mapping = tmp_path / "map.csv"
        mapping.write_text("Modeler,Data\nClerk,Office\nModeler,Office\n")
        out = tmp_path / "o"
        argv = [a.format(skills=skills) for a in command]
        assert main([*argv, "--category-map", str(mapping), "--input", str(corpus),
                     "--out", str(out)]) == 2
        assert one_line_error(capsys) == (
            f"data error: malformed category map {mapping} at line 3: "
            "occupation 'Modeler' is under both 'Data' and 'Office'\n")
        assert not any(out.iterdir())

    def test_unknown_occupation_exit_2_writes_no_file(self, corpus, tmp_path, capsys):
        out = tmp_path / "bt"
        assert main(["backtest", "--input", str(corpus), *BACKTEST_FLAGS,
                     "--occupation", "No Such Job", "--out", str(out)]) == 2
        assert "no accepted ad has occupation 'No Such Job'" in one_line_error(capsys)
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["backtest", "indicators"])
    def test_empty_corpus_exit_2(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([command, "--input", str(empty), *BACKTEST_FLAGS,
                     "--out", str(tmp_path / "o")]) == 2
        assert "no accepted ads" in one_line_error(capsys)

    def test_csv_corpus_without_header_row(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        ingested = tmp_path / "ingested"
        assert main(["ingest", "--format", "csv", "--input", str(empty),
                     "--out", str(ingested)]) == 0
        assert json.loads((ingested / "ingest_report.json").read_text())["accepted"] == 0
        out = tmp_path / "o"
        assert main(["report", "--format", "csv", "--input", str(empty),
                     "--seed-skill", "ml", *BACKTEST_FLAGS, "--out", str(out)]) == 2
        assert "empty corpus" in one_line_error(capsys)
        assert not any(out.iterdir())

    def test_bad_holiday_date_names_file_and_line(self, corpus, tmp_path, capsys):
        holidays = tmp_path / "holidays.txt"
        holidays.write_text("2017-01-01\n\n2016-13-01\n")
        assert main(["backtest", "--input", str(corpus), *BACKTEST_FLAGS,
                     "--holidays", str(holidays), "--out", str(tmp_path / "bt")]) == 2
        err = one_line_error(capsys)
        assert f"{holidays} line 3" in err and "2016-13-01" in err

    @pytest.mark.parametrize("date", ["20170102", "2017-W01-1", "2017-1-2"])
    def test_holiday_date_not_yyyy_mm_dd_exit_2(self, corpus, tmp_path, capsys, date):
        holidays = tmp_path / "holidays.txt"
        holidays.write_text(f"{date}\n")
        assert main(["backtest", "--input", str(corpus), *BACKTEST_FLAGS,
                     "--holidays", str(holidays), "--out", str(tmp_path / "bt")]) == 2
        assert f"line 1: not a YYYY-MM-DD date: {date!r}" in one_line_error(capsys)


NOT_UTF8 = b"\xff\xfenot text\n"
# JSON nested past the interpreter's recursion limit, and an integer over
# its digit limit: valid JSON that json.loads cannot take.
DEEP_JSON = b"[" * 100000 + b"]" * 100000
HUGE_INTEGER_JSON = b'{"seed": ' + b"9" * 5000 + b"}"


class TestInputFileErrors:
    @pytest.mark.parametrize("argv,content", [
        (["ingest", "--input", "{bad}"], NOT_UTF8),
        (["ingest", "--format", "csv", "--input", "{bad}"], NOT_UTF8),
        (["skills", "--input", "{corpus}", "--seeds", "{bad}"], NOT_UTF8),
        (["backtest", "--input", "{corpus}", *BACKTEST_FLAGS, "--holidays", "{bad}"],
         NOT_UTF8),
        (["indicators", "--input", "{corpus}", *BACKTEST_FLAGS, "--category-map", "{bad}"],
         NOT_UTF8),
        (["indicators", "--input", "{corpus}", *BACKTEST_FLAGS, "--category-map", "{bad}"],
         b"Modeler,Data,extra\n"),
        (["occupations", "--input", "{corpus}", "--skills", "{bad}"], NOT_UTF8),
        (["occupations", "--input", "{corpus}", "--skills", "{bad}"], b"rank,name\n1,ml\n"),
        (["occupations", "--input", "{corpus}", "--skills", "{bad}"],
         b"rank,skill,theta\n1,ml,high\n"),
        (["synth", "--config", "{bad}"], NOT_UTF8),
        (["synth", "--config", "{bad}"], b"{not json"),
        (["synth", "--config", "{bad}"], DEEP_JSON),
        (["synth", "--config", "{bad}"], HUGE_INTEGER_JSON),
        (["report", "--config-file", "{bad}"], NOT_UTF8),
        (["report", "--config-file", "{bad}"], b"{not json"),
        (["report", "--config-file", "{bad}"], DEEP_JSON),
        (["report", "--config-file", "{bad}"], HUGE_INTEGER_JSON),
    ], ids=["input-jsonl", "input-csv", "seeds", "holidays", "category-map",
            "category-map-3-columns", "skills", "skills-no-columns",
            "skills-theta-not-a-number", "synth-config", "synth-config-bad-json",
            "synth-config-deep", "synth-config-huge-integer",
            "config-file", "config-file-bad-json", "config-file-deep",
            "config-file-huge-integer"])
    def test_one_line_error_naming_the_file(self, corpus, tmp_path, capsys, argv, content):
        bad = tmp_path / "bad-file"
        bad.write_bytes(content)
        argv = [a.format(bad=bad, corpus=corpus) for a in argv]
        rc = main([*argv, "--out", str(tmp_path / "o")])
        err = one_line_error(capsys)
        assert rc in (1, 2) and str(bad) in err
        if content in (DEEP_JSON, HUGE_INTEGER_JSON):
            assert (rc, err.split(":")[0]) == (2, "data error")

    @pytest.mark.parametrize("out", ["{file}", "{file}/o"], ids=["file", "under-a-file"])
    def test_out_not_a_directory_exit_1(self, corpus, tmp_path, capsys, out):
        existing = tmp_path / "existing-file"
        existing.write_text("keep me\n")
        out = out.format(file=existing)
        assert main(["ingest", "--input", str(corpus), "--out", out]) == 1
        err = one_line_error(capsys)
        assert err.startswith(f"usage error: cannot make --out directory {out}: ")
        assert existing.read_text() == "keep me\n"

    @pytest.mark.parametrize("argv,blocked", [
        (["skills", "--seed-skill", "ml"], "skills.json"),
        (["ingest"], "provenance.json"),
    ], ids=["skills-json", "provenance-json"])
    def test_unwritable_output_file_exit_1_names_it(self, corpus, tmp_path, capsys, argv,
                                                    blocked):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        assert main([*argv, "--input", str(corpus), "--out", str(out)]) == 1
        err = one_line_error(capsys)
        assert err.startswith(f"file error: {out / blocked}: ") and "directory" in err

    def test_config_file_flag_without_file_exit_1(self, capsys):
        assert main(["report", "--config-file"]) == 1
        assert "needs a file name" in one_line_error(capsys)

    def test_config_file_not_an_object_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert main(["report", "--config-file", str(cfg)]) == 1
        assert "JSON object" in one_line_error(capsys)

    @pytest.mark.parametrize("config,message", [
        ([SCENARIO], "expected a JSON object"),
        ({**SCENARIO, "n_days": "x"}, "expected an integer, got 'x'"),
        ({**SCENARIO, "n_days": "140"}, "expected an integer, got '140'"),
        ({**SCENARIO, "n_days": 140.7}, "expected an integer, got 140.7"),
        ({**SCENARIO, "seed": 5.9}, "expected an integer, got 5.9"),
        ({**SCENARIO, "seed": True}, "expected an integer, got True"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0],
                                    "growth_changepoints": [[30.9, 0.1]]}]},
         "expected an integer, got 30.9"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0],
                                    "growth_changepoints": [[-10**400, 0.1]]}]},
         "invalid ClusterSpec.growth_changepoints for 'target': days must be >= 0"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0], "skills": 5}]},
         "expected a list of names"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0], "base_daily_rate": 1e300}]},
         "synth cluster 'target': daily rate 1e+300 on day 0 is above the limit"),
        # crossed after the first cluster's ads of day 0 are drawn
        ({**SCENARIO, "clusters": [SCENARIO["clusters"][0],
                                   {**SCENARIO["clusters"][1], "base_daily_rate": 1e300}]},
         "synth cluster 'other': daily rate 1e+300 on day 0 is above the limit"),
        ({**SCENARIO, "deterministic_counts": True,
          "clusters": [{**SCENARIO["clusters"][0], "base_daily_rate": 1e300}]},
         "synth cluster 'target': daily rate 1e+300 on day 0 is above the limit"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0], "annual_growth": -2}]},
         "invalid ClusterSpec growth for 'target'"),
        ({**SCENARIO, "start_date": "2017-W01-1"}, "not a YYYY-MM-DD date: '2017-W01-1'"),
        ({**SCENARIO, "deterministic_counts": "false"}, "expected true or false, got 'false'"),
        ({**SCENARIO, "seed": -1}, "invalid SynthConfig.seed: must be >= 0"),
        ({**SCENARIO, "clusters": []}, "need at least one cluster"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0], "occupations": []}]},
         "invalid ClusterSpec.occupations for 'target': empty"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0], "base_daily_rate": -1}]},
         "invalid ClusterSpec.base_daily_rate for 'target'"),
        ({**SCENARIO, "weekly_amplitude": 1.0},
         "invalid SynthConfig.weekly_amplitude: must be in [0, 1)"),
        ({**SCENARIO, "yearly_amplitude": -0.1},
         "invalid SynthConfig.yearly_amplitude: must be in [0, 1)"),
        ({**SCENARIO, "noise_level": -0.5}, "invalid SynthConfig.noise_level: must be >= 0"),
        ({**SCENARIO, "noise_level": float("nan")}, "non-finite number nan"),
        ({**SCENARIO, "clusters": [{**SCENARIO["clusters"][0], "salary_level": "high"}]},
         "expected a finite number or null, got 'high'"),
    ], ids=["array", "n_days-not-a-number", "n_days-text", "n_days-fraction",
            "seed-fraction", "seed-boolean", "changepoint-day-fraction",
            "changepoint-day-negative", "skills-not-a-list",
            "rate-above-poisson-limit", "second-cluster-rate-above-poisson-limit",
            "deterministic-rate-above-poisson-limit",
            "growth-below-minus-one", "start-date-iso-week", "deterministic-counts-text",
            "seed-negative", "no-clusters", "occupations-empty", "rate-negative",
            "weekly-amplitude-one", "yearly-amplitude-negative", "noise-negative",
            "noise-nan", "salary-level-text"])
    def test_bad_synth_config_exit_2(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in one_line_error(capsys)
        assert list((tmp_path / "o").iterdir()) == []  # no corpus, not even a part of one


class TestReservedMarketLabel:
    @pytest.mark.parametrize("occupation,mapping", [
        ("market", None),
        ("Analyst", "Analyst,market\n"),
    ], ids=["occupation", "category"])
    def test_group_named_market_exit_2(self, tmp_path, capsys, occupation, mapping):
        scenario = {**SCENARIO, "clusters": [
            {**SCENARIO["clusters"][0], "occupations": [occupation]},
            SCENARIO["clusters"][1],
        ]}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        argv = ["indicators", "--input", str(tmp_path / "s" / "corpus.jsonl"),
                *BACKTEST_FLAGS, "--out", str(tmp_path / "o")]
        if mapping:
            (tmp_path / "map.csv").write_text(mapping)
            argv += ["--category-map", str(tmp_path / "map.csv")]
        assert main(argv) == 2
        assert "group label 'market' is reserved" in one_line_error(capsys)
        assert not (tmp_path / "o" / "trend_lines.csv").exists()


@pytest.mark.parametrize("flags,mapping,message", [
    ([], "Modeler,market\n", "group label 'market' is reserved"),
    (["--train-days", "700"], None, "too short for the backtest"),
    # the seed alone is the skill set: no occupation's ads are 90% "ml"
    (["--cutoff", "1", "--threshold", "0.9"], None,
     "no occupation exceeds eta > 0.9; nothing to report on"),
], ids=["category-market", "train-days-above-span", "no-occupation-above-threshold"])
def test_failed_report_writes_no_file(corpus, tmp_path, capsys, flags, mapping, message):
    argv = ["report", "--input", str(corpus), "--seed-skill", "ml", "--per-seed-k", "10",
            "--cutoff", "5", *BACKTEST_FLAGS, *flags, "--out", str(tmp_path / "o")]
    if mapping:
        (tmp_path / "map.csv").write_text(mapping)
        argv += ["--category-map", str(tmp_path / "map.csv")]
    assert main(argv) == 2
    assert message in one_line_error(capsys)
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_overflowing_yearly_figure_exit_2_writes_no_file(corpus, tmp_path, capsys):
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    for rec in records[:3]:  # all posted in 2017; their sum overflows a float
        rec["education_years"] = 1.7e308
    huge = tmp_path / "huge.jsonl"
    huge.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = tmp_path / "o"
    assert main(["indicators", "--input", str(huge), *BACKTEST_FLAGS,
                 "--out", str(out)]) == 2
    assert "group 'market': education_years in 2017 is inf" in one_line_error(capsys)
    assert not any(out.iterdir())


def test_seed_without_neighbours_warns_on_one_line(tmp_path, capsys):
    corpus = tmp_path / "ads.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": str(i), "date": f"2020-01-0{i}", "occupation": occ,
                    "skills": skills}) + "\n"
        for i, occ, skills in [(1, "A", ["x"]), (2, "B", ["y", "z"]),
                               (3, "B", ["y", "z", "w"])]))
    assert main(["skills", "--input", str(corpus), "--seed-skill", "x",
                 "--seed-skill", "y", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == (
        "warning: seed 'x' has no complementarity neighbours; "
        "it contributes an empty list\n")


def test_invariant_violation_exit_3_writes_no_file(corpus, tmp_path, capsys, monkeypatch):
    def compute_rca(index):
        raise InvariantError("every ad must have at least one skill")

    monkeypatch.setattr(skillmetrics, "compute_rca", compute_rca)
    out = tmp_path / "o"
    assert main(["report", "--input", str(corpus), "--seed-skill", "ml", *BACKTEST_FLAGS,
                 "--out", str(out)]) == 3
    assert one_line_error(capsys) == ("internal error (invariant violated): "
                                      "every ad must have at least one skill\n")
    assert not any(out.iterdir())


class TestStages:
    def test_ingest_writes_report_and_corpus(self, corpus, tmp_path, capsys):
        out = tmp_path / "ing"
        assert main(["ingest", "--input", str(corpus), "--out", str(out)]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rejected"] == 0
        assert (out / "corpus.jsonl").is_file()
        assert (out / "provenance.json").is_file()

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_ingest_onto_its_own_input_exit_1(self, corpus, tmp_path, capsys, link):
        out = corpus.parent
        given = corpus
        if link:
            given = tmp_path / "link.jsonl"
            given.symlink_to(corpus)
        before, files = corpus.read_bytes(), sorted(out.iterdir())
        assert main(["ingest", "--input", str(given), "--out", str(out)]) == 1
        assert one_line_error(capsys) == (
            f"usage error: --input {given} is the corpus.jsonl that ingest would "
            f"write to --out {out}\n")
        assert corpus.read_bytes() == before
        assert sorted(out.iterdir()) == files

    def test_ingest_rejects_an_integer_over_the_digit_limit(self, corpus, tmp_path,
                                                              capsys):
        with corpus.open("a") as fh:
            fh.write('{"id": "big", "salary_min": ' + "9" * 5000 + "}\n")
        assert main(["ingest", "--input", str(corpus), "--out", str(tmp_path / "ing")]) == 0
        captured = capsys.readouterr()
        assert "rejected 1 " in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_skills_stage(self, corpus, tmp_path, capsys):
        out = tmp_path / "skills"
        rc = main(["skills", "--input", str(corpus),
                   "--seeds", str(seeds_file(tmp_path)),
                   "--per-seed-k", "10", "--cutoff", "10",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "skills.csv").read_text().splitlines()
        assert lines[0] == "rank,skill,theta"
        skills = [l.split(",")[1] for l in lines[1:]]
        assert skills[0] == "ml"
        assert {"stats", "python"} <= set(skills)

    def test_occupations_stage(self, corpus, tmp_path, capsys):
        skills_out = tmp_path / "sk"
        main(["skills", "--input", str(corpus), "--seeds", str(seeds_file(tmp_path)),
              "--per-seed-k", "10", "--cutoff", "3", "--out", str(skills_out)])
        out = tmp_path / "occ"
        rc = main(["occupations", "--input", str(corpus),
                   "--skills", str(skills_out / "skills.csv"),
                   "--out", str(out)])
        assert rc == 0
        text = (out / "occupations.csv").read_text()
        assert "Modeler" in text
        assert "Clerk" not in text  # below the intensity threshold

    def test_backtest_stage(self, corpus, tmp_path, capsys):
        out = tmp_path / "bt"
        rc = main(["backtest", "--input", str(corpus), "--occupation", "Modeler",
                   *BACKTEST_FLAGS, "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "backtest.json").read_text())
        assert len(payload["scores"]) == 5
        assert all(0 <= s <= 200 for s in payload["scores"])

    def test_backtest_label_with_comma_is_quoted(self, tmp_path, capsys):
        scenario = {**SCENARIO, "clusters": [
            {**SCENARIO["clusters"][0], "occupations": ["Analyst, data"]},
            SCENARIO["clusters"][1],
        ]}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(scenario))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        out = tmp_path / "bt"
        assert main(["backtest", "--input", str(tmp_path / "s" / "corpus.jsonl"),
                     "--occupation", "Analyst, data", *BACKTEST_FLAGS,
                     "--out", str(out)]) == 0
        with (out / "boxplot.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["label"] for r in rows] == ["Analyst, data"] * 5

    def test_indicators_provenance_records_backtest_settings(self, corpus, tmp_path,
                                                              capsys):
        out = tmp_path / "ind"
        assert main(["indicators", "--input", str(corpus), *BACKTEST_FLAGS,
                     "--out", str(out)]) == 0
        config = json.loads((out / "provenance.json").read_text())["config"]
        assert {k: config[k] for k in ("train_days", "test_days", "iterations",
                                       "changepoints", "ridge_lambda", "holidays")} == {
            "train_days": 60, "test_days": 14, "iterations": 5,
            "changepoints": 5, "ridge_lambda": 1.0, "holidays": None}
        assert "out" not in config

    def test_backtest_too_short_exit_2(self, corpus, tmp_path, capsys):
        rc = main(["backtest", "--input", str(corpus),
                   "--out", str(tmp_path / "bt2")])  # default-size windows
        assert rc == 2
        assert "needs at least" in capsys.readouterr().err


class TestReport:
    def run_report(self, corpus, tmp_path, out_name, extra=()):
        out = tmp_path / out_name
        rc = main(["report", "--input", str(corpus),
                   "--seeds", str(seeds_file(tmp_path)),
                   "--per-seed-k", "10", "--cutoff", "5",
                   *BACKTEST_FLAGS, *extra, "--out", str(out)])
        assert rc == 0
        return out

    def test_full_chain_outputs(self, corpus, tmp_path, capsys):
        out = self.run_report(corpus, tmp_path, "run1")
        for name in ["skills.csv", "skills.json", "occupations.csv",
                     "posting_counts.csv", "median_salary.csv", "boxplot.csv",
                     "trend_lines.csv", "report.json", "provenance.json"]:
            assert (out / name).is_file(), name
        payload = json.loads((out / "report.json").read_text())
        assert "Modeler" in payload["flags"]

    def test_byte_identical_reruns(self, corpus, tmp_path, capsys):
        out1 = self.run_report(corpus, tmp_path, "run1")
        out2 = self.run_report(corpus, tmp_path, "run2")
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            b1, b2 = (out1 / name).read_bytes(), (out2 / name).read_bytes()
            if name == "provenance.json":
                p1 = json.loads(b1)
                p2 = json.loads(b2)
                p1.pop("created_at"), p2.pop("created_at")
                assert p1 == p2
            else:
                assert b1 == b2, name

    def test_config_file_expansion(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "input": str(corpus),
            "seeds": str(seeds_file(tmp_path)),
            "per_seed_k": 10, "cutoff": 5,
            "train_days": 60, "test_days": 14, "iterations": 5,
            "changepoints": 5,
            "out": str(tmp_path / "cfgrun"),
        }))
        assert main(["report", "--config-file", str(cfg)]) == 0
        assert (tmp_path / "cfgrun" / "report.json").is_file()

    def test_provenance_records_input_hash(self, corpus, tmp_path, capsys):
        out = self.run_report(corpus, tmp_path, "run-prov")
        prov = json.loads((out / "provenance.json").read_text())
        assert str(corpus) in prov["inputs"]
        assert len(list(prov["inputs"].values())[0]) == 64
        assert prov["config"]["train_days"] == 60

    @pytest.mark.parametrize("size", [0, 65_535, 65_536, 65_537, 200_001])
    def test_input_hash_is_the_sha256_of_the_whole_file(self, tmp_path, size):
        """``_sha256`` reads through one 64 KiB buffer: files one byte short
        of it, filling it, one byte over and many buffers long."""
        data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        assert _sha256(path) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("error", [AttributeError, OSError, TypeError])
    def test_provenance_written_where_the_heap_cannot_be_trimmed(
            self, corpus, tmp_path, capsys, monkeypatch, error):
        """A C library without ``malloc_trim`` (AttributeError), none to
        load (OSError), or ``CDLL(None)`` refused, as on Windows
        (TypeError): the heap is left as it is."""
        import ctypes

        def library(name):
            raise error(name)
        monkeypatch.setattr(ctypes, "CDLL", library)
        out = self.run_report(corpus, tmp_path, "no-trim")
        assert len(json.loads((out / "provenance.json").read_text())["inputs"]) == 2

    def test_holidays_recorded_in_provenance(self, corpus, tmp_path, capsys):
        holidays = tmp_path / "holidays.txt"
        holidays.write_text("2017-01-02\n2017-02-14\n")
        plain = self.run_report(corpus, tmp_path, "plain")
        with_h = self.run_report(corpus, tmp_path, "with-h",
                                 ["--holidays", str(holidays)])
        p1 = json.loads((plain / "provenance.json").read_text())
        p2 = json.loads((with_h / "provenance.json").read_text())
        assert p1["config"] != p2["config"]
        assert p2["config"]["holidays"] == str(holidays)
        assert str(holidays) in p2["inputs"] and str(holidays) not in p1["inputs"]
        assert len(p2["inputs"][str(holidays)]) == 64

    def test_report_imports_only_what_it_runs(self, corpus, tmp_path):
        """``report`` in a fresh interpreter loads neither the generator nor
        ``numpy.ma``, which NumPy 2 imports only on first use (a median, a
        percentile, ``np.unique`` without counts) and NumPy 1 with ``numpy``
        itself, nor ``statistics`` and the ``fractions`` and ``decimal`` it
        imports. ``hashlib``, which maps OpenSSL, is loaded neither with the
        CLI nor by the time the last stage writes its files: only the
        provenance step after it hashes."""
        script = ("import json, sys, numpy\n"
                  "eager = set(sys.modules)\n"
                  "from skillscope.cli import main\n"
                  "from skillscope import indicators\n"
                  "at_import = sorted(sys.modules)\n"
                  "write_report, at_write = indicators.write_report, []\n"
                  "def wrapped(*args):\n"
                  "    at_write.extend(sys.modules)\n"
                  "    return write_report(*args)\n"
                  "indicators.write_report = wrapped\n"
                  "code = main(sys.argv[1:])\n"
                  "print(json.dumps([code, sorted(set(sys.modules) - eager),\n"
                  "                  at_import, at_write]))\n")
        argv = ["report", "--input", str(corpus), "--seeds", str(seeds_file(tmp_path)),
                "--per-seed-k", "10", "--cutoff", "5", *BACKTEST_FLAGS,
                "--out", str(tmp_path / "out")]
        src = str(Path(skillscope.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        code, loaded, at_import, at_write = json.loads(run.stdout.splitlines()[-1])
        assert code == 0
        assert not {"skillscope.synthgen", "numpy.ma", "statistics", "fractions",
                    "decimal"} & set(loaded)
        assert at_write, "write_report was not called"
        for modules in (at_import, at_write):
            assert not {"hashlib", "_hashlib"} & set(modules)

    @pytest.mark.parametrize("text,labels", [
        ("Clerk,Office\n", ["Office", "uncategorized"]),
        ("occupation,category\n", ["uncategorized"]),  # a given map that names none
    ], ids=["one-named", "header-only"])
    def test_unmapped_occupations_uncategorized_in_indicators_and_report(
            self, corpus, tmp_path, capsys, text, labels):
        mapping = tmp_path / "map.csv"
        mapping.write_text(text)
        out = tmp_path / "ind"
        assert main(["indicators", "--input", str(corpus), *BACKTEST_FLAGS,
                     "--category-map", str(mapping), "--out", str(out)]) == 0
        ind = json.loads((out / "report.json").read_text())
        rep = json.loads((self.run_report(corpus, tmp_path, "rep",
                                          ["--category-map", str(mapping)])
                          / "report.json").read_text())
        assert [g["label"] for g in ind["groups"]] == labels
        # the report selects both occupations, so both group the same ads
        assert rep["groups"] == ind["groups"]


class TestConfigFile:
    def run_skills(self, corpus, tmp_path, *flags) -> dict:
        """Run ``skills`` with ``flags`` and a config file setting cutoff 3;
        returns the parsed flags from provenance.json."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cutoff": 3, "per_seed_k": 10}))
        out = tmp_path / "o"
        assert main(["skills", "--input", str(corpus), "--seed-skill", "ml",
                     *[f.format(cfg=cfg) for f in flags], "--out", str(out)]) == 0
        return json.loads((out / "provenance.json").read_text())["config"]

    @pytest.mark.parametrize("flags", [["--cutoff", "2"], ["--cutoff=2"]],
                             ids=["flag-value", "flag=value"])
    def test_explicit_flag_beats_config_file(self, corpus, tmp_path, capsys, flags):
        config = self.run_skills(corpus, tmp_path, *flags, "--config-file", "{cfg}")
        assert (config["cutoff"], config["per_seed_k"]) == (2, 10)

    def test_config_file_given_with_equals(self, corpus, tmp_path, capsys):
        config = self.run_skills(corpus, tmp_path, "--config-file={cfg}")
        assert (config["cutoff"], config["per_seed_k"]) == (3, 10)

    def test_explicit_seeds_file_beats_seed_skill_in_config_file(self, corpus, tmp_path,
                                                                  capsys):
        seeds = seeds_file(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed_skill": ["filing"]}))
        out = tmp_path / "o"
        assert main(["skills", "--input", str(corpus), "--seeds", str(seeds),
                     "--config-file", str(cfg), "--out", str(out)]) == 0
        with (out / "skills.csv").open(newline="") as fh:
            assert next(csv.DictReader(fh))["skill"] == "ml"
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["config"]["seed_skill"] is None
        assert str(seeds) in provenance["inputs"]

    def test_explicit_default_categories_beat_category_map_in_config_file(
            self, corpus, tmp_path, capsys):
        mapping = tmp_path / "cm.csv"
        mapping.write_text("Modeler,FromFile\nClerk,FromFile\n")
        skills = tmp_path / "skills.csv"
        skills.write_text("rank,skill,theta\n1,ml,1.0\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"category_map": str(mapping)}))
        out = tmp_path / "o"
        assert main(["occupations", "--input", str(corpus), "--skills", str(skills),
                     "--default-categories", "--config-file", str(cfg),
                     "--out", str(out)]) == 0
        assert "FromFile" not in (out / "occupations.csv").read_text()
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["config"]["category_map"] is None
        assert str(mapping) not in provenance["inputs"]

    @pytest.mark.parametrize("key,default", [("holidays", None), ("changepoints", 25)])
    def test_null_leaves_the_flag_unset(self, corpus, tmp_path, capsys, key, default):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "o"
        assert main(["backtest", "--input", str(corpus), "--train-days", "60",
                     "--test-days", "14", "--iterations", "5",
                     "--config-file", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "provenance.json").read_text())["config"][key] == default

    @pytest.mark.parametrize("key,value", [("seed_skill", ["ml", None]),
                                           ("cutoff", {"x": 1}),
                                           ("seed_skill", ["ml", [1, 2]])],
                             ids=["null-in-list", "object", "nested-list"])
    def test_value_no_flag_can_take_is_a_usage_error(self, corpus, tmp_path, capsys,
                                                       key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["skills", "--input", str(corpus), "--config-file", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"usage error: config file key {key!r}" in one_line_error(capsys)

    def test_true_sets_the_flag(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"avg_over_all_seeds": True}))
        out = tmp_path / "o"
        assert main(["skills", "--input", str(corpus), "--seed-skill", "ml",
                     "--config-file", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "skills.json").read_text())["avg_over_all_seeds"] is True

    def test_seeds_file_and_seed_skill_together_exit_1(self, corpus, tmp_path, capsys):
        assert main(["skills", "--input", str(corpus), "--seeds", str(seeds_file(tmp_path)),
                     "--seed-skill", "ml", "--out", str(tmp_path / "o")]) == 1
        assert "--seed-skill: not allowed with argument --seeds" in one_line_error(capsys)

    @pytest.mark.parametrize("flags", [["--cut", "2"], ["--cut", "2", "--config-file", "{cfg}"]],
                             ids=["alone", "with-config-file"])
    def test_abbreviated_flag_is_a_usage_error(self, corpus, tmp_path, capsys, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cutoff": 3}))
        assert main(["skills", "--input", str(corpus), "--seed-skill", "ml",
                     *[f.format(cfg=cfg) for f in flags], "--out", str(tmp_path / "o")]) == 1
        assert "unrecognized arguments: --cut 2" in capsys.readouterr().err


def write_inputs(corpus: Path, folder: Path, bom_in: str = "") -> dict[str, Path]:
    """Every kind of text input file a command reads, written into ``folder``;
    the one named ``bom_in`` starts with a UTF-8 byte-order mark."""
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    fields = ["id", "date", "occupation", "skills", "salary_min", "salary_max",
              "education_years", "experience_years"]
    csv_rows = [",".join(fields)] + [
        ",".join(";".join(r[f]) if f == "skills" else str(r[f]) for f in fields)
        for r in records]
    texts = {
        "jsonl": corpus.read_text(),
        "csv": "\n".join(csv_rows) + "\n",
        "seeds": "ml\nstats\n",
        "holidays": "2017-01-02\n2017-02-14\n",
        "map": "Modeler,Data\nClerk,Office\n",
        "skills": "skill,theta\nml,1.0\nstats,0.5\n",
        "config": json.dumps({"seed_skill": ["ml"], "per_seed_k": 10, "cutoff": 5}),
        "synth": json.dumps(SCENARIO),
    }
    folder.mkdir()
    paths = {}
    for name, text in texts.items():
        paths[name] = folder / name
        paths[name].write_text(("\ufeff" if name == bom_in else "") + text, encoding="utf-8")
    return paths


# One command per kind of input file, reading it from ``write_inputs``.
BOM_CASES = {
    "jsonl": ["ingest", "--input", "{jsonl}"],
    "csv": ["ingest", "--format", "csv", "--input", "{csv}"],
    "seeds": ["skills", "--input", "{jsonl}", "--seeds", "{seeds}",
              "--per-seed-k", "10", "--cutoff", "5"],
    "holidays": ["backtest", "--input", "{jsonl}", *BACKTEST_FLAGS,
                 "--holidays", "{holidays}"],
    "map": ["indicators", "--input", "{jsonl}", *BACKTEST_FLAGS,
            "--category-map", "{map}"],
    "skills": ["occupations", "--input", "{jsonl}", "--skills", "{skills}"],
    "config": ["skills", "--input", "{jsonl}", "--config-file", "{config}"],
    "synth": ["synth", "--config", "{synth}"],
}


@pytest.mark.parametrize("name", sorted(BOM_CASES))
def test_byte_order_mark_gives_the_same_outputs(corpus, tmp_path, capsys, name):
    argv = BOM_CASES[name]
    outs = []
    for run, bom_in in [("plain", ""), ("bom", name)]:
        paths = write_inputs(corpus, tmp_path / f"{run}-in", bom_in)
        out = tmp_path / run
        assert main([*[a.format(**paths) for a in argv], "--out", str(out)]) == 0
        outs.append(out)
    plain, bom = outs
    files = sorted(p.name for p in plain.iterdir() if p.name != "provenance.json")
    assert files == sorted(p.name for p in bom.iterdir() if p.name != "provenance.json")
    for file in files:
        assert (plain / file).read_bytes() == (bom / file).read_bytes(), file
