import json
from pathlib import Path

import pytest

from skillscope.cli import main

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
    ])
    def test_out_of_range_flag(self, corpus, tmp_path, capsys, flags, rc, message):
        assert main(["backtest", "--input", str(corpus), *BACKTEST_FLAGS, *flags,
                     "--out", str(tmp_path / "bt")]) == rc
        assert message in one_line_error(capsys)

    @pytest.mark.parametrize("command", ["backtest", "indicators"])
    def test_empty_corpus_exit_2(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([command, "--input", str(empty), *BACKTEST_FLAGS,
                     "--out", str(tmp_path / "o")]) == 2
        assert "no accepted ads" in one_line_error(capsys)

    def test_bad_holiday_date_names_file_and_line(self, corpus, tmp_path, capsys):
        holidays = tmp_path / "holidays.txt"
        holidays.write_text("2017-01-01\n\n2016-13-01\n")
        assert main(["backtest", "--input", str(corpus), *BACKTEST_FLAGS,
                     "--holidays", str(holidays), "--out", str(tmp_path / "bt")]) == 2
        err = one_line_error(capsys)
        assert f"{holidays} line 3" in err and "2016-13-01" in err


class TestStages:
    def test_ingest_writes_report_and_corpus(self, corpus, tmp_path, capsys):
        out = tmp_path / "ing"
        assert main(["ingest", "--input", str(corpus), "--out", str(out)]) == 0
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rejected"] == 0
        assert (out / "corpus.jsonl").is_file()
        assert (out / "provenance.json").is_file()

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
