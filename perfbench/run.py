"""Benchmark of ``skillscope report`` on three synthetic workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run:

1. set-up: generates the workload's corpus with ``skillscope synth`` from
   ``--seed``, mixes in a fixed share of malformed records (which ingest must
   reject), and for ``many-groups`` converts it to CSV. Set-up is repeated
   and its median reported as ``setup_s``;
2. measurement: runs ``skillscope report`` as a fresh child process, one at
   a time, until ``--seconds`` have passed (at least three times). Each
   child's wall time, peak RSS and CPU time come from ``os.wait4`` on it,
   taken by ``launch.py``. ``calibration.py`` runs as a child right before
   and after every report and set-up repeat; ``report_s`` and ``setup_s``
   are wall times rescaled by those calibrations to a nominal machine
   speed, which takes out most of the drift of a shared host;
3. correctness: the first report is checked against the planted ground
   truth and an independent reference (``checks.py``); every later report
   must be byte-identical to it apart from ``provenance.json``.

With ``--trace 1`` each untraced report is followed by the same report run
in-process under ``tracer.py``; the synth is traced once, and the run
reports per-layer metrics instead of end-to-end ones (medians over the
traced reports). The benchmark and its children run on one CPU. Every
child gets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1, and imports the program from ``src/`` of the
checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (environment,
input sizes, per-repeat figures, failures) go to
``.bench_work/<workload>-seed<N>-trace<T>/results.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
from calibration import NOMINAL_S, at_nominal_speed
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_REPORT_REPEATS = 3
STARTUP_REPEATS = 5
BAD_RECORD_EVERY = 400   # one malformed record after every 400 good ones
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CSV_FIELDS = ["id", "date", "occupation", "skills", "salary_min", "salary_max",
              "education_years", "experience_years"]

END_TO_END_UNITS = {"report_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "pass_frac": "ratio"}
# Per-layer time metric -> traced function (see tracer.WRAPPED).
SPAN_METRICS = {
    "corpus.ingest_s": "corpus.ingest",
    "corpus.build_index_s": "corpus.build_index",
    "skillmetrics.rca_s": "skillmetrics.compute_rca",
    "skillmetrics.effective_use_s": "skillmetrics.compute_effective_use",
    "similarity.theta_s": "similarity.compute_theta",
    "similarity.expand_s": "similarity.expand_seeds",
    "occupations.intensity_s": "occupations.compute_intensity",
    "occupations.select_s": "occupations.select_occupations",
    "timeseries.aggregate_s": "timeseries.aggregate_daily",
    "timeseries.backtest_s": "timeseries.sliding_window_backtest",
    "timeseries.fit_s": "timeseries.fit",
    "timeseries.forecast_s": "timeseries.forecast",
    "timeseries.smape_s": "timeseries.smape",
    "indicators.assemble_s": "indicators.assemble_report",
    "indicators.write_s": "indicators.write_report",
    "synthgen.generate_s": "synthgen.generate",
    "synthgen.write_s": "synthgen.write_jsonl",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    "corpus.ads": "count", "corpus.rejected": "count", "corpus.vocab": "count",
    "corpus.skill_slots": "count",
    "skillmetrics.effective_frac": "ratio",
    "similarity.theta_pair_visits": "count", "similarity.theta_pairs": "count",
    "occupations.groups": "count",
    "timeseries.backtest_self_s": "s", "timeseries.fit_calls": "count",
    "timeseries.fit_ms": "ms", "timeseries.windows": "count",
    "timeseries.solve_gflop": "GFLOP",
    "indicators.out_bytes": "bytes",
    "cli.startup_s": "s", "cli.cpu_s": "s", "cli.other_s": "s",
    "trace.overhead_frac": "ratio",
}
# Derived by the benchmark from the corpus and the workload's flags (the
# reference in checks.py), not measured inside the program.
COMPUTED = ("corpus.vocab", "corpus.skill_slots", "skillmetrics.effective_frac",
            "similarity.theta_pair_visits", "similarity.theta_pairs",
            "timeseries.windows", "timeseries.solve_gflop")
# Counts that must repeat exactly across runs at one seed.
EXACT_COUNTS = ("corpus.ads", "corpus.rejected", "corpus.vocab", "corpus.skill_slots",
                "similarity.theta_pair_visits", "similarity.theta_pairs",
                "occupations.groups", "timeseries.windows", "timeseries.fit_calls",
                "indicators.out_bytes")


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    calibration_s: float | None = None   # mean of the calibrations around it

    @property
    def scaled_s(self) -> float:
        return at_nominal_speed(self.wall_s, self.calibration_s)


def run_child(args: list[str], log: Path) -> ChildRun:
    """Run one child to completion through launch.py and return its own
    figures. Children run one at a time with BLAS pinned to one thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **{name: "1" for name in PINNED})
    with log.open("ab") as err:
        proc = subprocess.run([sys.executable, "-I", str(HERE / "launch.py"), "--", *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                              check=True)
    return ChildRun(**json.loads(proc.stdout))


def skillscope(*args: str) -> list[str]:
    return [sys.executable, "-m", "skillscope.cli", *args]


def _bad_jsonl(k: int) -> str:
    return [
        '{"id": "bad-%d", "date": "2016-02-3' % k,                       # truncated JSON
        json.dumps({"id": f"bad-{k}", "date": "2016-13-01", "occupation": "x",
                    "skills": ["a"]}),                                      # bad date
        json.dumps({"id": f"bad-{k}", "date": "2016-02-01", "occupation": "x",
                    "skills": []}),                                         # no skills
    ][k % 3]


def _bad_csv(k: int) -> list[str]:
    return [
        [f"bad-{k}", "2016-02-30", "x", "a", "", "", "", ""],             # bad date
        [f"bad-{k}", "2016-02-01", "x", " ; ", "", "", "", ""],          # no skills
        [f"bad-{k}", "2016-02-01", "", "a", "", "", "", ""],             # no occupation
    ][k % 3]


def prepare_input(synth_corpus: Path, fmt: str, dest: Path) -> int:
    """Write the report's input with malformed records mixed in; returns how
    many were added."""
    bad = 0
    with synth_corpus.open(encoding="utf-8") as src, \
            dest.open("w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out) if fmt == "csv" else None
        if writer:
            writer.writerow(CSV_FIELDS)
        for n, line in enumerate(src, start=1):
            if writer:
                rec = json.loads(line)
                rec["skills"] = ";".join(rec["skills"])
                writer.writerow([rec.get(f, "") for f in CSV_FIELDS])
            else:
                out.write(line)
            if n % BAD_RECORD_EVERY == 0:
                bad += 1
                if writer:
                    writer.writerow(_bad_csv(bad))
                else:
                    out.write(_bad_jsonl(bad) + "\n")
    return bad


@dataclass
class Expected:
    """What the report must find, read from the generator's ground truth."""

    seeds: list[str]
    planted_skills: list[str]
    targets: set[str]               # occupations to select
    growth_occupations: set[str]    # to flag on growth

    @classmethod
    def from_truth(cls, truth: dict, w: Workload) -> "Expected":
        growth = {name: p["annual_growth"] for name, p in truth["params"].items()}
        top = max(sorted(growth), key=growth.get)
        clusters = [top] if w.seeds_per_target else sorted(truth["clusters"])
        seeds = (truth["clusters"][top][:w.seeds_per_target] if w.seeds_per_target
                 else [truth["clusters"][c][0] for c in clusters])
        return cls(
            seeds=seeds,
            planted_skills=[s for c in clusters for s in truth["clusters"][c]],
            targets={o for o, c in truth["occupations"].items() if c in clusters},
            growth_occupations={o for o, c in truth["occupations"].items() if c == top},
        )


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, w: Workload, work: Path):
        self.w = w
        self.work = work
        self.log = work / "stderr.log"
        self.config = work / "synth_config.json"
        self.synth_dir = work / "synth"
        self.input = work / f"input.{w.fmt}"
        self.failures: list[str] = []
        self.attempted = self.failed = 0
        self.reference_ok: bool | None = None   # None until a report exits cleanly
        self.reference_files: dict[str, bytes] = {}
        self.digest = None

    def calibrate(self) -> float:
        """Wall seconds of one calibration child (calibration.py)."""
        run = run_child([sys.executable, str(HERE / "calibration.py")], self.log)
        if run.exit_code != 0:
            raise RuntimeError(f"calibration exited with {run.exit_code}; see {self.log}")
        return run.wall_s

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Generate the input ``repeats`` times; returns each repeat's wall
        seconds with the mean of the calibrations around it."""
        self.config.write_text(json.dumps(self.w.synth_config, indent=1))
        times = []
        before = self.calibrate()
        for _ in range(repeats):
            shutil.rmtree(self.synth_dir, ignore_errors=True)
            start = time.perf_counter()
            synth = run_child(skillscope("synth", "--config", str(self.config),
                                         "--out", str(self.synth_dir)), self.log)
            if synth.exit_code != 0:
                raise RuntimeError(f"skillscope synth exited with {synth.exit_code}; "
                                   f"see {self.log}")
            self.n_bad = prepare_input(self.synth_dir / "corpus.jsonl", self.w.fmt,
                                       self.input)
            wall = time.perf_counter() - start
            after = self.calibrate()
            times.append((wall, (before + after) / 2))
            before = after

        self.expected = Expected.from_truth(
            json.loads((self.synth_dir / "ground_truth.json").read_text()), self.w)
        seeds_file = self.work / "seeds.txt"
        seeds_file.write_text("\n".join(self.expected.seeds) + "\n")
        self.report_args = ["report", "--input", str(self.input),
                            "--seeds", str(seeds_file), *self.w.report_args]
        if self.w.holidays:
            holidays_file = self.work / "holidays.txt"
            holidays_file.write_text("\n".join(self.w.holidays) + "\n")
            self.report_args += ["--holidays", str(holidays_file)]
        self.corpus = checks.load_corpus(self.synth_dir / "corpus.jsonl")
        self.net = checks.build_network(self.corpus)
        return times

    def check(self, out: Path) -> list[str]:
        w, e, c = self.w, self.expected, self.corpus
        errors = checks.check_skills(out, c, self.net, e.seeds, e.planted_skills, w.cutoff)
        errors += checks.check_occupations(out, c, e.targets)
        errors += checks.check_backtests(out, c, w.train_days, w.test_days,
                                         w.iterations, w.holidays)
        errors += checks.check_flags(out, e.growth_occupations)
        ingest = json.loads((out / "ingest_report.json").read_text())
        if (ingest["accepted"], ingest["rejected"]) != (len(c.occupations), self.n_bad):
            errors.append(f"ingest accepted/rejected {ingest['accepted']}/"
                          f"{ingest['rejected']}, expected "
                          f"{len(c.occupations)}/{self.n_bad}")
        return errors

    def judge(self, run: ChildRun, out: Path, label: str) -> bool:
        """Check one report and delete its outputs. The first report that
        exits cleanly is checked in full; later ones must match its bytes."""
        if run.exit_code != 0:
            errors = [f"exited with {run.exit_code}"]
        elif self.reference_ok is None:
            errors = self.check(out)
            self.reference_files = checks.analysis_files(out)
            self.digest = checks.digest(out)
            self.reference_ok = not errors
        elif not self.reference_ok:
            errors = ["same input as a report that failed its checks"]
        elif checks.analysis_files(out) != self.reference_files:
            errors = ["outputs differ from the first report"]
        else:
            errors = []
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.failed += bool(errors)
        self.failures += [f"{label}: {e}" for e in errors]
        return not errors

    def traced(self, run_id: str, args: list[str]) -> tuple[ChildRun, dict | None]:
        """Run ``skillscope args`` in-process under tracer.py."""
        spans = self.work / f"spans_{run_id}.json"
        run = run_child([sys.executable, str(HERE / "tracer.py"), str(spans), run_id,
                         "--", *args], self.log)
        return run, json.loads(spans.read_text()) if run.exit_code == 0 else None

    def measure(self, seconds: float, traced: bool) -> tuple[list, list, list]:
        """Reports, one at a time, until ``seconds`` have passed (at least
        three). With ``traced``, each untraced report is followed by a traced
        one, so that the pair sees the same machine state."""
        runs, passed, traces = [], [], []
        begin = time.perf_counter()
        before = self.calibrate()
        while len(runs) < MIN_REPORT_REPEATS or time.perf_counter() - begin < seconds:
            i = len(runs)
            out = self.work / f"out{i}"
            runs.append(run_child(skillscope(*self.report_args, "--out", str(out)),
                                  self.log))
            after = self.calibrate()
            runs[-1].calibration_s = (before + after) / 2
            passed.append(self.judge(runs[-1], out, f"report {i}"))
            if traced:
                run, trace = self.traced(f"report{i}", [*self.report_args, "--out", str(out)])
                traces.append((run, trace if self.judge(run, out, f"traced report {i}")
                               else None))
                after = self.calibrate()
            before = after
        return runs, passed, traces

    def layer_metrics(self, runs: list[ChildRun], traces: list, sizes: dict) -> dict:
        """Per-layer metrics: medians over the traced reports, one traced
        synth, the reference counts and the untraced reports."""
        per_run = [report_span_metrics(t) for _, t in traces if t is not None]
        if not per_run:
            per_run = [report_span_metrics({"total_s": 0.0, "spans": []})]
        values = {k: statistics.median(v[k] for v in per_run) for k in per_run[0]}
        fit_calls = {v["timeseries.fit_calls"] for v in per_run}
        if len(fit_calls) > 1:
            self.failures.append(f"fit calls differ between traced reports: {fit_calls}")
        values["timeseries.fit_calls"] = per_run[0]["timeseries.fit_calls"]
        _, synth = self.traced("synth", ["synth", "--config", str(self.config),
                                         "--out", str(self.work / "traced_synth")])
        shutil.rmtree(self.work / "traced_synth", ignore_errors=True)
        if synth is None:
            self.failures.append("traced synth failed")
        synth_total = span_times(synth["spans"] if synth else [])[0]
        startup = [run_child(skillscope("--version"), self.log).wall_s
                   for _ in range(STARTUP_REPEATS)]
        overhead = [(t.wall_s - r.wall_s) / r.wall_s
                    for r, (t, trace) in zip(runs, traces) if trace is not None]
        values.update({
            "synthgen.generate_s": synth_total["synthgen.generate"],
            "synthgen.write_s": synth_total["synthgen.write_jsonl"],
            "corpus.ads": sizes["ads"], "corpus.rejected": sizes["rejected_records"],
            "corpus.vocab": sizes["skills"],
            "corpus.skill_slots": self.net.incidence_entries,
            "skillmetrics.effective_frac":
                self.net.effective_entries / self.net.incidence_entries,
            "similarity.theta_pair_visits": self.net.pair_visits(),
            "similarity.theta_pairs": self.net.distinct_pairs(len(self.corpus.names)),
            "occupations.groups": sizes["groups"],
            "timeseries.windows": sizes["windows"],
            "timeseries.solve_gflop": solve_gflop(self.w, sizes["windows"]),
            "indicators.out_bytes": sum(len(b) for b in self.reference_files.values()),
            "cli.startup_s": statistics.median(startup),
            "cli.cpu_s": statistics.median(r.cpu_s for r in runs),
            "trace.overhead_frac": statistics.median(overhead) if overhead else 0.0,
        })
        return values

    def check_counts_repeat(self, ledger: Path, values: dict) -> None:
        """Compare the exact counts with the last traced run at this seed and
        scale in this checkout, then record them."""
        counts = {name: values[name] for name in EXACT_COUNTS}
        if ledger.is_file():
            previous = json.loads(ledger.read_text())
            moved = {k: (previous.get(k), v) for k, v in counts.items()
                     if previous.get(k) != v}
            if moved:
                self.failures.append(f"exact counts moved between runs at one seed: {moved}")
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_text(json.dumps(counts, indent=1) + "\n")


def span_times(spans: list) -> tuple[dict, dict, dict, float]:
    """Inclusive seconds, self seconds and calls per span name, and the
    seconds covered by top-level spans."""
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    top = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
        if parent < 0:
            top += end - start
    return total, self_s, calls, top


def report_span_metrics(trace: dict) -> dict:
    """Per-layer times and fit counts of one traced report."""
    total, self_s, calls, top = span_times(trace["spans"])
    values = {name: total[span] for name, span in SPAN_METRICS.items()
              if not span.startswith("synthgen.")}
    fit_calls = calls["timeseries.fit"]
    values.update({
        "timeseries.backtest_self_s": self_s["timeseries.sliding_window_backtest"],
        "timeseries.fit_calls": fit_calls,
        "timeseries.fit_ms": 1000.0 * total["timeseries.fit"] / max(fit_calls, 1),
        "cli.other_s": trace["total_s"] - top,
    })
    return values


def solve_gflop(w: Workload, windows: int) -> float:
    """2*m*p^2 per window solve, from the design shape the workload implies."""
    p = 2 + checks.N_CHANGEPOINTS + 2 * checks.WEEKLY_ORDER + len(w.holidays)
    if w.train_days >= 2 * checks.YEAR_PERIOD:
        p += 2 * checks.YEARLY_ORDER
    m = w.train_days + checks.N_CHANGEPOINTS
    return windows * 2.0 * m * p * p / 1e9


def environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit, "pinned_threads": {name: "1" for name in PINNED},
        "children": "one at a time",
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "calibration_nominal_s": NOMINAL_S,
        "wait_time": "none recorded: single-threaded with BLAS pinned to one thread",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the self-test uses less than 1")
    args = parser.parse_args(argv)

    if not (SRC / "skillscope" / "cli.py").is_file():
        print(f"no skillscope sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload](args.seed, args.scale)
    scale_tag = "" if args.scale == 1.0 else f"-scale{args.scale:g}"
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}{scale_tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(w, work)

    # One CPU for this process and every child, so that the calibration
    # children run where the reports run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_child(skillscope("--version"), bench.log)  # compile and warm imports, untimed
    try:
        setup_times = bench.setup(1 if args.trace else SETUP_REPEATS)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    runs, passed, traces = bench.measure(args.seconds, traced=bool(args.trace))
    ok_runs = [r for r, p in zip(runs, passed) if p] or runs
    groups = len(bench.digest["eta"]) if bench.digest else 0
    sizes = {
        "ads": len(bench.corpus.occupations), "rejected_records": bench.n_bad,
        "skills": len(bench.corpus.names), "groups": groups,
        "windows": (groups + 1) * w.iterations,
    }
    if args.trace:
        values = bench.layer_metrics(runs, traces, sizes)
        bench.check_counts_repeat(
            WORK / "counts" / f"{w.name}-seed{args.seed}{scale_tag}.json", values)
        units = PER_LAYER_UNITS
    else:
        values = {
            "report_s": statistics.median(r.scaled_s for r in ok_runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok_runs),
            "setup_s": statistics.median(at_nominal_speed(*t) for t in setup_times),
            "pass_frac": (bench.attempted - bench.failed) / bench.attempted,
        }
        units = END_TO_END_UNITS

    correct = not bench.failures
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    results = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": environment(),
        "input_sizes": sizes, "report_args": bench.report_args,
        "setup_s_each": [{"wall_s": t, "calibration_s": c} for t, c in setup_times],
        "report_wall_median_s": statistics.median(r.wall_s for r in ok_runs),
        "report_repeats": [vars(r) for r in runs],
        "traced_repeats": [vars(r) for r, _ in traces],
        "computed_not_measured": list(COMPUTED) if args.trace else [],
        "correct": correct, "failures": bench.failures, "metrics": metrics,
        "digest": bench.digest,
    }
    (work / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    shutil.rmtree(bench.synth_dir, ignore_errors=True)
    bench.input.unlink(missing_ok=True)
    for f in bench.failures[:10]:
        print(f"FAIL {f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
