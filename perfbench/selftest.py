"""Self-test of the benchmark at reduced scale.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --record   # rewrite reference.json

Runs every workload at scale 0.2 under two seeds, untraced and traced, and
the traced run a second time at one seed so that the exact counts must
repeat. Each run must be correct, print exactly the metrics that
BENCHMARK.json lists with their units, and give report numbers that match
``reference.json`` (recorded from the program as released with this
benchmark) within the tolerances in ``checks.py``. Last, the benchmark must
fail without printing a result in a directory that holds only
BENCHMARK.json and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SEEDS = (1, 2)
SCALE = 0.2


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main(argv: list[str]) -> int:
    record = argv == ["--record"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reference = {} if record else json.loads(REFERENCE.read_text())
    # Counts are compared with earlier runs of the same code only.
    shutil.rmtree(ROOT / ".bench_work" / "counts", ignore_errors=True)
    problems = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1, 1) if seed == SEEDS[0] else (0, 1):
                label = f"{workload} seed {seed} trace {trace}"
                before = len(problems)
                proc = bench(workload, seed, trace)
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    print(label, "FAIL", flush=True)
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if not (result["correct"] and result["failed"] == 0
                        and result["attempted"] >= 1):
                    problems.append(f"{label}: not correct: {proc.stderr[-800:]}")
                if units != expected_units[trace]:
                    problems.append(f"{label}: metrics differ from BENCHMARK.json")
                tag = f"{workload}-seed{seed}-trace{trace}-scale{SCALE:g}"
                details = json.loads((ROOT / ".bench_work" / tag / "results.json").read_text())
                key = f"{workload}/{seed}"
                if record:
                    reference[key] = details["digest"]
                else:
                    problems += [f"{label}: {e}" for e in
                                 checks.compare_digest(details["digest"], reference[key])]
                print(label, "ok" if len(problems) == before else "FAIL", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("wide-network", SEEDS[0], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark did not fail in a directory without the sources")
    shutil.rmtree(bare, ignore_errors=True)

    if record:
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
