"""Calibration child: a fixed piece of work whose wall time gauges how fast
the machine runs right now.

Usage: python3 perfbench/calibration.py

On a host shared with other work, the speed a benchmark run gets can drift
by tens of percent over seconds to minutes. ``run.py`` runs
this script as a child, measured the same way as a report (through
``launch.py``, on the same CPU), right before and right after each timed
child. A child's wall time times ``NOMINAL_S`` divided by the mean of the
two calibrations around it is its time at the speed at which this script
takes ``NOMINAL_S``.

Like a report, the script is a fresh interpreter that imports NumPy, parses
JSON records, counts skill pairs in a dict and runs least-squares solves on
fresh arrays. It does not import the program under test, so a change to the
program moves the scaled times as it moves wall time.
"""

from __future__ import annotations

import json
import random

import numpy as np

# Wall seconds of this script on an idle 2-vCPU Intel Xeon VM.
NOMINAL_S = 0.40


def at_nominal_speed(wall_s: float, calibration_s: float) -> float:
    """Wall seconds rescaled to the speed at which this script takes NOMINAL_S."""
    return wall_s * NOMINAL_S / calibration_s


def work() -> None:
    rng = random.Random(0)
    vocab = [f"Skill {k:03d} " + "x" * (k % 7) for k in range(600)]
    records = [
        json.dumps({"id": f"ad-{n}", "date": f"2016-{1 + n % 12:02d}-{1 + n % 28:02d}",
                    "occupation": f"occupation {n % 40}", "skills": rng.sample(vocab, 12)})
        for n in range(3000)
    ]
    ids: dict[str, int] = {}
    pairs: dict[tuple[int, int], int] = {}
    by_occupation: dict[str, list[str]] = {}
    for line in records:
        rec = json.loads(line)
        skills = sorted({ids.setdefault(s.strip().lower(), len(ids)) for s in rec["skills"]})
        by_occupation.setdefault(rec["occupation"], []).append(rec["date"])
        for i, a in enumerate(skills):
            for b in skills[i + 1:]:
                pairs[a, b] = pairs.get((a, b), 0) + 1
    sorted(pairs.items(), key=lambda kv: kv[1])
    gen = np.random.default_rng(0)
    for _ in range(40):
        design = gen.standard_normal((1211, 53))
        np.linalg.lstsq(design, design[:, 0] + 1.0, rcond=None)


if __name__ == "__main__":
    work()
