"""Synthetic scenarios for the three benchmark workloads.

Each workload is a function of ``(seed, scale)`` that returns a
:class:`Workload`: the ``skillscope synth`` config and the ``skillscope
report`` settings that do not depend on the generated corpus. Everything the correctness gate expects (seed skills, the
planted target occupations, the high-growth occupations) is read back from
the generated ``ground_truth.json``, never from constants tied to a seed: the
seed also picks which cluster is planted as the target.

``scale`` multiplies the ad rates and, for the backtest-heavy workloads, the
number of backtest iterations. Scale 1 is what the benchmark measures; the
self-test runs a reduced scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    synth_config: dict
    fmt: str                        # corpus format handed to ``report``
    seeds_per_target: int           # 0: one seed per cluster (every cluster is a target)
    cutoff: int
    train_days: int
    test_days: int
    iterations: int
    holidays: list[str] = field(default_factory=list)

    @property
    def report_args(self) -> list[str]:
        """``report`` flags besides --input, --seeds, --holidays and --out."""
        return ["--format", self.fmt, "--cutoff", str(self.cutoff),
                "--train-days", str(self.train_days), "--test-days", str(self.test_days),
                "--iterations", str(self.iterations)]


def _cluster(name: str, n_skills: int, n_occ: int, rate: float, growth: float,
             cohesion: float, rng: random.Random) -> dict:
    return {
        "name": name,
        "skills": [f"{name} skill {k:02d}" for k in range(n_skills)],
        "occupations": [f"{name} occupation {k}" for k in range(n_occ)],
        "base_daily_rate": rate,
        "annual_growth": growth,
        "cohesion": cohesion,
        "salary_level": round(rng.uniform(45000, 110000), 2),
        "salary_trend": round(rng.uniform(0.0, 0.05), 4),
        "education_mean": round(rng.uniform(11, 17), 2),
        "experience_mean": round(rng.uniform(1, 6), 2),
    }


def wide_network(seed: int, scale: float) -> Workload:
    """Many ads and skills, a short backtest: ingest through theta dominate."""
    rng = random.Random(seed)
    n_clusters = 20
    target = rng.randrange(n_clusters)
    clusters = [
        _cluster(f"w{c:02d}", 25, 4, 0.9 * scale,
                 1.0 if c == target else round(rng.uniform(-0.05, 0.1), 3),
                 0.4, rng)
        for c in range(n_clusters)
    ]
    # Rare background skills plus a few near-ubiquitous ones; the latter are
    # what effective-use filtering removes.
    background = [[f"general {k:02d}", 0.1] for k in range(36)]
    background += [["communication", 0.9], ["teamwork", 0.8],
                   ["office software", 0.7], ["problem solving", 0.6]]
    train, test, iters = 365, 30, 10
    return Workload(
        name="wide-network",
        synth_config={
            "seed": seed, "n_days": 730, "start_date": "2016-01-01",
            "clusters": clusters, "background_skills": background,
            "weekly_amplitude": 0.3, "yearly_amplitude": 0.1, "noise_level": 0.05,
        },
        fmt="jsonl",
        seeds_per_target=2, cutoff=30,
        train_days=train, test_days=test, iterations=iters,
    )


def long_backtest(seed: int, scale: float) -> Workload:
    """Few skills and groups over five years, the default 1186/365/365
    backtest: the per-window refits dominate."""
    rng = random.Random(seed)
    n_clusters = 4
    target = rng.randrange(n_clusters)
    clusters = [
        _cluster(f"l{c}", 10, 2,
                 (1.0 if c == target else 0.4) * scale,
                 0.4 if c == target else round(rng.uniform(-0.05, 0.1), 3),
                 0.6, rng)
        for c in range(n_clusters)
    ]
    background = [[f"general {k}", 0.1] for k in range(4)]
    train, test = 1186, 365
    iters = max(5, round(365 * scale))
    return Workload(
        name="long-backtest",
        synth_config={
            # two weeks of slack so an ad-free first or last day cannot
            # shorten the corpus span below what the backtest needs
            "seed": seed, "n_days": train + test + iters - 1 + 14,
            "start_date": "2015-01-01",
            "clusters": clusters, "background_skills": background,
            "weekly_amplitude": 0.3, "yearly_amplitude": 0.2, "noise_level": 0.05,
        },
        fmt="jsonl",
        seeds_per_target=2, cutoff=10,
        train_days=train, test_days=test, iterations=iters,
    )


def many_groups(seed: int, scale: float) -> Workload:
    """160 small occupation groups read from CSV, with holidays: many short
    series on the exact per-window holiday path, and per-group indicators."""
    rng = random.Random(seed)
    n_clusters = 40
    target = rng.randrange(n_clusters)
    clusters = [
        _cluster(f"m{c:02d}", 6, 4, 0.5 * scale,
                 1.5 if c == target else round(rng.uniform(-0.05, 0.1), 3),
                 0.6, rng)
        for c in range(n_clusters)
    ]
    background = [[f"general {k}", 0.1] for k in range(10)]
    train, test = 365, 60
    iters = max(3, round(6 * scale))
    holidays = [f"{y}-{m:02d}-01" for y in (2016, 2017) for m in range(1, 13)]
    return Workload(
        name="many-groups",
        synth_config={
            "seed": seed, "n_days": 730, "start_date": "2016-01-01",
            "clusters": clusters, "background_skills": background,
            "weekly_amplitude": 0.3, "yearly_amplitude": 0.1, "noise_level": 0.05,
        },
        fmt="csv",
        seeds_per_target=0, cutoff=1000,
        train_days=train, test_days=test, iterations=iters,
        holidays=holidays,
    )


WORKLOADS = {
    "wide-network": wide_network,
    "long-backtest": long_backtest,
    "many-groups": many_groups,
}
