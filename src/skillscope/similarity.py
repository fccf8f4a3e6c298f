"""Pairwise skill complementarity and seed-set expansion.

Complementarity between two skills is the number of ads where both are in
effective use, divided by the larger of the two skills' effective-use
counts - i.e. the minimum of the two conditional co-use probabilities.
Pairs never co-effective are 0. Both counts are read from the
effective-use matrix, an :class:`~skillscope.corpus.IncidenceIndex`: the
effective-use counts are its ``skill_job_counts``, and one skill's
co-effective counts against every other skill are a ``np.bincount`` over
the slots of the ads where it is in effective use. Only the seeds' rows are
ever read, so only they are counted, one at a time: the cost of a row is
one pass over the effective-use slots plus the slots of that skill's ads,
never one entry per skill pair.

Seed expansion grows a target skill set: each seed contributes its top-K
most complementary skills, the lists are merged, and each unique skill is
scored by the mean of its scores over the lists in which it appears.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import IncidenceIndex, left_sum, normalize_skill, write_csv, write_json
from .errors import DataError

# The reference workflow cuts top-300 neighbour lists to a 150-skill set.
PER_SEED_K, CUTOFF = 300, 150


def compute_theta(eff: IncidenceIndex, s: int) -> list[tuple[int, float]]:
    """Every other skill with a positive score against skill ``s``, in
    ascending id order, paired with that score.

    The ads holding ``s`` are found from its slots (``side="right"`` maps a
    slot past any empty rows to its own ad); their slots are gathered in
    one index array and their skills counted with ``np.bincount``. The
    index array is a temporary, freed before the count casts the gathered
    ids to int64, so at most two int64 arrays of the gathered slots are
    held at once.
    """
    counts = eff.skill_job_counts
    ads = np.searchsorted(eff.indptr, np.flatnonzero(eff.indices == s), side="right") - 1
    lo = eff.indptr[ads]
    n = eff.indptr[ads + 1] - lo
    joint = np.bincount(
        eff.indices[np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())],
        minlength=len(eff.skill_ids))
    joint[s] = 0
    ids = np.flatnonzero(joint)
    return list(zip(ids.tolist(),
                    (joint[ids] / np.maximum(counts[s], counts[ids])).tolist()))


@dataclass(frozen=True)
class SkillScore:
    skill: str          # normalized name
    score: float
    is_seed: bool = False


@dataclass
class SkillSetResult:
    """Ranked expanded skill set. Seeds come first; the expanded tail is
    sorted by score descending, then name ascending."""

    entries: list[SkillScore]
    seeds: list[str]
    per_seed_k: int
    cutoff: int
    avg_over_all_seeds: bool = False

    @property
    def skills(self) -> list[str]:
        return [e.skill for e in self.entries]

    def to_csv(self, path) -> None:
        write_csv(path, ["rank", "skill", "theta"],
                  ([rank, e.skill, repr(e.score)]
                   for rank, e in enumerate(self.entries, start=1)))

    def to_json(self, path) -> None:
        payload = {
            "seeds": self.seeds,
            "per_seed_k": self.per_seed_k,
            "cutoff": self.cutoff,
            "avg_over_all_seeds": self.avg_over_all_seeds,
            "skills": [
                {"rank": i + 1, "skill": e.skill, "theta": e.score, "seed": e.is_seed}
                for i, e in enumerate(self.entries)
            ],
        }
        write_json(path, payload)

    @classmethod
    def from_csv(cls, path) -> "SkillSetResult":
        """Read a ``skills.csv``; only its ``skill`` and ``theta`` columns
        are used."""
        try:
            with Path(path).open("r", encoding="utf-8-sig", newline="") as fh:
                entries = [SkillScore(row["skill"], float(row["theta"]))
                           for row in csv.DictReader(fh, restval="")]
        except KeyError as exc:
            raise DataError(f"skill set CSV {path} has no {exc.args[0]!r} "
                            "column") from None
        except (ValueError, csv.Error) as exc:  # ValueError includes UnicodeDecodeError
            raise DataError(f"malformed skill set CSV {path}: {exc}") from None
        return cls(entries=entries, seeds=[], per_seed_k=0, cutoff=len(entries))


def check_expansion(per_seed_k: int, cutoff: int) -> None:
    """DataError unless both list lengths are at least 1."""
    if per_seed_k < 1:
        raise DataError("per_seed_k must be >= 1")
    if cutoff < 1:
        raise DataError("cutoff must be >= 1")


def expand_seeds(
    eff: IncidenceIndex,
    seeds: list[str],
    per_seed_k: int = PER_SEED_K,
    cutoff: int = CUTOFF,
    avg_over_all_seeds: bool = False,
) -> SkillSetResult:
    """Grow a skill set from seed skills via complementarity ranking.

    Per seed: the ``per_seed_k`` highest-scoring neighbours (the seed itself
    excluded), from the seed's row of :func:`compute_theta` over the
    effective-use matrix ``eff``. Merged scores are averaged over the lists
    in which a skill appears, or over all seeds when ``avg_over_all_seeds``
    is set. Seeds are prepended to the result, scored with their maximum
    pairwise score to the other seeds (1.0 when there is a single seed).
    Ties break by name. Every skill, seeds included, is named by its
    normalized form.
    """
    check_expansion(per_seed_k, cutoff)
    seed_idx: list[int] = []
    for s in seeds:
        idx = eff.skill_ids.get(normalize_skill(s))
        if idx is None:
            raise DataError(f"unknown seed skill: {s!r}")
        seed_idx.append(idx)
    if len(set(seed_idx)) != len(seed_idx):
        raise DataError("duplicate seed skill")
    seed_set = set(seed_idx)

    names = list(eff.skill_ids)
    rows = {si: dict(compute_theta(eff, si)) for si in seed_idx}
    per_skill_scores: dict[int, list[float]] = {}
    for si in seed_idx:
        if not rows[si]:
            warnings.warn(f"seed {names[si]!r} has no complementarity "
                          "neighbours; it contributes an empty list")
            continue
        nbrs = sorted(rows[si].items(), key=lambda nv: (-nv[1], names[nv[0]]))
        for idx, v in nbrs[:per_seed_k]:
            per_skill_scores.setdefault(idx, []).append(v)

    denom_all = float(len(seed_idx))
    scored: list[tuple[str, float, int]] = []
    for idx, vals in per_skill_scores.items():
        if idx in seed_set:
            continue
        score = left_sum(vals) / (denom_all if avg_over_all_seeds else len(vals))
        scored.append((names[idx], score, idx))
    scored.sort(key=lambda t: (-t[1], t[0]))

    seed_entries = []
    for si in seed_idx:
        others = [rows[si].get(sj, 0.0) for sj in seed_idx if sj != si]
        sentinel = max(others) if others else 1.0
        seed_entries.append(SkillScore(names[si], sentinel, is_seed=True))
    seed_entries.sort(key=lambda e: (-e.score, e.skill))

    entries = seed_entries + [
        SkillScore(names[idx], score) for _, score, idx in scored
    ]
    return SkillSetResult(
        entries=entries[:cutoff],
        seeds=[names[si] for si in seed_idx],
        per_seed_k=per_seed_k,
        cutoff=cutoff,
        avg_over_all_seeds=avg_over_all_seeds,
    )
