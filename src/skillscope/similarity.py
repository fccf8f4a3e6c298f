"""Pairwise skill complementarity and seed-set expansion.

Complementarity between two skills is the number of ads where both are in
effective use, divided by the larger of the two skills' effective-use
counts - i.e. the minimum of the two conditional co-use probabilities.
Pairs never co-effective (or with a zero denominator) are 0 and not stored.
Both counts are read from the effective-use matrix, an
:class:`~skillscope.corpus.IncidenceIndex`: the effective-use counts are its
``skill_job_counts``, and the co-effective counts come from integer pair
codes ``a * V + b`` (V the vocabulary size ``len(skill_ids)``, ``a < b``,
formed in int64 from the int32 skill ids) counted with ``np.unique`` over
its CSR rows, one slice of equal-length rows at a time, each slice's rows
sorted as it is gathered. A slice holds at most ``THETA_CHUNK`` pair visits
(one longer row is a slice alone), and the slices' counts are folded into
one running count per distinct pair, so memory grows with one slice and the
number of distinct pairs, not with the corpus. The scores are kept against
the sorted pair codes, one entry per pair.

Seed expansion grows a target skill set: each seed contributes its top-K
most complementary skills, the lists are merged, and each unique skill is
scored by the mean of its scores over the lists in which it appears.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import IncidenceIndex, normalize_skill
from .errors import DataError

# The reference workflow cuts top-300 neighbour lists to a 150-skill set.
PER_SEED_K, CUTOFF = 300, 150
# Pair visits counted at once by compute_theta: its memory bound, besides
# the distinct pairs.
THETA_CHUNK = 1 << 17


class ThetaMatrix:
    """Symmetric sparse complementarity scores over the skill vocabulary,
    kept as given: ``codes`` holds each pair ``a < b`` as the int64 code
    ``a * V + b`` (V the vocabulary size), strictly ascending, and
    ``scores[k]`` is the positive score of ``codes[k]``."""

    def __init__(self, skill_ids: dict[str, int], skill_counts, codes, scores):
        self.skill_ids = skill_ids
        self.skill_counts = skill_counts
        self._codes = codes
        self._scores = scores

    def value(self, s: int, s2: int) -> float:
        if s == s2:
            return 1.0 if self.skill_counts[s] > 0 else 0.0
        code = min(s, s2) * len(self.skill_ids) + max(s, s2)
        k = np.searchsorted(self._codes, code)
        found = k < len(self._codes) and self._codes[k] == code
        return float(self._scores[k]) if found else 0.0

    def pairs(self):
        """Iterate stored (skill_a, skill_b, theta) triples with a < b."""
        a, b = np.divmod(self._codes, len(self.skill_ids))
        return zip(a.tolist(), b.tolist(), self._scores.tolist())

    def neighbours(self, s: int) -> list[tuple[int, float]]:
        """All skills with a stored positive score against ``s``, by id:
        the pairs ``(a, s)`` come before the pairs ``(s, b)`` in code order."""
        a, b = np.divmod(self._codes, len(self.skill_ids))
        hit = (a == s) | (b == s)
        return list(zip((a[hit] + b[hit] - s).tolist(), self._scores[hit].tolist()))


def compute_theta(eff: IncidenceIndex) -> ThetaMatrix:
    """Complementarity for every skill pair with at least one co-effective ad.

    Rows are bucketed by length and each bucket cut into slices of at most
    ``THETA_CHUNK`` pair visits; the rows of length n in a slice form a
    (rows x n) block, sorted along each row, whose column pairs (i < j) give
    the int64 pair codes ``a * V + b`` with ``a < b``, counted with
    ``np.unique``. The slices' counts wait as pending parts and are merged
    into the running total only once they outgrow it, so each merge costs at
    most twice the parts it absorbs and merging stays linear in the slices'
    output. Memory is one slice's pair visits plus a few arrays of distinct
    pairs, never one entry per pair visit of the corpus, nor V x V.
    """
    n_skills = len(eff.skill_ids)
    lengths = np.diff(eff.indptr)
    total = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    pending, pending_size = [], 0
    for n in np.unique(lengths[lengths >= 2]):
        starts = eff.indptr[:-1][lengths == n]
        i, j = np.triu_indices(n, 1)
        step = max(1, THETA_CHUNK // len(i))
        for lo in range(0, len(starts), step):
            block = np.sort(eff.indices[starts[lo:lo + step, None] + np.arange(n)], axis=1)
            pending.append(np.unique(block[:, i].astype(np.int64) * n_skills + block[:, j],
                                     return_counts=True))
            pending_size += len(pending[-1][0])
            if pending_size > len(total[0]):
                total, pending, pending_size = _merge([total, *pending]), [], 0
    pair_codes, joint = _merge([total, *pending])
    a, b = np.divmod(pair_codes, n_skills)
    counts = eff.skill_job_counts
    return ThetaMatrix(eff.skill_ids, counts, pair_codes,
                       joint / np.maximum(counts[a], counts[b]))


def _merge(parts):
    """One ``(codes, counts)`` from ascending ``(codes, counts)`` parts, the
    counts of a code found in several parts summed. NumPy's stable sort of
    int64 is a merge sort that finds the ascending runs, so sorting the
    concatenation merges the parts."""
    codes = np.concatenate([c for c, _ in parts])
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.flatnonzero(np.diff(codes, prepend=-1))
    return codes[first], np.add.reduceat(np.concatenate([n for _, n in parts])[order], first)


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
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "skill", "theta"])
            for rank, e in enumerate(self.entries, start=1):
                writer.writerow([rank, e.skill, repr(e.score)])

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
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

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


def expand_seeds(
    theta: ThetaMatrix,
    seeds: list[str],
    per_seed_k: int = PER_SEED_K,
    cutoff: int = CUTOFF,
    avg_over_all_seeds: bool = False,
) -> SkillSetResult:
    """Grow a skill set from seed skills via complementarity ranking.

    Per seed: the ``per_seed_k`` highest-scoring neighbours (the seed itself
    excluded). Merged scores are averaged over the lists in which a skill
    appears, or over all seeds when ``avg_over_all_seeds`` is set. Seeds are
    prepended to the result, scored with their maximum pairwise score to
    the other seeds (1.0 when there is a single seed). Ties break by name.
    Every skill, seeds included, is named by its normalized form.
    """
    if per_seed_k < 1:
        raise DataError("per_seed_k must be >= 1")
    if cutoff < 1:
        raise DataError("cutoff must be >= 1")
    seed_idx: list[int] = []
    for s in seeds:
        idx = theta.skill_ids.get(normalize_skill(s))
        if idx is None:
            raise DataError(f"unknown seed skill: {s!r}")
        seed_idx.append(idx)
    if len(set(seed_idx)) != len(seed_idx):
        raise DataError("duplicate seed skill")
    seed_set = set(seed_idx)

    names = list(theta.skill_ids)
    per_skill_scores: dict[int, list[float]] = {}
    for si in seed_idx:
        nbrs = theta.neighbours(si)
        if not nbrs:
            warnings.warn(f"seed {names[si]!r} has no complementarity "
                          "neighbours; it contributes an empty list")
            continue
        nbrs.sort(key=lambda nv: (-nv[1], names[nv[0]]))
        for idx, v in nbrs[:per_seed_k]:
            per_skill_scores.setdefault(idx, []).append(v)

    denom_all = float(len(seed_idx))
    scored: list[tuple[str, float, int]] = []
    for idx, vals in per_skill_scores.items():
        if idx in seed_set:
            continue
        score = sum(vals) / (denom_all if avg_over_all_seeds else len(vals))
        scored.append((names[idx], score, idx))
    scored.sort(key=lambda t: (-t[1], t[0]))

    seed_entries = []
    for si in seed_idx:
        others = [theta.value(si, sj) for sj in seed_idx if sj != si]
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
