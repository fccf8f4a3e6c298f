"""Pairwise skill complementarity and seed-set expansion.

Complementarity between two skills is the number of ads where both are in
effective use, divided by the larger of the two skills' effective-use
counts - i.e. the minimum of the two conditional co-use probabilities.
Pairs never co-effective (or with a zero denominator) are 0 and not stored.

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

from .corpus import normalize_skill
from .errors import DataError
from .skillmetrics import EffectiveUseMatrix


class ThetaMatrix:
    """Symmetric sparse complementarity scores over the skill vocabulary."""

    def __init__(self, vocab, skill_counts, pairs: dict[tuple[int, int], float]):
        self.vocab = vocab
        self.skill_counts = skill_counts
        self._pairs = pairs  # keyed (a, b) with a < b

    def value(self, s: int, s2: int) -> float:
        if s == s2:
            return 1.0 if self.skill_counts[s] > 0 else 0.0
        key = (s, s2) if s < s2 else (s2, s)
        return self._pairs.get(key, 0.0)

    def pairs(self):
        """Iterate stored (skill_a, skill_b, theta) triples."""
        for (a, b), v in self._pairs.items():
            yield a, b, v

    def neighbours(self, s: int) -> list[tuple[int, float]]:
        """All skills with a stored positive score against ``s``."""
        out = []
        for (a, b), v in self._pairs.items():
            if a == s:
                out.append((b, v))
            elif b == s:
                out.append((a, v))
        return out


def compute_theta(eff: EffectiveUseMatrix) -> ThetaMatrix:
    """Complementarity for every skill pair with at least one co-effective ad."""
    co: dict[tuple[int, int], int] = {}
    for row in eff.rows:
        n = len(row)
        for i in range(n):
            a = int(row[i])
            for j in range(i + 1, n):
                key = (a, int(row[j]))
                co[key] = co.get(key, 0) + 1
    counts = eff.skill_counts
    pairs = {
        (a, b): joint / float(max(counts[a], counts[b]))
        for (a, b), joint in co.items()
    }
    return ThetaMatrix(eff.index.vocab, counts, pairs)


@dataclass(frozen=True)
class SkillScore:
    skill: str          # display name
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

    def skill_keys(self) -> set[str]:
        return {normalize_skill(e.skill) for e in self.entries}

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
            with Path(path).open("r", encoding="utf-8", newline="") as fh:
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
    per_seed_k: int = 300,
    cutoff: int = 150,
    avg_over_all_seeds: bool = False,
) -> SkillSetResult:
    """Grow a skill set from seed skills via complementarity ranking.

    Per seed: the ``per_seed_k`` highest-scoring neighbours (the seed itself
    excluded). Merged scores are averaged over the lists in which a skill
    appears, or over all seeds when ``avg_over_all_seeds`` is set. Seeds are
    prepended to the result, displayed with their maximum pairwise score to
    the other seeds (1.0 when there is a single seed). Ties break by name.
    """
    if per_seed_k < 1:
        raise DataError("per_seed_k must be >= 1")
    if cutoff < 1:
        raise DataError("cutoff must be >= 1")
    vocab = theta.vocab
    seed_idx: list[int] = []
    for s in seeds:
        if s not in vocab:
            raise DataError(f"unknown seed skill: {s!r}")
        seed_idx.append(vocab.index_of(s))
    if len(set(seed_idx)) != len(seed_idx):
        raise DataError("duplicate seed skill")
    seed_set = set(seed_idx)

    per_skill_scores: dict[int, list[float]] = {}
    for si in seed_idx:
        nbrs = theta.neighbours(si)
        if not nbrs:
            warnings.warn(f"seed {vocab.display(si)!r} has no complementarity "
                          "neighbours; it contributes an empty list")
            continue
        nbrs.sort(key=lambda nv: (-nv[1], vocab.names[nv[0]]))
        for idx, v in nbrs[:per_seed_k]:
            per_skill_scores.setdefault(idx, []).append(v)

    denom_all = float(len(seed_idx))
    scored: list[tuple[str, float, int]] = []
    for idx, vals in per_skill_scores.items():
        if idx in seed_set:
            continue
        score = sum(vals) / (denom_all if avg_over_all_seeds else len(vals))
        scored.append((vocab.names[idx], score, idx))
    scored.sort(key=lambda t: (-t[1], t[0]))

    seed_entries = []
    for si in seed_idx:
        others = [theta.value(si, sj) for sj in seed_idx if sj != si]
        sentinel = max(others) if others else 1.0
        seed_entries.append(SkillScore(vocab.display(si), sentinel, is_seed=True))
    seed_entries.sort(key=lambda e: (-e.score, normalize_skill(e.skill)))

    entries = seed_entries + [
        SkillScore(vocab.display(idx), score) for _, score, idx in scored
    ]
    return SkillSetResult(
        entries=entries[:cutoff],
        seeds=[vocab.display(si) for si in seed_idx],
        per_seed_k=per_seed_k,
        cutoff=cutoff,
        avg_over_all_seeds=avg_over_all_seeds,
    )
