"""Skill relevance within single ads: comparative-advantage ratios and the
binary effective-use matrix derived from them.

For a job j with n_j distinct skills and a skill s demanded by c_s of the
N total skill slots in the corpus, the relevance ratio is

    rca(j, s) = (1 / n_j) / (c_s / N)

stored only where the skill actually appears in the ad. A skill is in
"effective use" in an ad when the ratio is strictly above 1.
"""

from __future__ import annotations

import numpy as np

from .corpus import IncidenceIndex
from .errors import DataError, InvariantError


class RcaMatrix:
    """Sparse per-job relevance ratios, parallel to the incidence index."""

    def __init__(self, index: IncidenceIndex, values: list[np.ndarray]):
        self.index = index
        self.values = values  # values[i][k] pairs with index.job_skills[i][k]

    def value(self, job_pos: int, skill_idx: int) -> float:
        """Ratio at (job, skill); 0.0 where the skill is absent from the ad."""
        row = self.index.job_skills[job_pos]
        k = np.searchsorted(row, skill_idx)
        if k < len(row) and row[k] == skill_idx:
            return float(self.values[job_pos][k])
        return 0.0


class EffectiveUseMatrix:
    """Binary effective-use entries plus per-skill effective counts."""

    def __init__(self, index: IncidenceIndex, rows: list[np.ndarray]):
        self.index = index
        self.rows = rows  # rows[i]: sorted skill indices effectively used in job i
        counts = np.zeros(index.n_skills, dtype=np.int64)
        for r in rows:
            counts[r] += 1
        self.skill_counts = counts

    def is_effective(self, job_pos: int, skill_idx: int) -> bool:
        row = self.rows[job_pos]
        k = np.searchsorted(row, skill_idx)
        return bool(k < len(row) and row[k] == skill_idx)


def compute_rca(index: IncidenceIndex) -> RcaMatrix:
    """Relevance ratio for every stored (job, skill) incidence entry."""
    if index.n_jobs == 0 or index.grand_total == 0:
        raise DataError("empty corpus: cannot compute relevance ratios")
    total = float(index.grand_total)
    skill_counts = index.skill_job_counts.astype(np.float64)
    values: list[np.ndarray] = []
    for i, row in enumerate(index.job_skills):
        n_j = float(index.job_skill_counts[i])
        vals = total / (n_j * skill_counts[row])
        if np.any(vals <= 0):
            raise InvariantError("relevance ratio must be positive where incidence is 1")
        values.append(vals)
    return RcaMatrix(index, values)


def compute_effective_use(rca: RcaMatrix) -> EffectiveUseMatrix:
    """Strict thresholding: a skill counts as effectively used only when its
    ratio exceeds 1; a ratio of exactly 1.0 drops out."""
    rows = [
        skills[vals > 1.0]
        for skills, vals in zip(rca.index.job_skills, rca.values)
    ]
    return EffectiveUseMatrix(rca.index, rows)
