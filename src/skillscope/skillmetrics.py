"""Skill relevance within single ads: comparative-advantage ratios and the
binary effective-use matrix derived from them.

For a job j with n_j distinct skills and a skill s demanded by c_s of the
N total skill slots in the corpus, the relevance ratio is

    rca(j, s) = (1 / n_j) / (c_s / N)

defined only where the skill actually appears in the ad. A skill is in
"effective use" in an ad when the ratio is strictly above 1.

No ratio is stored: :class:`RcaMatrix` computes one on demand, and the
effective-use matrix is decided from the integer counts alone, as its own
``indptr``/``indices`` pair cut from the incidence by one boolean mask.
"""

from __future__ import annotations

import numpy as np

from .corpus import CsrRows, IncidenceIndex
from .errors import InvariantError


class RcaMatrix:
    """Per-job relevance ratios over the incidence index, computed on demand."""

    def __init__(self, index: IncidenceIndex):
        self.index = index

    def value(self, job_pos: int, skill_idx: int) -> float:
        """Ratio at (job, skill); 0.0 where the skill is absent from the ad."""
        index = self.index
        if not np.any(index.job_skills[job_pos] == skill_idx):
            return 0.0
        return float(index.grand_total) / (float(index.job_skill_counts[job_pos])
                                           * float(index.skill_job_counts[skill_idx]))


class EffectiveUseMatrix:
    """Binary effective-use entries in CSR form plus per-skill effective
    counts: job ``i`` effectively uses the skill ids, in ad order,
    ``indices[indptr[i]:indptr[i + 1]]``, also readable as ``rows[i]``."""

    def __init__(self, index: IncidenceIndex, indptr: np.ndarray, indices: np.ndarray):
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.rows = CsrRows(indptr, indices)
        self.skill_counts = np.bincount(indices, minlength=index.n_skills)

    def is_effective(self, job_pos: int, skill_idx: int) -> bool:
        return bool(np.any(self.rows[job_pos] == skill_idx))


def compute_rca(index: IncidenceIndex) -> RcaMatrix:
    """Relevance ratios over every (job, skill) incidence entry."""
    if not index.job_skill_counts.all():
        raise InvariantError("every ad must have at least one skill")
    return RcaMatrix(index)


def compute_effective_use(rca: RcaMatrix) -> EffectiveUseMatrix:
    """Strict thresholding: a skill counts as effectively used only when its
    ratio exceeds 1; a ratio of exactly 1.0 drops out. Decided in integers as
    ``c_s <= (N - 1) // n_j``, the same test while ``n_j * c_s < 2**52``."""
    index = rca.index
    n_j = index.job_skill_counts
    keep = index.skill_job_counts[index.indices] <= np.repeat(
        (index.grand_total - 1) // n_j, n_j)
    kept = np.add.reduceat(keep, index.indptr[:-1], dtype=np.int64)
    return EffectiveUseMatrix(index, np.concatenate(([0], np.cumsum(kept))),
                              index.indices[keep])
