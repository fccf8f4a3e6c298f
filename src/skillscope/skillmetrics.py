"""Skill relevance within single ads: comparative-advantage ratios and the
binary effective-use matrix derived from them.

For a job j with n_j distinct skills and a skill s demanded by c_s of the
N total skill slots in the corpus, the relevance ratio is

    rca(j, s) = (1 / n_j) / (c_s / N)

stored only where the skill actually appears in the ad. A skill is in
"effective use" in an ad when the ratio is strictly above 1.

Both matrices live in the incidence index's CSR layout: the ratios are one
flat array parallel to ``index.indices``, computed in a single vectorised
pass, and the effective-use matrix is its own ``indptr``/``indices`` pair
cut from the incidence by one boolean mask.
"""

from __future__ import annotations

import numpy as np

from .corpus import CsrRows, IncidenceIndex
from .errors import DataError, InvariantError


class RcaMatrix:
    """Sparse per-job relevance ratios, parallel to the incidence index."""

    def __init__(self, index: IncidenceIndex, data: np.ndarray):
        self.index = index
        self.data = data  # data[k] pairs with index.indices[k]
        self.values = CsrRows(index.indptr, data)  # values[i] pairs with job_skills[i]

    def value(self, job_pos: int, skill_idx: int) -> float:
        """Ratio at (job, skill); 0.0 where the skill is absent from the ad."""
        k = np.flatnonzero(self.index.job_skills[job_pos] == skill_idx)
        return float(self.values[job_pos][k[0]]) if len(k) else 0.0


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
    """Relevance ratio for every stored (job, skill) incidence entry."""
    if index.n_jobs == 0 or index.grand_total == 0:
        raise DataError("empty corpus: cannot compute relevance ratios")
    n_j = np.repeat(index.job_skill_counts, index.job_skill_counts).astype(np.float64)
    skill_counts = index.skill_job_counts.astype(np.float64)
    data = float(index.grand_total) / (n_j * skill_counts[index.indices])
    if np.any(data <= 0):
        raise InvariantError("relevance ratio must be positive where incidence is 1")
    return RcaMatrix(index, data)


def compute_effective_use(rca: RcaMatrix) -> EffectiveUseMatrix:
    """Strict thresholding: a skill counts as effectively used only when its
    ratio exceeds 1; a ratio of exactly 1.0 drops out."""
    keep = rca.data > 1.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return EffectiveUseMatrix(rca.index, kept_before[rca.index.indptr],
                              rca.index.indices[keep])
