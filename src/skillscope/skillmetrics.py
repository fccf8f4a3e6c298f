"""Skill relevance within single ads: comparative-advantage ratios and the
binary effective-use matrix derived from them.

For a job j with n_j distinct skills and a skill s demanded by c_s of the
N total skill slots in the corpus, the relevance ratio is

    rca(j, s) = (1 / n_j) / (c_s / N)

defined only where the skill actually appears in the ad. A skill is in
"effective use" in an ad when the ratio is strictly above 1.

No ratio is stored: :class:`RcaMatrix` computes one on demand, with n_j
read from ``indptr`` and N as the number of slots. The effective-use matrix
is decided from the integer counts alone and is an
:class:`~skillscope.corpus.IncidenceIndex` like the incidence, cut from it by
one boolean mask.
"""

from __future__ import annotations

import numpy as np

from .corpus import IncidenceIndex
from .errors import InvariantError


class RcaMatrix:
    """Per-job relevance ratios over the incidence index, computed on demand."""

    def __init__(self, index: IncidenceIndex):
        self.index = index

    def value(self, job_pos: int, skill_idx: int) -> float:
        """Ratio at (job, skill); 0.0 where the skill is absent from the ad."""
        index = self.index
        job_pos = range(len(index.indptr) - 1)[job_pos]  # IndexError past either end
        lo, hi = index.indptr[job_pos], index.indptr[job_pos + 1]
        if not np.any(index.indices[lo:hi] == skill_idx):
            return 0.0
        return float(len(index.indices)) / (float(hi - lo)
                                             * float(index.skill_job_counts[skill_idx]))


def compute_rca(index: IncidenceIndex) -> RcaMatrix:
    """Relevance ratios over every (job, skill) incidence entry."""
    if not np.diff(index.indptr).all():
        raise InvariantError("every ad must have at least one skill")
    return RcaMatrix(index)


def compute_effective_use(rca: RcaMatrix) -> IncidenceIndex:
    """The incidence entries in effective use, with their own ads per skill.

    Strict thresholding: a skill counts as effectively used only when its
    ratio exceeds 1; a ratio of exactly 1.0 drops out. Decided in integers as
    ``c_s <= (N - 1) // n_j``, the same test while ``n_j * c_s < 2**52``.
    Where every entry passes, the incidence itself is returned, not a copy."""
    index = rca.index
    n_j = np.diff(index.indptr)
    keep = index.skill_job_counts[index.indices] <= np.repeat(
        (len(index.indices) - 1) // n_j, n_j)
    if keep.all():
        return index
    kept = np.add.reduceat(keep, index.indptr[:-1], dtype=np.int64)
    return IncidenceIndex(index.skill_ids, np.concatenate(([0], np.cumsum(kept))),
                          index.indices[keep])
