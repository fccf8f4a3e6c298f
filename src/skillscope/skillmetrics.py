"""Skill relevance within single ads: each skill's comparative-advantage
limit and the binary effective-use matrix derived from it.

For a job j with n_j distinct skills and a skill s demanded by c_s of the
N total skill slots in the corpus, the relevance ratio is

    rca(j, s) = (1 / n_j) / (c_s / N)

defined only where the skill actually appears in the ad. A skill is in
"effective use" in an ad when the ratio is strictly above 1.

No ratio is computed: the decision is taken in integers, from each skill's
limit ``(N - 1) // c_s``, the longest ad (counted in distinct skills) in
which its ratio is above 1. The effective-use matrix is an
:class:`~skillscope.corpus.IncidenceIndex` like the incidence, cut from it by
one boolean mask, one byte per slot, which is built only when some skill's
limit is below the longest ad; every wider per-slot temporary is taken one
``corpus.SLOT_SLICE`` of slots at a time.
"""

from __future__ import annotations

import numpy as np

from . import corpus
from .corpus import IncidenceIndex
from .errors import InvariantError


def compute_rca(index: IncidenceIndex) -> np.ndarray:
    """Each skill's limit as int64: an entry (j, s) has a ratio above 1 iff
    ``n_j <= limit[s]``, where ``limit[s] = (N - 1) // c_s``. This is
    ``c_s * n_j <= N - 1``, the same test as the ratio while
    ``n_j * c_s < 2**52``."""
    if not np.diff(index.indptr).all():
        raise InvariantError("every ad must have at least one skill")
    # A skill in no ad (c_s = 0) has no slot to keep; any limit serves.
    return (len(index.indices) - 1) // np.maximum(index.skill_job_counts, 1)


def compute_effective_use(index: IncidenceIndex) -> IncidenceIndex:
    """The incidence entries in effective use, with their own ads per skill.

    Strict thresholding: a skill counts as effectively used only when its
    ratio exceeds 1; a ratio of exactly 1.0 drops out. Where no skill's
    limit (:func:`compute_rca`) is below the longest ad, the incidence
    itself is returned with no per-slot work; otherwise one boolean mask
    over the slots is built one ``SLOT_SLICE`` at a time, and where it keeps
    every entry the incidence is still returned, not a copy."""
    limit = compute_rca(index)
    indptr, indices = index.indptr, index.indices
    n_j = np.diff(indptr)
    if not len(indices) or limit.min() >= n_j.max():
        return index
    keep = np.empty(len(indices), dtype=bool)
    for lo in range(0, len(indices), corpus.SLOT_SLICE):
        hi = min(lo + corpus.SLOT_SLICE, len(indices))
        first, last = np.searchsorted(indptr, [lo, hi - 1], side="right") - 1
        lengths = np.diff(np.clip(indptr[first:last + 2], lo, hi))
        keep[lo:hi] = np.repeat(n_j[first:last + 1], lengths) <= limit[indices[lo:hi]]
    if keep.all():
        return index
    return IncidenceIndex(index.skill_ids, corpus.masked_indptr(indptr, keep), indices[keep])
