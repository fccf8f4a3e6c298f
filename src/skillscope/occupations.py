"""Per-occupation skill intensity against a target skill set.

Intensity is the share of an occupation's skill slots (one slot per
distinct skill per ad) that belong to the target set. Ads, slots and target
slots are counted for every occupation at once, each by a ``bincount`` over
the corpus's occupation codes, weighted by each ad's slots and target slots;
the target slots come from a one-byte-per-slot boolean gather, counted per
ad by :func:`~skillscope.corpus.masked_indptr`, so no per-slot occupation
code is built. Occupations above a strict threshold are
selected and labelled via a user-supplied occupation -> category CSV
mapping.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .corpus import Corpus, masked_indptr, normalize_skill, write_csv
from .errors import DataError

UNCATEGORIZED = "uncategorized"
# Occupations with intensity above this share are selected by default.
THRESHOLD = 0.15
# Selected occupations with fewer ads than this are flagged low-support.
LOW_SUPPORT_FLOOR = 10


@dataclass
class OccupationProfile:
    occupation: str
    ads: int
    total_slots: int
    target_slots: int
    eta: float
    category: Optional[str] = None
    low_support: bool = False


@dataclass
class SelectionResult:
    profiles: list[OccupationProfile]
    total_ads: int


def compute_intensity(corpus: Corpus,
                      skills: Iterable[str]) -> list[OccupationProfile]:
    """One profile per distinct occupation, sorted by intensity descending
    then name ascending. ``skills`` names the target set in any casing and
    spacing; each name is normalized before it is matched."""
    if not len(corpus):
        raise DataError("empty corpus: cannot compute skill intensity")
    targets = {normalize_skill(s) for s in skills}
    if not targets:
        raise DataError("empty target skill set")

    is_target = np.zeros(len(corpus.skill_names), dtype=bool)
    is_target[[corpus.skill_ids[s] for s in targets if s in corpus.skill_ids]] = True

    def per_occupation(weights=None) -> list[int]:  # exact: every sum is below 2**53
        return np.bincount(corpus.occupation_codes, weights,
                           len(corpus.occupations)).astype(np.int64).tolist()

    counts = zip(per_occupation(), per_occupation(np.diff(corpus.indptr)),
                 per_occupation(np.diff(masked_indptr(corpus.indptr,
                                                      is_target[corpus.slots]))))
    profiles = [OccupationProfile(occupation=occ, ads=n_ads, total_slots=total,
                                  target_slots=target, eta=target / total)
                for occ, (n_ads, total, target) in zip(corpus.occupations, counts)]
    profiles.sort(key=lambda p: (-p.eta, p.occupation))
    return profiles


def load_category_map(path) -> dict[str, str]:
    """Two-column CSV ``occupation,category``; a header row is optional.
    An occupation may be named again only under the same category."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"cannot read category map: {path}")
    mapping: dict[str, str] = {}
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read category map {path}: {exc}") from None
    for lineno, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"malformed category map {path} at line {lineno}: "
                            f"expected 2 columns, got {len(row)}")
        occ, cat = row[0].strip(), row[1].strip()
        if lineno == 1 and occ.lower() == "occupation":
            continue
        if not occ or not cat:
            raise DataError(f"malformed category map {path} at line {lineno}: "
                            "empty field")
        if mapping.setdefault(occ, cat) != cat:
            raise DataError(f"malformed category map {path} at line {lineno}: "
                            f"occupation {occ!r} is under both {mapping[occ]!r} "
                            f"and {cat!r}")
    return mapping


def default_category_map_path() -> Path:
    """Shipped four-category occupation grouping."""
    return Path(__file__).parent / "data" / "dsa_occupation_categories.csv"


def check_threshold(threshold: float) -> None:
    """DataError unless ``threshold`` is in (0, 1); NaN is not."""
    if not 0 < threshold < 1:
        raise DataError("threshold must be in (0, 1)")


def select_occupations(
    profiles: Iterable[OccupationProfile],
    threshold: float = THRESHOLD,
    category_map: Optional[dict[str, str]] = None,
) -> SelectionResult:
    """Keep profiles with intensity strictly above ``threshold``; attach
    category labels; flag (but keep) occupations with fewer than
    ``LOW_SUPPORT_FLOOR`` ads."""
    check_threshold(threshold)
    selected = []
    for p in profiles:
        if p.eta > threshold:
            p.category = (category_map or {}).get(p.occupation, UNCATEGORIZED)
            p.low_support = p.ads < LOW_SUPPORT_FLOOR
            selected.append(p)
    return SelectionResult(profiles=selected, total_ads=sum(p.ads for p in selected))


def write_selection_csv(result: SelectionResult, path) -> None:
    """Table layout: category, occupation, ads, eta, plus a TOTALS row."""
    rows = [[p.category or UNCATEGORIZED, p.occupation, p.ads, repr(p.eta), int(p.low_support)]
            for p in result.profiles]
    rows.append(["TOTALS", f"{len(result.profiles)} occupations", result.total_ads, "", ""])
    write_csv(path, ["category", "occupation", "ads", "eta", "low_support"], rows)
