"""Job-ad corpus loading, validation, and sparse incidence indexing.

A corpus is a list of immutable :class:`JobAd` records plus a
:class:`SkillVocabulary` of normalized skill names in first-occurrence
order; ingest normalizes each distinct raw skill string once (a memo).
:func:`build_index` interns the ads' skills to integer ids in CSR form (one
flat array of sorted ids per job, cut by ``indptr``) with the marginals the
relevance and complementarity computations consume as whole arrays.

Each input record is treated as a distinct advertisement; no deduplication
of re-posted ads is attempted.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DataError

# Records rejected above this share of the corpus end the run.
REJECT_THRESHOLD = 0.05

_WS_RUN = re.compile(r"\s+")
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def normalize_skill(raw: str) -> str:
    """Canonical identity form: trimmed, inner whitespace collapsed, lowercased.

    Idempotent: ``normalize_skill(normalize_skill(x)) == normalize_skill(x)``.
    """
    return _WS_RUN.sub(" ", raw.strip()).lower()


def parse_date(text: str) -> dt.date:
    """A ``YYYY-MM-DD`` calendar date; ValueError for any other form.

    ``date.fromisoformat`` alone would also take ``20160101`` and
    ``2016-W01-1`` from Python 3.11 on, but not on 3.10."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return dt.date.fromisoformat(text)


@dataclass(frozen=True)
class JobAd:
    """One advertisement. ``skills`` holds normalized names, deduplicated,
    in first-occurrence order."""

    id: str
    posted_date: dt.date
    occupation: str
    skills: tuple[str, ...]
    salary_min: Optional[float] = None
    salary_max: Optional[float] = None
    education_years: Optional[float] = None
    experience_years: Optional[float] = None

    def salary_midpoint(self) -> Optional[float]:
        if self.salary_min is not None and self.salary_max is not None:
            return (self.salary_min + self.salary_max) / 2.0
        if self.salary_min is not None:
            return float(self.salary_min)
        if self.salary_max is not None:
            return float(self.salary_max)
        return None


class SkillVocabulary:
    """Ordered skill vocabulary with contiguous indices from 0.

    Identity and output spelling are both the normalized (lowercased)
    form: :meth:`add` normalizes, and every name the pipeline shows,
    including a seed typed in another casing, is read from :attr:`names`.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._names: list[str] = []

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return normalize_skill(name) in self._index

    @property
    def names(self) -> list[str]:
        """Normalized names in index order."""
        return list(self._names)

    def add(self, raw: str) -> int:
        key = normalize_skill(raw)
        if not key:
            raise DataError("cannot add empty skill name")
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._names)
            self._index[key] = idx
            self._names.append(key)
        return idx

    def index_of(self, name: str) -> int:
        key = normalize_skill(name)
        if key not in self._index:
            raise DataError(f"unknown skill: {name!r}")
        return self._index[key]

    @classmethod
    def from_ads(cls, ads: Iterable[JobAd]) -> "SkillVocabulary":
        """Skills in first-occurrence order over ``ads``."""
        vocab = cls()
        for ad in ads:
            for s in ad.skills:
                if s not in vocab._index:  # normalized names skip normalization
                    vocab.add(s)
        return vocab


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    reasons: Counter = field(default_factory=Counter)

    def to_json(self) -> str:
        payload = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "reasons": dict(sorted(self.reasons.items())),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _parse_optional_float(value, field_name: str) -> Optional[float]:
    if value is None or value == "":
        return None
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"bad number in {field_name}")
    if not math.isfinite(number):
        raise ValueError(f"non-finite {field_name}")
    return number


def _record_to_ad(rec: dict, normalized: dict[str, str]) -> JobAd:
    """Validate one raw record; raises ValueError with a short reason.

    ``normalized`` memoizes raw skill text -> normalized name across calls.
    """
    for key in ("id", "date", "occupation", "skills"):
        if key not in rec or rec[key] in (None, ""):
            raise ValueError(f"missing {key}")
    occupation = str(rec["occupation"]).strip()
    if not occupation:
        raise ValueError("missing occupation")
    try:
        posted = parse_date(str(rec["date"]))
    except ValueError:
        raise ValueError("bad date")

    raw_skills = rec["skills"]
    if isinstance(raw_skills, str):
        raw_skills = raw_skills.split(";")
    elif not isinstance(raw_skills, list):
        raise ValueError("bad skills")
    skills: list[str] = []
    seen: set[str] = set()
    for raw in raw_skills:
        text = str(raw)
        key = normalized.get(text)
        if key is None:
            key = normalized[text] = normalize_skill(text)
        if key and key not in seen:
            seen.add(key)
            skills.append(key)
    if not skills:
        raise ValueError("empty skills")

    salary_min = _parse_optional_float(rec.get("salary_min"), "salary_min")
    salary_max = _parse_optional_float(rec.get("salary_max"), "salary_max")
    if salary_min is not None and salary_max is not None and salary_min > salary_max:
        raise ValueError("salary_min > salary_max")
    education = _parse_optional_float(rec.get("education_years"), "education_years")
    if education is not None and education < 0:
        raise ValueError("negative education_years")
    experience = _parse_optional_float(rec.get("experience_years"), "experience_years")
    if experience is not None and experience < 0:
        raise ValueError("negative experience_years")

    return JobAd(
        id=str(rec["id"]),
        posted_date=posted,
        occupation=occupation,
        skills=tuple(skills),
        salary_min=salary_min,
        salary_max=salary_max,
        education_years=education,
        experience_years=experience,
    )


def _iter_records(path: Path, fmt: str):
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown input format: {fmt!r}")
    try:
        with path.open("r", encoding="utf-8", newline="" if fmt == "csv" else None) as fh:
            if fmt == "csv":
                yield from csv.DictReader(fh)
                return
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except (json.JSONDecodeError, RecursionError):
                    rec = None
                yield rec if isinstance(rec, dict) else {"__parse_error__": "bad json"}
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read input file {path}: {exc}") from None


def ingest(path, fmt: str = "jsonl") -> tuple[list[JobAd], SkillVocabulary, IngestReport]:
    """Load a corpus file, validate every record, and build the vocabulary.

    Malformed records are rejected with a per-record reason and never abort
    the run unless the rejected fraction exceeds ``REJECT_THRESHOLD``.
    Deterministic: the returned ad order is file order.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"cannot read input file: {path}")

    ads: list[JobAd] = []
    report = IngestReport()
    normalized: dict[str, str] = {}
    for rec in _iter_records(path, fmt):
        if "__parse_error__" in rec:
            report.rejected += 1
            report.reasons[rec["__parse_error__"]] += 1
            continue
        try:
            ads.append(_record_to_ad(rec, normalized))
            report.accepted += 1
        except ValueError as exc:
            report.rejected += 1
            report.reasons[str(exc)] += 1

    total = report.accepted + report.rejected
    if total > 0 and report.rejected / total > REJECT_THRESHOLD:
        raise DataError(
            f"rejected {report.rejected}/{total} records "
            f"(threshold {REJECT_THRESHOLD:.0%}); reasons: "
            + ", ".join(f"{r}={n}" for r, n in sorted(report.reasons.items()))
        )
    vocab = SkillVocabulary.from_ads(ads)
    return ads, vocab, report


class CsrRows:
    """Rows of a CSR array as views: ``rows[i]`` is
    ``data[indptr[i]:indptr[i + 1]]``; iterating yields every row."""

    def __init__(self, indptr: np.ndarray, data: np.ndarray):
        self.indptr = indptr
        self.data = data

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.data[self.indptr[i]:self.indptr[i + 1]]


class IncidenceIndex:
    """Binary job x skill incidence in CSR form with cached marginals.

    Job ``i``'s sorted skill ids are ``indices[indptr[i]:indptr[i + 1]]``,
    also readable as the view ``job_skills[i]``; the per-skill and per-job
    counts and the grand total are precomputed.
    """

    def __init__(self, ads: Sequence[JobAd], vocab: SkillVocabulary):
        if len(ads) == 0:
            raise DataError("empty corpus: cannot build incidence index")
        self.vocab = vocab
        self.job_ids: list[str] = [ad.id for ad in ads]
        ids, index_of = vocab._index, vocab.index_of
        skills = np.array([ids[s] if s in ids else index_of(s)
                           for ad in ads for s in ad.skills], dtype=np.int64)
        self.job_skill_counts = np.array([len(ad.skills) for ad in ads], dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(self.job_skill_counts)))
        rows = np.repeat(np.arange(len(ads)), self.job_skill_counts)
        self.indices = skills[np.lexsort((skills, rows))]
        self.job_skills = CsrRows(self.indptr, self.indices)
        self.skill_job_counts = np.bincount(self.indices, minlength=len(vocab))
        self.grand_total = len(self.indices)

    @property
    def n_jobs(self) -> int:
        return len(self.job_ids)

    @property
    def n_skills(self) -> int:
        return len(self.vocab)


def build_index(ads: Sequence[JobAd], vocab: SkillVocabulary) -> IncidenceIndex:
    """Build the incidence structure; fatal if an ad names a skill missing
    from ``vocab`` (the vocabulary must come from the same corpus)."""
    return IncidenceIndex(ads, vocab)


def write_jsonl(ads: Iterable[JobAd], path) -> None:
    """Serialize ads in the canonical JSONL interchange format."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for ad in ads:
            rec = {
                "id": ad.id,
                "date": ad.posted_date.isoformat(),
                "occupation": ad.occupation,
                "skills": list(ad.skills),
            }
            if ad.salary_min is not None:
                rec["salary_min"] = ad.salary_min
            if ad.salary_max is not None:
                rec["salary_max"] = ad.salary_max
            if ad.education_years is not None:
                rec["education_years"] = ad.education_years
            if ad.experience_years is not None:
                rec["experience_years"] = ad.experience_years
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
