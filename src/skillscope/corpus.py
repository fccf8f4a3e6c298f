"""Job-ad corpus loading, validation, and sparse incidence indexing.

Ingest validates each record straight into the columns of a
:class:`Corpus`, one array per column instead of one object per ad: one
appender checks a record, then interns its skills and occupation and appends
it, so a rejected record leaves no trace. Memos parse each distinct date
text and normalize each distinct raw skill text once. :class:`JobAd` is the
row type for reading a corpus back and writing one. :func:`build_index`
reads the corpus's own CSR in place as the incidence, an
:class:`IncidenceIndex`: one flat array of skill ids, each ad's in ad order,
cut by ``indptr``, plus the ads per skill. The effective-use matrix is the
same type, cut from it.

Each input record is treated as a distinct advertisement; no deduplication
of re-posted ads is attempted.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DataError

# Records rejected above this share of the corpus end the run.
REJECT_THRESHOLD = 0.05

_WS_RUN = re.compile(r"\s+")
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_EPOCH = dt.date(1970, 1, 1).toordinal()


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
    """One advertisement as read or written. ``skills`` holds normalized
    names, deduplicated, in first-occurrence order."""

    id: str
    posted_date: dt.date
    occupation: str
    skills: tuple[str, ...]
    salary_min: Optional[float] = None
    salary_max: Optional[float] = None
    education_years: Optional[float] = None
    experience_years: Optional[float] = None


class _Columns:
    """Corpus columns as they grow: :meth:`add_record` validates a raw record
    straight into them, :meth:`append` takes a row already checked. Skills
    are interned only as a row is appended, in first-occurrence order."""

    def __init__(self):
        self.ids: list[str] = []
        self.skill_ids: dict[str, int] = {}
        self.occupation_codes: dict[str, int] = {}
        self.ordinals, self.codes, self.slots, self.lengths = (array("q") for _ in range(4))
        self.numbers = array("d")  # four per ad, NaN where missing
        self.dates: dict[str, int] = {}  # date text -> ordinal
        self.names: dict[str, str] = {}  # raw skill text -> normalized name

    def append(self, ad_id: str, ordinal: int, occupation: str, names: Iterable[str],
               numbers: list[float]) -> None:
        self.ids.append(ad_id)
        self.ordinals.append(ordinal)
        self.codes.append(self.occupation_codes.setdefault(occupation,
                                                           len(self.occupation_codes)))
        skill_ids = self.skill_ids
        ids = list(map(skill_ids.get, names))
        if None in ids:
            ids = [skill_ids.setdefault(s, len(skill_ids)) for s in names]
        self.slots.fromlist(ids)
        self.lengths.append(len(ids))
        self.numbers.fromlist(numbers)

    def add_record(self, rec) -> None:
        """Validate one raw record and append it; raises ValueError with a
        short reason, having appended nothing."""
        if not isinstance(rec, dict):
            raise ValueError("bad json")
        for key in ("id", "date", "occupation", "skills"):
            if rec.get(key) in (None, ""):
                raise ValueError(f"missing {key}")
        for key in ("id", "occupation"):  # text, or an integer code
            if not isinstance(rec[key], (str, int)) or isinstance(rec[key], bool):
                raise ValueError(f"bad {key}")
        occupation = str(rec["occupation"]).strip()
        if not occupation:
            raise ValueError("missing occupation")
        if occupation not in self.occupation_codes:
            _check_utf8(occupation, "bad occupation")
        try:
            ordinal = self.dates[rec["date"]]
        except (KeyError, TypeError):  # a new or an unhashable date
            try:
                ordinal = self.dates[rec["date"]] = parse_date(str(rec["date"])).toordinal()
            except ValueError:
                raise ValueError("bad date")
        names = self._skill_names(rec["skills"])
        numbers = [_parse_number(rec.get("salary_min"), "salary_min"),
                   _parse_number(rec.get("salary_max"), "salary_max")]
        if numbers[0] > numbers[1]:  # False when either is NaN
            raise ValueError("salary_min > salary_max")
        for key in ("education_years", "experience_years"):
            numbers.append(_parse_number(rec.get(key), key))
            if numbers[-1] < 0:
                raise ValueError(f"negative {key}")
        self.append(str(rec["id"]), ordinal, occupation, names, numbers)

    def _skill_names(self, raw) -> dict[str, None]:
        """The ordered set of ``raw``'s normalized names."""
        if isinstance(raw, str):
            raw = raw.split(";")
        elif not isinstance(raw, list):
            raise ValueError("bad skills")
        memo = self.names
        try:
            names = dict.fromkeys(map(memo.__getitem__, raw))
        except (KeyError, TypeError):  # a new text, or one that is not a string
            for text in raw:
                if not isinstance(text, str):
                    raise ValueError("bad skills")
                if text not in memo:
                    memo[text] = normalize_skill(_check_utf8(text, "bad skills"))
            names = dict.fromkeys(map(memo.__getitem__, raw))
        names.pop("", None)
        if not names:
            raise ValueError("empty skills")
        return names


class Corpus:
    """Ads as columns, row ``i`` being the ``i``-th ad given.

    Per ad: ``ids``, int64 ``ordinals`` and ``years``, and
    ``occupation_codes`` into ``occupations`` (names in first-occurrence
    order). Ad ``i``'s skill ids, in its own order, are
    ``slots[indptr[i]:indptr[i + 1]]``, naming ``skill_names[id]``;
    ``skill_ids`` maps a name to its id. ``salary_min``, ``salary_max``,
    ``education_years`` and ``experience_years`` are float64, NaN where
    missing. Names are kept as spelled: ingest gives normalized ones.

    ``ads`` are appended after the rows already in ``columns``, if given.
    """

    def __init__(self, ads: Iterable[JobAd] = (), columns: Optional[_Columns] = None):
        columns = _Columns() if columns is None else columns
        for ad in ads:
            columns.append(ad.id, ad.posted_date.toordinal(), ad.occupation, ad.skills, [
                math.nan if v is None else v for v in (
                    ad.salary_min, ad.salary_max, ad.education_years, ad.experience_years)])
        self.ids = columns.ids
        self.skill_ids = columns.skill_ids
        self.occupations = list(columns.occupation_codes)
        self.skill_names = list(columns.skill_ids)
        self.ordinals = np.array(columns.ordinals, dtype=np.int64)
        self.years = (self.ordinals - _EPOCH).astype("datetime64[D]").astype(
            "datetime64[Y]").astype(np.int64) + 1970
        self.occupation_codes = np.array(columns.codes, dtype=np.int64)
        self.slots = np.array(columns.slots, dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(columns.lengths, dtype=np.int64)))
        numbers = np.array(columns.numbers, dtype=np.float64).reshape(-1, 4)
        (self.salary_min, self.salary_max, self.education_years,
         self.experience_years) = numbers.T.copy()

    def __len__(self) -> int:
        return len(self.ids)

    def span(self) -> tuple[dt.date, dt.date]:
        """First and last posting date."""
        if not len(self):
            raise DataError("corpus has no accepted ads; nothing to backtest")
        return (dt.date.fromordinal(int(self.ordinals.min())),
                dt.date.fromordinal(int(self.ordinals.max())))

    def rows(self) -> Iterator[JobAd]:
        """The ads back as :class:`JobAd` rows, in order."""
        numbers = np.column_stack([self.salary_min, self.salary_max, self.education_years,
                                   self.experience_years]).tolist()
        for i, ad_id in enumerate(self.ids):
            skills = self.slots[self.indptr[i]:self.indptr[i + 1]].tolist()
            yield JobAd(ad_id, dt.date.fromordinal(int(self.ordinals[i])),
                        self.occupations[self.occupation_codes[i]],
                        tuple(self.skill_names[s] for s in skills),
                        *(None if math.isnan(v) else v for v in numbers[i]))


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    reasons: Counter = field(default_factory=Counter)

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)


def _check_utf8(text: str, reason: str) -> str:
    """``text`` itself; ValueError(reason) if it holds a lone surrogate
    (a JSON escape such as ``"\\ud800"``), which no UTF-8 output can take."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(reason) from None
    return text


def _parse_number(value, field_name: str) -> float:
    """A finite number as a float, or NaN for a missing one (None or empty
    text); ValueError otherwise."""
    if type(value) is float:  # a JSON number, the usual form
        number = value
    elif value is None or value == "":
        return math.nan
    elif isinstance(value, bool):
        raise ValueError(f"bad number in {field_name}")
    else:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"bad number in {field_name}")
    if not math.isfinite(number):
        raise ValueError(f"non-finite {field_name}")
    return number


def _iter_records(path: Path, fmt: str):
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown input format: {fmt!r}")
    try:
        with path.open("r", encoding="utf-8-sig", newline="" if fmt == "csv" else None) as fh:
            if fmt == "csv":
                yield from csv.DictReader(fh)
                return
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except (ValueError, RecursionError):  # ValueError: not JSON, or an
                    rec = None  # integer over the interpreter's digit limit
                yield rec  # any non-object is rejected as bad json
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read input file {path}: {exc}") from None


def ingest(path, fmt: str = "jsonl") -> tuple[Corpus, IngestReport]:
    """Load a corpus file, validate every record, and append the accepted
    ones to the corpus columns in one pass.

    Malformed records are rejected with a per-record reason and never abort
    the run unless the rejected fraction exceeds ``REJECT_THRESHOLD``.
    Deterministic: the corpus rows are in file order.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"cannot read input file: {path}")

    report = IngestReport()
    columns = _Columns()
    for rec in _iter_records(path, fmt):
        try:
            columns.add_record(rec)
        except ValueError as exc:
            report.rejected += 1
            report.reasons[str(exc)] += 1
    report.accepted = len(columns.ids)
    corpus = Corpus(columns=columns)
    total = report.accepted + report.rejected
    if total > 0 and report.rejected / total > REJECT_THRESHOLD:
        raise DataError(
            f"rejected {report.rejected}/{total} records "
            f"(threshold {REJECT_THRESHOLD:.0%}); reasons: "
            + ", ".join(f"{r}={n}" for r, n in sorted(report.reasons.items()))
        )
    return corpus, report


class IncidenceIndex:
    """A binary job x skill matrix in CSR form over one skill vocabulary.

    Job ``i``'s skill ids, in ad order, are
    ``indices[indptr[i]:indptr[i + 1]]``; ``skill_job_counts[s]`` is the
    number of jobs holding skill ``s``. The incidence and its effective-use
    sub-matrix are both of this type.
    """

    def __init__(self, skill_ids: dict[str, int], indptr: np.ndarray, indices: np.ndarray):
        self.skill_ids = skill_ids
        self.indptr = indptr
        self.indices = indices
        self.skill_job_counts = np.bincount(indices, minlength=len(skill_ids))


def build_index(corpus: Corpus) -> IncidenceIndex:
    """The incidence: the corpus's own CSR read in place, so ``indices`` is
    ``corpus.slots`` and each ad's skill ids are in ad order."""
    if len(corpus) == 0:
        raise DataError("empty corpus: cannot build incidence index")
    return IncidenceIndex(corpus.skill_ids, corpus.indptr, corpus.slots)


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
            for key in ("salary_min", "salary_max", "education_years", "experience_years"):
                if getattr(ad, key) is not None:
                    rec[key] = getattr(ad, key)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
