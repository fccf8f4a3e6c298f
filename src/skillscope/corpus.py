"""Job-ad corpus loading, validation, and sparse incidence indexing.

An ad is a record on the way in and out (id, ``YYYY-MM-DD`` date,
occupation, skills, and optional salary, education and experience numbers)
and a row of columns in between. :func:`ingest_records` is the only way to
build a :class:`Corpus`: one appender validates each record straight into
the columns, one array per column instead of one object per ad, interning
its skills and occupation as it appends it, so a rejected record leaves no
trace. Memos parse each distinct date text and normalize each distinct raw
skill text once. :meth:`Corpus.rows` gives the records back, and
:func:`write_jsonl` writes them. :func:`build_index` reads the corpus's
own CSR in place as the incidence, an :class:`IncidenceIndex`: one flat
array of skill ids, each ad's in ad order, cut by ``indptr``, plus the ads
per skill. The effective-use matrix is the same type, cut from it.

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
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError

# Records rejected above this share of the corpus end the run.
REJECT_THRESHOLD = 0.05

_WS_RUN = re.compile(r"\s+")
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_EPOCH = dt.date(1970, 1, 1).toordinal()
_NUMBER_FIELDS = ("salary_min", "salary_max", "education_years", "experience_years")


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


class _Columns:
    """Corpus columns as they grow: :meth:`add_record` validates a raw
    record straight into them. Skills are interned only as a record is
    appended, in first-occurrence order."""

    def __init__(self):
        self.ids: list[str] = []
        self.skill_ids: dict[str, int] = {}
        self.occupation_codes: dict[str, int] = {}
        self.ordinals, self.codes, self.lengths = (array("q") for _ in range(3))
        self.slots = array("i")  # skill ids, int32
        self.numbers = array("d")  # four per ad, NaN where missing
        self.dates: dict[str, int] = {}  # date text -> ordinal
        self.names: dict[str, str] = {}  # raw skill text -> normalized name

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
        self.ids.append(str(rec["id"]))
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
    """Ads as columns, row ``i`` being the ``i``-th record accepted.

    Per ad: ``ids``, int64 ``ordinals`` and ``years``, and
    ``occupation_codes`` into ``occupations`` (names in first-occurrence
    order). Ad ``i``'s skill ids, int32 and in its own order, are
    ``slots[indptr[i]:indptr[i + 1]]``, naming ``skill_names[id]``;
    ``skill_ids`` maps a name to its id. ``salary_min``, ``salary_max``,
    ``education_years`` and ``experience_years`` are float64, NaN where
    missing. ``ordinals``, ``occupation_codes``, ``slots`` and the four
    numbers are views of the buffers ingest appended to, so each column is
    held once; the numbers are strided views of one four-per-ad buffer.
    """

    def __init__(self, columns: _Columns):
        self.ids = columns.ids
        self.skill_ids = columns.skill_ids
        self.occupations = list(columns.occupation_codes)
        self.skill_names = list(columns.skill_ids)
        self.ordinals = np.frombuffer(columns.ordinals, dtype=np.int64)
        self.years = (self.ordinals - _EPOCH).astype("datetime64[D]").astype(
            "datetime64[Y]").astype(np.int64) + 1970
        self.occupation_codes = np.frombuffer(columns.codes, dtype=np.int64)
        self.slots = np.frombuffer(columns.slots, dtype=np.int32)
        self.indptr = np.concatenate(([0], np.cumsum(np.frombuffer(columns.lengths,
                                                                   dtype=np.int64))))
        (self.salary_min, self.salary_max, self.education_years,
         self.experience_years) = np.frombuffer(columns.numbers).reshape(-1, 4).T

    def __len__(self) -> int:
        return len(self.ids)

    def span(self) -> tuple[dt.date, dt.date]:
        """First and last posting date."""
        if not len(self):
            raise DataError("corpus has no accepted ads; nothing to backtest")
        return (dt.date.fromordinal(int(self.ordinals.min())),
                dt.date.fromordinal(int(self.ordinals.max())))

    def rows(self) -> Iterator[dict]:
        """The ads back as records in order: ISO date text, a ``skills``
        list, and only the numbers that are present."""
        numbers = np.column_stack([getattr(self, key) for key in _NUMBER_FIELDS]).tolist()
        for i, ad_id in enumerate(self.ids):
            rec = {"id": ad_id,
                   "date": dt.date.fromordinal(int(self.ordinals[i])).isoformat(),
                   "occupation": self.occupations[self.occupation_codes[i]],
                   "skills": [self.skill_names[s]
                              for s in self.slots[self.indptr[i]:self.indptr[i + 1]].tolist()]}
            rec.update((key, v) for key, v in zip(_NUMBER_FIELDS, numbers[i])
                       if not math.isnan(v))
            yield rec


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


def ingest_records(records: Iterable) -> tuple[Corpus, IngestReport]:
    """Validate every record and append the accepted ones to the corpus
    columns in one pass.

    Malformed records are rejected with a per-record reason and never abort
    the run unless the rejected fraction exceeds ``REJECT_THRESHOLD``.
    Deterministic: the corpus rows are in record order.
    """
    report = IngestReport()
    columns = _Columns()
    for rec in records:
        try:
            columns.add_record(rec)
        except ValueError as exc:
            report.rejected += 1
            report.reasons[str(exc)] += 1
    report.accepted = len(columns.ids)
    corpus = Corpus(columns)
    total = report.accepted + report.rejected
    if total > 0 and report.rejected / total > REJECT_THRESHOLD:
        raise DataError(
            f"rejected {report.rejected}/{total} records "
            f"(threshold {REJECT_THRESHOLD:.0%}); reasons: "
            + ", ".join(f"{r}={n}" for r, n in sorted(report.reasons.items()))
        )
    return corpus, report


def ingest(path, fmt: str = "jsonl") -> tuple[Corpus, IngestReport]:
    """:func:`ingest_records` over a JSONL or CSV corpus file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"cannot read input file: {path}")
    return ingest_records(_iter_records(path, fmt))


class IncidenceIndex:
    """A binary job x skill matrix in CSR form over one skill vocabulary.

    Job ``i``'s skill ids, int32 and in ad order, are
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


def write_jsonl(records: Iterable[dict], path) -> None:
    """Write records as JSONL, one object with sorted keys per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
