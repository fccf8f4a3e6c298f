"""Job-ad corpus loading, validation, and sparse incidence indexing.

An ad is a record on the way in and out (id, ``YYYY-MM-DD`` date,
occupation, skills, and optional salary, education and experience numbers)
and a row of columns in between. :func:`ingest_records` is the only way to
build a :class:`Corpus`: one loop validates each record straight into
the columns, one array per column instead of one object per ad (the ids
too, as one UTF-8 buffer cut by end offsets), interning its skills and
occupation as it appends it, so a rejected record leaves no trace. Memos
parse each distinct date text and normalize each distinct raw skill text
once, and map each raw skill text of an appended record to its skill id
(-1 where it normalizes to ""), so a record whose texts are all in that
memo goes straight to its ids. :func:`ingest` decodes each JSONL
line with one ``raw_decode`` call, accepting exactly what ``json.loads``
accepts, and reads CSV rows with ``csv.reader`` as ``csv.DictReader``
would give them to the validator. :meth:`Corpus.rows` gives the records
back, and :func:`write_jsonl` writes them. :func:`build_index` reads the
corpus's own CSR in place as the incidence, an :class:`IncidenceIndex`:
one flat array of skill ids, each ad's in ad order, cut by ``indptr``,
plus the ads per skill. The effective-use matrix is the same type, cut
from it.

After ingest no temporary takes more than one byte per skill slot unless
it is taken one ``SLOT_SLICE`` of slots at a time, as
:func:`masked_indptr` takes its running count.

Each input record is treated as a distinct advertisement; no deduplication
of re-posted ads is attempted.

Every output file but ``trend_lines.csv`` is written by one of the three
writers here: :func:`write_jsonl`, :func:`write_json` or :func:`write_csv`.
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
# Slots per slice where a per-slot temporary would be wider than one byte:
# after ingest, such temporaries are taken one fixed-size slice at a time.
SLOT_SLICE = 1 << 14

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


def left_sum(values) -> float:
    """Floats added one at a time, left to right, from 0.0.

    The builtin ``sum`` does this up to Python 3.11 and compensates the
    rounding from 3.12 on, which would tie a report's last digits to the
    interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


class _Columns:
    """Corpus columns as they grow: :meth:`append_records` validates raw
    records straight into them. Skills are interned, and their raw texts
    memoized as ids, only as a record is appended, in first-occurrence
    order."""

    def __init__(self):
        self.id_bytes = bytearray()  # each ad's id as UTF-8, end to end
        self.id_ends = array("q")  # where each ad's id ends in id_bytes
        self.skill_ids: dict[str, int] = {}
        self.occupation_codes: dict[str, int] = {}
        self.ordinals, self.codes, self.lengths = (array("q") for _ in range(3))
        self.slots = array("i")  # skill ids, int32
        self.numbers = array("d")  # four per ad, NaN where missing
        self.dates: dict[str, int] = {}  # date text -> ordinal
        self.names: dict[str, str] = {}  # raw skill text -> normalized name
        # raw skill text of an appended record -> skill id, -1 for one
        # that normalizes to ""
        self.text_ids: dict[str, int] = {}

    def append_records(self, records: Iterable, report: IngestReport) -> None:
        """Validate each raw record and append the accepted ones in order.
        A rejected record appends nothing and is counted in ``report``
        under a short reason: the first check it fails. The buffers, memos
        and their methods are bound to locals once, for the whole loop."""
        get, missing, isfinite = dict.get, (None, ""), math.isfinite
        occupation_codes, skill_ids = self.occupation_codes, self.skill_ids
        dates, text_ids, memo = self.dates, self.text_ids, self.names
        names_of, fromkeys, text_id = self._skill_names, dict.fromkeys, text_ids.__getitem__
        id_bytes, append_id = self.id_bytes, self.id_bytes.extend
        append_end, append_ordinal = self.id_ends.append, self.ordinals.append
        append_code, append_length = self.codes.append, self.lengths.append
        append_slots, append_numbers = self.slots.fromlist, self.numbers.fromlist
        for rec in records:
            try:
                if not isinstance(rec, dict):
                    raise ValueError("bad json")
                ad_id, date = get(rec, "id"), get(rec, "date")
                occupation, raw = get(rec, "occupation"), get(rec, "skills")
                if ad_id in missing:
                    raise ValueError("missing id")
                if date in missing:
                    raise ValueError("missing date")
                if occupation in missing:
                    raise ValueError("missing occupation")
                if raw in missing:
                    raise ValueError("missing skills")
                # text, or an integer code
                if not isinstance(ad_id, (str, int)) or isinstance(ad_id, bool):
                    raise ValueError("bad id")
                if not isinstance(occupation, (str, int)) or isinstance(occupation, bool):
                    raise ValueError("bad occupation")
                occupation = str(occupation).strip()
                if not occupation:
                    raise ValueError("missing occupation")
                if occupation not in occupation_codes:
                    _check_utf8(occupation, "bad occupation")
                try:
                    ordinal = dates[date]
                except (KeyError, TypeError):  # a new or an unhashable date
                    try:
                        ordinal = dates[date] = parse_date(str(date)).toordinal()
                    except ValueError:
                        raise ValueError("bad date")
                if isinstance(raw, str):
                    raw = raw.split(";")
                elif not isinstance(raw, list):
                    raise ValueError("bad skills")
                try:  # every text known from an appended record: straight to its ids
                    ids = fromkeys(map(text_id, raw))
                except (KeyError, TypeError):  # a new text, or one that is not a string
                    names = names_of(raw)
                else:
                    names = None
                    ids.pop(-1, None)
                    if not ids:
                        raise ValueError("empty skills")
                # a finite float, the usual form of a JSON number, is taken as it is
                salary_min, salary_max = get(rec, "salary_min"), get(rec, "salary_max")
                if type(salary_min) is not float or not isfinite(salary_min):
                    salary_min = _parse_number(salary_min, "salary_min")
                if type(salary_max) is not float or not isfinite(salary_max):
                    salary_max = _parse_number(salary_max, "salary_max")
                if salary_min > salary_max:  # False when either is NaN
                    raise ValueError("salary_min > salary_max")
                education = get(rec, "education_years")
                if type(education) is not float or not isfinite(education):
                    education = _parse_number(education, "education_years")
                if education < 0:
                    raise ValueError("negative education_years")
                experience = get(rec, "experience_years")
                if type(experience) is not float or not isfinite(experience):
                    experience = _parse_number(experience, "experience_years")
                if experience < 0:
                    raise ValueError("negative experience_years")
                # surrogatepass: a lone surrogate, as a JSON escape gives it,
                # comes back from rows() as it went in
                append_id(str(ad_id).encode("utf-8", "surrogatepass"))
            except ValueError as exc:
                report.rejected += 1
                report.reasons[str(exc)] += 1
                continue
            append_end(len(id_bytes))
            append_ordinal(ordinal)
            append_code(occupation_codes.setdefault(occupation, len(occupation_codes)))
            if names is not None:
                ids = [skill_ids.setdefault(s, len(skill_ids)) for s in names]
                for text in raw:
                    text_ids[text] = skill_ids.get(memo[text], -1)
            append_slots(list(ids))
            append_length(len(ids))
            append_numbers([salary_min, salary_max, education, experience])

    def _skill_names(self, raw: list) -> dict[str, None]:
        """The ordered set of the normalized names of ``raw``'s texts."""
        memo = self.names
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

    Per ad: the id, UTF-8 bytes ``id_bytes[id_ends[i - 1]:id_ends[i]]``
    (from 0 for the first), int64 ``ordinals`` and ``years``, and
    ``occupation_codes`` into ``occupations`` (names in first-occurrence
    order). Ad ``i``'s skill ids, int32 and in its own order, are
    ``slots[indptr[i]:indptr[i + 1]]``, naming ``skill_names[id]``;
    ``skill_ids`` maps a name to its id. ``salary_min``, ``salary_max``,
    ``education_years`` and ``experience_years`` are float64, NaN where
    missing. The two id columns, ``ordinals``, ``occupation_codes``,
    ``slots`` and the four numbers are views of the buffers ingest appended
    to, so each column is held once; the numbers are strided views of one
    four-per-ad buffer. Only :meth:`rows` decodes the ids.
    """

    def __init__(self, columns: _Columns):
        self.id_bytes = np.frombuffer(columns.id_bytes, dtype=np.uint8)
        self.id_ends = np.frombuffer(columns.id_ends, dtype=np.int64)
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
        return len(self.ordinals)

    def span(self) -> tuple[dt.date, dt.date]:
        """First and last posting date."""
        if not len(self):
            raise DataError("corpus has no accepted ads; nothing to backtest")
        return (dt.date.fromordinal(int(self.ordinals.min())),
                dt.date.fromordinal(int(self.ordinals.max())))

    def rows(self) -> Iterator[dict]:
        """The ads back as records in order: the id as text, ISO date text,
        a ``skills`` list, and only the numbers that are present. Each
        column is read once, in order, through a ``memoryview``, which gives
        Python numbers one at a time and holds no list of a whole column."""
        ids, slots, names = memoryview(self.id_bytes), memoryview(self.slots), self.skill_names
        numbers = zip(*(memoryview(getattr(self, key)) for key in _NUMBER_FIELDS))
        start = lo = 0
        for end, ordinal, code, hi, values in zip(
                memoryview(self.id_ends), memoryview(self.ordinals),
                memoryview(self.occupation_codes), memoryview(self.indptr[1:]), numbers):
            rec = {"id": str(ids[start:end], "utf-8", "surrogatepass"),
                   "date": dt.date.fromordinal(ordinal).isoformat(),
                   "occupation": self.occupations[code],
                   "skills": [names[s] for s in slots[lo:hi].tolist()]}
            for key, v in zip(_NUMBER_FIELDS, values):
                if not math.isnan(v):
                    rec[key] = v
            start, lo = end, hi
            yield rec


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    reasons: Counter = field(default_factory=Counter)


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
    if value is None or value == "":
        return math.nan
    if isinstance(value, bool):
        raise ValueError(f"bad number in {field_name}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"bad number in {field_name}")
    if not math.isfinite(number):
        raise ValueError(f"non-finite {field_name}")
    return number


def _csv_rows(reader) -> Iterator[dict]:
    """The rows after the header as ``csv.DictReader`` gives them to the
    validator: blank rows skipped, the columns a short row lacks None, and a
    long row's extra cells, which no check reads, dropped."""
    names = next(reader, None)
    if names is None:
        return
    width = len(names)
    for row in reader:
        if row:
            rec = dict(zip(names, row))
            if len(row) < width:
                rec.update(dict.fromkeys(names[len(row):]))
            yield rec


def _iter_records(path: Path, fmt: str):
    """The records of a JSONL or CSV file, in file order. A JSONL line
    blank to ``str.strip`` is skipped; any other is decoded exactly as
    ``json.loads`` decodes it, and is None (bad json) where that fails."""
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown input format: {fmt!r}")
    try:
        with path.open("r", encoding="utf-8-sig", newline="" if fmt == "csv" else None) as fh:
            if fmt == "csv":
                yield from _csv_rows(csv.reader(fh))
                return
            decode = json.JSONDecoder().raw_decode
            for line in fh:
                line = line.strip(" \t\r\n")  # the whitespace json.loads skips
                try:
                    rec, end = decode(line)
                except (ValueError, RecursionError):  # ValueError: not JSON, or an
                    rec, end = None, -1  # integer over the interpreter's digit limit
                if end != len(line):  # no value, or data after it
                    if not line.strip():
                        continue  # a blank line
                    rec = None
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
    columns.append_records(records, report)
    corpus = Corpus(columns)
    report.accepted = len(corpus)
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
    number of jobs holding skill ``s``, counted with ``np.add.at``, which
    reads the int32 ids in place where ``np.bincount`` would first copy them
    to int64. The incidence and its effective-use sub-matrix are both of
    this type.
    """

    def __init__(self, skill_ids: dict[str, int], indptr: np.ndarray, indices: np.ndarray):
        self.skill_ids = skill_ids
        self.indptr = indptr
        self.indices = indices
        self.skill_job_counts = np.zeros(len(skill_ids), dtype=np.int64)
        np.add.at(self.skill_job_counts, indices, 1)


def masked_indptr(indptr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The ``indptr`` of the entries of a CSR matrix for which the boolean
    per-slot ``mask`` is true: for each offset in ``indptr``, how many of
    the slots before it are true. The true slots are located one
    ``SLOT_SLICE`` at a time."""
    out = np.zeros(len(indptr), dtype=np.int64)
    total = 0
    for lo in range(0, len(mask), SLOT_SLICE):
        hi = min(lo + SLOT_SLICE, len(mask))
        first, last = np.searchsorted(indptr, [lo, hi], side="right")  # offsets in (lo, hi]
        true_at = np.flatnonzero(mask[lo:hi])
        out[first:last] = total + np.searchsorted(true_at, indptr[first:last] - lo)
        total += len(true_at)
    return out


def build_index(corpus: Corpus) -> IncidenceIndex:
    """The incidence: the corpus's own CSR read in place, so ``indices`` is
    ``corpus.slots`` and each ad's skill ids are in ad order."""
    if len(corpus) == 0:
        raise DataError("empty corpus: cannot build incidence index")
    return IncidenceIndex(corpus.skill_ids, corpus.indptr, corpus.slots)


def write_jsonl(records: Iterable[dict], path) -> None:
    """Write records as JSONL, one object with sorted keys per line, each as
    it is taken from ``records``: the bytes of ``json.dumps(rec,
    sort_keys=True)``, from one reusable encoder."""
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(encode(rec) + "\n" for rec in records)


def write_json(path, payload) -> None:
    """Write ``payload`` as one JSON document: indented by two spaces, keys
    sorted, and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: list, rows: Iterable[list]) -> None:
    """Write the ``header`` row, then ``rows``, as ``csv.writer`` writes them."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
