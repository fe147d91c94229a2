"""Publication records, reference sets and institution samples.

Input is a UTF-8 CSV with header ``id,institution,pub_year,category,
citations[,inv_percentile]``. A paper with several subject categories may
appear as repeated rows sharing an id or carry a single ``|``-separated
category list; both spellings parse to one record. Malformed rows are
collected into a rejects report instead of aborting the run, unless their
fraction exceeds a configurable threshold.

A Dataset stores its papers as columns, one entry per paper in input
order: ids, institution labels, years, category tuples, citation counts
(int64) and supplied inverted percentiles (float64, NaN where absent).
parse_records fills the columns straight from the CSV rows. The record
rules live in one function, _check_record, which the parser applies to
every row and PublicationRecord applies on construction. Reference sets
and institution samples are index arrays over the columns
(Dataset.set_membership, Dataset.institution_rows);
PublicationRecord objects are built only when a library caller asks for
Dataset.records, group_reference_sets or institution_samples.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyDatasetError,
    RejectThresholdError,
    UnknownInstitutionError,
)

__all__ = [
    "PublicationRecord",
    "ReferenceSetKey",
    "ReferenceSet",
    "SetMembership",
    "InstitutionSample",
    "Dataset",
    "IngestionConfig",
    "RejectedRow",
    "parse_records",
    "serialize_dataset",
    "write_rejects_report",
    "filter_years",
    "group_reference_sets",
    "institution_samples",
    "select_institution_sample",
]

REQUIRED_COLUMNS = ("id", "institution", "pub_year", "category", "citations")
OPTIONAL_COLUMNS = ("inv_percentile",)
_MAX_CITATIONS = 2**63 - 1  # citation counts are held in an int64 column


def _check_record(
    pid: str,
    institution: str,
    categories: tuple[str, ...],
    citations: int,
    inv_percentile: Optional[float],
) -> None:
    """The record rules. Their ValueError messages are the reasons
    parse_records reports for rejected rows."""
    if not pid:
        raise ValueError("empty id")
    if not institution:
        raise ValueError("empty institution")
    if not categories or "" in categories:
        raise ValueError("empty category")
    if len(set(categories)) != len(categories):
        raise ValueError(f"repeated category in {categories}")
    if citations < 0:
        raise ValueError(f"citations must be >= 0, got {citations}")
    if citations > _MAX_CITATIONS:
        raise ValueError(f"citations must be < 2**63, got {citations}")
    if inv_percentile is not None and not 0.0 <= inv_percentile <= 100.0:
        raise ValueError(f"inv_percentile must be in [0, 100], got {inv_percentile}")


@dataclass(frozen=True)
class PublicationRecord:
    """One paper: its home institution, fields, year and citation count.

    inv_percentile is an optional pre-supplied inverted percentile in
    [0, 100] (smaller is better, 100 means uncited).
    """

    id: str
    institution: str
    pub_year: int
    categories: tuple[str, ...]
    citations: int
    inv_percentile: Optional[float] = None

    def __post_init__(self):
        _check_record(
            self.id, self.institution, self.categories, self.citations, self.inv_percentile
        )


@dataclass(frozen=True)
class ReferenceSetKey:
    """Exact (subject category, publication year) pair."""

    category: str
    pub_year: int


@dataclass(frozen=True)
class ReferenceSet:
    """All papers sharing one subject category and publication year."""

    key: ReferenceSetKey
    members: tuple[PublicationRecord, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("reference set must be non-empty")
        for m in self.members:
            if self.key.category not in m.categories or m.pub_year != self.key.pub_year:
                raise ValueError(f"record {m.id} does not belong to set {self.key}")


@dataclass(frozen=True)
class InstitutionSample:
    institution: str
    records: tuple[PublicationRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise ValueError("institution sample must be non-empty")

    @property
    def n(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SetMembership:
    """Every (paper, reference set) pair of a dataset, grouped by set.

    keys are the sets, sorted by category then year. Pair i puts dataset
    row rows[i] in set set_ids[i]; set j holds the pairs
    bounds[j]:bounds[j + 1], in dataset order.
    """

    keys: tuple[ReferenceSetKey, ...]
    rows: np.ndarray
    set_ids: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True, eq=False)
class Dataset:
    """Papers as columns, one entry per paper in input order.

    citations is an int64 array; inv_percentiles a float64 array holding
    NaN where no percentile was supplied. Build one with parse_records or
    from_records.
    """

    ids: tuple[str, ...]
    institution_labels: tuple[str, ...]
    years: tuple[int, ...]
    categories: tuple[tuple[str, ...], ...]
    citations: np.ndarray
    inv_percentiles: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[PublicationRecord]) -> "Dataset":
        records = tuple(records)
        dataset = cls(
            ids=tuple(r.id for r in records),
            institution_labels=tuple(r.institution for r in records),
            years=tuple(r.pub_year for r in records),
            categories=tuple(r.categories for r in records),
            citations=np.array([r.citations for r in records], dtype=np.int64),
            inv_percentiles=np.array([r.inv_percentile for r in records], dtype=float),
        )
        dataset.__dict__["records"] = records  # keep the caller's objects
        return dataset

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.ids, self.institution_labels, self.years, self.categories)
            == (other.ids, other.institution_labels, other.years, other.categories)
            and np.array_equal(self.citations, other.citations)
            and np.array_equal(self.inv_percentiles, other.inv_percentiles, equal_nan=True)
        )

    @cached_property
    def records(self) -> tuple[PublicationRecord, ...]:
        """The papers as PublicationRecord objects, built on first use."""
        pcts = [None if math.isnan(p) else p for p in self.inv_percentiles.tolist()]
        return tuple(
            map(PublicationRecord, self.ids, self.institution_labels, self.years,
                self.categories, self.citations.tolist(), pcts)
        )

    @property
    def institutions(self) -> frozenset[str]:
        return frozenset(self.institution_labels)

    @property
    def year_range(self) -> tuple[int, int]:
        return (min(self.years), max(self.years))

    @cached_property
    def set_membership(self) -> SetMembership:
        """The (category, year) reference sets; a paper with k categories is
        a full member of k sets."""
        index: dict[tuple[str, int], int] = {}
        first_seen = np.array(
            [index.setdefault((c, y), len(index))
             for y, cats in zip(self.years, self.categories) for c in cats],
            dtype=np.int64,
        )
        keys = sorted(index)
        position = np.empty(len(keys), dtype=np.int64)
        position[[index[k] for k in keys]] = np.arange(len(keys))
        set_ids = position[first_seen]
        rows = np.repeat(np.arange(len(self)), [len(c) for c in self.categories])
        order = np.argsort(set_ids, kind="stable")
        set_ids = set_ids[order]
        return SetMembership(
            keys=tuple(ReferenceSetKey(c, y) for c, y in keys),
            rows=rows[order],
            set_ids=set_ids,
            bounds=np.searchsorted(set_ids, np.arange(len(keys) + 1)),
        )

    @cached_property
    def institution_rows(self) -> dict[str, np.ndarray]:
        """Each institution's rows, in dataset order, keyed by sorted label."""
        code: dict[str, int] = {}
        codes = np.array(
            [code.setdefault(label, len(code)) for label in self.institution_labels],
            dtype=np.int64,
        )
        groups = np.split(
            np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1]
        )
        return {label: groups[code[label]] for label in sorted(code)}

    def _take(self, rows: Sequence[int]) -> "Dataset":
        return Dataset(
            ids=tuple(self.ids[i] for i in rows),
            institution_labels=tuple(self.institution_labels[i] for i in rows),
            years=tuple(self.years[i] for i in rows),
            categories=tuple(self.categories[i] for i in rows),
            citations=self.citations[rows],
            inv_percentiles=self.inv_percentiles[rows],
        )


@dataclass(frozen=True)
class IngestionConfig:
    """Knobs for CSV parsing; reject_threshold is a fraction of data rows."""

    reject_threshold: float = 0.10


@dataclass(frozen=True)
class RejectedRow:
    row: int  # physical line number in the source file
    reason: str


def _coerce_stream(source: Union[IO[bytes], IO[str], bytes, str]) -> Iterable[str]:
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8-sig"))
    if isinstance(source, str):
        return io.StringIO(source.lstrip("\ufeff"))
    data = source.read()
    if isinstance(data, bytes):
        return io.StringIO(data.decode("utf-8-sig"))
    return io.StringIO(data.lstrip("\ufeff"))


def _categories(cell: str) -> tuple[str, ...]:
    """A category cell's names, stripped, without empty or repeated ones."""
    if "|" not in cell:
        name = cell.strip()
        return (name,) if name else ()
    return tuple(dict.fromkeys(c for c in map(str.strip, cell.split("|")) if c))


def parse_records(
    source: Union[IO[bytes], IO[str], bytes, str],
    config: IngestionConfig = IngestionConfig(),
) -> tuple[Dataset, list[RejectedRow]]:
    """Parse the CSV contract into a Dataset plus a rejects report.

    Raises ConfigurationError when a required column is missing and
    RejectThresholdError when more than config.reject_threshold of the
    data rows fail validation. Individual bad rows never abort the run
    below that threshold; they are returned with line numbers and reasons.
    Blank lines are not rows. Missing trailing fields read as empty, extra
    ones are ignored, and of two header columns with one name the last is
    read.
    """
    reader = csv.reader(_coerce_stream(source))
    header = next(reader, None)
    if header is None:
        raise ConfigurationError("input is empty; expected a CSV header")
    column = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in column]
    if missing:
        raise ConfigurationError(f"missing required column(s): {', '.join(missing)}")
    i_id, i_inst, i_year, i_cat, i_cit = (column[c] for c in REQUIRED_COLUMNS)
    i_pct = column.get("inv_percentile")
    width = max(column.values()) + 1

    ids: list[str] = []
    insts: list[str] = []
    years: list[int] = []
    cats: list[tuple[str, ...]] = []
    cits: list[int] = []
    pcts: list[Optional[float]] = []
    row_of: dict[str, int] = {}
    rejects: list[RejectedRow] = []
    n_rows = 0

    for row in reader:
        if not row:
            continue
        n_rows += 1
        if len(row) < width:
            row += [""] * (width - len(row))
        try:
            # conversions first, in column order: a row with several faults
            # reports its first conversion failure
            pid = row[i_id].strip()
            inst = row[i_inst].strip()
            year = int(row[i_year].strip())
            categories = _categories(row[i_cat])
            citations = int(row[i_cit].strip())
            pct_raw = row[i_pct].strip() if i_pct is not None else ""
            pct = float(pct_raw) if pct_raw else None
            _check_record(pid, inst, categories, citations, pct)
        except ValueError as exc:
            rejects.append(RejectedRow(row=reader.line_num, reason=str(exc)))
            continue

        k = row_of.get(pid)
        if k is None:
            row_of[pid] = len(ids)
            ids.append(pid)
            insts.append(inst)
            years.append(year)
            cats.append(categories)
            cits.append(citations)
            pcts.append(pct)
        elif (insts[k], years[k], cits[k], pcts[k]) != (inst, year, citations, pct):
            reason = f"conflicts with earlier row for id {pid!r}"
            rejects.append(RejectedRow(row=reader.line_num, reason=reason))
        else:
            cats[k] = tuple(dict.fromkeys(cats[k] + categories))

    if n_rows == 0:
        raise EmptyDatasetError("input contains a header but no data rows")
    if len(rejects) / n_rows > config.reject_threshold:
        raise RejectThresholdError(
            f"{len(rejects)} of {n_rows} rows rejected, above the "
            f"{config.reject_threshold:.0%} threshold"
        )
    if not ids:
        raise EmptyDatasetError("no valid records after rejecting malformed rows")

    dataset = Dataset(
        ids=tuple(ids),
        institution_labels=tuple(insts),
        years=tuple(years),
        categories=tuple(cats),
        citations=np.array(cits, dtype=np.int64),
        inv_percentiles=np.array(pcts, dtype=float),
    )
    return dataset, rejects


def _format_pct(p: Optional[float]) -> str:
    if p is None:
        return ""
    return format(p, ".10g")


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical CSV form: fixed column order, one row per record,
    categories joined with '|'. parse -> serialize is idempotent."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(REQUIRED_COLUMNS) + list(OPTIONAL_COLUMNS))
    for r in dataset.records:
        writer.writerow(
            [
                r.id,
                r.institution,
                r.pub_year,
                "|".join(r.categories),
                r.citations,
                _format_pct(r.inv_percentile),
            ]
        )
    return out.getvalue()


def write_rejects_report(rejects: Sequence[RejectedRow], stream: IO[str]) -> None:
    """Rejects report contract: CSV with columns row,reason."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["row", "reason"])
    for r in rejects:
        writer.writerow([r.row, r.reason])


def filter_years(dataset: Dataset, last_year: int) -> Dataset:
    """Keep records published in or before last_year."""
    kept = [i for i, year in enumerate(dataset.years) if year <= last_year]
    if not kept:
        raise EmptyDatasetError(f"no records with pub_year <= {last_year}")
    return dataset._take(kept)


def group_reference_sets(dataset: Dataset) -> list[ReferenceSet]:
    """Group records into (category, year) reference sets.

    A record with k categories becomes a full member of k sets. Sets come
    back sorted by category then year so downstream output is stable;
    Dataset.set_membership holds the same grouping as index arrays.
    """
    sets = dataset.set_membership
    records = dataset.records
    bounds = sets.bounds.tolist()
    return [
        ReferenceSet(key=key, members=tuple(records[i] for i in sets.rows[lo:hi].tolist()))
        for key, lo, hi in zip(sets.keys, bounds, bounds[1:])
    ]


def institution_samples(dataset: Dataset) -> dict[str, InstitutionSample]:
    """Every institution's sample, keyed by sorted label.

    Records keep their dataset order within each sample;
    Dataset.institution_rows holds the same grouping as index arrays.
    """
    records = dataset.records
    return {
        label: InstitutionSample(
            institution=label, records=tuple(records[i] for i in rows.tolist())
        )
        for label, rows in dataset.institution_rows.items()
    }


def select_institution_sample(dataset: Dataset, institution: str) -> InstitutionSample:
    """All records of one institution; labels are case-sensitive."""
    samples = institution_samples(dataset)
    if institution not in samples:
        raise UnknownInstitutionError(institution, list(samples))
    return samples[institution]
