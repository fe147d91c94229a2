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
parse_records reads plain CSV text column by column (_parse_columns):
text with no quote, NUL or lone carriage return, no blank line, the
header's field count on every line and no field over the csv module's
size limit. Each distinct cell of a column is converted once and the
record rules are checked over whole columns; only a row that breaks a
rule goes through the row loop, for its reject reason, and rows that
share an id are merged or rejected as the row loop does. Any other text
goes through csv.reader and the row loop (_parse_rows), which reports
each reject with its line number and merges repeated ids; both paths give
the same result. The record rules live in one function, _check_record,
which the row loop applies to every row and PublicationRecord applies on
construction. Reference sets and institution samples are index arrays
over the columns
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
from itertools import compress
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
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


def _read_text(source: Union[IO[bytes], IO[str], bytes, str]) -> str:
    """The whole input as text, bytes decoded as UTF-8, without leading
    byte-order marks."""
    data = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DataError(
                f"line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
            ) from None
    return data.lstrip("\ufeff")


def _categories(cell: str) -> tuple[str, ...]:
    """A category cell's names, stripped, without empty or repeated ones."""
    if "|" not in cell:
        name = cell.strip()
        return (name,) if name else ()
    return tuple(dict.fromkeys(c for c in map(str.strip, cell.split("|")) if c))


def _header_columns(header: Sequence[str]) -> tuple[list[int], Optional[int], int]:
    """The required columns' positions, the inv_percentile position and the
    number of fields a row must have to reach them all."""
    column = {name.strip(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in column]
    if missing:
        raise ConfigurationError(f"missing required column(s): {', '.join(missing)}")
    width = max(column.values()) + 1
    return [column[c] for c in REQUIRED_COLUMNS], column.get("inv_percentile"), width


def parse_records(
    source: Union[IO[bytes], IO[str], bytes, str],
    config: IngestionConfig = IngestionConfig(),
) -> tuple[Dataset, list[RejectedRow]]:
    """Parse the CSV contract into a Dataset plus a rejects report.

    Raises ConfigurationError when a required column is missing,
    RejectThresholdError when more than config.reject_threshold of the
    data rows fail validation, and DataError when the input is not UTF-8
    or not CSV the csv module can read. Individual bad rows never abort
    the run below that threshold; they are returned with line numbers and
    reasons. Blank lines are not rows. Missing trailing fields read as
    empty, extra ones are ignored, and of two header columns with one name
    the last is read.
    """
    text = _read_text(source)
    parsed = _parse_columns(text, config)
    return _parse_rows(text, config) if parsed is None else parsed


def _plain_fields(text: str) -> Optional[tuple[list[str], list[str]]]:
    """The header's fields and the body's fields of plain CSV text, or None.

    Plain text has no quote, NUL or lone carriage return, no blank line and
    no header longer than csv.field_size_limit(), and each of its lines has
    the header's field count; csv.reader reads such text as the same fields.
    A "\\n" field closes every body line but the last, so with width fields
    per line and step = width + 1, line k of the body is
    fields[k * step:k * step + width] and column j is fields[j::step].
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    header, _, body = text.partition("\n")
    if body.endswith("\n"):
        body = body[:-1]
    if not body or len(header) > csv.field_size_limit():
        return None
    names = header.split(",")
    step = len(names) + 1
    fields = body.replace("\n", ",\n,").split(",")
    n = (len(fields) + 1) // step
    if (
        len(fields) != n * step - 1
        or body.count("\n") != n - 1
        or fields[step - 1::step].count("\n") != n - 1
    ):
        return None
    return names, fields


def _converted(
    cells: list[str], convert: Callable[[str], object]
) -> tuple[tuple, Iterable, set]:
    """Each cell converted; also the results and the distinct cells that the
    rule and size checks must see.

    convert runs once per distinct cell, through a table from cell to
    result, unless most cells are distinct (a column of distinct citation
    counts): then the table would cost more than it saves, and convert
    runs once per cell.
    """
    distinct = set(cells)
    if 2 * len(distinct) > len(cells):
        values = tuple(map(convert, cells))
        return values, values, distinct
    table = {cell: convert(cell) for cell in distinct}
    return tuple(map(table.__getitem__, cells)), table.values(), distinct


_BAD = object()  # the result of a cell that its column's conversion rejects


def _or_bad(convert: Callable[[str], object]) -> Callable[[str], object]:
    """convert, with _BAD for a cell it rejects."""
    def converted(cell: str) -> object:
        try:
            return convert(cell)
        except ValueError:
            return _BAD
    return converted


def _stripped_int(cell: str) -> int:
    return int(cell.strip())


def _stripped_float(cell: str) -> Optional[float]:
    cell = cell.strip()
    return float(cell) if cell else None


_VALID_RECORD = ("p", "i", ("c",), 0, None)  # _check_record's arguments


def _breaks_rule(argument: int, value: object) -> bool:
    """Whether a record that is valid but for value, _check_record's
    argument number `argument`, breaks a record rule."""
    record = list(_VALID_RECORD)
    record[argument] = value
    try:
        _check_record(*record)
    except ValueError:
        return True
    return False


def _parse_columns(
    text: str, config: IngestionConfig
) -> Optional[tuple[Dataset, list[RejectedRow]]]:
    """parse_records over plain text, column by column; None for text that
    is not plain (_plain_fields) or has a field longer than
    csv.field_size_limit(), which the row loop parses instead.

    Each distinct cell of a converted column is converted once, and each
    column is checked against whole-column forms of _check_record's rules.
    Only a column that fails its check is looked at cell by cell: a row
    with a cell that fails its conversion or a rule goes through the row
    loop alone for its reject. Rows that share an id are merged or
    rejected as in the row loop. A header without a required column
    raises the row loop's ConfigurationError.
    """
    names, fields = _plain_fields(text) or (None, None)
    if fields is None:
        return None
    required, i_pct, _ = _header_columns(names)
    i_id, i_inst, i_year, i_cat, i_cit = required
    width, step = len(names), len(names) + 1
    n = (len(fields) + 1) // step
    # column: conversion, its _check_record argument, the argument's rules
    # over the column's results
    specs = {
        i_id: (str.strip, 0, lambda ids: "" not in ids),
        i_inst: (str.strip, 1, lambda insts: "" not in insts),
        i_year: (_stripped_int, None, lambda years: True),
        # _categories drops empty and repeated names
        i_cat: (_categories, 2, lambda cats: () not in cats),
        i_cit: (_stripped_int, 3, lambda cits: 0 <= min(cits) and max(cits) <= _MAX_CITATIONS),
    }
    if i_pct is not None:
        specs[i_pct] = (_stripped_float, 4,
                        lambda pcts: all(p is None or 0.0 <= p <= 100.0 for p in pcts))
    raw_ids = fields[i_id::step]
    ids = tuple(map(str.strip, raw_ids))
    columns = {i_id: (ids, ids, raw_ids)}  # no table: ids are mostly distinct
    unconverted = set()  # columns with a cell that fails its conversion
    for k, (convert, _, _) in specs.items():
        if k in columns:
            continue
        try:
            columns[k] = _converted(fields[k::step], convert)
        except ValueError:
            columns[k] = _converted(fields[k::step], _or_bad(convert))
            unconverted.add(k)
    # the distinct cells of converted columns, every cell of the others
    cells = [distinct for _, _, distinct in columns.values()]
    cells += [fields[k::step] for k in range(width) if k not in columns]
    if max(max(map(len, column)) for column in cells) > csv.field_size_limit():
        return None

    bad: set[int] = set()  # rows with a cell that fails its conversion or a rule
    for k, (_, argument, valid) in specs.items():
        values, results, _ = columns[k]
        if k in unconverted or not valid(results):
            failing = {r for r in set(results)
                       if r is _BAD or argument is not None and _breaks_rule(argument, r)}
            bad.update(i for i, value in enumerate(values) if value in failing)
    rejects: dict[int, RejectedRow] = {}
    for i in bad:
        row = fields[i * step:i * step + width]
        rejects[i] = _row_loop(names, [row], lambda: i + 2)[1][0]
    del fields, cells

    insts, years, cats, cits = (columns[k][0] for k in required[1:])
    pcts = columns[i_pct][0] if i_pct is not None else (None,) * n
    dropped = set(rejects)  # rows that are no record of their own
    if len(set(ids)) != n:
        keys = ids  # each row's id, and for a rejected row a key of its own
        if rejects:
            keys = list(ids)
            for i in rejects:
                keys[i] = (i,)
        first = dict(zip(reversed(keys), reversed(range(n))))  # an id's first row
        later = np.ones(n, dtype=bool)
        later[list(first.values())] = False
        cats = list(cats)
        for i in np.flatnonzero(later).tolist():
            k = first[keys[i]]
            dropped.add(i)
            if (insts[k], years[k], cits[k], pcts[k]) != (insts[i], years[i], cits[i], pcts[i]):
                reason = f"conflicts with earlier row for id {ids[i]!r}"
                rejects[i] = RejectedRow(row=i + 2, reason=reason)
            else:
                cats[k] = tuple(dict.fromkeys(cats[k] + cats[i]))
    records: Sequence[Sequence] = (ids, insts, years, cats, cits, pcts)
    if dropped:
        keep = bytearray(b"\1") * n
        for i in dropped:
            keep[i] = 0
        records = [list(compress(column, keep)) for column in records]
    return _dataset(records, [rejects[i] for i in sorted(rejects)], n, config)


def _checked_rows(reader) -> Iterator[list[str]]:
    """reader's rows; a csv.Error becomes a DataError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _parse_rows(
    text: str, config: IngestionConfig = IngestionConfig()
) -> tuple[Dataset, list[RejectedRow]]:
    """parse_records through csv.reader, one row at a time: the parse of
    every text that is not plain, and the reference for the column pass."""
    reader = csv.reader(io.StringIO(text))
    rows = _checked_rows(reader)
    header = next(rows, None)
    if header is None:
        raise ConfigurationError("input is empty; expected a CSV header")
    records, rejects, n_rows = _row_loop(header, rows, lambda: reader.line_num)
    return _dataset(records, rejects, n_rows, config)


def _row_loop(
    header: Sequence[str], rows: Iterable[list[str]], line: Callable[[], int]
) -> tuple[Sequence[list], list[RejectedRow], int]:
    """The records and rejects of rows read one at a time, and the number
    of rows that are not blank; line() is the line of the row last read.

    A row whose id an earlier record has adds its categories to that
    record when its other fields are the same, and is rejected otherwise.
    """
    (i_id, i_inst, i_year, i_cat, i_cit), i_pct, width = _header_columns(header)

    ids: list[str] = []
    insts: list[str] = []
    years: list[int] = []
    cats: list[tuple[str, ...]] = []
    cits: list[int] = []
    pcts: list[Optional[float]] = []
    row_of: dict[str, int] = {}
    rejects: list[RejectedRow] = []
    n_rows = 0

    for row in rows:
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
            rejects.append(RejectedRow(row=line(), reason=str(exc)))
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
            rejects.append(RejectedRow(row=line(), reason=reason))
        else:
            cats[k] = tuple(dict.fromkeys(cats[k] + categories))

    return (ids, insts, years, cats, cits, pcts), rejects, n_rows


def _dataset(
    records: Sequence[Sequence], rejects: list[RejectedRow], n_rows: int,
    config: IngestionConfig,
) -> tuple[Dataset, list[RejectedRow]]:
    """The Dataset of the records' ids, institutions, years, categories,
    citations and percentiles, with the rejects of n_rows data rows.
    Raises EmptyDatasetError or RejectThresholdError as parse_records."""
    if n_rows == 0:
        raise EmptyDatasetError("input contains a header but no data rows")
    if len(rejects) / n_rows > config.reject_threshold:
        raise RejectThresholdError(
            f"{len(rejects)} of {n_rows} rows rejected, above the "
            f"{config.reject_threshold:.0%} threshold"
        )
    ids, insts, years, cats, cits, pcts = records
    n = len(ids)
    if n == 0:
        raise EmptyDatasetError("no valid records after rejecting malformed rows")
    dataset = Dataset(
        ids=tuple(ids),
        institution_labels=tuple(insts),
        years=tuple(years),
        categories=tuple(cats),
        citations=np.fromiter(cits, np.int64, n),
        # np.array reads None as NaN, but slowly
        inv_percentiles=(
            np.full(n, np.nan) if pcts.count(None) == n else np.array(pcts, dtype=float)
        ),
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
