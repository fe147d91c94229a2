"""Publication records as columns, and their grouping by reference set
and by institution.

Input is a UTF-8 CSV with header ``id,institution,pub_year,category,
citations[,inv_percentile]``. A paper with several subject categories may
appear as repeated rows sharing an id or carry a single ``|``-separated
category list; both spellings parse to one record. Malformed rows are
collected into a rejects report instead of aborting the run, unless their
fraction exceeds a threshold, 10% unless the caller passes another.

A Dataset stores its papers as columns, one entry per paper in input
order: ids, institution labels, years, category tuples, citation counts
(int64) and supplied inverted percentiles (float64, NaN where absent).
parse_records has one parser with two tokenizers. Plain text (no quote,
NUL or lone carriage return, no blank line, the header's field count on
every line) is split on commas and line ends (_plain_fields); any other
text is read by csv.reader (_csv_fields), which skips blank rows, pads or
cuts each row to the header's width and keeps the line on which each row
ends. Both give one flat field list, and one column pass (_parse_columns)
converts each distinct cell of a column once and checks the record rules
over whole columns. Only a row that breaks a rule is looked at alone, for
its reject reason (_reject_reason); rows that share an id are merged, or
rejected when they conflict. Each field's conversion is written once, in
_CONVERSIONS, and each record rule once, in _RULES, as a test over any
number of a field's values: the column pass runs it over a column, and
_check_record over one record, for PublicationRecord on construction and
for _reject_reason on a converted row. Reference sets and institution
samples are index arrays over the columns, both made by one sort and
split (_sort_split): Dataset.set_membership, Dataset.institution_rows;
group_reference_sets and select_institution_sample return the same
arrays. PublicationRecord objects are built only when a caller reads
Dataset.records.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from functools import cached_property
from itertools import compress, count
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
    "SetMembership",
    "Dataset",
    "RejectedRow",
    "parse_records",
    "filter_years",
    "group_reference_sets",
    "select_institution_sample",
]

REQUIRED_COLUMNS = ("id", "institution", "pub_year", "category", "citations")
_MAX_CITATIONS = 2**63 - 1  # citation counts are held in an int64 column


# The record rules, in the order _check_record applies them: a record
# field's position, a test over any number of that field's values, and the
# reason for one value that fails it. The column pass runs each test over
# a whole column, _check_record over one record's value.
_RULES = (
    (0, lambda ids: "" not in ids, "empty id"),
    (1, lambda insts: "" not in insts, "empty institution"),
    (3, lambda cats: all(c and "" not in c for c in cats), "empty category"),
    (3, lambda cats: all(len(set(c)) == len(c) for c in cats), "repeated category in {}"),
    (4, lambda cits: min(cits, default=0) >= 0, "citations must be >= 0, got {}"),
    (4, lambda cits: max(cits, default=0) <= _MAX_CITATIONS,
     "citations must be < 2**63, got {}"),
    (5, lambda pcts: all(p is None or 0.0 <= p <= 100.0 for p in pcts),
     "inv_percentile must be in [0, 100], got {}"),
    # a tab or line break in a label would split a row of a TSV or text table
    (1, lambda insts: not {"\t", "\r", "\n"}.intersection("".join(insts)),
     "institution contains a tab or line break"),
)


def _check_record(record: Sequence) -> None:
    """Raise a ValueError for the first rule that record (its fields in
    record order) breaks, with the reason parse_records reports."""
    for field, test, reason in _RULES:
        if not test((record[field],)):
            raise ValueError(reason.format(record[field]))


class _PublicationRecord(NamedTuple):
    id: str
    institution: str
    pub_year: int
    categories: tuple[str, ...]
    citations: int
    inv_percentile: Optional[float] = None


class PublicationRecord(_PublicationRecord):
    """One paper: its home institution, fields, year and citation count.

    inv_percentile is an optional pre-supplied inverted percentile in
    [0, 100] (smaller is better, 100 means uncited).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        r = super().__new__(cls, *args, **kwargs)
        _check_record(r)
        return r


class ReferenceSetKey(NamedTuple):
    """Exact (subject category, publication year) pair."""

    category: str
    pub_year: int


class SetMembership(NamedTuple):
    """Every (paper, reference set) pair of a dataset, grouped by set.

    keys are the sets, sorted by category then year. Pair i puts dataset
    row rows[i] in set set_ids[i]; set j holds the pairs
    bounds[j]:bounds[j + 1], in dataset order.
    """

    keys: tuple[ReferenceSetKey, ...]
    rows: np.ndarray
    set_ids: np.ndarray
    bounds: np.ndarray


def _sort_split(keys: Iterable) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct keys, sorted; the positions of keys in key order, each
    key's positions ascending; and the bounds: sorted key j holds the
    positions at bounds[j]:bounds[j + 1]."""
    code = defaultdict(count().__next__)  # each key's place in first-seen order
    codes = np.fromiter(map(code.__getitem__, keys), np.int64)
    distinct = sorted(code)
    place = np.empty(len(distinct), dtype=np.int64)
    place[[code[k] for k in distinct]] = np.arange(len(distinct))
    codes = place[codes]  # each key's place in distinct
    counts = np.bincount(codes, minlength=len(distinct))
    return distinct, np.argsort(codes, kind="stable"), np.concatenate(([0], np.cumsum(counts)))


class Dataset:
    """Papers as columns, one entry per paper in input order.

    citations is an int64 array; inv_percentiles a float64 array holding
    NaN where no percentile was supplied. parse_records builds one.
    """

    def __init__(self, ids: tuple[str, ...], institution_labels: tuple[str, ...],
                 years: tuple[int, ...], categories: tuple[tuple[str, ...], ...],
                 citations: np.ndarray, inv_percentiles: np.ndarray):
        self.ids = ids
        self.institution_labels = institution_labels
        self.years = years
        self.categories = categories
        self.citations = citations
        self.inv_percentiles = inv_percentiles

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.records == other.records

    @cached_property
    def records(self) -> tuple[PublicationRecord, ...]:
        """The papers as PublicationRecord objects, built on first use."""
        pcts = [None if math.isnan(p) else p for p in self.inv_percentiles.tolist()]
        return tuple(
            map(PublicationRecord, self.ids, self.institution_labels, self.years,
                self.categories, self.citations.tolist(), pcts)
        )

    @cached_property
    def set_membership(self) -> SetMembership:
        """The (category, year) reference sets; a paper with k categories is
        a full member of k sets."""
        keys, pairs, bounds = _sort_split(
            (c, y) for y, cats in zip(self.years, self.categories) for c in cats
        )
        rows = np.repeat(np.arange(len(self)), [len(c) for c in self.categories])
        return SetMembership(
            keys=tuple(ReferenceSetKey(c, y) for c, y in keys),
            rows=rows[pairs],
            set_ids=np.repeat(np.arange(len(keys)), np.diff(bounds)),
            bounds=bounds,
        )

    @cached_property
    def institution_rows(self) -> dict[str, np.ndarray]:
        """Each institution's rows, in dataset order, keyed by sorted label."""
        labels, rows, bounds = _sort_split(self.institution_labels)
        return dict(zip(labels, np.split(rows, bounds[1:-1])))

    def _take(self, rows: Sequence[int]) -> "Dataset":
        return Dataset(
            ids=tuple(self.ids[i] for i in rows),
            institution_labels=tuple(self.institution_labels[i] for i in rows),
            years=tuple(self.years[i] for i in rows),
            categories=tuple(self.categories[i] for i in rows),
            citations=self.citations[rows],
            inv_percentiles=self.inv_percentiles[rows],
        )


class RejectedRow(NamedTuple):
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
    reject_threshold: float = 0.10,
) -> tuple[Dataset, list[RejectedRow]]:
    """Parse the CSV contract into a Dataset plus a rejects report.

    Raises ConfigurationError when a required column is missing,
    RejectThresholdError when more than reject_threshold (a fraction) of the
    data rows fail validation, and DataError when the input is not UTF-8
    or not CSV the csv module can read. Individual bad rows never abort
    the run below that threshold; they are returned with line numbers and
    reasons. Blank lines are not rows. Missing trailing fields read as
    empty, extra ones are ignored, and of two header columns with one name
    the last is read.
    """
    text = _read_text(source)
    plain = _plain_fields(text)
    parsed = None if plain is None else _parse_columns(*plain, None, reject_threshold)
    if parsed is None:  # not plain, or a field over csv.field_size_limit()
        parsed = _parse_columns(*_csv_fields(text), reject_threshold)
    return parsed


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


def _checked_rows(reader) -> Iterator[list[str]]:
    """reader's rows; a csv.Error becomes a DataError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _csv_fields(text: str) -> tuple[list[str], list[str], list[int]]:
    """The header's fields, the body's fields and the line on which each
    data row ends, of any text that csv.reader reads.

    Blank rows are skipped, and every other row is padded with empty
    fields or cut to the header's width, then closed with a "\\n" field,
    as _plain_fields closes every line but the last.
    """
    reader = csv.reader(io.StringIO(text))
    rows = _checked_rows(reader)
    header = next(rows, None)
    if header is None:
        raise ConfigurationError("input is empty; expected a CSV header")
    _header_columns(header)  # a missing column is reported before a fault of the body
    width = len(header)
    fields: list[str] = []
    lines: list[int] = []
    for row in rows:
        if len(row) != width:
            if not row:
                continue
            row = (row + [""] * width)[:width]
        row.append("\n")
        fields += row
        lines.append(reader.line_num)
    return header, fields, lines


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


# each record field's conversion from its cell, in record order: id,
# institution, pub_year, categories, citations, inv_percentile
_CONVERSIONS = (
    str.strip, str.strip, _stripped_int, _categories, _stripped_int, _stripped_float
)


def _reject_reason(row: Sequence[str], columns: Sequence[Optional[int]]) -> str:
    """The reason a row that breaks a record rule is rejected for: its first
    conversion failure, in record order, or else the rule it breaks first.
    columns holds each record field's position in row, None for a field
    without a column."""
    try:
        _check_record([None if k is None else convert(row[k])
                       for k, convert in zip(columns, _CONVERSIONS)])
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the row breaks no record rule")


def _parse_columns(
    names: list[str], fields: list[str], lines: Optional[Sequence[int]],
    reject_threshold: float,
) -> Optional[tuple[Dataset, list[RejectedRow]]]:
    """parse_records over a header's fields and the body's fields in the
    layout of _plain_fields; lines holds the line on which each data row
    ends, or is None for plain text, whose row i ends on line i + 2. None
    for plain text with a field longer than csv.field_size_limit(), which
    csv.reader checks for any other text.

    Each distinct cell of a column is converted once, through its field's
    entry of _CONVERSIONS, and each rule of _RULES tests its field's whole
    column. Only a column that fails a conversion or a test is looked at
    value by value: a row with a cell that fails its conversion or a rule
    is rejected, with the reason _reject_reason gives. A row whose id an
    earlier record has adds its categories to that record when its other
    fields are the same, and is rejected otherwise.
    """
    required, i_pct, _ = _header_columns(names)
    positions = (*required, i_pct)  # each record field's column, or None
    width, step = len(names), len(names) + 1
    n = (len(fields) + 1) // step
    raw_ids = fields[required[0]::step]
    ids = tuple(map(_CONVERSIONS[0], raw_ids))
    # record field: its values, results and distinct cells; no table for
    # ids, which are mostly distinct
    columns = {0: (ids, ids, raw_ids)}
    unconverted = set()  # fields with a cell that fails its conversion
    for f, (k, convert) in enumerate(zip(positions, _CONVERSIONS)):
        if k is None or f in columns:
            continue
        try:
            columns[f] = _converted(fields[k::step], convert)
        except ValueError:
            columns[f] = _converted(fields[k::step], _or_bad(convert))
            unconverted.add(f)
    if lines is None:
        # the distinct cells of converted columns, every cell of the others
        cells = [distinct for _, _, distinct in columns.values()]
        cells += [fields[k::step] for k in range(width) if k not in positions]
        if max(max(map(len, column)) for column in cells) > csv.field_size_limit():
            return None
        del cells
        lines = range(2, n + 2)

    bad: set[int] = set()  # rows with a cell that fails its conversion or a rule
    for f, (values, results, _) in columns.items():
        tests = [test for field, test, _ in _RULES if field == f]
        if f in unconverted or not all(test(results) for test in tests):
            # the column's results that fail alone
            failing = {r for r in set(results)
                       if r is _BAD or not all(test((r,)) for test in tests)}
            bad.update(i for i, value in enumerate(values) if value in failing)
    rejects: dict[int, RejectedRow] = {}
    for i in bad:
        reason = _reject_reason(fields[i * step:i * step + width], positions)
        rejects[i] = RejectedRow(row=lines[i], reason=reason)
    del fields

    ids, insts, years, cats, cits, pcts = (columns[f][0] if f in columns else (None,) * n
                                           for f in range(len(positions)))
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
                rejects[i] = RejectedRow(row=lines[i], reason=reason)
            else:
                cats[k] = tuple(dict.fromkeys(cats[k] + cats[i]))
    records: Sequence[Sequence] = (ids, insts, years, cats, cits, pcts)
    if dropped:
        keep = bytearray(b"\1") * n
        for i in dropped:
            keep[i] = 0
        records = [list(compress(column, keep)) for column in records]
    return _dataset(records, [rejects[i] for i in sorted(rejects)], n, reject_threshold)


def _dataset(
    records: Sequence[Sequence], rejects: list[RejectedRow], n_rows: int,
    reject_threshold: float,
) -> tuple[Dataset, list[RejectedRow]]:
    """The Dataset of the records' ids, institutions, years, categories,
    citations and percentiles, with the rejects of n_rows data rows.
    Raises EmptyDatasetError or RejectThresholdError as parse_records."""
    if n_rows == 0:
        raise EmptyDatasetError("input contains a header but no data rows")
    if len(rejects) / n_rows > reject_threshold:
        raise RejectThresholdError(
            f"{len(rejects)} of {n_rows} rows rejected, above the "
            f"{reject_threshold:.0%} threshold"
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


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in ',"\r\n')


def _csv_field(text: str) -> str:
    """text as csv.writer writes a field: quoted, with each quote doubled,
    when it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def filter_years(dataset: Dataset, last_year: int) -> Dataset:
    """Keep records published in or before last_year."""
    kept = [i for i, year in enumerate(dataset.years) if year <= last_year]
    if not kept:
        raise EmptyDatasetError(f"no records with pub_year <= {last_year}")
    return dataset._take(kept)


def group_reference_sets(dataset: Dataset) -> dict[ReferenceSetKey, np.ndarray]:
    """Each (category, year) reference set's dataset rows, in dataset order.

    A paper with k categories is a full member of k sets. Keys come sorted
    by category then year, as in Dataset.set_membership.
    """
    sets = dataset.set_membership
    return dict(zip(sets.keys, np.split(sets.rows, sets.bounds[1:-1].tolist())))


def select_institution_sample(dataset: Dataset, institution: str) -> np.ndarray:
    """One institution's dataset rows, in dataset order, from
    Dataset.institution_rows; labels are case-sensitive."""
    rows = dataset.institution_rows
    if institution not in rows:
        raise UnknownInstitutionError(institution, list(rows))
    return rows[institution]
