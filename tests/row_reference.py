"""The row-at-a-time parse that parse_records must agree with.

_parse_rows reads any text through csv.reader and _row_loop builds its
records one row at a time, merging repeated ids as it goes: a second
code path beside parse_records' column pass, with conversions of its
own. The two share only the header lookup, the category cell's
conversion, the record rules (data._RULES, through _check_record), the
csv.reader error wrapper and the final Dataset build.
"""

import csv
import io
from typing import Callable, Iterable, Optional, Sequence

from pct_impact.data import (
    Dataset,
    RejectedRow,
    _categories,
    _check_record,
    _checked_rows,
    _dataset,
    _header_columns,
)
from pct_impact.errors import ConfigurationError


def _parse_rows(
    text: str, reject_threshold: float = 0.10
) -> tuple[Dataset, list[RejectedRow]]:
    """parse_records through csv.reader, one row at a time."""
    reader = csv.reader(io.StringIO(text))
    rows = _checked_rows(reader)
    header = next(rows, None)
    if header is None:
        raise ConfigurationError("input is empty; expected a CSV header")
    records, rejects, n_rows = _row_loop(header, rows, lambda: reader.line_num)
    return _dataset(records, rejects, n_rows, reject_threshold)


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
            _check_record((pid, inst, year, categories, citations, pct))
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
