"""Publication records, reference sets and institution samples.

Input is a UTF-8 CSV with header ``id,institution,pub_year,category,
citations[,inv_percentile]``. A paper with several subject categories may
appear as repeated rows sharing an id or carry a single ``|``-separated
category list; both spellings parse to one record. Malformed rows are
collected into a rejects report instead of aborting the run, unless their
fraction exceeds a configurable threshold.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import IO, Iterable, Optional, Sequence, Union

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


@dataclass(frozen=True)
class PublicationRecord:
    """One paper: its home institution, fields, year and citation count.

    inv_percentile is an optional pre-supplied inverted percentile in
    [0, 100] (smaller is better, 100 means uncited). The messages of the
    ValueErrors raised here are the reasons parse_records reports for
    rejected rows.
    """

    id: str
    institution: str
    pub_year: int
    categories: tuple[str, ...]
    citations: int
    inv_percentile: Optional[float] = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("empty id")
        if not self.institution:
            raise ValueError("empty institution")
        if not self.categories or "" in self.categories:
            raise ValueError("empty category")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"repeated category in {self.categories}")
        if self.citations < 0:
            raise ValueError(f"citations must be >= 0, got {self.citations}")
        if self.inv_percentile is not None and not 0.0 <= self.inv_percentile <= 100.0:
            raise ValueError(
                f"inv_percentile must be in [0, 100], got {self.inv_percentile}"
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
class Dataset:
    records: tuple[PublicationRecord, ...]

    @property
    def institutions(self) -> frozenset[str]:
        return frozenset(r.institution for r in self.records)

    @property
    def year_range(self) -> tuple[int, int]:
        years = [r.pub_year for r in self.records]
        return (min(years), max(years))


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


def parse_records(
    source: Union[IO[bytes], IO[str], bytes, str],
    config: IngestionConfig = IngestionConfig(),
) -> tuple[Dataset, list[RejectedRow]]:
    """Parse the CSV contract into a Dataset plus a rejects report.

    Raises ConfigurationError when a required column is missing and
    RejectThresholdError when more than config.reject_threshold of the
    data rows fail validation. Individual bad rows never abort the run
    below that threshold; they are returned with line numbers and reasons.
    """
    reader = csv.DictReader(_coerce_stream(source))
    if reader.fieldnames is None:
        raise ConfigurationError("input is empty; expected a CSV header")
    reader.fieldnames = [f.strip() for f in reader.fieldnames]
    fields = reader.fieldnames
    missing = [c for c in REQUIRED_COLUMNS if c not in fields]
    if missing:
        raise ConfigurationError(f"missing required column(s): {', '.join(missing)}")
    has_pct = "inv_percentile" in fields

    records: dict[str, PublicationRecord] = {}
    rejects: list[RejectedRow] = []
    n_rows = 0

    for row in reader:
        n_rows += 1
        line = reader.line_num
        try:
            pct_raw = (row.get("inv_percentile") or "").strip() if has_pct else ""
            cats = (c.strip() for c in (row.get("category") or "").split("|"))
            record = PublicationRecord(
                id=(row.get("id") or "").strip(),
                institution=(row.get("institution") or "").strip(),
                pub_year=int((row.get("pub_year") or "").strip()),
                categories=tuple(dict.fromkeys(c for c in cats if c)),
                citations=int((row.get("citations") or "").strip()),
                inv_percentile=float(pct_raw) if pct_raw else None,
            )
        except ValueError as exc:
            rejects.append(RejectedRow(row=line, reason=str(exc)))
            continue

        prev = records.get(record.id)
        if prev is None:
            records[record.id] = record
        elif (prev.institution, prev.pub_year, prev.citations, prev.inv_percentile) != (
            record.institution, record.pub_year, record.citations, record.inv_percentile
        ):
            rejects.append(
                RejectedRow(row=line, reason=f"conflicts with earlier row for id {record.id!r}")
            )
        else:
            categories = tuple(dict.fromkeys(prev.categories + record.categories))
            records[record.id] = replace(prev, categories=categories)

    if n_rows == 0:
        raise EmptyDatasetError("input contains a header but no data rows")
    if len(rejects) / n_rows > config.reject_threshold:
        raise RejectThresholdError(
            f"{len(rejects)} of {n_rows} rows rejected, above the "
            f"{config.reject_threshold:.0%} threshold"
        )
    if not records:
        raise EmptyDatasetError("no valid records after rejecting malformed rows")

    return Dataset(records=tuple(records.values())), rejects


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
    kept = tuple(r for r in dataset.records if r.pub_year <= last_year)
    if not kept:
        raise EmptyDatasetError(f"no records with pub_year <= {last_year}")
    return Dataset(records=kept)


def group_reference_sets(dataset: Dataset) -> list[ReferenceSet]:
    """Group records into (category, year) reference sets.

    A record with k categories becomes a full member of k sets. Sets come
    back sorted by category then year so downstream output is stable.
    """
    groups: dict[ReferenceSetKey, list[PublicationRecord]] = {}
    for r in dataset.records:
        for cat in r.categories:
            groups.setdefault(ReferenceSetKey(cat, r.pub_year), []).append(r)
    return [
        ReferenceSet(key=k, members=tuple(groups[k]))
        for k in sorted(groups, key=lambda k: (k.category, k.pub_year))
    ]


def institution_samples(dataset: Dataset) -> dict[str, InstitutionSample]:
    """Every institution's sample from one pass, keyed by sorted label.

    Records keep their dataset order within each sample.
    """
    groups: dict[str, list[PublicationRecord]] = {}
    for r in dataset.records:
        groups.setdefault(r.institution, []).append(r)
    return {
        label: InstitutionSample(institution=label, records=tuple(groups[label]))
        for label in sorted(groups)
    }


def select_institution_sample(dataset: Dataset, institution: str) -> InstitutionSample:
    """All records of one institution; labels are case-sensitive."""
    samples = institution_samples(dataset)
    if institution not in samples:
        raise UnknownInstitutionError(institution, list(samples))
    return samples[institution]
