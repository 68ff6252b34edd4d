"""Parsing and validation of trade-record files, and per-year network assembly.

File contract: UTF-8 comma-delimited text with the header row
``year,reporter,partner,flow,value_usd`` (column order free, extra columns
ignored), '.' decimal separator, no thousands separators. A path ending in
``.gz`` is read gzip-compressed. Malformed rows are collected with their
line numbers instead of aborting the parse; zero-value rows are dropped
and counted.
"""

from __future__ import annotations

import csv
import gzip
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .network import TradeNetwork, build_network

FLOW_IMPORT = "import"
FLOW_EXPORT = "export"
FLOWS = (FLOW_IMPORT, FLOW_EXPORT)

HEADER = ("year", "reporter", "partner", "flow", "value_usd")
FIRST_YEAR, LAST_YEAR = 1900, 2100


class TradeFileError(ValueError):
    """Fatal file problem: unreadable, empty, or missing required columns."""


@dataclass(frozen=True)
class TradeRecord:
    year: int
    reporter: str
    partner: str
    flow: str
    value: float

    def __post_init__(self):
        if not FIRST_YEAR <= self.year <= LAST_YEAR:
            raise ValueError(f"year {self.year} outside [{FIRST_YEAR}, {LAST_YEAR}]")
        if self.flow not in FLOWS:
            raise ValueError(f"flow must be one of {FLOWS}, got {self.flow!r}")
        if not self.reporter or not self.partner:
            raise ValueError("reporter and partner codes must be non-empty")
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"value must be finite and non-negative, got {self.value}")


@dataclass
class ParseReport:
    records: list[TradeRecord] = field(default_factory=list)
    row_errors: list[tuple[int, str]] = field(default_factory=list)
    zero_value_rows: int = 0


def _open_source(source):
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise TradeFileError(f"trade file not found: {path}")
        if path.suffix == ".gz":
            return gzip.open(path, "rt", encoding="utf-8", newline=""), True
        return open(path, "r", encoding="utf-8", newline=""), True
    return source, False


def parse_trade_file(source: str | Path | io.TextIOBase) -> ParseReport:
    """Parse a trade-record file or stream into validated records.

    Row-level problems (bad numbers, unknown flow, bad year, a field the
    ``csv`` module cannot read) land in ``row_errors`` with 1-based line
    numbers and parsing continues at the next line. Only a missing,
    unreadable or incomplete header is fatal.
    """
    fh, own = _open_source(source)
    report = ParseReport()
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TradeFileError("empty file: header row is required") from None
        except csv.Error as exc:
            raise TradeFileError(f"unreadable header row: {exc}") from None
        names = [h.strip().lower() for h in header]
        missing = [col for col in HEADER if col not in names]
        if missing:
            raise TradeFileError(f"missing required columns: {', '.join(missing)}")
        col = {name: names.index(name) for name in HEADER}

        for lineno in itertools.count(2):
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # e.g. a field past the csv module's size limit
                report.row_errors.append((lineno, str(exc)))
                continue
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(names):
                report.row_errors.append((lineno, f"expected {len(names)} fields, got {len(row)}"))
                continue
            try:
                year = int(row[col["year"]].strip())
                value = float(row[col["value_usd"]].strip())
            except ValueError as exc:
                report.row_errors.append((lineno, str(exc)))
                continue
            if value == 0:
                report.zero_value_rows += 1
                continue
            try:
                record = TradeRecord(
                    year=year,
                    reporter=row[col["reporter"]].strip(),
                    partner=row[col["partner"]].strip(),
                    flow=row[col["flow"]].strip().lower(),
                    value=value,
                )
            except ValueError as exc:
                report.row_errors.append((lineno, str(exc)))
                continue
            report.records.append(record)
    finally:
        if own:
            fh.close()
    return report


def build_yearly_networks(
    records: Iterable[TradeRecord], flow: str = FLOW_IMPORT
) -> dict[int, TradeNetwork]:
    """Assemble one network per year from records of the selected flow.

    Import reports are the default (the more complete side of the data);
    they are mapped to exporter -> importer edges, i.e. partner -> reporter.
    With ``flow="export"`` the reporter is the exporter and edges run
    reporter -> partner.
    """
    if flow not in FLOWS:
        raise ValueError(f"flow must be one of {FLOWS}, got {flow!r}")
    by_year: dict[int, list[tuple[str, str, float]]] = {}
    for record in records:
        if record.flow != flow:
            continue
        if flow == FLOW_IMPORT:
            edge = (record.partner, record.reporter, record.value)
        else:
            edge = (record.reporter, record.partner, record.value)
        by_year.setdefault(record.year, []).append(edge)
    return {year: build_network(by_year[year], year=year) for year in sorted(by_year)}


def network_to_records(net: TradeNetwork) -> list[TradeRecord]:
    """Active edges as import-flow records (round-trips through the parser)."""
    if net.year is None:
        raise ValueError("network has no year; cannot serialize to records")
    return [
        TradeRecord(net.year, reporter=e.target, partner=e.source, flow=FLOW_IMPORT, value=e.weight)
        for e in net.active_edges()
    ]


def write_trade_file(records: Sequence[TradeRecord], dest: str | Path | io.TextIOBase) -> None:
    """Write records in the canonical file format."""
    fh, own = (open(dest, "w", encoding="utf-8", newline=""), True) if isinstance(
        dest, (str, Path)
    ) else (dest, False)
    try:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for r in records:
            writer.writerow([r.year, r.reporter, r.partner, r.flow, repr(r.value)])
    finally:
        if own:
            fh.close()
