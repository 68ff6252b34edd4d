"""Parsing and validation of trade-record files, and per-year network assembly.

File contract: UTF-8 comma-delimited text with the header row
``year,reporter,partner,flow,value_usd`` (column order free, extra columns
ignored), '.' decimal separator, no thousands separators, and an optional
leading byte-order mark. A path ending in ``.gz`` is gzip-compressed, for
reading and for writing. Malformed rows, a line that is not UTF-8 among
them, are collected with the line each starts on instead of aborting the
parse; zero-value rows are dropped and counted.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import math
import zlib
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


def _open(source: str | Path | io.TextIOBase, mode: str):
    """Open a trade file for ``mode`` "r" or "w": gzip if the path ends in ``.gz``.

    A stream is used as given and left open when the ``with`` block ends.
    """
    if not isinstance(source, (str, Path)):
        return contextlib.nullcontext(source)
    path = Path(source)
    if mode == "r" and not path.exists():
        raise TradeFileError(f"trade file not found: {path}")
    opener = gzip.open if path.suffix == ".gz" else open
    # A byte that is not UTF-8 reads as a lone surrogate and fails only its row.
    errors = "surrogateescape" if mode == "r" else "strict"
    return opener(path, mode + "t", encoding="utf-8", errors=errors, newline="")


def parse_trade_file(source: str | Path | io.TextIOBase) -> ParseReport:
    """Parse a trade-record file or stream into validated records.

    Row-level problems (bad numbers, unknown flow, bad year, bytes that are
    not UTF-8, a quote that does not close, a field the ``csv`` module
    cannot read) land in ``row_errors`` with the 1-based number of the
    physical line the row starts on, and parsing continues at the next row.
    Only a missing, unreadable, incomplete or non-UTF-8 header, or a
    corrupt or truncated ``.gz`` file, is fatal.
    """
    try:
        return _parse_rows(source)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # raised only by a .gz path
        raise TradeFileError(f"corrupt or truncated gzip file {source}: {exc}") from None


def _parse_rows(source: str | Path | io.TextIOBase) -> ParseReport:
    report = ParseReport()
    with _open(source, "r") as fh:
        reader = csv.reader(fh, strict=True)  # an unclosed quote is an error, not a field
        try:
            header = next(reader)
        except StopIteration:
            raise TradeFileError("empty file: header row is required") from None
        except csv.Error as exc:
            raise TradeFileError(f"unreadable header row: {exc}") from None
        if not _is_utf8("".join(header)):
            raise TradeFileError("header row is not valid UTF-8")
        if header:  # a byte-order mark, as spreadsheet "CSV UTF-8" exports write one
            header[0] = header[0].removeprefix("\ufeff")
        names = [h.strip().lower() for h in header]
        missing = [col for col in HEADER if col not in names]
        if missing:
            raise TradeFileError(f"missing required columns: {', '.join(missing)}")
        cols = [names.index(name) for name in HEADER]

        while True:
            lineno = reader.line_num + 1  # the physical line the next row starts on
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # bad quoting, or a field past the csv module's size limit
                report.row_errors.append((lineno, str(exc)))
                continue
            text = "".join(row)
            try:
                if not text.isascii() and not _is_utf8(text):  # the common case skips the encode
                    raise ValueError("line is not valid UTF-8")
                if not text.strip():
                    continue
                if len(row) < len(names):
                    raise ValueError(f"expected {len(names)} fields, got {len(row)}")
                year, reporter, partner, flow, value = (row[i].strip() for i in cols)
                year, value = int(year), float(value)
                if value == 0:
                    report.zero_value_rows += 1
                    continue
                report.records.append(TradeRecord(year, reporter, partner, flow.lower(), value))
            except ValueError as exc:
                report.row_errors.append((lineno, str(exc)))
    return report


def _is_utf8(text: str) -> bool:
    """Whether ``text`` holds no byte that was not UTF-8 (read as a lone surrogate)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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


def write_trade_file(records: Sequence[TradeRecord], dest: str | Path | io.TextIOBase) -> None:
    """Write records in the canonical file format (gzip if the path ends in ``.gz``)."""
    with _open(dest, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for r in records:
            writer.writerow([r.year, r.reporter, r.partner, r.flow, repr(r.value)])
