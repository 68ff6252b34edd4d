import gzip
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeshock import (
    TradeFileError,
    TradeRecord,
    build_yearly_networks,
    parse_trade_file,
    write_trade_file,
)

from netgen import network_to_records, trade_files
from oracles import handler_per_check_parse_rows

CANONICAL = """\
year,reporter,partner,flow,value_usd
2007,USA,CHN,import,120.5
2007,CHN,USA,import,80
2008,USA,CHN,import,100
2008,DEU,USA,export,44
"""


def test_parse_basic():
    report = parse_trade_file(io.StringIO(CANONICAL))
    assert len(report.records) == 4
    assert report.row_errors == []
    assert report.zero_value_rows == 0
    first = report.records[0]
    assert first == TradeRecord(2007, "USA", "CHN", "import", 120.5)


def test_header_order_free_and_extra_columns_ignored():
    text = (
        "partner,value_usd,year,flow,reporter,comment\n"
        "CHN,5,2001,import,USA,ignored\n"
    )
    report = parse_trade_file(io.StringIO(text))
    assert report.records == [TradeRecord(2001, "USA", "CHN", "import", 5.0)]


def test_missing_column_is_fatal():
    with pytest.raises(TradeFileError, match="value_usd"):
        parse_trade_file(io.StringIO("year,reporter,partner,flow\n"))


def test_empty_file_is_fatal():
    with pytest.raises(TradeFileError, match="header"):
        parse_trade_file(io.StringIO(""))


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(TradeFileError, match="not found"):
        parse_trade_file(tmp_path / "nope.csv")


def test_row_errors_carry_line_numbers():
    text = (
        "year,reporter,partner,flow,value_usd\n"
        "2001,USA,CHN,import,5\n"
        "not_a_year,USA,CHN,import,5\n"
        "2002,USA,CHN,smuggling,5\n"
        "2003,USA,CHN,import,-4\n"
        "2004,,CHN,import,5\n"
        "2005,USA,CHN,import,5\n"
    )
    report = parse_trade_file(io.StringIO(text))
    assert [lineno for lineno, _ in report.row_errors] == [3, 4, 5, 6]
    assert len(report.records) == 2


LONG_FIELD = "X" * 200_000  # past the csv module's 131,072-character field limit


def test_field_past_the_csv_limit_is_a_row_error():
    text = (
        "year,reporter,partner,flow,value_usd\n"
        "2001,USA,CHN,import,5\n"
        f"2001,{LONG_FIELD},CHN,import,5\n"
        "2002,DEU,CHN,import,7\n"
    )
    report = parse_trade_file(io.StringIO(text))
    assert [lineno for lineno, _ in report.row_errors] == [3]
    assert "field limit" in report.row_errors[0][1]
    assert report.records == [
        TradeRecord(2001, "USA", "CHN", "import", 5.0),
        TradeRecord(2002, "DEU", "CHN", "import", 7.0),
    ]


def test_field_past_the_csv_limit_in_the_header_is_fatal():
    with pytest.raises(TradeFileError, match="header"):
        parse_trade_file(io.StringIO(f"year,{LONG_FIELD},partner,flow,value_usd\n"))


NOT_UTF8 = (
    b"year,reporter,partner,flow,value_usd\n"
    b"2001,USA,CHN,import,5\n"
    b"2001,C\xffN,USA,import,3\n"
    b"2002,DEU,CHN,import,7\n"
)


def trade_source(tmp_path, kind: str, data: bytes):
    """``data`` as a plain path, a ``.gz`` path or a text stream read as a path is."""
    if kind == "stream":
        return io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline=""
        )
    if kind == "path":
        source = tmp_path / "trade.csv"
        source.write_bytes(data)
        return source
    source = tmp_path / "trade.csv.gz"
    source.write_bytes(gzip.compress(data))
    return source


@pytest.mark.parametrize("kind", ["path", "gzip", "stream"])
def test_line_that_is_not_utf8_is_a_row_error(tmp_path, kind):
    report = parse_trade_file(trade_source(tmp_path, kind, NOT_UTF8))
    assert report.row_errors == [(3, "line is not valid UTF-8")]
    assert report.records == [
        TradeRecord(2001, "USA", "CHN", "import", 5.0),
        TradeRecord(2002, "DEU", "CHN", "import", 7.0),
    ]


HEADER_ROW = b"year,reporter,partner,flow,value_usd\n"
QUOTE_FAULTS = {
    # An unclosed quote on the last line: a lax reader takes it as the value 3.
    "last_line_unclosed": (
        HEADER_ROW + b"2001,USA,CHN,import,5\n2001,CHN,USA,import,\"3\n",
        [(3, "end of data")],
        [TradeRecord(2001, "USA", "CHN", "import", 5.0)],
    ),
    # Mid-file, the open quote runs to the end: one error naming the line it opens on.
    "mid_file_unclosed": (
        HEADER_ROW + b"2001,USA,CHN,import,\"5\n2001,CHN,USA,import,3\n2002,DEU,CHN,import,7\n",
        [(2, "end of data")],
        [],
    ),
    # Text after a closing quote: a lax reader takes it as USAX.
    "text_after_quote": (
        HEADER_ROW + b'2001,"USA"X,CHN,import,5\n2002,DEU,CHN,import,7\n',
        [(2, "expected after")],
        [TradeRecord(2002, "DEU", "CHN", "import", 7.0)],
    ),
}


@pytest.mark.parametrize("fault", QUOTE_FAULTS.values(), ids=QUOTE_FAULTS.keys())
@pytest.mark.parametrize("kind", ["path", "gzip", "stream"])
def test_bad_quoting_is_a_row_error(tmp_path, kind, fault):
    data, errors, records = fault
    report = parse_trade_file(trade_source(tmp_path, kind, data))
    assert [line for line, _ in report.row_errors] == [line for line, _ in errors]
    for (_, message), (_, part) in zip(report.row_errors, errors):
        assert part in message
    assert report.records == records


@pytest.mark.parametrize("kind", ["path", "gzip", "stream"])
def test_header_that_is_not_utf8_is_fatal(tmp_path, kind):
    data = b"year,rep\xffrter,partner,flow,value_usd\n2001,USA,CHN,import,5\n"
    with pytest.raises(TradeFileError, match="^header row is not valid UTF-8$"):
        parse_trade_file(trade_source(tmp_path, kind, data))


def test_row_errors_name_the_physical_line_after_a_multiline_field():
    text = (
        "year,reporter,partner,flow,value_usd,note\n"
        '2001,USA,CHN,import,5,"two\nlines"\n'
        "2001,DEU,CHN,import,7,\n"
        "2001,JPN,CHN,import,x,\n"
    )
    report = parse_trade_file(io.StringIO(text))
    assert [lineno for lineno, _ in report.row_errors] == [5]
    assert len(report.records) == 2


def test_zero_value_rows_dropped_and_counted():
    text = (
        "year,reporter,partner,flow,value_usd\n"
        "2001,USA,CHN,import,0\n"
        "2001,USA,DEU,import,0.0\n"
        "2001,USA,JPN,import,3\n"
    )
    report = parse_trade_file(io.StringIO(text))
    assert report.zero_value_rows == 2
    assert len(report.records) == 1


def test_blank_rows_skipped():
    text = "year,reporter,partner,flow,value_usd\n\n2001,USA,CHN,import,5\n  ,,\n"
    report = parse_trade_file(io.StringIO(text))
    assert len(report.records) == 1
    assert report.row_errors == []


def test_gzip_by_extension(tmp_path):
    path = tmp_path / "trade.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(CANONICAL)
    report = parse_trade_file(path)
    assert len(report.records) == 4


def test_import_flow_builds_partner_to_reporter_edges():
    report = parse_trade_file(io.StringIO(CANONICAL))
    nets = build_yearly_networks(report.records, flow="import")
    assert sorted(nets) == [2007, 2008]
    net = nets[2007]
    # USA reports importing from CHN -> goods flow CHN -> USA
    assert net.active_edge_mask[net.index_of("CHN"), net.index_of("USA")]
    assert net.baseline_weights[net.index_of("CHN"), net.index_of("USA")] == 120.5
    assert net.active_edge_mask[net.index_of("USA"), net.index_of("CHN")]


def test_export_flow_builds_reporter_to_partner_edges():
    report = parse_trade_file(io.StringIO(CANONICAL))
    nets = build_yearly_networks(report.records, flow="export")
    assert sorted(nets) == [2008]
    net = nets[2008]
    assert net.active_edge_mask[net.index_of("DEU"), net.index_of("USA")]


def test_bad_flow_choice_rejected():
    with pytest.raises(ValueError, match="flow"):
        build_yearly_networks([], flow="sideways")


def test_record_validation():
    with pytest.raises(ValueError, match="year"):
        TradeRecord(1492, "USA", "CHN", "import", 5.0)
    with pytest.raises(ValueError, match="flow"):
        TradeRecord(2001, "USA", "CHN", "trade", 5.0)
    with pytest.raises(ValueError, match="non-empty"):
        TradeRecord(2001, "USA", "", "import", 5.0)
    with pytest.raises(ValueError, match="finite"):
        TradeRecord(2001, "USA", "CHN", "import", float("inf"))


def test_round_trip_through_file(tmp_path):
    report = parse_trade_file(io.StringIO(CANONICAL))
    nets = build_yearly_networks(report.records)
    records = network_to_records(nets[2007])
    import numpy as np

    for name in ("again.csv", "again.csv.gz"):
        path = tmp_path / name
        write_trade_file(records, path)
        nets2 = build_yearly_networks(parse_trade_file(path).records)
        assert nets2[2007].codes == nets[2007].codes
        assert np.array_equal(nets2[2007].baseline_weights, nets[2007].baseline_weights)
    plain = (tmp_path / "again.csv").read_bytes()
    assert gzip.decompress((tmp_path / "again.csv.gz").read_bytes()) == plain

    buffer = io.StringIO()
    write_trade_file(records, buffer)
    assert not buffer.closed
    assert buffer.getvalue().encode("utf-8") == plain


BOM = "\ufeff"


@pytest.mark.parametrize("kind", ["path", "gzip", "stream"])
def test_byte_order_mark_is_ignored(tmp_path, kind):
    def source(text):
        if kind == "stream":
            return io.StringIO(text)
        path = tmp_path / ("bom.csv" if text.startswith(BOM) else "plain.csv")
        if kind == "path":
            path.write_text(text, encoding="utf-8")
            return path
        path = path.with_suffix(".csv.gz")
        path.write_bytes(gzip.compress(text.encode("utf-8")))
        return path

    assert parse_trade_file(source(BOM + CANONICAL)) == parse_trade_file(source(CANONICAL))


@settings(max_examples=80)
@given(data=trade_files(), kind=st.sampled_from(["stream", "gzip"]))
def test_row_loop_equals_the_handler_per_check_loop(data, kind):
    with tempfile.TemporaryDirectory() as tmp:
        expected = handler_per_check_parse_rows(trade_source(Path(tmp), kind, data))
        assert parse_trade_file(trade_source(Path(tmp), kind, data)) == expected


def test_a_strict_stream_raises_its_own_decoding_error():
    """A caller's stream that decodes strictly fails on the bad byte; no row takes the error."""
    rows = b"2001,USA,CHN,import,5\n" * 500  # 11 kB: the bad byte is past the first 8 kB chunk
    data = HEADER_ROW + rows + b"2001,C\xffN,USA,import,3\n"
    with pytest.raises(UnicodeDecodeError):
        parse_trade_file(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
