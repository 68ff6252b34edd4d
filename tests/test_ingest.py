import gzip
import io

import pytest

from tradeshock import (
    TradeFileError,
    TradeRecord,
    build_yearly_networks,
    network_to_records,
    parse_trade_file,
    write_trade_file,
)

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
    assert net.is_edge_active("CHN", "USA")
    assert net.baseline_weights[net.index_of("CHN"), net.index_of("USA")] == 120.5
    assert net.is_edge_active("USA", "CHN")


def test_export_flow_builds_reporter_to_partner_edges():
    report = parse_trade_file(io.StringIO(CANONICAL))
    nets = build_yearly_networks(report.records, flow="export")
    assert sorted(nets) == [2008]
    net = nets[2008]
    assert net.is_edge_active("DEU", "USA")


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
    path = tmp_path / "again.csv"
    write_trade_file(records, path)
    nets2 = build_yearly_networks(parse_trade_file(path).records)
    import numpy as np

    assert nets2[2007].codes == nets[2007].codes
    assert np.array_equal(nets2[2007].baseline_weights, nets[2007].baseline_weights)


def test_network_without_year_cannot_serialize():
    from tradeshock import build_network

    net = build_network([("A", "B", 1.0)])
    with pytest.raises(ValueError, match="year"):
        network_to_records(net)
