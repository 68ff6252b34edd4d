import json
from pathlib import Path

import pytest

from tradeshock import cli
from tradeshock.cli import main

UNIFORM_YEAR = 2001  # complete uniform 4-node network
STAR_YEAR = 2002  # CTR exports to four leaves, one heavier return edge


def write_fixture(path: Path) -> Path:
    rows = ["year,reporter,partner,flow,value_usd"]
    codes = ["AAA", "BBB", "CCC", "DDD"]
    for reporter in codes:
        for partner in codes:
            if reporter != partner:
                rows.append(f"{UNIFORM_YEAR},{reporter},{partner},import,5")
    for leaf in ("LF1", "LF2", "LF3", "LF4"):
        rows.append(f"{STAR_YEAR},{leaf},CTR,import,8")
    rows.append(f"{STAR_YEAR},CTR,LF1,import,2")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_ingest_hand_counts(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert main(["ingest", "--input", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "year,n_economies,n_relationships,total_volume,density"
    assert out[1] == "2001,4,12,60.0,1.0"
    # star year: 5 nodes, 5 edges, density 5/20
    assert out[2] == "2002,5,5,34.0,0.25"


def test_ingest_summary_diagnostics_on_stderr(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_text(
        "year,reporter,partner,flow,value_usd\n"
        "2001,USA,CHN,import,5\n"
        "2001,USA,DEU,import,zero\n"
        "2001,USA,JPN,import,0\n",
        encoding="utf-8",
    )
    assert main(["ingest", "--input", str(data), "--summary"]) == 0
    captured = capsys.readouterr()
    assert "1 malformed rows" in captured.err
    assert "1 zero-value rows dropped" in captured.err
    assert ":3:" in captured.err  # the bad line is named
    assert "zero" not in captured.out


def test_ingest_summary_names_a_field_past_the_csv_limit(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_text(
        "year,reporter,partner,flow,value_usd\n"
        "2001,USA,CHN,import,5\n"
        f"2001,{'X' * 200_000},CHN,import,5\n"
        "2001,DEU,CHN,import,7\n",
        encoding="utf-8",
    )
    assert main(["ingest", "--input", str(data), "--summary"]) == 0
    captured = capsys.readouterr()
    assert "2 records parsed, 1 malformed rows" in captured.err
    assert f"{data}:3: field larger than field limit" in captured.err
    assert captured.out.splitlines()[1] == "2001,3,2,12.0,0.3333333333333333"


def test_ingest_year_with_no_relationships(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_text(
        "year,reporter,partner,flow,value_usd\n2001,USA,USA,import,5\n", encoding="utf-8"
    )
    assert main(["ingest", "--input", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1] == "2001,1,0,0.0,0.0"


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_efficiency_uniform_complete_is_one(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert main(["efficiency", "--input", str(data), "--years", str(UNIFORM_YEAR)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "year,raw_efficiency,mean_edge_weight,normalized_efficiency"
    year, raw, mean, normalized = out[1].split(",")
    assert year == "2001"
    assert float(raw) == pytest.approx(5.0, abs=1e-12)
    assert float(mean) == 5.0
    assert float(normalized) == pytest.approx(1.0, abs=1e-12)


def test_years_range_selection(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert main(["ingest", "--input", str(data), "--years", "2001-2002"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    assert main(["ingest", "--input", str(data), "--years", "1999"]) == 1
    assert "available" in capsys.readouterr().err


def test_rank_star_center_first(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert (
        main(
            [
                "rank",
                "--input",
                str(data),
                "--years",
                str(STAR_YEAR),
                "--indicator",
                "out_degree",
                "--top",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,economy,score"
    assert out[1] == "1,CTR,4.0"


def test_rank_top_exceeding_n_returns_all_with_tiebreak(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert (
        main(
            [
                "rank",
                "--input",
                str(data),
                "--years",
                str(UNIFORM_YEAR),
                "--indicator",
                "out_degree",
                "--top",
                "99",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    # uniform scores fall back to code order
    assert [line.split(",")[1] for line in out[1:]] == ["AAA", "BBB", "CCC", "DDD"]


def test_rank_edges_by_weight(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert (
        main(
            [
                "rank",
                "--input",
                str(data),
                "--years",
                str(STAR_YEAR),
                "--indicator",
                "edge_weight",
                "--top",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,source,target,weight"
    # four edges tie at 8.0; (source, target) order breaks the tie
    assert out[1] == "1,CTR,LF1,8.0"
    assert out[2] == "2,CTR,LF2,8.0"


def test_rank_unknown_indicator_exits_one(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    code = main(
        ["rank", "--input", str(data), "--years", "2001", "--indicator", "fame"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_rank_requires_single_year(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert (
        main(["rank", "--input", str(data), "--indicator", "out_degree"]) == 1
    )
    assert "exactly one year" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["-1", "0"])
def test_rank_top_below_one_exits_one(tmp_path, capsys, top):
    data = write_fixture(tmp_path / "trade.csv")
    argv = ["rank", "--input", str(data), "--years", "2001", "--indicator", "out_degree"]
    assert main(argv + ["--top", top]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: top_k must be >= 1, got {top}\n"
    assert captured.out == ""


def test_impact_star_center_first(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert (
        main(
            [
                "impact",
                "--input",
                str(data),
                "--years",
                str(STAR_YEAR),
                "--target",
                "nodes",
                "--top",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,economy,impact"
    assert out[1].startswith("1,CTR,")


def test_impact_edges_table(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    assert (
        main(
            [
                "impact",
                "--input",
                str(data),
                "--years",
                str(STAR_YEAR),
                "--target",
                "edges",
                "--top",
                "99",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "rank,source,target,impact"
    assert len(out) == 6  # all five edges
    impacts = [float(line.split(",")[3]) for line in out[1:]]
    assert impacts == sorted(impacts, reverse=True)


def manifest_for(data: Path, out_dir: Path, **overrides) -> dict:
    manifest = {
        "input": str(data),
        "years": "all",
        "output_dir": str(out_dir),
        "master_seed": 11,
        "jobs": 2,
        "scenarios": [
            {"target_kind": "nodes", "indicator": "out_degree", "batch_fraction": 0.25},
            {"target_kind": "edges", "indicator": "edge_weight", "batch_fraction": 0.25},
            {
                "target_kind": "nodes",
                "indicator": "random",
                "batch_fraction": 0.25,
                "replicates": 3,
            },
        ],
    }
    manifest.update(overrides)
    return manifest


def test_simulate_manifest_outputs(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_for(data, out_dir)), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 0

    trajectories = sorted(p.name for p in (out_dir / "trajectories").iterdir())
    assert trajectories == [
        "2001_edges_edge_weight.csv",
        "2001_nodes_out_degree.csv",
        "2001_nodes_random.csv",
        "2002_edges_edge_weight.csv",
        "2002_nodes_out_degree.csv",
        "2002_nodes_random.csv",
    ]
    report_lines = (out_dir / "reports.csv").read_text().strip().splitlines()
    assert report_lines[0] == "year,indicator,target_kind,R,LONE_DS,LONE_RS,Resilience,NE0"
    assert len(report_lines) == 7

    lines = (out_dir / "trajectories" / "2001_nodes_out_degree.csv").read_text().splitlines()
    assert lines[0] == "run_id,year,indicator,target_kind,t,phase,NE,NE_std"
    first = lines[1].split(",")
    assert first[:6] == ["2001_nodes_out_degree", "2001", "out_degree", "nodes", "0", "baseline"]
    assert first[7] == ""  # deterministic scenario has no spread column

    random_lines = (out_dir / "trajectories" / "2001_nodes_random.csv").read_text().splitlines()
    assert random_lines[1].split(",")[7] == "0.0"  # std at baseline

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["master_seed"] == 11
    assert sorted(summary["years"]) == ["2001", "2002"]
    assert len(summary["years"]["2001"]) == 3
    row = summary["years"]["2001"][0]
    assert set(row) == {
        "run_id",
        "year",
        "indicator",
        "target_kind",
        "R",
        "LONE_DS",
        "LONE_RS",
        "Resilience",
        "NE0",
    }


def test_simulate_reruns_are_byte_identical(tmp_path):
    data = write_fixture(tmp_path / "trade.csv")
    outputs = []
    for name, jobs in (("one", 2), ("two", 1)):
        out_dir = tmp_path / name
        manifest_path = tmp_path / f"manifest_{name}.json"
        manifest_path.write_text(
            json.dumps(manifest_for(data, out_dir, jobs=jobs)), encoding="utf-8"
        )
        assert main(["simulate", "--manifest", str(manifest_path)]) == 0
        outputs.append(out_dir)
    assert_same_files(*outputs)


def assert_same_files(first: Path, second: Path) -> None:
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for rel in files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


def test_simulate_flags_without_manifest(tmp_path):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--input",
            str(data),
            "--output-dir",
            str(out_dir),
            "--years",
            "2001",
            "--indicators",
            "out_strength,pagerank",
            "--batch-fraction",
            "0.25",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    assert len(list((out_dir / "trajectories").iterdir())) == 2


def test_simulate_flags_random_with_one_replicate_exits_one(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    argv = ["simulate", "--input", str(data), "--output-dir", str(out_dir)]
    assert main(argv + ["--indicators", "random", "--replicates", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: scenario 1 has replicates=1, but a random control needs >= 2\n"
    )
    assert not out_dir.exists()


def test_simulate_flags_and_manifest_share_scenario_defaults(tmp_path):
    data = write_fixture(tmp_path / "trade.csv")
    flags_out, manifest_out = tmp_path / "flags", tmp_path / "manifest"
    argv = ["simulate", "--input", str(data), "--output-dir", str(flags_out)]
    assert main(argv + ["--indicators", "out_degree,random", "--seed", "5"]) == 0
    manifest = {
        "input": str(data),
        "output_dir": str(manifest_out),
        "master_seed": 5,
        "scenarios": [
            {"target_kind": "nodes", "indicator": "out_degree"},
            {"target_kind": "nodes", "indicator": "random"},
        ],
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 0
    assert_same_files(flags_out, manifest_out)


def test_simulate_partial_failure_exits_two(tmp_path, capsys, monkeypatch):
    # A scenario that fails while it runs is reported; the others still run.
    run = cli.run_shock_recovery

    def failing_on_the_star_year(net, config):
        if net.year == STAR_YEAR:
            raise RuntimeError("engine failure")
        return run(net, config)

    monkeypatch.setattr(cli, "run_shock_recovery", failing_on_the_star_year)
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_for(data, out_dir)), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 2
    err = capsys.readouterr().err
    assert "scenario 2002_nodes_out_degree failed: engine failure" in err
    assert "scenario 2002_edges_edge_weight failed: engine failure" in err
    # the healthy runs still produced their outputs
    report_lines = (out_dir / "reports.csv").read_text().strip().splitlines()
    assert len(report_lines) == 5
    assert [line.split(",")[:2] for line in report_lines if line.startswith("2002")] == [
        ["2002", "random"]
    ]


def write_unrunnable_fixture(path: Path) -> Path:
    """2020 has three edges; 2021 holds only a self-loop, so no edge at all."""
    rows = ["year,reporter,partner,flow,value_usd"]
    rows += ["2020,BBB,AAA,import,4", "2020,CCC,BBB,import,2", "2020,AAA,CCC,import,1"]
    rows.append("2021,DDD,DDD,import,5")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "years, message",
    [
        (
            "all",
            "scenario 1 cannot run on 2020: shock depth 0.1 of 3 targets covers "
            "less than one element; nothing to shock",
        ),
        (
            "2021",
            "scenario 1 cannot run on 2021: scenario needs a network with at least one active edge",
        ),
    ],
)
def test_simulate_scenario_that_cannot_run_exits_one(tmp_path, capsys, years, message):
    data = write_unrunnable_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    argv = ["simulate", "-i", str(data), "-o", str(out_dir), "--years", years]
    argv += ["--target", "edges", "--indicators", "edge_weight"]
    assert main(argv + ["--shock-depth", "0.1", "--batch-fraction", "0.1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_simulate_random_control_that_cannot_run_exits_one(tmp_path, capsys):
    data = write_unrunnable_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest = {
        "input": str(data),
        "years": "2020",
        "output_dir": str(out_dir),
        "scenarios": [
            {"target_kind": "edges", "indicator": "edge_weight"},
            {
                "target_kind": "edges",
                "indicator": "random",
                "replicates": 3,
                "shock_depth": 0.1,
                "batch_fraction": 0.1,
            },
        ],
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == (
        "error: scenario 2 cannot run on 2020: shock depth 0.1 of 3 targets covers "
        "less than one element; nothing to shock\n"
    )
    assert not out_dir.exists()


def test_simulate_into_a_regular_file_exits_one_before_any_scenario(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(cli, "run_shock_recovery", lambda net, config: calls.append(config))
    data = write_fixture(tmp_path / "trade.csv")
    (tmp_path / "afile").write_text("", encoding="utf-8")
    argv = ["simulate", "-i", str(data), "-o", str(tmp_path / "afile")]
    argv += ["--indicators", "out_degree,pagerank"]
    argv += ["--batch-fraction", "0.34", "--shock-depth", "0.67"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert calls == []


@pytest.mark.parametrize(
    "body", ["", "2001,AAA,BBB,export,5\n"], ids=["header_only", "export_only"]
)
@pytest.mark.parametrize(
    "command",
    [
        ["ingest"],
        ["efficiency"],
        ["rank", "--indicator", "out_degree"],
        ["impact"],
        ["simulate", "-o", "out"],
    ],
    ids=lambda command: command[0],
)
def test_file_without_records_of_the_flow_exits_one(tmp_path, capsys, monkeypatch, command, body):
    monkeypatch.chdir(tmp_path)
    Path("empty.csv").write_text("year,reporter,partner,flow,value_usd\n" + body, encoding="utf-8")
    assert main([command[0], "-i", "empty.csv", *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: empty.csv has no import records\n"
    assert captured.out == ""
    assert not Path("out").exists()


@pytest.mark.filterwarnings("error")  # a RuntimeWarning would be a second line on stderr
@pytest.mark.parametrize(
    "rows, message",
    [
        (
            ["2020,USA,CAN,import,1e308", "2020,USA,CAN,import,1e308"],
            "CAN -> USA in 2020: the sum of 2 records overflows",
        ),
        (
            ["2020,USA,CAN,import,1.5e308", "2020,CAN,USA,import,1.5e308"],
            "the total trade volume in 2020 overflows",
        ),
        (
            ["2020,USA,CAN,import,1e-320", "2020,CAN,USA,import,3"],
            "CAN -> USA in 2020: weight 1e-320 is too small, its length 1/w overflows",
        ),
        (
            # B -> A and C -> B: total 1.6e308, but C reaches A at efficiency 4e307 too
            ["2020,A,B,import,8e307", "2020,B,C,import,8e307"],
            "the sum of pair efficiencies in 2020 overflows",
        ),
    ],
    ids=["pair_sum", "total_volume", "length", "pair_efficiencies"],
)
@pytest.mark.parametrize("command", ["efficiency", "impact"])
def test_weights_that_overflow_float64_exit_one(tmp_path, capsys, rows, message, command):
    data = tmp_path / "trade.csv"
    data.write_text("\n".join(["year,reporter,partner,flow,value_usd", *rows, ""]), encoding="utf-8")
    assert main([command, "-i", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_ingest_summary_explains_a_file_without_records(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_text(
        "year,reporter,partner,flow,value_usd\n2001,AAA,BBB,import,0\n2001,AAA,BBB,import,x\n",
        encoding="utf-8",
    )
    assert main(["ingest", "-i", str(data), "--summary"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"{data}: 0 records parsed, 1 malformed rows, 1 zero-value rows dropped"
    assert err[1].startswith(f"{data}:3: ")
    assert err[2:] == [f"error: {data} has no import records"]


def test_simulate_rejects_bad_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"input": "x.csv"}), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"master_sed": 3}, "manifest has unknown key 'master_sed'"),
        ({"master_seed": 7.9}, "master_seed must be an integer >= 0, got 7.9"),
        ({"master_seed": "7"}, "master_seed must be an integer >= 0, got '7'"),
        ({"master_seed": True}, "master_seed must be an integer >= 0, got True"),
        ({"master_seed": None}, "master_seed must be an integer >= 0, got None"),
        ({"master_seed": -1}, "master_seed must be an integer >= 0, got -1"),
        ({"output_dir": None}, "manifest has output_dir=None, expected str"),
        ({"input": ["trade.csv"]}, "manifest has input=['trade.csv'], expected str"),
    ],
)
def test_simulate_rejects_bad_manifest_keys(tmp_path, capsys, overrides, message):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_for(data, out_dir, **overrides)), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "years, message",
    [
        (None, "manifest has years=None, expected 'all', a year spec or a list of integers"),
        ([2001.5], "manifest has years=[2001.5], expected 'all', a year spec or a list of integers"),
        (True, "manifest has years=True, expected 'all', a year spec or a list of integers"),
        ([True], "manifest has years=[True], expected 'all', a year spec or a list of integers"),
        (2001, "manifest has years=2001, expected 'all', a year spec or a list of integers"),
        ("abc", "bad year 'abc'"),
        ("2001-x", "bad year '2001-x'"),
        ([1999], "no data for year(s) 1999; available: 2001, 2002"),
        ([], "years '' select no year"),
        (",", "years ',' select no year"),
        ("2001-99999999999", "year range '2001-99999999999' leaves [1900, 2100]"),
    ],
)
def test_simulate_rejects_bad_years(tmp_path, capsys, years, message):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_for(data, out_dir, years=years)), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("years", ["abc", "2001.5", "2001-", "-2002", "2001,x"])
def test_efficiency_rejects_bad_years(tmp_path, capsys, years):
    data = write_fixture(tmp_path / "trade.csv")
    assert main(["efficiency", "--input", str(data), "--years", years]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad year ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "years, message",
    [
        (",", "years ',' select no year"),
        (" , ", "years ' , ' select no year"),
        ("2001-99999999999", "year range '2001-99999999999' leaves [1900, 2100]"),
        ("1899-2001", "year range '1899-2001' leaves [1900, 2100]"),
    ],
)
@pytest.mark.parametrize("command", ["ingest", "efficiency", "simulate"])
def test_year_flags_that_select_nothing_or_too_much_exit_one(
    tmp_path, capsys, command, years, message
):
    data = write_fixture(tmp_path / "trade.csv")
    args = [command, "--input", str(data), "--years", years]
    if command == "simulate":
        args += ["--output-dir", str(tmp_path / "out")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_simulate_accepts_a_list_of_years(tmp_path):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest = manifest_for(data, out_dir, years=[STAR_YEAR])
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 0
    assert sorted(json.loads((out_dir / "summary.json").read_text())["years"]) == ["2002"]


@pytest.mark.parametrize("jobs", [0, "2"])
def test_simulate_rejects_bad_jobs(tmp_path, capsys, jobs):
    data = write_fixture(tmp_path / "trade.csv")
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest_for(data, tmp_path / "out", jobs=jobs)), encoding="utf-8"
    )
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == f"error: jobs must be an integer >= 1, got {jobs!r}\n"


@pytest.mark.parametrize(
    "scenario, message",
    [
        ("nodes", "scenario 1 must be a JSON object"),
        ({"indicator": "out_degree"}, "scenario 1 is missing 'target_kind'"),
        ({"target_kind": "nodes"}, "scenario 1 is missing 'indicator'"),
        (
            {"target_kind": "nodes", "indicator": "out_degree", "shock_deph": 0.3},
            "scenario 1 has unknown key 'shock_deph'",
        ),
        (
            {"target_kind": "nodes", "indicator": "out_degree", "recompute_rankings": "false"},
            "scenario 1 has recompute_rankings='false', expected bool",
        ),
        (
            {"target_kind": "nodes", "indicator": "random", "replicates": 2.7},
            "scenario 1 has replicates=2.7, expected int",
        ),
        (
            {"target_kind": "nodes", "indicator": "out_degree", "batch_fraction": "0.1"},
            "scenario 1 has batch_fraction='0.1', expected float",
        ),
        (
            {"target_kind": "nodes", "indicator": "random", "replicates": True},
            "scenario 1 has replicates=True, expected int",
        ),
        (
            {"target_kind": "nodes", "indicator": "out_degree", "recovery_order": 1},
            "scenario 1 has recovery_order=1, expected one of shock_order, reverse_shock_order",
        ),
        (
            {"target_kind": "nodes", "indicator": "out_degree", "master_seed": 3},
            "scenario 1 has unknown key 'master_seed'",
        ),
        (
            {"target_kind": "nodes", "indicator": "out_degree", "shock_depth": 1.5},
            "scenario 1 needs 0 < batch_fraction <= shock_depth <= 1, got "
            "batch_fraction=0.01, shock_depth=1.5",
        ),
        (
            {"target_kind": "nodes", "indicator": "random", "replicates": 1},
            "scenario 1 has replicates=1, but a random control needs >= 2",
        ),
    ],
)
def test_simulate_malformed_scenario_exits_one(tmp_path, capsys, scenario, message):
    data = write_fixture(tmp_path / "trade.csv")
    manifest = manifest_for(data, tmp_path / "out", scenarios=[scenario])
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_duplicate_scenarios_rejected(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest = manifest_for(data, out_dir)
    manifest["scenarios"] = [manifest["scenarios"][0]] * 2
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert "duplicate" in capsys.readouterr().err
