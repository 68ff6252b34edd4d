import contextlib
import gzip
import io
import json
import os
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeshock import IndicatorKind, ScenarioConfig, cli, efficiency
from tradeshock.cli import main

from netgen import trade_files

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


def test_ingest_summary_names_a_line_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_bytes(
        b"year,reporter,partner,flow,value_usd\n"
        b"2001,USA,CHN,import,5\n"
        b"2001,C\xffN,USA,import,3\n"
        b"2001,DEU,CHN,import,7\n"
    )
    assert main(["ingest", "--input", str(data), "--summary"]) == 0
    captured = capsys.readouterr()
    assert "2 records parsed, 1 malformed rows" in captured.err
    assert f"{data}:3: line is not valid UTF-8" in captured.err.splitlines()
    assert captured.out.splitlines()[1] == "2001,3,2,12.0,0.3333333333333333"


def test_ingest_summary_names_an_unclosed_quote_on_the_last_line(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_text(
        'year,reporter,partner,flow,value_usd\n2001,USA,CHN,import,5\n2001,CHN,USA,import,"3\n',
        encoding="utf-8",
    )
    assert main(["ingest", "--input", str(data), "--summary"]) == 0
    captured = capsys.readouterr()
    assert "1 records parsed, 1 malformed rows" in captured.err
    assert f"{data}:3: " in captured.err


def test_header_that_is_not_utf8_exits_one_with_one_line(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_bytes(b"year,rep\xffrter,partner,flow,value_usd\n2001,USA,CHN,import,5\n")
    assert main(["ingest", "--input", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: header row is not valid UTF-8\n"
    assert captured.out == ""


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


def truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def bad_block_type(data: bytes) -> bytes:
    # The first deflate byte after gzip's 10-byte header: final block, reserved type 11.
    return data[:10] + b"\xff" + data[11:]


def bad_checksum(data: bytes) -> bytes:
    return data[:-8] + bytes([data[-8] ^ 0xFF]) + data[-7:]


@pytest.mark.parametrize("corrupt", [truncated, bad_block_type, bad_checksum])
@pytest.mark.parametrize("command", ["ingest", "efficiency", "impact"])
def test_corrupt_or_truncated_gzip_exits_one_with_one_line(tmp_path, capsys, command, corrupt):
    plain = write_fixture(tmp_path / "trade.csv").read_bytes()
    data = tmp_path / "trade.csv.gz"
    data.write_bytes(corrupt(gzip.compress(plain)))
    assert main([command, "-i", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: corrupt or truncated gzip file {data}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""


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


@pytest.mark.parametrize("indicator", [kind.value for kind in IndicatorKind])
def test_rank_negative_seed_exits_one(tmp_path, capsys, indicator):
    data = write_fixture(tmp_path / "trade.csv")
    argv = ["rank", "--input", str(data), "--years", "2001", "--indicator", indicator]
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n"
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


def test_simulate_manifest_and_flags_share_manifest_defaults(tmp_path):
    data = write_fixture(tmp_path / "trade.csv")
    argv = ["simulate", "--input", str(data), "--output-dir", str(tmp_path / "flags")]
    assert main(argv + ["--indicators", "out_degree,random"]) == 0
    scenarios = [
        {"target_kind": "nodes", "indicator": "out_degree"},
        {"target_kind": "nodes", "indicator": "random"},
    ]
    explicit = {"flow": "import", "years": "all", "master_seed": 0, "jobs": 1}
    for name, keys in (("bare", {}), ("explicit", explicit)):
        manifest = {"input": str(data), "output_dir": str(tmp_path / name), "scenarios": scenarios}
        manifest_path = tmp_path / f"{name}.json"
        manifest_path.write_text(json.dumps({**manifest, **keys}), encoding="utf-8")
        assert main(["simulate", "--manifest", str(manifest_path)]) == 0
        assert_same_files(tmp_path / "flags", tmp_path / name)


def test_simulate_flags_set_the_scenario_keys_they_name(tmp_path):
    # Every flag away from its default: a flag that set nothing would show as a diff.
    data = write_fixture(tmp_path / "trade.csv")
    flags_out, manifest_out = tmp_path / "flags", tmp_path / "manifest"
    argv = ["simulate", "--input", str(data), "--output-dir", str(flags_out), "--seed", "5"]
    argv += ["--target", "edges", "--indicators", "random", "--batch-fraction", "0.25"]
    argv += ["--shock-depth", "0.75", "--recovery-order", "reverse_shock_order"]
    assert main(argv + ["--replicates", "3", "--recompute-rankings"]) == 0
    scenario = {
        "target_kind": "edges",
        "indicator": "random",
        "batch_fraction": 0.25,
        "shock_depth": 0.75,
        "recovery_order": "reverse_shock_order",
        "replicates": 3,
        "recompute_rankings": True,
    }
    manifest = {
        "input": str(data),
        "output_dir": str(manifest_out),
        "master_seed": 5,
        "scenarios": [scenario],
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 0
    assert_same_files(flags_out, manifest_out)


def test_simulate_evaluates_each_year_baseline_once(tmp_path, monkeypatch):
    # Three scenarios on one year, five runs with the random control's three
    # replicates: one shared baseline APSP, then one at each run's deepest state.
    full_matrices = []
    dijkstra = efficiency.dijkstra

    def counting(graph, *args, **kwargs):
        if kwargs.get("indices") is None:
            full_matrices.append(graph.shape)
        return dijkstra(graph, *args, **kwargs)

    monkeypatch.setattr(efficiency, "dijkstra", counting)
    data = write_fixture(tmp_path / "trade.csv")
    manifest = manifest_for(data, tmp_path / "out", years=str(UNIFORM_YEAR))
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 0
    assert len(full_matrices) == 1 + 5


def test_simulate_partial_failure_exits_two(tmp_path, capsys, monkeypatch):
    # A scenario that fails while it runs is reported; the others still run.
    run = cli.run_shock_recovery

    def failing_on_the_star_year(net, config, baseline):
        if net.year == STAR_YEAR:
            raise RuntimeError("engine failure")
        return run(net, config, baseline)

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
@pytest.mark.parametrize("command", ["efficiency", "impact", "simulate"])
def test_weights_that_overflow_float64_exit_one(tmp_path, capsys, rows, message, command):
    data = tmp_path / "trade.csv"
    data.write_text("\n".join(["year,reporter,partner,flow,value_usd", *rows, ""]), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = [command, "-i", str(data)]
    if command == "simulate":
        argv += ["-o", str(out_dir)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_ingest_summary_names_a_short_row(tmp_path, capsys):
    data = tmp_path / "trade.csv"
    data.write_text("year,reporter,partner,flow,value_usd\n2001,AAA,BBB\n", encoding="utf-8")
    assert main(["ingest", "-i", str(data), "--summary"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{data}: 0 records parsed, 1 malformed rows, 0 zero-value rows dropped",
        f"{data}:2: expected 5 fields, got 3",
        f"error: {data} has no import records",
    ]


@pytest.mark.parametrize("target", ["nodes", "edges"])
def test_impact_on_a_year_of_self_trade_only_exits_one(tmp_path, capsys, target):
    data = write_unrunnable_fixture(tmp_path / "trade.csv")
    assert main(["impact", "-i", str(data), "--years", "2021", "--target", target]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: impact needs a network with at least one active edge\n"
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


def test_simulate_rejects_a_manifest_nested_too_deeply(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text('{"input": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: manifest {manifest_path} is nested too deeply to read\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"input": "trade.csv", "output_dir": "out", ', "is not valid JSON: Expecting property "
         "name enclosed in double quotes: line 1 column 45 (char 44)"),
        (b'{"input": "\xff.csv"}', "is not valid UTF-8 at byte 11"),
    ],
    ids=["truncated", "not_utf8"],
)
def test_simulate_rejects_a_manifest_it_cannot_decode(tmp_path, capsys, text, message):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_bytes(text)
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: manifest {manifest_path} {message}\n"
    assert captured.out == ""


def test_simulate_rejects_a_manifest_that_is_not_an_object(tmp_path, capsys):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps([manifest_for(data, out_dir)]), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == "error: manifest must be a JSON object\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-i", "trade.csv"], "simulate needs --input and --output-dir (or --manifest)"),
        (["-o", "out"], "simulate needs --input and --output-dir (or --manifest)"),
        (["-i", "trade.csv", "-o", "out", "--indicators", ","], "no indicators given"),
        # Flags build a manifest, so the manifest's range rule names the key.
        (
            ["-i", "trade.csv", "-o", "out", "--seed", "-1"],
            "manifest needs master_seed >= 0, got -1",
        ),
    ],
)
def test_simulate_rejects_incomplete_flags(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    write_fixture(tmp_path / "trade.csv")
    assert main(["simulate", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "-i", "trade.csv", "--indicator", "out_degree", "--top", "abc"],
        ["rank", "-i", "trade.csv"],
        ["efficiency", "-i", "trade.csv", "--top", "3"],
        ["simulate", "-i", "trade.csv", "-o", "out", "--flow", "both"],
        ["simulate", "-i", "trade.csv", "-o", "out", "--replicates", "1.5"],
        [],
    ],
    ids=["bad_int", "missing_flag", "unknown_flag", "bad_choice", "bad_float", "none"],
)
def test_malformed_flags_exit_one_with_one_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_fixture(tmp_path / "trade.csv")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert captured.out == ""
    assert not Path("out").exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["rank", "--help"])
    assert exit_info.value.code == 0
    assert "--indicator" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"master_sed": 3}, "manifest has unknown key 'master_sed'"),
        ({"master_seed": 7.9}, "manifest has master_seed=7.9, expected int"),
        ({"master_seed": "7"}, "manifest has master_seed='7', expected int"),
        ({"master_seed": True}, "manifest has master_seed=True, expected int"),
        ({"master_seed": None}, "manifest has master_seed=None, expected int"),
        ({"master_seed": -1}, "manifest needs master_seed >= 0, got -1"),
        ({"output_dir": None}, "manifest has output_dir=None, expected str"),
        ({"input": ["trade.csv"]}, "manifest has input=['trade.csv'], expected str"),
        ({"scenarios": []}, "manifest needs a non-empty scenarios list"),
        (
            {"scenarios": {"target_kind": "nodes"}},
            "manifest has scenarios={'target_kind': 'nodes'}, expected list",
        ),
        (  # named before the trade file is read: this one does not exist
            {"flow": "both", "input": "no-such-trade.csv"},
            "manifest needs flow in ('import', 'export'), got 'both'",
        ),
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


def test_write_atomic_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def failing_replace(source, target):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    target = tmp_path / "reports.csv"
    with pytest.raises(OSError, match="rename refused"):
        cli._write_atomic(target, "year\n")
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp")) == []


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
        ("2002-2001", "bad year range '2002-2001'"),
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
        ("", "years '' select no year"),
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


@pytest.mark.parametrize(
    "jobs, message",
    [(0, "manifest needs jobs >= 1, got 0"), ("2", "manifest has jobs='2', expected int")],
    ids=["0", "2"],
)
def test_simulate_rejects_bad_jobs(tmp_path, capsys, jobs, message):
    data = write_fixture(tmp_path / "trade.csv")
    out_dir = tmp_path / "out"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_for(data, out_dir, jobs=jobs)), encoding="utf-8")
    assert main(["simulate", "--manifest", str(manifest_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


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


# -- bad input, drawn: exit 0, or exit 1 with one line and nothing written ---------


@contextlib.contextmanager
def temporary_working_directory():
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(previous)


def assert_exits_cleanly(argv: list[str], workdir: Path) -> None:
    """Exit 0 with a silent stderr, or exit 1 with one stderr line and no new file.

    A warning counts as a stderr line; a traceback fails the test where it is raised.
    """
    before = sorted(os.listdir(workdir))
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    lines = stderr.getvalue().splitlines() + [str(warning.message) for warning in caught]
    assert (code, len(lines)) in {(0, 0), (1, 1)}, (argv, code, lines)
    if code == 1:
        assert lines[0].startswith("error: ")
        assert sorted(os.listdir(workdir)) == before


CSV_COMMANDS = [
    ["ingest"],
    ["efficiency"],
    ["rank", "--years", "2001", "--indicator", "out_degree"],
    ["impact", "--years", "2001", "--target", "nodes"],
    ["impact", "--years", "2001", "--target", "edges"],
    ["simulate", "--years", "2001", "--indicators", "out_degree", "-o", "out"],
]


@settings(max_examples=40)
@given(
    data=trade_files(),
    name=st.sampled_from(["trade.csv", "trade.csv.gz"]),
    command=st.sampled_from(CSV_COMMANDS),
)
def test_every_command_exits_cleanly_on_a_drawn_trade_file(data, name, command):
    with temporary_working_directory() as workdir:
        (workdir / name).write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        assert_exits_cleanly([command[0], "-i", name, *command[1:]], workdir)


MANIFEST_VALUES = (
    None, True, -1, 0, 2, 0.5, 1.5, float("nan"), "", "x", "trade.csv", "all", "nodes",
    "edges", "random", "edge_weight", "reverse_shock_order", [], {}, [2001], ["2001"],
    [2001.5], "2001", "2001-2002", "2002-2001", "1800-2200", "2001,,2002",
)
_DELETE = object()
manifest_edits = st.lists(
    st.one_of(
        st.tuples(
            st.none(),
            st.sampled_from([f.name for f in fields(cli.Manifest)] + ["master_sed"]),
            st.sampled_from(MANIFEST_VALUES + (_DELETE,)),
        ),
        st.tuples(
            st.integers(0, 2),
            st.sampled_from([f.name for f in fields(ScenarioConfig)] + ["label"]),
            st.sampled_from(MANIFEST_VALUES + (_DELETE,)),
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40)
@given(edits=manifest_edits)
def test_simulate_exits_cleanly_on_a_drawn_manifest(edits):
    with temporary_working_directory() as workdir:
        write_fixture(workdir / "trade.csv")
        manifest = manifest_for(Path("trade.csv"), Path("out"))
        # Scenario edits first, as an edit of "scenarios" may leave no list to edit.
        for scenario, key, value in sorted(edits, key=lambda edit: edit[0] is None):
            target = manifest if scenario is None else manifest["scenarios"][scenario]
            if value is _DELETE:
                target.pop(key, None)
            else:
                target[key] = value
        (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert_exits_cleanly(["simulate", "--manifest", "manifest.json"], workdir)
