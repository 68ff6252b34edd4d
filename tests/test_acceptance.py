"""Release gate: one test per numbered shipping criterion.

Each test prints a PASS/FAIL line for its criterion (visible with
``pytest tests/test_acceptance.py -v -s``). The checks restate what the
unit suite covers piecewise, at the tolerances the package promises.
"""

import contextlib
import io
import json
import math
import os
import time
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest

from tradeshock import (
    IndicatorKind,
    NODE_INDICATORS,
    ScenarioConfig,
    TradeNetwork,
    Trajectory,
    betweenness,
    closeness,
    lone,
    min_performance,
    network_efficiency,
    network_to_records,
    pagerank,
    rank_edges,
    rank_nodes,
    rate_of_change,
    run_random_control,
    run_shock_recovery,
    summarize,
    write_trade_file,
)
from tradeshock.cli import main

import netgen
import oracles

DATA_ENV = "TRADESHOCK_COMTRADE_2020"


@contextlib.contextmanager
def gate(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def test_criterion_1_efficiency_oracle():
    with gate(1, "efficiency matches the exhaustive simple-path oracle on 200 digraphs"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            net = netgen.random_network(rng, n, p_edge=float(rng.uniform(0.15, 0.9)))
            got = network_efficiency(net).raw_efficiency
            want = oracles.efficiency_oracle(net)
            worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"worst |delta| = {worst}"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_closed_forms():
    with gate(2, "closed-form efficiency values"):
        complete = netgen.complete_uniform_network(5, weight=7.0)
        assert abs(network_efficiency(complete).normalized_efficiency - 1.0) < 1e-12

        two = TradeNetwork(("AA", "BB"), np.array([[0.0, 3.0], [0.0, 0.0]]))
        assert abs(network_efficiency(two).normalized_efficiency - 0.5) < 1e-12

        empty = TradeNetwork(("AA", "BB", "CC"), np.zeros((3, 3)))
        result = network_efficiency(empty)
        assert result.raw_efficiency == 0.0
        assert result.normalized_efficiency == 0.0


def test_criterion_3_scale_invariance():
    with gate(3, "uniform weight scaling: efficiency is linear, rankings unchanged"):
        rng = np.random.default_rng(303)
        node_kinds = sorted(NODE_INDICATORS - {IndicatorKind.random})
        for _ in range(50):
            n = int(rng.integers(4, 11))
            net = netgen.connected_random_network(rng, n)
            base_raw = network_efficiency(net).raw_efficiency
            base_nodes = {k: rank_nodes(net, k, seed=0).ordered_items for k in node_kinds}
            base_edges = rank_edges(net, IndicatorKind.edge_weight).ordered_items
            for c in (1e-3, 1.0, 1e6):
                scaled = TradeNetwork(net.codes, net.baseline_weights * c)
                raw = network_efficiency(scaled).raw_efficiency
                assert math.isclose(raw, c * base_raw, rel_tol=1e-12, abs_tol=0.0)
                for kind in node_kinds:
                    assert rank_nodes(scaled, kind, seed=0).ordered_items == base_nodes[kind]
                assert rank_edges(scaled, IndicatorKind.edge_weight).ordered_items == base_edges


def test_criterion_4_centrality_oracles():
    with gate(4, "betweenness/closeness exact vs enumeration; pagerank is a distribution"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            net = netgen.random_network(rng, n, p_edge=float(rng.uniform(0.2, 0.9)))
            assert np.array_equal(betweenness(net), oracles.betweenness_oracle(net))
            for direction in ("out", "in"):
                assert np.array_equal(
                    closeness(net, direction), oracles.closeness_oracle(net, direction)
                )
            assert abs(pagerank(net).sum() - 1.0) < 1e-9
        for n, weight in ((3, 0.5), (5, 2.0), (8, 9.0)):
            scores = pagerank(netgen.complete_uniform_network(n, weight=weight))
            assert np.abs(scores - 1.0 / n).max() < 1e-9


NODE_SCENARIO_KINDS = (
    IndicatorKind.out_degree,
    IndicatorKind.out_strength,
    IndicatorKind.betweenness,
    IndicatorKind.pagerank,
    IndicatorKind.clustering,
)


@pytest.fixture(scope="module")
def hub_matrix():
    """Full scenario matrix on the 200-node hub fixture, run once.

    Node scenarios use the five deterministic orderings plus a 20-replicate
    random control; edge scenarios use the two orderings that apply to
    edges (weight, random).
    """
    net = netgen.hub_network()
    start = time.perf_counter()
    runs = {}
    for kind in NODE_SCENARIO_KINDS:
        config = ScenarioConfig(target_kind="nodes", indicator=kind, master_seed=5)
        runs[("nodes", kind.value)] = run_shock_recovery(net, config)
    runs[("nodes", "random")] = run_random_control(
        net, ScenarioConfig(target_kind="nodes", indicator="random", master_seed=5)
    )
    runs[("edges", "edge_weight")] = run_shock_recovery(
        net, ScenarioConfig(target_kind="edges", indicator="edge_weight", master_seed=5)
    )
    runs[("edges", "random")] = run_random_control(
        net, ScenarioConfig(target_kind="edges", indicator="random", master_seed=5)
    )
    elapsed = time.perf_counter() - start
    return runs, elapsed


def _every_trajectory(runs):
    for run in runs.values():
        if isinstance(run, Trajectory):
            yield run
        else:
            yield from run.replicates


def test_criterion_5_restoration_identity(hub_matrix):
    with gate(5, "every scenario in the hub-network matrix restores baseline efficiency"):
        runs, elapsed = hub_matrix
        assert len(runs) == 8
        for trajectory in _every_trajectory(runs):
            drift = abs(trajectory.ne[-1] - trajectory.ne0)
            assert drift < 1e-12, f"restored NE drifted by {drift}"
        assert elapsed < 120.0, f"matrix took {elapsed:.1f}s"


def test_criterion_6_targeted_beats_random(hub_matrix):
    with gate(6, "targeted shocks lose more than random; clustering trails degree"):
        runs, _ = hub_matrix
        random_mean = fmean(
            summarize(rep).lone_ds for rep in runs[("nodes", "random")].replicates
        )
        targeted = {
            kind.value: summarize(runs[("nodes", kind.value)]).lone_ds
            for kind in NODE_SCENARIO_KINDS
        }
        for name in ("out_degree", "out_strength", "betweenness", "pagerank"):
            assert targeted[name] > random_mean, f"{name}: {targeted[name]} <= {random_mean}"
        assert targeted["clustering"] < targeted["out_degree"]


def make_trajectory(ne0, shock, recovery):
    return Trajectory((ne0, *shock, *recovery), len(shock), (), 1.0)


def test_criterion_7_resilience_arithmetic():
    with gate(7, "hand-fixture indices exact; additivity and telescoping on 100 trajectories"):
        hand = make_trajectory(1.0, [0.6, 0.2], [0.5, 1.0])
        report = summarize(hand)
        assert report.r == 0.2
        assert report.lone_ds == (1.0 - 0.6) + (1.0 - 0.2)
        assert report.lone_ds == pytest.approx(1.2, abs=1e-12)
        assert report.lone_rs == 0.5
        assert report.resilience == report.lone_ds + report.lone_rs
        assert report.resilience == pytest.approx(1.7, abs=1e-12)

        rng = np.random.default_rng(707)
        for _ in range(100):
            trajectory = netgen.grid_trajectory(rng)
            report = summarize(trajectory)
            ne, t_r = trajectory.ne, trajectory.t_r
            # forward differences telescope back to the endpoint gaps
            assert math.fsum(report.roc_ds) == ne[t_r] - trajectory.ne0
            assert math.fsum(report.roc_rs) == ne[-1] - ne[t_r]
            # areas add: whole-episode loss is the sum of the phase losses
            whole = math.fsum(trajectory.ne0 - v for v in ne[1:])
            assert report.lone_ds + report.lone_rs == whole
            assert report.resilience == whole
            assert report.r <= trajectory.ne0


def _run_manifest(manifest_path: Path) -> None:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["simulate", "--manifest", str(manifest_path)])
    assert code == 0, buffer.getvalue()


def test_criterion_8_manifest_determinism(tmp_path):
    with gate(8, "identical manifest and master seed give byte-identical outputs"):
        rng = np.random.default_rng(808)
        net = netgen.connected_random_network(rng, 16, year=2015)
        data = tmp_path / "trade.csv"
        write_trade_file(network_to_records(net), data)
        scenarios = [
            {"target_kind": "nodes", "indicator": "out_degree"},
            {"target_kind": "nodes", "indicator": "betweenness"},
            {"target_kind": "nodes", "indicator": "random", "replicates": 5},
            {"target_kind": "edges", "indicator": "edge_weight"},
        ]
        out_dirs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            manifest = {
                "input": str(data),
                "years": "all",
                "output_dir": str(out_dir),
                "master_seed": 20260814,
                "jobs": 2,
                "scenarios": scenarios,
            }
            manifest_path = tmp_path / f"{name}.json"
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            _run_manifest(manifest_path)
            out_dirs.append(out_dir)
        first, second = out_dirs
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert len(files) == 6  # reports, summary, four trajectories
        for rel in files:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


def test_criterion_9_reference_year_leaders():
    path = os.environ.get(DATA_ENV)
    if not path:
        print(f"SKIP criterion 9: set {DATA_ENV} to a 2020 oil-trade file to enable")
        pytest.skip(f"{DATA_ENV} not set")
    with gate(9, "2020 data: expected leaders rank top-3 (indicative)"):
        expectations = [
            ("out_degree", "USA"),
            ("out_closeness", "USA"),
            ("hubs", "USA"),
            ("in_degree", "NLD"),
            ("pagerank", "NLD"),
        ]
        for indicator, code in expectations:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                status = main(
                    [
                        "rank",
                        "--input",
                        path,
                        "--years",
                        "2020",
                        "--indicator",
                        indicator,
                        "--top",
                        "3",
                    ]
                )
            assert status == 0
            lines = buffer.getvalue().strip().splitlines()
            leaders = [line.split(",")[1] for line in lines[1:]]
            assert code in leaders, f"{indicator}: top-3 {leaders} lacks {code}"
