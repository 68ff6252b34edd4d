import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeshock import efficiency, simulation
from tradeshock import (
    EDGE_INDICATORS,
    NODE_INDICATORS,
    IndicatorKind,
    Phase,
    RecoveryOrder,
    ScenarioConfig,
    TargetKind,
    TradeNetwork,
    Trajectory,
    build_network,
    network_efficiency,
    rank_by_impact,
    run_random_control,
    run_shock_recovery,
)

from netgen import (
    codes_for,
    connected_random_network,
    hub_network,
    random_network,
    star_network,
    two_cliques_bridge,
)
from oracles import all_pairs_costs, forward_shock_recovery


@pytest.fixture(scope="module")
def medium_net():
    rng = np.random.default_rng(100)
    return connected_random_network(rng, 20, extra_p=0.2)


# -- configuration validation -------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(batch_fraction=0.0),
        dict(batch_fraction=0.6, shock_depth=0.5),
        dict(shock_depth=1.5),
        dict(replicates=0),
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(target_kind="nodes", indicator="out_degree", **kwargs)


def test_indicator_target_compatibility():
    with pytest.raises(ValueError):
        ScenarioConfig(target_kind="edges", indicator="out_degree")
    with pytest.raises(ValueError):
        ScenarioConfig(target_kind="nodes", indicator="edge_weight")
    # the two allowed edge indicators are accepted
    ScenarioConfig(target_kind="edges", indicator="edge_weight")
    ScenarioConfig(target_kind="edges", indicator="random")


def test_from_mapping_fills_defaults_and_takes_the_seed():
    spec = {"target_kind": "edges", "indicator": "random", "shock_depth": 1, "replicates": 3}
    cfg = ScenarioConfig.from_mapping(spec, master_seed=7)
    assert cfg == ScenarioConfig(
        target_kind="edges", indicator="random", shock_depth=1.0, replicates=3, master_seed=7
    )
    assert type(cfg.shock_depth) is float


def test_config_accepts_plain_strings():
    cfg = ScenarioConfig(target_kind="nodes", indicator="pagerank")
    assert cfg.target_kind is TargetKind.nodes
    assert cfg.indicator is IndicatorKind.pagerank
    assert cfg.recovery_order is RecoveryOrder.shock_order


# -- trajectory shape ----------------------------------------------------------


def shocked_and_restored(traj: Trajectory) -> tuple[list, list]:
    """The elements in the order the shock phase took them, and the recovery phase."""
    shocked = [e for chunk in traj.batches[: traj.t_r] for e in chunk]
    restored = [e for chunk in traj.batches[traj.t_r :] for e in chunk]
    return shocked, restored


def test_batch_arithmetic_on_200_nodes():
    net = hub_network()
    cfg = ScenarioConfig(target_kind="nodes", indicator="out_degree")
    traj = run_shock_recovery(net, cfg)
    # 1% of 200 -> batches of 2; 50% depth -> 100 nodes -> 50 steps each way
    assert traj.t_r == 50
    assert len(traj.ne) == 101
    assert len(traj.batches) == 100
    assert all(len(chunk) == 2 for chunk in traj.batches)


def test_shock_step_count_matches_ceiling_rule():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = connected_random_network(rng, int(rng.integers(5, 15)))
        frac = float(rng.uniform(0.05, 0.4))
        depth = float(rng.uniform(frac, 1.0))
        cfg = ScenarioConfig(
            target_kind="nodes", indicator="out_strength", batch_fraction=frac, shock_depth=depth
        )
        traj = run_shock_recovery(net, cfg)
        m = net.n_nodes
        batch = math.ceil(frac * m)
        total = math.ceil(depth * m)
        assert traj.t_r == math.ceil(total / batch)
        assert len(shocked_and_restored(traj)[0]) == total


def test_phases_are_contiguous_and_marked(medium_net):
    cfg = ScenarioConfig(target_kind="nodes", indicator="betweenness", batch_fraction=0.1)
    traj = run_shock_recovery(medium_net, cfg)
    phases = [traj.phase(t) for t in range(len(traj.ne))]
    assert phases[0] is Phase.baseline
    boundary = phases.index(Phase.recovery)
    assert boundary == traj.t_r + 1
    assert all(p is Phase.shock for p in phases[1:boundary])
    assert all(p is Phase.recovery for p in phases[boundary:])
    assert len(traj.batches) == len(traj.ne) - 1


@pytest.mark.parametrize("t_r", [-1, 3])
def test_trajectory_rejects_a_peak_outside_its_series(t_r):
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        Trajectory((1.0, 0.5, 1.0), t_r, (), 1.0)


def test_restoration_identity_is_bit_exact(medium_net):
    for indicator in ("out_degree", "in_strength", "pagerank"):
        cfg = ScenarioConfig(target_kind="nodes", indicator=indicator, batch_fraction=0.13)
        traj = run_shock_recovery(medium_net, cfg)
        assert traj.ne[-1] == traj.ne0


def test_reference_frozen_at_baseline(medium_net):
    cfg = ScenarioConfig(target_kind="nodes", indicator="out_strength", batch_fraction=0.1)
    traj = run_shock_recovery(medium_net, cfg)
    assert traj.reference_mean_weight == medium_net.stats().mean_edge_weight
    assert traj.ne0 == network_efficiency(medium_net).normalized_efficiency


def test_recovery_replays_shock_order(medium_net):
    cfg = ScenarioConfig(target_kind="nodes", indicator="out_degree", batch_fraction=0.1)
    traj = run_shock_recovery(medium_net, cfg)
    shocked, restored = shocked_and_restored(traj)
    assert restored == shocked


def test_reverse_recovery_order(medium_net):
    cfg = ScenarioConfig(
        target_kind="nodes",
        indicator="out_degree",
        batch_fraction=0.1,
        recovery_order="reverse_shock_order",
    )
    traj = run_shock_recovery(medium_net, cfg)
    shocked, restored = shocked_and_restored(traj)
    assert restored == shocked[::-1]
    assert traj.ne[-1] == traj.ne0


def test_edge_scenario_runs_and_restores(medium_net):
    cfg = ScenarioConfig(target_kind="edges", indicator="edge_weight", batch_fraction=0.05)
    traj = run_shock_recovery(medium_net, cfg)
    assert traj.ne[-1] == traj.ne0
    shocked = shocked_and_restored(traj)[0]
    assert len(shocked) == math.ceil(0.5 * medium_net.n_edges)
    # heaviest relationship goes first
    heaviest = max(medium_net.active_edges(), key=lambda e: e.weight)
    assert shocked[0] == (heaviest.source, heaviest.target)


def test_baseline_network_is_untouched(medium_net):
    before = medium_net.active_weights()
    cfg = ScenarioConfig(target_kind="nodes", indicator="out_degree", batch_fraction=0.2)
    run_shock_recovery(medium_net, cfg)
    assert np.array_equal(medium_net.active_weights(), before)


def test_nothing_to_shock_is_an_error():
    net = build_network([("A", "B", 2.0)])
    cfg = ScenarioConfig(target_kind="nodes", indicator="out_degree", shock_depth=0.4)
    with pytest.raises(ValueError, match="nothing to shock"):
        run_shock_recovery(net, cfg)


def test_recompute_rankings_follows_the_surviving_network():
    # Y's degree counts its edge into X, so once X is shocked Y drops to a
    # tie with Z, and Z's far larger strength wins the recomputed ranking.
    records = [("X", leaf, 1.0) for leaf in ("a", "b", "c", "d")]
    records += [("Y", "X", 1.0), ("Y", "c", 1.0), ("Y", "d", 1.0)]
    records += [("Z", "e", 50.0), ("Z", "f", 50.0)]
    net = build_network(records)
    base = dict(
        target_kind="nodes", indicator="out_degree", batch_fraction=0.1, shock_depth=0.3
    )
    static = run_shock_recovery(net, ScenarioConfig(**base))
    dynamic = run_shock_recovery(net, ScenarioConfig(**base, recompute_rankings=True))
    assert shocked_and_restored(static)[0] == ["X", "Y", "Z"]
    assert shocked_and_restored(dynamic)[0] == ["X", "Z", "Y"]
    assert dynamic.ne[-1] == dynamic.ne0


@pytest.mark.parametrize("indicator", ["hubs", "authorities"])
def test_hits_reranking_survives_a_network_without_edges(indicator):
    # Shocking the whole star leaves no edge once the centre is gone; the
    # remaining leaves must still be ranked (all scores 0, tie-break order).
    cfg = ScenarioConfig(
        target_kind="nodes",
        indicator=indicator,
        batch_fraction=0.2,
        shock_depth=1.0,
        recompute_rankings=True,
    )
    traj = run_shock_recovery(star_network(), cfg)
    assert traj.ne[traj.t_r] == 0.0
    assert traj.ne[-1] == traj.ne0


# -- exactness against the forward full recompute -----------------------------

SCENARIO_INDICATORS = [("nodes", k.value) for k in sorted(NODE_INDICATORS)] + [
    ("edges", k.value) for k in sorted(EDGE_INDICATORS)
]


@pytest.mark.parametrize("recompute", [False, True], ids=["static", "recompute"])
@pytest.mark.parametrize(
    "target_kind,indicator", SCENARIO_INDICATORS, ids=[i for _, i in SCENARIO_INDICATORS]
)
def test_scenario_equals_forward_full_recompute(medium_net, target_kind, indicator, recompute):
    # 13% batches of a 50% depth: the last batch is smaller than the others.
    for order in RecoveryOrder:
        cfg = ScenarioConfig(
            target_kind=target_kind,
            indicator=indicator,
            batch_fraction=0.13,
            recovery_order=order,
            master_seed=4,
            recompute_rankings=recompute,
        )
        assert run_shock_recovery(medium_net, cfg) == forward_shock_recovery(medium_net, cfg)


def extreme_weight_hub() -> TradeNetwork:
    """hub_network with weights of 1e-9 and 1e12 mixed in, so d + 1/w == d happens."""
    net = hub_network(n=41, n_hubs=5)
    weights = net.baseline_weights.copy()
    rng = np.random.default_rng(6)
    picked = (weights > 0) & (rng.random(weights.shape) < 0.3)
    weights[picked] = rng.choice([1e-9, 1e12], size=int(picked.sum()))
    return TradeNetwork(codes_for(41), weights)


NETGEN_FIXTURES = {
    "star": star_network,
    "bridge": two_cliques_bridge,
    "hub41": lambda: hub_network(n=41, n_hubs=5),
    "sparse40": lambda: random_network(np.random.default_rng(7), 40, 0.05),
    "extreme_hub41": extreme_weight_hub,
}


@pytest.mark.parametrize("make", NETGEN_FIXTURES.values(), ids=NETGEN_FIXTURES.keys())
def test_fixture_scenarios_equal_forward_full_recompute(make):
    net = make()
    for target_kind, indicator in [("nodes", "out_strength"), ("nodes", "random"),
                                   ("edges", "edge_weight"), ("edges", "random")]:
        for order in RecoveryOrder:
            cfg = ScenarioConfig(
                target_kind=target_kind,
                indicator=indicator,
                batch_fraction=0.07,
                shock_depth=0.6,
                recovery_order=order,
                master_seed=8,
            )
            assert run_shock_recovery(net, cfg) == forward_shock_recovery(net, cfg), cfg


def sweep_network(rng: np.random.Generator) -> TradeNetwork:
    """A small random network: sparse enough for unreachable pairs, weights of every scale."""
    n = int(rng.integers(3, 10))
    weights = np.zeros((n, n))
    mask = rng.random((n, n)) < rng.uniform(0.15, 0.6)
    np.fill_diagonal(mask, False)
    mask[0, 1] = True  # at least one edge, so the baseline mean weight is positive
    draws = rng.choice([1e-9, 1e12, 1.0, 2.0], size=(n, n))  # exact ties too
    weights[mask] = np.where(rng.random((n, n)) < 0.5, draws, rng.uniform(0.1, 10.0, (n, n)))[mask]
    return TradeNetwork(codes_for(n), weights)


SWEEP_SEED, SWEEP_DRAWS = 20261018, 145
# Every node indicator once and each edge indicator seven times per cycle of 29 draws.
SWEEP_SCENARIOS = SCENARIO_INDICATORS + [("edges", k.value) for k in sorted(EDGE_INDICATORS)] * 6


def test_seeded_sweep_equals_forward_full_recompute():
    rng = np.random.default_rng(SWEEP_SEED)
    for draw in range(SWEEP_DRAWS):
        net = sweep_network(rng)
        target_kind, indicator = SWEEP_SCENARIOS[draw % len(SWEEP_SCENARIOS)]
        n_targets = net.n_nodes if target_kind == "nodes" else net.n_active_edges
        depth = float(rng.uniform(1.0 / n_targets, 1.0))
        cfg = ScenarioConfig(
            target_kind=target_kind,
            indicator=indicator,
            batch_fraction=float(rng.uniform(0.01, depth)),
            shock_depth=depth,
            recovery_order=list(RecoveryOrder)[int(rng.integers(2))],
            replicates=1,
            master_seed=draw,
            recompute_rankings=bool(rng.random() < 0.5),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # PageRank and HITS may stop early
            assert run_shock_recovery(net, cfg) == forward_shock_recovery(net, cfg), (draw, cfg)


def test_random_control_replicates_equal_forward_full_recompute(medium_net):
    cfg = ScenarioConfig(
        target_kind="edges", indicator="random", batch_fraction=0.06, replicates=3, master_seed=2
    )
    control = run_random_control(medium_net, cfg)
    for r, replicate in enumerate(control.replicates):
        seed = simulation.child_seed(cfg.master_seed, r)
        oracle = forward_shock_recovery(medium_net, replace(cfg, master_seed=seed, replicates=1))
        assert replicate == oracle


def counted_config(net: TradeNetwork, target_kind: str, batch: int, total: int, **kwargs):
    """A scenario on ``net`` whose batch size and shock total are ``batch`` and ``total``."""
    n_targets = net.n_nodes if target_kind == "nodes" else net.n_active_edges
    depth = total / n_targets
    while depth * n_targets < total:  # the least depth that covers ``total`` targets
        depth = math.nextafter(depth, 1.0)
    cfg = ScenarioConfig(
        target_kind=target_kind,
        batch_fraction=(batch - 0.5) / n_targets,
        shock_depth=depth,
        **kwargs,
    )
    assert simulation.plan_scenario(net, cfg)[1:] == (batch, total)
    return cfg


# (batch, total) per target kind on medium_net: 20 nodes and 96 edges.
ALIGNMENTS = {
    "aligned": {"nodes": (2, 10), "edges": (4, 20)},
    "unaligned": {"nodes": (3, 10), "edges": (6, 20)},
}


@pytest.mark.parametrize("recompute", [False, True], ids=["static", "recompute"])
@pytest.mark.parametrize(
    "target_kind,indicator",
    [("nodes", "out_strength"), ("nodes", "random"), ("edges", "edge_weight")],
    ids=["out_strength", "random_nodes", "edge_weight"],
)
@pytest.mark.parametrize("alignment", ALIGNMENTS)
def test_both_orders_equal_forward_full_recompute_with_any_last_batch(
    medium_net, alignment, target_kind, indicator, recompute
):
    # Aligned, the shock and recovery batches end at the same cuts; unaligned,
    # the one reverse-order pass also stops where only one phase has a point.
    batch, total = ALIGNMENTS[alignment][target_kind]
    for order in RecoveryOrder:
        cfg = counted_config(
            medium_net,
            target_kind,
            batch,
            total,
            indicator=indicator,
            recovery_order=order,
            master_seed=5,
            recompute_rankings=recompute,
        )
        assert run_shock_recovery(medium_net, cfg) == forward_shock_recovery(medium_net, cfg)


@pytest.mark.parametrize("alignment", ALIGNMENTS)
def test_reverse_order_restores_each_element_once(medium_net, monkeypatch, alignment):
    restored: list[int] = []
    rows: list[int] = []
    restore, dijkstra = TradeNetwork.restore, efficiency.dijkstra

    def counting_restore(net, elements):
        restored.append(len(elements))
        return restore(net, elements)

    def counting_dijkstra(graph, *args, **kwargs):
        result = dijkstra(graph, *args, **kwargs)
        rows.append(1 if result.ndim == 1 else result.shape[0])
        return result

    monkeypatch.setattr(TradeNetwork, "restore", counting_restore)
    monkeypatch.setattr(efficiency, "dijkstra", counting_dijkstra)
    batch, total = ALIGNMENTS[alignment]["edges"]
    cfg = counted_config(
        medium_net,
        "edges",
        batch,
        total,
        indicator="edge_weight",
        recovery_order="reverse_shock_order",
    )
    traj = run_shock_recovery(medium_net, cfg)
    assert sum(restored) == total
    assert rows == [20, 20]  # the baseline and the deepest state
    assert len(traj.ne) == 1 + 2 * math.ceil(total / batch)


def test_scenario_runs_dijkstra_at_the_baseline_and_the_deepest_state_only(monkeypatch):
    net = hub_network(n=41, n_hubs=5)
    rows: list[int] = []
    dijkstra = efficiency.dijkstra

    def counting(graph, *args, **kwargs):
        result = dijkstra(graph, *args, **kwargs)
        rows.append(1 if result.ndim == 1 else result.shape[0])
        return result

    monkeypatch.setattr(efficiency, "dijkstra", counting)
    traj = run_shock_recovery(net, ScenarioConfig(target_kind="nodes", indicator="out_degree"))
    assert len(traj.ne) == 43
    assert rows == [41, 41]


@pytest.mark.parametrize("order", [o.value for o in RecoveryOrder])
def test_scenario_raises_when_the_backward_pass_misses_the_baseline(
    medium_net, monkeypatch, order
):
    full = simulation.network_efficiency

    def off_by_one_ulp(net):
        result = full(net)
        return replace(result, raw_efficiency=np.nextafter(result.raw_efficiency, 0.0))

    monkeypatch.setattr(simulation, "network_efficiency", off_by_one_ulp)
    cfg = ScenarioConfig(
        target_kind="nodes", indicator="out_degree", batch_fraction=0.1, recovery_order=order
    )
    with pytest.raises(RuntimeError, match="not the baseline"):
        run_shock_recovery(medium_net, cfg)


# -- exact monotonicity ---------------------------------------------------------

# No edge, or a weight of any scale: 1e-9 and 1e12 together make d + 1/w == d.
EDGE_WEIGHTS = st.one_of(
    st.none(), st.sampled_from([1e-9, 1e12, 0.5, 1.0, 2.0]), st.floats(0.1, 10.0)
)


@st.composite
def small_scenarios(draw) -> tuple[TradeNetwork, ScenarioConfig]:
    n = draw(st.integers(3, 7))
    drawn = draw(st.lists(EDGE_WEIGHTS, min_size=n * n, max_size=n * n))
    weights = np.array([0.0 if w is None else w for w in drawn]).reshape(n, n)
    np.fill_diagonal(weights, 0.0)
    weights[0, 1] = weights[0, 1] or 1.0  # at least one edge, so the baseline mean is positive
    net = TradeNetwork(codes_for(n), weights)
    target_kind = draw(st.sampled_from(["nodes", "edges"]))
    indicators = NODE_INDICATORS if target_kind == "nodes" else EDGE_INDICATORS
    total = draw(st.integers(1, n if target_kind == "nodes" else net.n_active_edges))
    cfg = counted_config(
        net,
        target_kind,
        draw(st.integers(1, total)),
        total,
        indicator=draw(st.sampled_from(sorted(k.value for k in indicators))),
        recovery_order=draw(st.sampled_from(list(RecoveryOrder))),
        replicates=1,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        recompute_rankings=draw(st.booleans()),
    )
    return net, cfg


@settings(max_examples=150)
@given(small_scenarios())
def test_efficiency_never_rises_in_the_shock_nor_falls_in_the_recovery(scenario):
    # A shock only removes edges, so no least walk cost falls; the float sums
    # are monotone too, so this holds bit for bit, with no tolerance.
    net, cfg = scenario
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # PageRank and HITS may stop early
        traj = run_shock_recovery(net, cfg)
    shock, recovery = traj.ne[: traj.t_r + 1], traj.ne[traj.t_r :]
    assert all(after <= before for before, after in zip(shock, shock[1:])), cfg
    assert all(after >= before for before, after in zip(recovery, recovery[1:])), cfg


# -- random control -------------------------------------------------------------


def test_random_control_deterministic(medium_net):
    cfg = ScenarioConfig(
        target_kind="nodes", indicator="random", batch_fraction=0.1, replicates=5, master_seed=3
    )
    a = run_random_control(medium_net, cfg)
    b = run_random_control(medium_net, cfg)
    assert a.mean.ne == b.mean.ne
    assert a.std == b.std


def test_random_control_replicates_differ_but_all_restore(medium_net):
    cfg = ScenarioConfig(
        target_kind="nodes", indicator="random", batch_fraction=0.1, replicates=6, master_seed=9
    )
    control = run_random_control(medium_net, cfg)
    orders = {tuple(shocked_and_restored(t)[0]) for t in control.replicates}
    assert len(orders) > 1
    for t in control.replicates:
        assert t.ne[-1] == t.ne0


def test_random_control_std_zero_at_endpoints(medium_net):
    cfg = ScenarioConfig(
        target_kind="nodes", indicator="random", batch_fraction=0.1, replicates=5, master_seed=1
    )
    control = run_random_control(medium_net, cfg)
    assert control.std[0] == 0.0
    assert control.std[-1] == 0.0
    assert any(x > 0 for x in control.std)


def test_random_control_mean_matches_direct_aggregation(medium_net):
    cfg = ScenarioConfig(
        target_kind="nodes", indicator="random", batch_fraction=0.2, replicates=4, master_seed=2
    )
    control = run_random_control(medium_net, cfg)
    matrix = np.array([t.ne for t in control.replicates])
    assert np.array_equal(np.array(control.mean.ne), matrix.mean(axis=0))
    assert control.mean.t_r == control.replicates[0].t_r
    assert control.mean.batches == ()
    assert np.array_equal(np.array(control.std), matrix.std(axis=0))


def test_random_control_needs_two_replicates(medium_net):
    cfg = ScenarioConfig(target_kind="nodes", indicator="random", replicates=1)
    with pytest.raises(ValueError, match="replicates"):
        run_random_control(medium_net, cfg)


# -- single-element impact --------------------------------------------------------


def impact_of(net, element) -> float:
    kind = "nodes" if isinstance(element, str) else "edges"
    return dict(rank_by_impact(net, kind, top_k=10**6))[element]


def test_impact_is_baseline_minus_masked(medium_net):
    code = medium_net.codes[3]
    impact = impact_of(medium_net, code)
    ref = medium_net.stats().mean_edge_weight
    work = medium_net.fork()
    work.shock_nodes([code])
    expected = (
        network_efficiency(medium_net).raw_efficiency - network_efficiency(work).raw_efficiency
    ) / ref
    assert impact == pytest.approx(expected, rel=1e-12)


def test_isolated_node_impact_zero():
    net = build_network([("A", "B", 2.0), ("C", "C", 1.0)])
    assert impact_of(net, "C") == 0.0


def test_impacts_nonnegative(medium_net):
    for kind in ("nodes", "edges"):
        ranked = rank_by_impact(medium_net, kind, top_k=10**6)
        assert all(impact >= 0.0 for _, impact in ranked), kind


def test_impact_leaves_network_intact(medium_net):
    net = medium_net.fork()
    net.shock_nodes([net.codes[5]])
    net.shock_edges([(net.codes[0], net.codes[1])])
    nodes, edges = net.active_node_mask, net.active_edge_mask
    for kind in ("nodes", "edges"):
        rank_by_impact(net, kind, top_k=3)
        assert np.array_equal(net.active_node_mask, nodes)
        assert np.array_equal(net.active_edge_mask, edges)


def test_bridge_edge_impact_matches_pairwise_oracle():
    net = two_cliques_bridge()
    bridge = ("E003", "E004")
    n = net.n_nodes
    ref = net.stats().mean_edge_weight
    with np.errstate(divide="ignore"):
        before = 1.0 / all_pairs_costs(net)
    work = net.fork()
    work.shock_edges([bridge])
    with np.errstate(divide="ignore"):
        after = 1.0 / all_pairs_costs(work)
    for m in (before, after):
        np.fill_diagonal(m, 0.0)
        m[np.isinf(m)] = 0.0
    expected = (before - after).sum() / (n * (n - 1)) / ref
    assert impact_of(net, bridge) == pytest.approx(expected, rel=1e-9)


def test_rank_by_impact_star_center_first():
    net = star_network(n_leaves=6)
    ranked = rank_by_impact(net, "nodes", top_k=3)
    assert ranked[0][0] == "CTR"
    assert ranked[0][1] > ranked[1][1]


def test_rank_by_impact_bridge_edge_first():
    # a strong bridge carries every cross-clique pair and has no substitute
    net = two_cliques_bridge(heavy=10.0, bridge=10.0)
    ranked = rank_by_impact(net, "edges", top_k=5)
    assert ranked[0][0] == ("E003", "E004")


def test_rank_by_impact_returns_all_when_k_large():
    net = star_network(n_leaves=4)
    ranked = rank_by_impact(net, "nodes", top_k=99)
    assert len(ranked) == 5
    with pytest.raises(ValueError):
        rank_by_impact(net, "nodes", top_k=0)
