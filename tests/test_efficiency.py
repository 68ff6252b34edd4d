import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from tradeshock import efficiency
from tradeshock import (
    DistanceEngine,
    ShockStateError,
    TradeNetwork,
    build_network,
    network_efficiency,
    path_efficiency,
    rank_by_impact,
    shortest_path_costs,
)

from netgen import (
    codes_for,
    complete_uniform_network,
    connected_random_network,
    hub_network,
    random_network,
    star_network,
    two_cliques_bridge,
)
from oracles import all_pairs_costs, efficiency_oracle


def test_direct_edge_efficiency_is_the_weight():
    net = build_network([("A", "B", 7.5)])
    assert path_efficiency(net, "A", "B") == 7.5


def test_chain_efficiency_harmonic():
    net = build_network([("A", "B", 2.0), ("B", "C", 2.0)])
    # 1 / (1/2 + 1/2)
    assert path_efficiency(net, "A", "C") == 1.0


def test_heavy_detour_beats_weak_direct_edge():
    net = build_network([("A", "B", 1.0), ("A", "C", 100.0), ("C", "B", 100.0)])
    # two-hop cost 0.02 < direct cost 1.0
    assert path_efficiency(net, "A", "B") == pytest.approx(50.0)


def test_unreachable_pair_contributes_zero():
    net = build_network([("A", "B", 3.0)])
    assert path_efficiency(net, "B", "A") == 0.0


def test_same_node_pair_rejected():
    net = build_network([("A", "B", 3.0)])
    with pytest.raises(ValueError):
        path_efficiency(net, "A", "A")


def test_two_node_single_edge_closed_form():
    net = build_network([("A", "B", 8.0)])
    result = network_efficiency(net)
    assert result.raw_efficiency == pytest.approx(4.0, abs=1e-12)
    assert result.normalized_efficiency == pytest.approx(0.5, abs=1e-12)


def test_complete_uniform_digraph_normalizes_to_one():
    net = complete_uniform_network(5, weight=3.0)
    result = network_efficiency(net)
    assert result.raw_efficiency == pytest.approx(3.0, abs=1e-12)
    assert result.normalized_efficiency == pytest.approx(1.0, abs=1e-12)


def test_empty_edge_set_is_zero():
    net = TradeNetwork(codes_for(4), np.zeros((4, 4)))
    result = network_efficiency(net)
    assert result.raw_efficiency == 0.0
    assert result.normalized_efficiency == 0.0
    assert not result.degenerate


def test_single_node_network_is_degenerate_zero():
    net = TradeNetwork(("A",), np.zeros((1, 1)))
    result = network_efficiency(net)
    assert result.degenerate
    assert result.raw_efficiency == 0.0


def test_denominator_keeps_full_node_count_under_masking():
    net = build_network([("A", "B", 4.0), ("B", "C", 4.0)])
    net.shock_nodes(["C"])
    result = network_efficiency(net)
    # only A->B survives, but the averaging set stays all N(N-1)=6 pairs
    assert result.raw_efficiency == pytest.approx(4.0 / 6.0, abs=1e-15)


def test_matches_enumeration_oracle_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(30):
        net = random_network(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)))
        assert network_efficiency(net).raw_efficiency == pytest.approx(
            efficiency_oracle(net), abs=1e-12
        )
        assert np.array_equal(shortest_path_costs(net), all_pairs_costs(net))


def test_scale_linearity():
    rng = np.random.default_rng(8)
    net = random_network(rng, 10, 0.4)
    base = network_efficiency(net).raw_efficiency
    for c in (1e-3, 7.0, 1e6):
        scaled = TradeNetwork(net.codes, net.baseline_weights * c)
        assert network_efficiency(scaled).raw_efficiency == pytest.approx(
            c * base, rel=1e-12
        )


def test_edge_removal_never_increases_efficiency():
    rng = np.random.default_rng(13)
    net = random_network(rng, 9, 0.5)
    base = network_efficiency(net).raw_efficiency
    for edge in list(net.active_edges())[:10]:
        work = net.fork()
        work.shock_edges([(edge.source, edge.target)])
        assert network_efficiency(work).raw_efficiency <= base


def test_symmetric_network_has_symmetric_pair_efficiencies():
    rng = np.random.default_rng(2)
    w = rng.uniform(1.0, 5.0, (6, 6))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    net = TradeNetwork(codes_for(6), w)
    costs = shortest_path_costs(net)
    assert np.array_equal(costs, costs.T)


def test_result_fields_consistent():
    rng = np.random.default_rng(77)
    net = random_network(rng, 7, 0.6)
    result = network_efficiency(net)
    assert result.normalized_efficiency == result.raw_efficiency / result.reference_mean_weight
    assert result.raw_efficiency >= 0.0
    assert math.isfinite(result.raw_efficiency)


def extreme_weight_network() -> TradeNetwork:
    """Weights of 1e-9 and 1e12 beside ordinary ones: long and short lengths absorb each other."""
    rng = np.random.default_rng(5)
    weights = rng.choice([1e-9, 1e12, 1.0, 3.7], size=(12, 12))
    weights[rng.random((12, 12)) < 0.6] = 0.0
    np.fill_diagonal(weights, 0.0)
    return TradeNetwork(codes_for(12), weights)


def isolated_node_network() -> TradeNetwork:
    """A random network in which one node has no edge at all."""
    net = random_network(np.random.default_rng(31), 12, 0.4)
    weights = net.baseline_weights.copy()
    weights[4, :] = weights[:, 4] = 0.0
    return TradeNetwork(net.codes, weights)


INSERTION_FIXTURES = {
    "star": star_network,
    "bridge": two_cliques_bridge,
    "sparse60": lambda: random_network(np.random.default_rng(7), 60, 0.03),  # unreachable pairs
    "hub41": lambda: hub_network(n=41, n_hubs=5),
    "extreme_weights": extreme_weight_network,
    "isolated_node": isolated_node_network,
}


def replay_restores(net: TradeNetwork, batches: list[list]) -> None:
    """Restore ``batches`` through an engine, checking it against full recompute after each.

    ``net`` holds every element of ``batches`` shocked; the restores end on the
    network with all of them active again.
    """
    engine = DistanceEngine(net, shortest_path_costs(net))
    for batch in batches:
        engine.restore(batch)
        assert np.array_equal(engine.costs, shortest_path_costs(net)), batch
        assert engine.raw_efficiency == network_efficiency(net).raw_efficiency, batch


@pytest.mark.parametrize("make", INSERTION_FIXTURES.values(), ids=INSERTION_FIXTURES.keys())
def test_insertion_engine_equals_full_recompute_after_every_edge(make):
    net = make()
    edges = [(e.source, e.target) for e in net.active_edges()]
    order = np.random.default_rng(3).permutation(len(edges)).tolist()
    work = net.fork().shock_edges(edges)
    replay_restores(work, [[edges[k]] for k in order])
    assert np.array_equal(work.active_edge_mask, net.active_edge_mask)


@pytest.mark.parametrize("make", INSERTION_FIXTURES.values(), ids=INSERTION_FIXTURES.keys())
def test_insertion_engine_equals_full_recompute_after_every_node(make):
    # Each restored node revives its edges to the nodes already back.
    net = make()
    order = np.random.default_rng(4).permutation(net.n_nodes).tolist()
    work = net.fork().shock_nodes(net.codes)
    replay_restores(work, [[net.code_of(k)] for k in order])


@pytest.mark.parametrize("make", INSERTION_FIXTURES.values(), ids=INSERTION_FIXTURES.keys())
def test_insertion_engine_equals_full_recompute_on_batches(make):
    net = make()
    edges = [(e.source, e.target) for e in net.active_edges()]
    order = np.random.default_rng(5).permutation(len(edges)).tolist()
    work = net.fork().shock_edges(edges)
    replay_restores(work, [[edges[k] for k in order[s : s + 7]] for s in range(0, len(order), 7)])


def test_insertion_engine_on_a_batch_of_edges_into_one_head():
    # Every row gets a candidate from each new edge into the head; the least must win.
    net = random_network(np.random.default_rng(11), 40, 0.5)
    for head in range(0, 40, 7):
        into_head = [
            (net.code_of(int(i)), net.code_of(head))
            for i in np.flatnonzero(net.active_edge_mask[:, head])
        ]
        work = net.fork().shock_edges(into_head)
        replay_restores(work, [into_head])


def test_insertion_engine_absorbs_lengths_below_half_an_ulp():
    # fl(d + 1e-12) == d once d passes about 1e4: a long detour (1e9) in front
    # of a chain of 1e12 weights leaves the chain's later entries equal.
    n = 6
    weights = np.zeros((n, n))
    weights[0, 1] = 1e-9
    for k in range(1, n - 1):
        weights[k, k + 1] = 1e12
    weights[0, n - 1] = 1e-9 / 2.0
    net = TradeNetwork(codes_for(n), weights)
    work = net.fork().shock_edges([("E000", "E001")])
    replay_restores(work, [[("E000", "E001")]])
    costs = shortest_path_costs(net)
    assert costs[0, n - 1] == costs[0, 1]  # each 1e-12 step rounds back to about 1e9


REMOVAL_FIXTURES = {
    **INSERTION_FIXTURES,
    "connected20": lambda: connected_random_network(np.random.default_rng(100), 20, 0.2),
}


def all_elements(net: TradeNetwork) -> list:
    return list(net.codes) + [(e.source, e.target) for e in net.active_edges()]


def assert_engine_exact(engine: DistanceEngine, label) -> None:
    assert np.array_equal(engine.costs, shortest_path_costs(engine.net)), label
    assert engine.raw_efficiency == network_efficiency(engine.net).raw_efficiency, label


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_remove_equals_full_recompute_after_every_element(make):
    # Each element alone, put back by writing the saved matrix back and
    # restoring the masks.
    net = make()
    nodes, edges = net.active_node_mask, net.active_edge_mask
    intact = shortest_path_costs(net)
    engine = DistanceEngine(net, intact.copy())
    for element in all_elements(net):
        if not engine.remove([element]):
            assert np.array_equal(engine.costs, intact), element
        assert_engine_exact(engine, element)
        np.copyto(engine.costs, intact)
        net.restore([element])
    assert np.array_equal(net.active_node_mask, nodes)
    assert np.array_equal(net.active_edge_mask, edges)


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_remove_equals_full_recompute_on_batches(make):
    # Batches of 7 at once, each on top of the ones before, until nothing is left.
    net = make()
    edges = [(e.source, e.target) for e in net.active_edges()]
    for elements, seed in ((edges, 5), (list(net.codes), 6)):
        order = np.random.default_rng(seed).permutation(len(elements)).tolist()
        work = net.fork()
        engine = DistanceEngine(work, shortest_path_costs(work))
        for s in range(0, len(order), 7):
            batch = [elements[k] for k in order[s : s + 7]]
            engine.remove(batch)
            assert_engine_exact(engine, batch)
        assert work.n_active_edges == 0


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_remove_then_restore_gives_back_the_matrix(make):
    net = make()
    elements = all_elements(net)
    intact = shortest_path_costs(net)
    rng = np.random.default_rng(8)
    for _ in range(5):
        # Edges before nodes, so no edge is shocked through an endpoint already removed.
        batch = sorted(
            (elements[k] for k in rng.choice(len(elements), 7, replace=False)),
            key=lambda element: isinstance(element, str),
        )
        engine = DistanceEngine(net, intact.copy())
        engine.remove(batch)
        engine.restore(batch)
        assert np.array_equal(engine.costs, intact), batch


def test_remove_of_an_edge_tight_in_no_row_changes_nothing():
    # A -> B has length 1, the detour A -> C -> B only 0.2: no shortest path uses A -> B.
    net = build_network([("A", "B", 1.0), ("A", "C", 10.0), ("C", "B", 10.0)])
    intact = shortest_path_costs(net)
    engine = DistanceEngine(net.fork(), intact.copy())
    assert engine.remove([("A", "B")]) is False
    assert np.array_equal(engine.costs, intact)
    assert_engine_exact(engine, ("A", "B"))
    assert DistanceEngine(net.fork(), intact.copy()).remove([("A", "C")]) is True
    assert dict(rank_by_impact(net, "edges", 3))[("A", "B")] == 0.0


@pytest.mark.parametrize(
    "batch, error, message",
    [
        ([("A", "B"), "ZZZ"], ValueError, "unknown economy 'ZZZ'"),
        (["C", ("C", "A")], ShockStateError, "edge 'C' -> 'A' is inactive via a shocked endpoint"),
    ],
)
def test_a_rejected_removal_leaves_masks_and_costs_as_they_were(batch, error, message):
    # The batch fails at its second element, after the first has been shocked.
    net = build_network([("A", "B", 1.0), ("B", "C", 2.0), ("C", "A", 4.0)])
    nodes, edges = net.active_node_mask, net.active_edge_mask
    intact = shortest_path_costs(net)
    engine = DistanceEngine(net, intact.copy())
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        engine.remove(batch)
    assert np.array_equal(net.active_node_mask, nodes)
    assert np.array_equal(net.active_edge_mask, edges)
    assert np.array_equal(engine.costs, intact)
    assert_engine_exact(engine, batch)


def has_tight_row(net: TradeNetwork, costs: np.ndarray, element) -> bool:
    """Whether some row has an edge that ``element`` removes tight: the phase-1 seed test."""
    removed = np.zeros_like(net.active_edge_mask)
    if isinstance(element, str):
        i = net.index_of(element)
        removed[i, :] = removed[:, i] = True
    else:
        removed[net.index_of(element[0]), net.index_of(element[1])] = True
    tails, heads = np.nonzero(removed & net.active_edge_mask)
    candidates = costs[:, tails] + net.baseline_lengths[tails, heads]
    return bool(((candidates == costs[:, heads]) & np.isfinite(candidates)).any())


def shocked_fork(net: TradeNetwork, elements) -> TradeNetwork:
    """A fork with ``elements`` shocked, edges before nodes, so no edge goes with its endpoint."""
    work = net.fork()
    work.shock_edges([e for e in elements if not isinstance(e, str)])
    return work.shock_nodes([e for e in elements if isinstance(e, str)])


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_without_equals_full_recompute_for_every_element(make):
    # Every node and every edge in one call: several chunks, the last one partial.
    net = make()
    nodes, edges = net.active_node_mask, net.active_edge_mask
    intact = shortest_path_costs(net)
    engine = DistanceEngine(net, intact.copy())
    elements = all_elements(net)
    raws = engine.without([[element] for element in elements])
    assert len(raws) == len(elements)
    live = sum(raw is not None for raw in raws)
    assert live > efficiency._PROBES_PER_PASS, live
    for element, raw in zip(elements, raws):
        assert (raw is not None) == has_tight_row(net, intact, element), element
        full = network_efficiency(shocked_fork(net, [element])).raw_efficiency
        assert (engine.raw_efficiency if raw is None else raw) == full, element
    assert np.array_equal(net.active_node_mask, nodes)
    assert np.array_equal(net.active_edge_mask, edges)
    assert np.array_equal(engine.costs, intact)


def active_elements(net: TradeNetwork) -> list:
    nodes = [net.codes[i] for i in np.flatnonzero(net.active_node_mask)]
    return nodes + [(e.source, e.target) for e in net.active_edges()]


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_without_of_several_elements_equals_full_recompute(make):
    # Probes of three elements each, on a network that is already partly shocked.
    net = make()
    rng = np.random.default_rng(12)
    engine = DistanceEngine(net, shortest_path_costs(net))
    engine.remove([net.codes[k] for k in rng.choice(net.n_nodes, 2, replace=False)])
    active = active_elements(net)
    probes = [[active[k] for k in rng.choice(len(active), 3, replace=False)] for _ in range(20)]
    costs = engine.costs.copy()
    for probe, raw in zip(probes, engine.without(probes)):
        full = network_efficiency(shocked_fork(net, probe)).raw_efficiency
        assert (engine.raw_efficiency if raw is None else raw) == full, probe
    assert np.array_equal(engine.costs, costs)


@pytest.mark.parametrize(
    "probe, error, message",
    [
        ([("A", "B"), "ZZZ"], ValueError, "unknown economy 'ZZZ'"),
        (["C"], ShockStateError, "node 'C' is not active"),
        ([("C", "A")], ShockStateError, "edge 'C' -> 'A' is not active"),
        ([("A", "C")], ShockStateError, "edge 'A' -> 'C' is not active"),
    ],
)
def test_without_rejects_unknown_and_inactive_elements(probe, error, message):
    net = build_network([("A", "B", 1.0), ("B", "C", 2.0), ("C", "A", 4.0), ("B", "A", 8.0)])
    engine = DistanceEngine(net, shortest_path_costs(net))
    engine.remove(["C"])
    nodes, edges, costs = net.active_node_mask, net.active_edge_mask, engine.costs.copy()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        engine.without([[("B", "A")], probe])
    assert np.array_equal(net.active_node_mask, nodes)
    assert np.array_equal(net.active_edge_mask, edges)
    assert np.array_equal(engine.costs, costs)


# No edge; lengths 2, 1 and 0.5, whose paths tie exactly; 1e-9 and 1e12, whose
# lengths absorb each other (fl(1e9 + 1e-12) == 1e9); and weights near the
# float64 limits: 5.6e-309 has a length of 1.79e308, so two such hops sum to
# inf, and 1e305 keeps 30 edges' total volume and pair efficiencies finite.
PROPERTY_WEIGHTS = st.one_of(
    st.none(), st.sampled_from([0.5, 1.0, 2.0, 1e-9, 1e12, 5.6e-309, 1e305])
)


@st.composite
def tie_and_limit_networks(draw) -> TradeNetwork:
    n = draw(st.integers(2, 6))
    drawn = draw(st.lists(PROPERTY_WEIGHTS, min_size=n * n, max_size=n * n))
    weights = np.array([0.0 if w is None else w for w in drawn]).reshape(n, n)
    np.fill_diagonal(weights, 0.0)
    return TradeNetwork(codes_for(n), weights)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100)
@given(tie_and_limit_networks(), st.data())
def test_engine_equals_scipy_under_random_removes_restores_and_probes(net, data):
    engine = DistanceEngine(net, shortest_path_costs(net))
    shocked: list = []
    for _ in range(data.draw(st.integers(1, 8))):
        active = active_elements(net)
        step = data.draw(st.sampled_from(["remove", "restore", "without"]))
        if step == "remove" and active:
            batch = data.draw(st.lists(st.sampled_from(active), min_size=1, max_size=3, unique=True))
            batch.sort(key=lambda element: isinstance(element, str))  # edges before nodes
            costs = engine.costs.copy()
            if not engine.remove(batch):
                assert np.array_equal(engine.costs, costs), batch
            shocked += batch
        elif step == "restore" and shocked:
            batch = data.draw(st.lists(st.sampled_from(shocked), min_size=1, max_size=3, unique=True))
            engine.restore(batch)
            shocked = [element for element in shocked if element not in batch]
        elif step == "without" and active:
            probe = st.lists(st.sampled_from(active), min_size=1, max_size=3, unique=True)
            probes = data.draw(st.lists(probe, min_size=1, max_size=9))
            costs, edges = engine.costs.copy(), net.active_edge_mask
            for probe, raw in zip(probes, engine.without(probes)):
                full = network_efficiency(shocked_fork(net, probe)).raw_efficiency
                assert (engine.raw_efficiency if raw is None else raw) == full, probe
            assert np.array_equal(engine.costs, costs)
            assert np.array_equal(net.active_edge_mask, edges)
        assert np.array_equal(engine.costs, shortest_path_costs(net)), step


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_engine_graph_arrays_equal_scipy_csr_and_csc(make):
    # After each batch of random removals, the engine's out-edges are scipy's
    # CSR of the active length graph, and its in-edges that CSR's CSC.
    net = make()
    rng = np.random.default_rng(9)
    engine = DistanceEngine(net, shortest_path_costs(net))
    while net.n_active_edges:
        edges = [(e.source, e.target) for e in net.active_edges()]
        nodes = [net.codes[i] for i in np.flatnonzero(net.active_node_mask)]
        batch = [edges[k] for k in rng.choice(len(edges), min(3, len(edges)), replace=False)]
        batch.append(nodes[rng.integers(len(nodes))])  # after the edges: none behind it
        engine.remove(batch)
        mask = net.active_edge_mask
        lengths = np.zeros(mask.shape)
        lengths[mask] = 1.0 / net.baseline_weights[mask]
        out = csr_matrix(lengths)
        into = out.tocsc()
        into.sort_indices()
        for got, want in ((engine._out_edges(mask), out), (engine._in_edges(mask), into)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def test_engine_builds_no_scipy_sparse_object(monkeypatch):
    net = two_cliques_bridge()
    engine = DistanceEngine(net, shortest_path_costs(net))

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built a scipy sparse matrix")

    monkeypatch.setattr(efficiency, "csr_matrix", refuse)
    for batch in ([("E003", "E004")], ["E002"], [("E000", "E001"), "E005"]):
        assert engine.remove(batch) is True  # every batch changes some distance
        costs = engine.costs.copy()
        engine.restore(batch)
        assert not np.array_equal(engine.costs, costs)
    monkeypatch.undo()
    assert_engine_exact(engine, "restored")


def test_impact_runs_one_all_pairs_dijkstra(monkeypatch):
    net = two_cliques_bridge()
    calls: list = []
    dijkstra = efficiency.dijkstra

    def recording(graph, *args, indices=None, **kwargs):
        calls.append(indices)
        return dijkstra(graph, *args, indices=indices, **kwargs)

    monkeypatch.setattr(efficiency, "dijkstra", recording)
    for target in ("nodes", "edges"):
        calls.clear()
        rank_by_impact(net, target, 3)
        assert calls == [None], target


def test_distance_engine_rejects_a_single_node_network():
    net = TradeNetwork(("A",), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="2 nodes"):
        DistanceEngine(net, shortest_path_costs(net))
