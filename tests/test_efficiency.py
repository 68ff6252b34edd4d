import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from tradeshock import efficiency
from tradeshock import (
    DistanceEngine,
    TradeNetwork,
    build_network,
    network_efficiency,
    rank_by_impact,
    shortest_path_costs,
)

from netgen import (
    active_edges,
    codes_for,
    complete_uniform_network,
    connected_random_network,
    hub_network,
    probe_edges,
    random_network,
    star_network,
    two_cliques_bridge,
)
from oracles import all_pairs_costs, efficiency_oracle


def pair_efficiency(net, source, target):
    """Reciprocal best-route cost from ``source`` to ``target``, 0 when unreachable."""
    return 1.0 / shortest_path_costs(net)[net.index_of(source), net.index_of(target)]


def test_direct_edge_efficiency_is_the_weight():
    net = build_network([("A", "B", 7.5)])
    assert pair_efficiency(net, "A", "B") == 7.5


def test_chain_efficiency_harmonic():
    net = build_network([("A", "B", 2.0), ("B", "C", 2.0)])
    # 1 / (1/2 + 1/2)
    assert pair_efficiency(net, "A", "C") == 1.0


def test_heavy_detour_beats_weak_direct_edge():
    net = build_network([("A", "B", 1.0), ("A", "C", 100.0), ("C", "B", 100.0)])
    # two-hop cost 0.02 < direct cost 1.0
    assert pair_efficiency(net, "A", "B") == pytest.approx(50.0)


def test_unreachable_pair_contributes_zero():
    net = build_network([("A", "B", 3.0)])
    assert pair_efficiency(net, "B", "A") == 0.0


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
    for source, target, _ in active_edges(net)[:10]:
        work = net.fork()
        work.shock_edges([(source, target)])
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


def shock(net: TradeNetwork, elements) -> TradeNetwork:
    """Shock ``elements`` on ``net``, edges before nodes, so no edge goes with its endpoint."""
    net.shock_edges([e for e in elements if not isinstance(e, str)])
    return net.shock_nodes([e for e in elements if isinstance(e, str)])


def replay_restores(net: TradeNetwork, batches: list[list]) -> None:
    """Restore ``batches``, updating an engine and checking it against full recompute after each.

    ``net`` holds every element of ``batches`` shocked; the restores end on the
    network with all of them active again.
    """
    engine = DistanceEngine(net, shortest_path_costs(net))
    for batch in batches:
        net.restore(batch)
        engine.update()
        assert np.array_equal(engine.costs, shortest_path_costs(net)), batch
        assert engine.raw_efficiency == network_efficiency(net).raw_efficiency, batch


@pytest.mark.parametrize("make", INSERTION_FIXTURES.values(), ids=INSERTION_FIXTURES.keys())
def test_insertion_engine_equals_full_recompute_after_every_edge(make):
    net = make()
    edges = [(s, t) for s, t, _ in active_edges(net)]
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
    edges = [(s, t) for s, t, _ in active_edges(net)]
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
    return list(net.codes) + [(s, t) for s, t, _ in active_edges(net)]


def assert_engine_exact(engine: DistanceEngine, label) -> None:
    assert np.array_equal(engine.costs, shortest_path_costs(engine.net)), label
    assert np.array_equal(engine._pair_eff, efficiency._pair_efficiencies(engine.costs)), label
    assert engine.raw_efficiency == network_efficiency(engine.net).raw_efficiency, label


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_remove_equals_full_recompute_after_every_element(make):
    # Each element alone, shocked and updated, then restored and updated.
    net = make()
    nodes, edges = net.active_node_mask, net.active_edge_mask
    intact = shortest_path_costs(net)
    engine = DistanceEngine(net, intact.copy())
    for element in all_elements(net):
        changes = has_tight_row(net, intact, element)
        shock(net, [element])
        engine.update()
        assert_engine_exact(engine, element)
        assert changes or np.array_equal(engine.costs, intact), element
        net.restore([element])
        engine.update()
        assert np.array_equal(engine.costs, intact), element
    assert np.array_equal(net.active_node_mask, nodes)
    assert np.array_equal(net.active_edge_mask, edges)


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_remove_equals_full_recompute_on_batches(make):
    # Batches of 7 at once, each on top of the ones before, until nothing is left.
    net = make()
    edges = [(s, t) for s, t, _ in active_edges(net)]
    for elements, seed in ((edges, 5), (list(net.codes), 6)):
        order = np.random.default_rng(seed).permutation(len(elements)).tolist()
        work = net.fork()
        engine = DistanceEngine(work, shortest_path_costs(work))
        for s in range(0, len(order), 7):
            batch = [elements[k] for k in order[s : s + 7]]
            shock(work, batch)
            engine.update()
            assert_engine_exact(engine, batch)
        assert work.n_active_edges == 0


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_remove_then_restore_gives_back_the_matrix(make):
    net = make()
    elements = all_elements(net)
    intact = shortest_path_costs(net)
    rng = np.random.default_rng(8)
    for _ in range(5):
        batch = [elements[k] for k in rng.choice(len(elements), 7, replace=False)]
        engine = DistanceEngine(net, intact.copy())
        shock(net, batch)
        engine.update()
        net.restore(batch)
        engine.update()
        assert np.array_equal(engine.costs, intact), batch


def test_remove_of_an_edge_tight_in_no_row_changes_nothing():
    # A -> B has length 1, the detour A -> C -> B only 0.2: no shortest path uses A -> B.
    net = build_network([("A", "B", 1.0), ("A", "C", 10.0), ("C", "B", 10.0)])
    intact = shortest_path_costs(net)
    for edge, changes in ((("A", "B"), False), (("A", "C"), True)):
        engine = DistanceEngine(net.fork(), intact.copy())
        engine.net.shock_edges([edge])
        engine.update()
        assert_engine_exact(engine, edge)
        assert np.array_equal(engine.costs, intact) is not changes, edge
    assert dict(rank_by_impact(net, "edges", 3))[("A", "B")] == 0.0


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
    return shock(net.fork(), elements)


def without(engine: DistanceEngine, probes) -> np.ndarray:
    return engine.without(*probe_edges(engine.net, probes), len(probes))


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_without_equals_full_recompute_for_every_element(make, monkeypatch):
    # Every node and every edge in one call: several chunks, the last one partial.
    net = make()
    nodes, edges = net.active_node_mask, net.active_edge_mask
    intact = shortest_path_costs(net)
    engine = DistanceEngine(net, intact.copy())
    elements = all_elements(net)
    live = sum(has_tight_row(net, intact, element) for element in elements)
    assert live > efficiency._PROBES_PER_PASS, live
    calls = []
    mean_pair_efficiency = efficiency._mean_pair_efficiency

    def counted(*args):
        calls.append(args)
        return mean_pair_efficiency(*args)

    monkeypatch.setattr(efficiency, "_mean_pair_efficiency", counted)
    raws = without(engine, [[element] for element in elements])
    monkeypatch.undo()
    # One sum for the probes the seed test settles, one per probe that runs.
    assert len(calls) == 1 + live
    assert isinstance(raws, np.ndarray) and raws.shape == (len(elements),)
    for element, raw in zip(elements, raws.tolist()):
        assert raw == network_efficiency(shocked_fork(net, [element])).raw_efficiency, element
    assert np.array_equal(net.active_node_mask, nodes)
    assert np.array_equal(net.active_edge_mask, edges)
    assert np.array_equal(engine.costs, intact)


def active_elements(net: TradeNetwork) -> list:
    nodes = [net.codes[i] for i in np.flatnonzero(net.active_node_mask)]
    return nodes + [(s, t) for s, t, _ in active_edges(net)]


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_without_of_several_elements_equals_full_recompute(make):
    # Probes of three elements each, on a network shocked since the engine's
    # last update: without() updates it first.
    net = make()
    rng = np.random.default_rng(12)
    engine = DistanceEngine(net, shortest_path_costs(net))
    net.shock_nodes([net.codes[k] for k in rng.choice(net.n_nodes, 2, replace=False)])
    active = active_elements(net)
    probes = [[active[k] for k in rng.choice(len(active), 3, replace=False)] for _ in range(20)]
    for probe, raw in zip(probes, without(engine, probes).tolist()):
        assert raw == network_efficiency(shocked_fork(net, probe)).raw_efficiency, probe
    assert_engine_exact(engine, "after without")


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


def some(elements):
    return st.lists(st.sampled_from(elements), min_size=1, max_size=3, unique=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100)
@given(tie_and_limit_networks(), st.data())
def test_engine_equals_scipy_under_random_removes_restores_and_probes(net, data):
    # A step shocks, restores, or both (restores first, so it may shock an
    # edge the restore brought back), then updates or leaves its change to
    # pile up for a later update; or it measures probes.
    engine = DistanceEngine(net, shortest_path_costs(net))
    shocked: list = []
    for _ in range(data.draw(st.integers(1, 8))):
        step = data.draw(st.sampled_from(["shock", "restore", "mixed", "without"]))
        if step in ("restore", "mixed") and shocked:
            batch = data.draw(some(shocked))
            net.restore(batch)
            shocked = [element for element in shocked if element not in batch]
        active = active_elements(net)
        if step in ("shock", "mixed") and active:
            batch = data.draw(some(active))
            shock(net, batch)
            shocked += batch
        if step == "without" and active:
            probes = data.draw(st.lists(some(active), min_size=1, max_size=9))
            edges = net.active_edge_mask
            for probe, raw in zip(probes, without(engine, probes).tolist()):
                assert raw == network_efficiency(shocked_fork(net, probe)).raw_efficiency, probe
            assert np.array_equal(net.active_edge_mask, edges)
        elif data.draw(st.booleans()):
            engine.update()
        if np.array_equal(engine.mask, net.active_edge_mask):
            assert np.array_equal(engine.costs, shortest_path_costs(net)), step
    engine.update()
    assert_engine_exact(engine, "last update")


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_one_update_after_several_mixed_mask_changes_equals_full_recompute(make):
    # Each round makes one to three mask changes, each restoring up to 7
    # shocked elements and shocking up to 7 active ones, then updates once.
    net = make()
    rng = np.random.default_rng(10)
    engine = DistanceEngine(net, shortest_path_costs(net))
    shocked: list = []
    for round_ in range(6):
        for _ in range(int(rng.integers(1, 4))):
            batch = [shocked[k] for k in rng.permutation(len(shocked))[: rng.integers(0, 8)]]
            net.restore(batch)
            shocked = [element for element in shocked if element not in batch]
            active = active_elements(net)
            batch = [active[k] for k in rng.permutation(len(active))[: rng.integers(0, 8)]]
            shock(net, batch)
            shocked += batch
        engine.update()
        assert_engine_exact(engine, round_)


@pytest.mark.parametrize("make", REMOVAL_FIXTURES.values(), ids=REMOVAL_FIXTURES.keys())
def test_engine_graph_arrays_equal_scipy_csr_and_csc(make):
    # After each batch of random removals, the engine's out-edges are scipy's
    # CSR of the active length graph, and its in-edges that CSR's CSC.
    net = make()
    rng = np.random.default_rng(9)
    engine = DistanceEngine(net, shortest_path_costs(net))
    while net.n_active_edges:
        edges = [(s, t) for s, t, _ in active_edges(net)]
        nodes = [net.codes[i] for i in np.flatnonzero(net.active_node_mask)]
        batch = [edges[k] for k in rng.choice(len(edges), min(3, len(edges)), replace=False)]
        batch.append(nodes[rng.integers(len(nodes))])
        shock(net, batch)
        engine.update()
        mask = net.active_edge_mask
        lengths = np.zeros(mask.shape)
        lengths[mask] = 1.0 / net.baseline_weights[mask]
        out = csr_matrix(lengths)
        into = out.tocsc()
        into.sort_indices()
        for got, want in zip(engine_rows(engine), (out, into)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def engine_rows(engine: DistanceEngine) -> tuple:
    """The out-edges and in-edges of the engine's active edges, built from edge positions."""
    return tuple(efficiency._rows(engine._active, *rows) for rows in (engine._out, engine._in))


def assert_rows_equal_length_graph(engine: DistanceEngine, label) -> None:
    mask, lengths = engine.net.active_edge_mask, engine.net.baseline_lengths
    assert np.array_equal(engine.mask, mask), label
    oracle = efficiency._length_graph(mask, lengths), efficiency._length_graph(mask.T, lengths.T)
    for got, want in zip(engine_rows(engine), oracle):
        for field, got_array, want_array in zip(want._fields, got, want):
            assert np.array_equal(got_array, want_array), (label, field)


def check_rows_from_edge_positions(net: TradeNetwork, edges: list, nodes: list) -> None:
    """Shock ``edges``, then ``nodes``; an engine updated to that state and one built on it
    both hold the rows ``_length_graph`` takes from the active edge mask."""
    engine = DistanceEngine(net, shortest_path_costs(net))
    assert_rows_equal_length_graph(engine, "baseline")
    net.shock_edges(edges).shock_nodes(nodes)
    engine.update()
    assert_rows_equal_length_graph(engine, "updated")
    assert_rows_equal_length_graph(DistanceEngine(net, shortest_path_costs(net)), "built")


ROW_STATES = {
    "shocked_nodes": (lambda: random_network(np.random.default_rng(21), 12, 0.4), [], [1, 5, 9]),
    "edges_alone": (lambda: random_network(np.random.default_rng(22), 12, 0.4), 5, []),
    "edge_and_endpoint": (two_cliques_bridge, [(0, 1), (3, 4), (5, 4)], [0, 4]),
    "isolated_node": (isolated_node_network, 3, [7]),
    "every_edge_shocked": (star_network, "all", []),
    "every_node_shocked": (star_network, [(0, 1)], "all"),
}


@pytest.mark.parametrize("make, edges, nodes", ROW_STATES.values(), ids=ROW_STATES.keys())
def test_rows_from_edge_positions_equal_length_graph(make, edges, nodes):
    net = make()
    active = [(s, t) for s, t, _ in active_edges(net)]
    if edges == "all":
        edges = active
    elif isinstance(edges, int):
        edges = [active[k] for k in np.random.default_rng(23).permutation(len(active))[:edges]]
    else:
        edges = [(net.code_of(i), net.code_of(j)) for i, j in edges]
    nodes = list(net.codes) if nodes == "all" else [net.code_of(i) for i in nodes]
    check_rows_from_edge_positions(net, edges, nodes)


@settings(max_examples=200)
@given(st.integers(2, 7), st.data())
def test_rows_from_edge_positions_equal_length_graph_on_drawn_states(n, data):
    drawn = data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n * n, max_size=n * n))
    weights = np.array(drawn).reshape(n, n)
    np.fill_diagonal(weights, 0.0)
    net = TradeNetwork(codes_for(n), weights)
    active = [(s, t) for s, t, _ in active_edges(net)]
    edges = data.draw(st.lists(st.sampled_from(active), unique=True)) if active else []
    nodes = data.draw(st.lists(st.sampled_from(net.codes), unique=True))
    check_rows_from_edge_positions(net, edges, nodes)


@pytest.mark.parametrize("element, whole", [(("H00", "P004"), False), ("H03", True)])
def test_pair_efficiencies_are_rewritten_where_changed_or_all_at_once(element, whole, monkeypatch):
    # An edge into a leaf changes a few entries, which are rewritten one by
    # one; a hub changes more than an eighth of them, and the whole matrix is
    # recomputed. The shock removes, the restore inserts.
    net = hub_network(n=41, n_hubs=5)
    engine = DistanceEngine(net, shortest_path_costs(net))
    calls = []
    pair_efficiencies = efficiency._pair_efficiencies
    monkeypatch.setattr(
        efficiency, "_pair_efficiencies", lambda costs: calls.append(1) or pair_efficiencies(costs)
    )
    for flip in (shock, TradeNetwork.restore):
        before = engine.costs.copy()
        flip(net, [element])
        calls.clear()
        engine.update()
        assert len(calls) == whole, flip
        assert not np.array_equal(engine.costs, before), flip
        assert_engine_exact(engine, flip)


def test_restoring_an_endpoint_leaves_an_edge_shocked_itself_inactive():
    net = two_cliques_bridge()
    engine = DistanceEngine(net, shortest_path_costs(net))
    net.shock_edges([("E000", "E001")]).shock_nodes(["E000"])
    engine.update()
    net.restore(["E000"])
    engine.update()
    assert not engine.mask[0, 1] and engine.mask[0, 2] and engine.mask[1, 0]
    assert_engine_exact(engine, "endpoint restored")
    net.restore([("E000", "E001")])
    engine.update()
    assert engine.mask[0, 1]
    assert_engine_exact(engine, "edge restored")


def test_engine_builds_no_scipy_sparse_object(monkeypatch):
    net = two_cliques_bridge()
    engine = DistanceEngine(net, shortest_path_costs(net))

    def refuse(*args, **kwargs):
        raise AssertionError("the engine built a scipy sparse matrix")

    monkeypatch.setattr(efficiency, "csr_matrix", refuse)
    for batch in ([("E003", "E004")], ["E002"], [("E000", "E001"), "E005"]):
        intact = engine.costs.copy()
        shock(net, batch)
        engine.update()
        assert not np.array_equal(engine.costs, intact)  # every batch changes some distance
        net.restore(batch)
        engine.update()
        assert np.array_equal(engine.costs, intact)
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
