import tracemalloc
import warnings

import numpy as np
import pytest

from tradeshock import centrality
from tradeshock import (
    EDGE_INDICATORS,
    NODE_INDICATORS,
    IndicatorKind,
    ScenarioConfig,
    TradeNetwork,
    betweenness,
    build_network,
    closeness,
    clustering,
    degree,
    detect_communities,
    hits,
    module_indicators,
    pagerank,
    rank_by_impact,
    rank_edges,
    rank_nodes,
    run_shock_recovery,
    shortest_path_costs,
    strength,
)

from netgen import (
    active_edges,
    codes_for,
    complete_uniform_network,
    connected_random_network,
    hub_network,
    random_network,
    star_network,
    two_cliques_bridge,
)
from oracles import (
    betweenness_oracle,
    closeness_oracle,
    dict_louvain_sweeps,
    heap_betweenness,
    sorted_rank_by_impact,
    sorted_rank_edges,
    sorted_rank_nodes,
)


# -- degree / strength ------------------------------------------------------


def test_star_degrees():
    net = star_network(n_leaves=4)
    out = degree(net, "out")
    assert out[net.index_of("CTR")] == 4.0
    assert degree(net, "in")[net.index_of("CTR")] == 4.0
    assert out[net.index_of("LF0")] == 1.0


def test_strength_sums_weights():
    net = build_network([("A", "B", 3.0), ("A", "C", 7.0), ("B", "A", 1.0)])
    assert strength(net, "out")[net.index_of("A")] == 10.0
    assert strength(net, "in")[net.index_of("A")] == 1.0


def test_isolated_node_scores_zero():
    net = build_network([("A", "B", 3.0), ("C", "C", 1.0)])
    i = net.index_of("C")
    assert degree(net, "out")[i] == 0.0
    assert strength(net, "in")[i] == 0.0
    assert closeness(net, "in")[i] == 0.0


def test_direction_argument_validated():
    net = build_network([("A", "B", 3.0)])
    with pytest.raises(ValueError):
        degree(net, "sideways")


# -- closeness ---------------------------------------------------------------


def test_closeness_three_node_chain_hand_table():
    net = build_network([("A", "B", 2.0), ("B", "C", 4.0)])
    # distances: A->B 0.5, B->C 0.25, A->C 0.75; everything else unreachable
    out = closeness(net, "out")
    assert out[net.index_of("A")] == pytest.approx((2.0 + 1 / 0.75) / 2.0)
    assert out[net.index_of("B")] == pytest.approx(4.0 / 2.0)
    assert out[net.index_of("C")] == 0.0
    inn = closeness(net, "in")
    assert inn[net.index_of("A")] == 0.0
    assert inn[net.index_of("C")] == pytest.approx((4.0 + 1 / 0.75) / 2.0)


def test_closeness_of_a_single_economy_is_zero():
    net = build_network([("A", "A", 5.0)])  # a self-loop keeps its code as the one node
    for direction in ("out", "in"):
        assert closeness(net, direction).tolist() == [0.0]


def test_closeness_uniform_complete_is_symmetric():
    net = complete_uniform_network(5, 2.0)
    for direction in ("out", "in"):
        scores = closeness(net, direction)
        assert np.allclose(scores, scores[0])


def test_closeness_matches_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        net = random_network(rng, int(rng.integers(2, 8)), float(rng.uniform(0.2, 0.9)))
        for direction in ("out", "in"):
            assert np.array_equal(closeness(net, direction), closeness_oracle(net, direction))


# -- betweenness -------------------------------------------------------------


def test_betweenness_chain_middle_node():
    net = build_network([("A", "B", 2.0), ("B", "C", 2.0)])
    scores = betweenness(net)
    assert scores[net.index_of("B")] == 1.0  # the single (A, C) pair
    assert scores[net.index_of("A")] == 0.0


def test_betweenness_complete_uniform_is_zero():
    net = complete_uniform_network(5, 2.0)
    assert np.array_equal(betweenness(net), np.zeros(5))


def test_betweenness_splits_between_tied_paths():
    # two equal-cost two-hop routes A->B->D and A->C->D, no direct edge
    net = build_network(
        [("A", "B", 2.0), ("B", "D", 2.0), ("A", "C", 2.0), ("C", "D", 2.0)]
    )
    scores = betweenness(net)
    assert scores[net.index_of("B")] == 0.5
    assert scores[net.index_of("C")] == 0.5


def test_betweenness_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        net = random_network(rng, int(rng.integers(2, 8)), float(rng.uniform(0.2, 0.9)))
        assert np.array_equal(betweenness(net), betweenness_oracle(net))


def shocked_fork() -> TradeNetwork:
    """A strongly connected 30-node net with two nodes and every 7th edge shocked."""
    net = connected_random_network(np.random.default_rng(17), 30).fork()
    net.shock_nodes(["E003", "E011"])
    net.shock_edges([(s, t) for s, t, _ in active_edges(net)][::7])
    return net


def extreme_self_loops() -> TradeNetwork:
    """Self-loops of every weight class, one of them too short to lengthen any path."""
    rng = np.random.default_rng(8)
    weights = rng.choice([1e-9, 1.0, 3.0, 1e12], size=(12, 12))
    weights[rng.random((12, 12)) < 0.5] = 0.0
    np.fill_diagonal(weights, [1e12, 1e-9, 1.0, 3.0] * 3)
    return TradeNetwork(codes_for(12), weights)


def half_ulp_tie() -> TradeNetwork:
    """E000 -> E002 has length 2**53, and 2**53 + 1 rounds back to 2**53.

    So E001, reached only through E002, ties with it on distance yet must
    settle after it.
    """
    weights = np.zeros((3, 3))
    weights[0, 2] = 2.0**-53
    weights[2, 1] = 1.0
    return TradeNetwork(codes_for(3), weights)


def uniform_ring(n: int = 30) -> TradeNetwork:
    """A two-way ring of equal weights: many tied paths, and Louvain moves that tie with staying."""
    weights = np.zeros((n, n))
    for i in range(n):
        weights[i, (i + 1) % n] = weights[(i + 1) % n, i] = 1.0
    return TradeNetwork(codes_for(n), weights)


def no_active_edge() -> TradeNetwork:
    net = complete_uniform_network(4).fork()
    net.shock_nodes(net.codes)
    return net


DIFFERENTIAL_NETS = {
    "star": star_network,
    "complete_uniform": lambda: complete_uniform_network(8),
    "bridge": two_cliques_bridge,
    "hub41": lambda: hub_network(n=41, n_hubs=5),
    "ring100": lambda: connected_random_network(np.random.default_rng(23), 100, 0.3),
    "shocked_fork": shocked_fork,
    "self_loops": extreme_self_loops,
    "half_ulp_tie": half_ulp_tie,
    "uniform_ring": uniform_ring,
    "no_active_edge": no_active_edge,
}


@pytest.mark.parametrize("make", DIFFERENTIAL_NETS.values(), ids=DIFFERENTIAL_NETS.keys())
def test_betweenness_equals_heap_reference(make):
    net = make()
    assert np.array_equal(betweenness(net), heap_betweenness(net))


def test_betweenness_equals_heap_reference_with_extreme_weights():
    """1/w of 1e-12 vanishes beside a distance of 1e9: tight edges join nodes at one distance."""
    rng = np.random.default_rng(2024)
    for _ in range(400):
        weights = rng.choice([1e-9, 1.0, 3.0, 1e12, 2e12], size=(12, 12))
        weights[rng.random((12, 12)) < 0.6] = 0.0
        np.fill_diagonal(weights, 0.0)
        net = TradeNetwork(codes_for(12), weights)
        assert np.array_equal(betweenness(net), heap_betweenness(net))


def test_betweenness_emits_no_runtime_warning():
    net = random_network(np.random.default_rng(3), 40, 0.06)
    assert not net.active_edge_mask.any(axis=1).all()  # sink nodes, so unreachable pairs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = betweenness(net)
    assert np.array_equal(scores, heap_betweenness(net))


def parallel_chain(widths: list[int]) -> TradeNetwork:
    """Junctions joined by ``width`` parallel two-hop routes each, all of weight 1.

    The last junction is reached from the first by prod(widths) shortest paths.
    """
    records = []
    for k, width in enumerate(widths):
        for m in range(width):
            records += [(f"J{k:03d}", f"M{k:03d}_{m}", 1.0), (f"M{k:03d}_{m}", f"J{k + 1:03d}", 1.0)]
    return build_network(records)


def test_betweenness_counts_paths_exactly_up_to_the_limit():
    net = parallel_chain([2] * 62)  # 2**62 shortest paths end to end
    assert np.array_equal(betweenness(net), heap_betweenness(net))


# 3 * 2**61 passes the limit; 2**63 wraps int64, which the int64 count alone would miss.
@pytest.mark.parametrize("widths", [[2] * 61 + [3], [2] * 63], ids=["past_limit", "past_int64"])
def test_betweenness_rejects_path_counts_past_the_limit(widths):
    with pytest.raises(ValueError, match="2\\*\\*62"):
        betweenness(parallel_chain(widths))


def test_betweenness_equals_heap_reference_on_every_rerank_state(monkeypatch):
    """Each state a ``recompute_rankings`` schedule ranks, as on the benchmark's rerank path."""
    seen = []

    def recording(net):
        seen.append(net.fork())
        return betweenness(net)

    monkeypatch.setattr(centrality, "betweenness", recording)
    net = connected_random_network(np.random.default_rng(5), 40, 0.2)
    cfg = ScenarioConfig(target_kind="nodes", indicator="betweenness", recompute_rankings=True)
    run_shock_recovery(net, cfg)
    assert len(seen) == 20  # one ranking per one-node batch, down to half the nodes
    for state in seen:
        assert np.array_equal(betweenness(state), heap_betweenness(state))


def test_betweenness_equals_heap_reference_with_tied_predecessors():
    """Weights in {1, 2}: many nodes have several tight in-edges settling at one rank."""
    rng = np.random.default_rng(77)
    most_predecessors = 0
    for _ in range(60):
        n = int(rng.integers(6, 30))
        weights = rng.choice([1.0, 2.0], size=(n, n))
        weights[rng.random((n, n)) < rng.uniform(0.3, 0.8)] = 0.0
        np.fill_diagonal(weights, 0.0)
        net = TradeNetwork(codes_for(n), weights)
        assert np.array_equal(betweenness(net), heap_betweenness(net))
        costs = shortest_path_costs(net)
        with np.errstate(divide="ignore"):
            tight = costs[:, :, None] + 1.0 / weights[None] == costs[:, None, :]
        tight &= np.isfinite(costs)[:, None, :]  # tight[s, v, w]: v -> w is tight from s
        most_predecessors = max(most_predecessors, int(tight.sum(axis=1).max()))
    assert most_predecessors >= 3


def test_betweenness_memory_stays_a_small_multiple_of_the_distance_rows():
    """The tight test runs in slices: the peak stays near the (sources x N) arrays it keeps."""
    net = random_network(np.random.default_rng(12), 100, 0.5)
    sources = int(net.active_edge_mask.any(axis=1).sum())
    betweenness(net)  # warm up imports and caches outside the trace
    tracemalloc.start()
    try:
        betweenness(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * sources * net.n_nodes * 8


# -- pagerank ----------------------------------------------------------------


def test_pagerank_sums_to_one_and_uniform_on_complete():
    net = complete_uniform_network(6, 4.0)
    scores = pagerank(net)
    assert abs(scores.sum() - 1.0) < 1e-9
    assert np.allclose(scores, 1.0 / 6.0, atol=1e-9)


def test_pagerank_of_an_empty_network_is_empty():
    assert pagerank(build_network([])).shape == (0,)


def test_pagerank_two_node_closed_form():
    net = build_network([("A", "B", 5.0)])
    scores = pagerank(net)
    # fixed point of the damped walk with B's dangling mass split evenly
    assert scores[net.index_of("A")] == pytest.approx(20.0 / 57.0, abs=1e-9)
    assert scores[net.index_of("B")] == pytest.approx(37.0 / 57.0, abs=1e-9)
    assert scores[net.index_of("B")] > scores[net.index_of("A")]


def test_pagerank_warns_when_iteration_capped():
    rng = np.random.default_rng(4)
    net = random_network(rng, 8, 0.5)
    with pytest.warns(RuntimeWarning):
        pagerank(net, max_iter=2)


def test_pagerank_nonnegative_on_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        net = random_network(rng, 9, 0.4)
        scores = pagerank(net)
        assert (scores >= 0).all()
        assert abs(scores.sum() - 1.0) < 1e-9


# -- hits ---------------------------------------------------------------------


def test_hits_requires_an_edge():
    net = TradeNetwork(codes_for(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        hits(net)


def test_hits_bipartite_exporters_get_zero_authority():
    net = build_network([("X1", "M1", 3.0), ("X1", "M2", 1.0), ("X2", "M1", 2.0)])
    hub_scores, auth_scores = hits(net)
    assert auth_scores[net.index_of("X1")] == 0.0
    assert auth_scores[net.index_of("X2")] == 0.0
    assert hub_scores[net.index_of("M1")] == 0.0


def test_hits_symmetric_network_hubs_equal_authorities():
    rng = np.random.default_rng(17)
    w = rng.uniform(1.0, 5.0, (5, 5))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    net = TradeNetwork(codes_for(5), w)
    hub_scores, auth_scores = hits(net)
    assert np.allclose(hub_scores, auth_scores, atol=1e-8)


def test_hits_matches_eigenvector_oracle():
    net = build_network(
        [("A", "B", 4.0), ("A", "C", 2.0), ("B", "C", 1.0), ("C", "A", 3.0)]
    )
    hub_scores, auth_scores = hits(net)
    w = net.active_weights()
    for scores, gram in ((hub_scores, w @ w.T), (auth_scores, w.T @ w)):
        vals, vecs = np.linalg.eigh(gram)
        principal = vecs[:, np.argmax(vals)]
        principal = np.abs(principal) / np.linalg.norm(principal)
        assert np.allclose(scores, principal, atol=1e-8)


# -- clustering ----------------------------------------------------------------


def test_clustering_triangle_is_one():
    net = build_network([("A", "B", 1.0), ("B", "C", 5.0), ("C", "A", 2.0)])
    assert np.array_equal(clustering(net), np.ones(3))


def test_clustering_star_is_zero():
    net = star_network(n_leaves=5)
    assert np.array_equal(clustering(net), np.zeros(6))


def test_clustering_ignores_weights_and_direction():
    a = build_network([("A", "B", 1.0), ("B", "C", 1.0), ("C", "A", 1.0)])
    b = build_network([("B", "A", 9.0), ("B", "C", 2.0), ("A", "C", 7.0)])
    assert np.array_equal(clustering(a), clustering(b))


def test_clustering_five_node_hand_count():
    # square A-B-C-D with one diagonal A-C: A sits on 2 triangles over 3 pairs
    net = build_network(
        [("A", "B", 1.0), ("B", "C", 1.0), ("C", "D", 1.0), ("D", "A", 1.0), ("A", "C", 1.0)]
    )
    scores = clustering(net)
    assert scores[net.index_of("A")] == pytest.approx(2.0 / 3.0)
    assert scores[net.index_of("B")] == pytest.approx(1.0)
    assert scores[net.index_of("D")] == pytest.approx(1.0)


def test_clustering_degree_below_two_is_zero():
    net = build_network([("A", "B", 1.0)])
    assert np.array_equal(clustering(net), np.zeros(2))


# -- communities ----------------------------------------------------------------


def _two_cliques_records():
    records = []
    group_a = ["A0", "A1", "A2", "A3"]
    group_b = ["B0", "B1", "B2", "B3"]
    for group in (group_a, group_b):
        for x in group:
            for y in group:
                if x != y:
                    records.append((x, y, 10.0))
    records.append(("A0", "B0", 0.1))
    return records


def test_two_cliques_split_into_two_modules():
    net = build_network(_two_cliques_records())
    assignment = detect_communities(net, seed=0)
    groups = {}
    for i, module in enumerate(assignment.tolist()):
        groups.setdefault(module, set()).add(net.code_of(i))
    assert len(groups) == 2
    assert {frozenset(g) for g in groups.values()} == {
        frozenset({"A0", "A1", "A2", "A3"}),
        frozenset({"B0", "B1", "B2", "B3"}),
    }


def test_single_clique_is_one_module():
    net = complete_uniform_network(5, 3.0)
    assert set(detect_communities(net, seed=1).tolist()) == {0}


def test_community_detection_deterministic_and_labelled_by_appearance():
    net = build_network(_two_cliques_records())
    first = detect_communities(net, seed=12)
    second = detect_communities(net, seed=12)
    assert np.array_equal(first, second)
    assert first[0] == 0  # labels numbered in node order


def test_no_edges_yields_singleton_modules():
    net = TradeNetwork(codes_for(4), np.zeros((4, 4)))
    assert detect_communities(net, seed=0).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("name", ["ring100", "hub41", "shocked_fork", "uniform_ring"])
def test_detect_communities_equals_dict_reference(name, monkeypatch):
    net = DIFFERENTIAL_NETS[name]()
    labels = [detect_communities(net, seed=seed) for seed in range(50)]
    monkeypatch.setattr(centrality, "_louvain_sweeps", dict_louvain_sweeps)
    for seed, got in enumerate(labels):
        assert np.array_equal(got, detect_communities(net, seed=seed))
        new_labels = [c for k, c in enumerate(got.tolist()) if c not in got[:k]]
        assert new_labels == list(range(len(new_labels)))  # numbered by first appearance


# -- module indicators ------------------------------------------------------------


def test_participation_all_links_inside_is_zero():
    net = build_network(_two_cliques_records())
    assignment = detect_communities(net, seed=0)
    part = module_indicators(net, assignment).participation
    # A1 has every link inside its module
    assert part[net.index_of("A1")] == 0.0
    # A0 carries the bridge, so it participates outside
    assert part[net.index_of("A0")] > 0.0


def test_participation_even_split_is_half():
    net = build_network([("A", "X", 1.0), ("A", "Y", 1.0)])
    assignment = np.array([0, 1, 0]) if net.index_of("A") == 0 else None
    # codes sort to (A, X, Y): put X in one module, A and Y in another
    assignment = np.array([0, 1, 0])
    part = module_indicators(net, assignment).participation
    assert part[net.index_of("A")] == pytest.approx(0.5)


def test_single_node_module_z_is_zero():
    net = build_network([("A", "B", 1.0), ("B", "C", 1.0)])
    assignment = np.array([0, 1, 2])
    z = module_indicators(net, assignment).within_module_z
    assert np.array_equal(z, np.zeros(3))


def test_outside_module_degree_counts_cross_links():
    net = build_network(_two_cliques_records())
    assignment = detect_communities(net, seed=0)
    outside = module_indicators(net, assignment).outside_module_degree
    assert outside[net.index_of("A0")] == 1.0
    assert outside[net.index_of("B0")] == 1.0
    assert outside[net.index_of("A2")] == 0.0


def test_module_indicators_of_an_empty_network_are_empty():
    indicators = module_indicators(build_network([]), np.zeros(0, dtype=int))
    assert [part.shape for part in indicators] == [(0,), (0,), (0,)]


def test_module_indicator_assignment_shape_checked():
    net = build_network([("A", "B", 1.0)])
    with pytest.raises(ValueError):
        module_indicators(net, np.array([0]))


# -- rankings ----------------------------------------------------------------------


def test_rank_nodes_descending_with_strength_tiebreak():
    # B and C tie on out_degree; C has larger total strength and wins
    net = build_network(
        [("B", "A", 1.0), ("C", "A", 5.0), ("A", "B", 2.0), ("A", "C", 2.0)]
    )
    ranking = rank_nodes(net, "out_degree")
    assert ranking.ordered_items[0] == "A"
    assert ranking.ordered_items[1] == "C"
    assert ranking.ordered_items[2] == "B"
    assert ranking.scores == tuple(sorted(ranking.scores, reverse=True))


def test_rank_nodes_code_tiebreak_when_all_equal():
    net = complete_uniform_network(4, 2.0)
    ranking = rank_nodes(net, "out_degree")
    assert ranking.ordered_items == net.codes


def test_rank_nodes_random_is_seeded():
    net = complete_uniform_network(6, 2.0)
    a = rank_nodes(net, "random", seed=5)
    b = rank_nodes(net, "random", seed=5)
    c = rank_nodes(net, "random", seed=6)
    assert a.ordered_items == b.ordered_items
    assert a.ordered_items != c.ordered_items


def test_rank_nodes_skips_masked_nodes():
    net = complete_uniform_network(4, 2.0)
    net.shock_nodes([net.codes[0]])
    ranking = rank_nodes(net, "out_strength")
    assert net.codes[0] not in ranking.ordered_items
    assert len(ranking.ordered_items) == 3


def test_rank_nodes_rejects_edge_indicator():
    net = complete_uniform_network(3, 2.0)
    with pytest.raises(ValueError):
        rank_nodes(net, "edge_weight")


def test_rank_edges_by_weight_with_code_tiebreak():
    net = build_network(
        [("B", "C", 9.0), ("C", "A", 7.0), ("A", "B", 7.0), ("A", "C", 1.0)]
    )
    ranking = rank_edges(net)
    assert ranking.ordered_items[0] == ("B", "C")
    # tied pair in code order
    assert ranking.ordered_items[1] == ("A", "B")
    assert ranking.ordered_items[2] == ("C", "A")
    assert ranking.indicator is IndicatorKind.edge_weight


def test_rank_edges_random_seeded_and_restricted():
    net = complete_uniform_network(4, 2.0)
    a = rank_edges(net, "random", seed=3)
    b = rank_edges(net, "random", seed=3)
    assert a.ordered_items == b.ordered_items
    with pytest.raises(ValueError):
        rank_edges(net, "pagerank")


def test_rankings_are_total_orders():
    rng = np.random.default_rng(50)
    net = random_network(rng, 10, 0.5)
    for kind in IndicatorKind:
        if kind is IndicatorKind.edge_weight:
            items = rank_edges(net, kind).ordered_items
        else:
            items = rank_nodes(net, kind, seed=1).ordered_items
        assert len(items) == len(set(items))


def unsorted_tied_network() -> TradeNetwork:
    """Codes out of order, some ending in NUL, and small integer weights full of ties."""
    codes = ("D", "B\0", "B", "A\0\0", "C", "A", "E\0", "E")
    rng = np.random.default_rng(11)
    weights = rng.integers(0, 3, (8, 8)).astype(float)
    np.fill_diagonal(weights, 0.0)
    return TradeNetwork(codes, weights)


def masked_network() -> TradeNetwork:
    """A random network with two nodes and three edges shocked."""
    net = random_network(np.random.default_rng(12), 10, 0.5)
    net.shock_nodes([net.codes[2], net.codes[7]])
    rows, cols = np.nonzero(net.active_edge_mask)
    net.shock_edges([(net.codes[i], net.codes[j]) for i, j in zip(rows[:3], cols[:3])])
    return net


ORDERING_FIXTURES = {
    "random": lambda: random_network(np.random.default_rng(13), 10, 0.5),
    "unsorted_codes": unsorted_tied_network,
    "all_ties": lambda: complete_uniform_network(6, 2.0),
    "masked": masked_network,
    "star": star_network,
    "bridge": two_cliques_bridge,
}


@pytest.mark.filterwarnings("ignore:HITS did not converge:RuntimeWarning")
@pytest.mark.parametrize("make", ORDERING_FIXTURES.values(), ids=ORDERING_FIXTURES.keys())
def test_rankings_equal_the_sorted_key_orderings(make):
    net = make()
    for kind in IndicatorKind:
        for seed in (0, 3):
            if kind in EDGE_INDICATORS:
                new, old = rank_edges(net, kind, seed=seed), sorted_rank_edges(net, kind, seed=seed)
                assert new.ordered_items == old.ordered_items, kind
                assert new.scores == old.scores, kind
            if kind in NODE_INDICATORS:
                new, old = rank_nodes(net, kind, seed=seed), sorted_rank_nodes(net, kind, seed=seed)
                assert new.ordered_items == old.ordered_items, kind
                assert new.scores == old.scores, kind


@pytest.mark.parametrize("make", ORDERING_FIXTURES.values(), ids=ORDERING_FIXTURES.keys())
def test_rank_by_impact_equals_the_sorted_key_ordering(make):
    net = make()
    for kind in ("nodes", "edges"):
        everything = net.n_nodes * net.n_nodes
        assert rank_by_impact(net, kind, everything) == sorted_rank_by_impact(net, kind, everything)
        assert rank_by_impact(net, kind, 3) == sorted_rank_by_impact(net, kind, 3)


def test_ties_break_by_python_code_order():
    # Not index order (the codes are unsorted), nor numpy's <U order, which drops trailing NULs.
    net = TradeNetwork(("B", "A\0", "A"), np.full((3, 3), 2.0) - 2.0 * np.eye(3))
    assert rank_nodes(net, "out_degree").ordered_items == ("A", "A\0", "B")
    assert rank_edges(net).ordered_items[:3] == (("A", "A\0"), ("A", "B"), ("A\0", "A"))


# -- cross-cutting properties --------------------------------------------------------


def _permuted_copy(net, rng):
    """Same graph with nodes renamed so the sorted code order changes."""
    new_names = {c: f"Z{rng.integers(0, 10**6):06d}" for c in net.codes}
    n = net.n_nodes
    weights = np.zeros((n, n))
    new_codes = sorted(new_names.values())
    pos = {c: i for i, c in enumerate(new_codes)}
    for i in range(n):
        for j in range(n):
            w = net.baseline_weights[i, j]
            if w > 0:
                weights[pos[new_names[net.code_of(i)]], pos[new_names[net.code_of(j)]]] = w
    return TradeNetwork(new_codes, weights), new_names


def test_indicators_are_permutation_equivariant():
    rng = np.random.default_rng(60)
    net = random_network(rng, 8, 0.5)
    relabeled, mapping = _permuted_copy(net, rng)
    for fn in (
        lambda g: degree(g, "out"),
        lambda g: strength(g, "in"),
        lambda g: closeness(g, "out"),
        betweenness,
        pagerank,
        clustering,
    ):
        original = fn(net)
        renamed = fn(relabeled)
        for i, code in enumerate(net.codes):
            assert renamed[relabeled.index_of(mapping[code])] == pytest.approx(
                original[i], rel=1e-12, abs=1e-12
            )


def test_rankings_stable_under_uniform_scaling():
    rng = np.random.default_rng(70)
    net = random_network(rng, 9, 0.5)
    for kind in IndicatorKind:
        if kind is IndicatorKind.random:
            continue
        if kind is IndicatorKind.edge_weight:
            base = rank_edges(net, kind).ordered_items
        else:
            base = rank_nodes(net, kind, seed=0).ordered_items
        for c in (1e-3, 1e6):
            scaled = TradeNetwork(net.codes, net.baseline_weights * c)
            if kind is IndicatorKind.edge_weight:
                items = rank_edges(scaled, kind).ordered_items
            else:
                items = rank_nodes(scaled, kind, seed=0).ordered_items
            assert items == base, kind
