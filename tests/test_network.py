import numpy as np
import pytest

from tradeshock import ShockStateError, TradeNetwork, build_network

from netgen import active_edges, codes_for, random_network
from oracles import sequential_restore, sequential_shock_edges, sequential_shock_nodes


def small_net():
    return build_network(
        [
            ("CHN", "USA", 120.0),
            ("USA", "CHN", 80.0),
            ("CHN", "DEU", 55.0),
            ("DEU", "USA", 30.0),
            ("USA", "JPN", 20.0),
        ],
        year=2008,
    )


def edge_active(net: TradeNetwork, source: str, target: str) -> bool:
    return bool(net.active_edge_mask[net.index_of(source), net.index_of(target)])


def test_codes_sorted_and_indices_dense():
    net = small_net()
    assert net.codes == ("CHN", "DEU", "JPN", "USA")
    assert [net.index_of(c) for c in net.codes] == [0, 1, 2, 3]
    assert [net.code_of(i) for i in range(4)] == list(net.codes)
    assert net.year == 2008


def test_parallel_records_aggregate_independent_of_order():
    records = [("A", "B", 0.1)] * 7 + [("A", "B", 0.3), ("A", "C", 1.0)]
    rng = np.random.default_rng(3)
    reference = build_network(records)
    for _ in range(10):
        shuffled = [records[i] for i in rng.permutation(len(records))]
        net = build_network(shuffled)
        assert np.array_equal(net.baseline_weights, reference.baseline_weights)


def test_self_loop_dropped_but_code_kept():
    net = build_network([("A", "B", 5.0), ("C", "C", 9.0)])
    assert net.codes == ("A", "B", "C")
    assert net.n_edges == 1
    assert not edge_active(net, "C", "C")


@pytest.mark.parametrize(
    "bad",
    [("", "B", 1.0), ("A", "", 1.0), ("A", "B", 0.0), ("A", "B", -2.0), ("A", "B", float("nan"))],
)
def test_invalid_records_rejected_with_index(bad):
    with pytest.raises(ValueError, match="record 1"):
        build_network([("X", "Y", 1.0), bad])


def test_unknown_code_raises():
    net = small_net()
    with pytest.raises(ValueError, match="ZZZ"):
        net.index_of("ZZZ")
    assert "ZZZ" not in net.codes
    assert "CHN" in net.codes


def test_node_shock_masks_row_and_column():
    net = small_net()
    net.shock_nodes(["CHN"])
    assert not net.active_node_mask[net.index_of("CHN")]
    assert net.n_active_nodes == 3
    # every edge touching CHN is gone, the rest survive
    assert not edge_active(net, "CHN", "USA")
    assert not edge_active(net, "USA", "CHN")
    assert edge_active(net, "DEU", "USA")
    assert net.n_active_edges == 2
    # baseline is untouched
    assert net.n_edges == 5
    assert net.baseline_weights[net.index_of("CHN"), net.index_of("USA")] == 120.0


def test_double_shock_and_bad_restore_raise():
    net = small_net()
    net.shock_nodes(["CHN"])
    with pytest.raises(ShockStateError):
        net.shock_nodes(["CHN"])
    with pytest.raises(ShockStateError):
        net.restore(["USA"])  # never shocked
    net.shock_edges([("DEU", "USA")])
    with pytest.raises(ShockStateError):
        net.shock_edges([("DEU", "USA")])
    with pytest.raises(ValueError):
        net.shock_edges([("JPN", "DEU")])  # relationship does not exist


def test_edge_shock_under_masked_endpoint_rejected():
    net = small_net()
    net.shock_nodes(["USA"])
    with pytest.raises(ShockStateError):
        net.shock_edges([("CHN", "USA")])


def masks(net: TradeNetwork) -> tuple[np.ndarray, np.ndarray]:
    return net._node_shocked.copy(), net._edge_shocked.copy()


def outcome(update, net: TradeNetwork, batch: list):
    """The error ``update`` raises on ``batch`` (type and message), or None."""
    try:
        update(net, batch)
    except (ValueError, ShockStateError) as exc:
        return type(exc), str(exc)
    return None


BATCH_UPDATES = [
    (TradeNetwork.shock_nodes, sequential_shock_nodes, "nodes"),
    (TradeNetwork.shock_edges, sequential_shock_edges, "edges"),
    (TradeNetwork.restore, sequential_restore, "both"),
]


@pytest.mark.parametrize(
    "update, sequential, kinds", BATCH_UPDATES, ids=["shock_nodes", "shock_edges", "restore"]
)
def test_batch_updates_equal_the_one_at_a_time_loop(update, sequential, kinds):
    # Random batches of good and bad elements, repeats included, on random
    # shocked states: the same error for the first bad element in batch
    # order, or the same masks. A rejected batch changes no mask, where the
    # loop had already flipped the elements before the bad one.
    rng = np.random.default_rng(17)
    net = random_network(rng, 7, 0.4)
    codes = [*net.codes, "ZZZ"]
    edges = [(s, t) for s, t, _ in active_edges(net)]
    pairs = edges + [("E000", "E000"), ("E001", "ZZZ"), ("ZZZ", "E002")]  # no edge, unknown
    errors = 0
    for _ in range(400):
        work = net.fork()
        work._node_shocked[:] = rng.random(net.n_nodes) < 0.3
        work._edge_shocked[:] = (rng.random(net.baseline_weights.shape) < 0.3) & (
            net.baseline_weights > 0
        )
        elements = {"nodes": codes, "edges": pairs, "both": codes + pairs}[kinds]
        batch = [elements[k] for k in rng.integers(0, len(elements), int(rng.integers(0, 5)))]
        before = masks(work)
        reference = work.fork()
        expected = outcome(sequential, reference, batch)
        assert outcome(update, work, batch) == expected, batch
        if expected is None:
            assert all(map(np.array_equal, masks(work), masks(reference))), batch
        else:
            errors += 1
            assert all(map(np.array_equal, masks(work), before)), batch
    assert 100 < errors < 350  # both outcomes are exercised


def test_rejected_batch_leaves_the_masks_untouched():
    net = small_net().shock_nodes(["JPN"])
    before = masks(net)
    for update, batch, error in [
        (net.shock_nodes, ["CHN", "DEU", "CHN"], "node 'CHN' is already shocked"),
        (net.shock_nodes, ["CHN", "JPN", "ZZZ"], "node 'JPN' is already shocked"),
        (net.shock_nodes, ["CHN", "ZZZ", "JPN"], "unknown economy 'ZZZ'"),
        (
            net.shock_edges,
            [("CHN", "USA"), ("USA", "CHN"), ("CHN", "USA")],
            "edge 'CHN' -> 'USA' is already shocked",
        ),
        (
            net.shock_edges,
            [("CHN", "USA"), ("USA", "JPN")],
            "edge 'USA' -> 'JPN' is inactive via a shocked endpoint",
        ),
        (net.restore, [("USA", "CHN"), "JPN", "JPN"], "edge 'USA' -> 'CHN' was not shocked"),
        (net.restore, ["JPN", "JPN"], "node 'JPN' is already active"),
        # An edge element is a (source, target) pair; a pair is no node code.
        (
            net.shock_edges,
            [("CHN", "USA"), "USA", ("JPN", "DEU")],
            "expected a (source, target) pair, got 'USA'",
        ),
        (
            net.shock_edges,
            [("CHN", "USA"), ("USA", "CHN", "DEU")],
            "expected a (source, target) pair, got ('USA', 'CHN', 'DEU')",
        ),
        (
            net.restore,
            ["JPN", ("CHN", "USA", "DEU")],
            "expected a (source, target) pair, got ('CHN', 'USA', 'DEU')",
        ),
        (net.restore, ["JPN", 7], "expected a (source, target) pair, got 7"),
        (net.shock_nodes, ["CHN", ("CHN", "USA")], "unknown economy ('CHN', 'USA')"),
        # An unhashable element is no code either.
        (net.shock_nodes, ["CHN", ["CHN", "USA"], "ZZZ"], "unknown economy ['CHN', 'USA']"),
        (net.restore, ["JPN", (["CHN"], "USA")], "unknown economy ['CHN']"),
    ]:
        with pytest.raises((ValueError, ShockStateError)) as caught:
            update(batch)
        assert str(caught.value) == error
        assert all(map(np.array_equal, masks(net), before))
    # A two-letter string is not read as the edge between two one-letter codes.
    letters = build_network([("A", "B", 1.0)])
    with pytest.raises(ValueError, match=r"^expected a \(source, target\) pair, got 'AB'$"):
        letters.shock_edges(["AB"])
    assert letters.n_active_edges == 1


def test_restore_roundtrip_is_bit_exact():
    rng = np.random.default_rng(11)
    net = random_network(rng, 12, 0.4)
    before = net.active_weights()
    nodes = [net.code_of(i) for i in (1, 4, 7)]
    net.shock_nodes(nodes)
    edges = [(s, t) for s, t, _ in active_edges(net)[:3]]
    net.shock_edges(edges)
    assert net.n_active_nodes == 9
    net.restore(nodes)
    net.restore(edges)
    assert np.array_equal(net.active_weights(), before)
    assert net.n_active_nodes == 12


def test_conservation_of_elements_under_masking():
    rng = np.random.default_rng(5)
    net = random_network(rng, 10, 0.5)
    total_edges = net.n_edges
    net.shock_nodes([net.code_of(0), net.code_of(3)])
    masked_incident = total_edges - net.n_active_edges
    # masked plus active edges always account for the full baseline set
    assert net.n_active_edges + masked_incident == total_edges
    assert net.n_active_nodes + 2 == net.n_nodes


def test_node_restore_revives_edges_to_active_partners_only():
    net = small_net()
    net.shock_nodes(["CHN", "USA"])
    net.restore(["CHN"])
    # CHN-DEU comes back, but both CHN-USA edges wait for USA
    assert edge_active(net, "CHN", "DEU")
    assert not edge_active(net, "CHN", "USA")
    assert not edge_active(net, "USA", "CHN")
    net.restore(["USA"])
    assert edge_active(net, "USA", "CHN")


def test_fork_is_independent():
    net = small_net()
    child = net.fork()
    child.shock_nodes(["CHN"])
    assert net.active_node_mask[net.index_of("CHN")]
    assert not child.active_node_mask[child.index_of("CHN")]
    # the baseline matrix is shared but immutable
    assert child.baseline_weights is net.baseline_weights
    with pytest.raises(ValueError):
        net.baseline_weights[0, 0] = 1.0


def test_fork_copies_every_attribute_and_shares_no_mask():
    net = small_net().shock_edges([("USA", "CHN")])
    child = net.fork()
    assert vars(child).keys() == vars(net).keys()
    assert not np.shares_memory(child._node_shocked, net._node_shocked)
    assert not np.shares_memory(child._edge_shocked, net._edge_shocked)
    assert np.array_equal(child.active_edge_mask, net.active_edge_mask)


def test_baseline_lengths_are_frozen_reciprocals_shared_by_forks():
    net = small_net()
    with np.errstate(divide="ignore"):
        assert np.array_equal(net.baseline_lengths, 1.0 / net.baseline_weights)
    assert not net.baseline_lengths.flags.writeable
    assert net.fork().baseline_lengths is net.baseline_lengths


def test_stats_hand_values():
    net = build_network([("A", "B", 10.0), ("B", "C", 30.0)])
    s = net.stats()
    assert s.n_nodes == 3
    assert s.n_edges == 2
    assert s.mean_edge_weight == 20.0
    assert s.total_volume == 40.0
    assert s.density == pytest.approx(2 / 6)


def test_stats_zero_edge_network():
    net = TradeNetwork(codes_for(3), np.zeros((3, 3)))
    s = net.stats()
    assert s.n_edges == 0
    assert s.density == 0.0
    assert s.mean_edge_weight == 0.0


def test_repr_counts_active_over_all_elements():
    net = small_net()
    net.shock_nodes(["CHN"])
    assert repr(net) == "TradeNetwork(year=2008, nodes=3/4, edges=2/5)"


def test_stats_track_active_subnetwork():
    net = small_net()
    net.shock_nodes(["CHN"])
    s = net.stats()
    assert s.n_nodes == 3
    assert s.n_edges == 2
    assert s.total_volume == 50.0
    assert s.mean_edge_weight == 25.0


def test_weights_must_be_square_and_nonnegative():
    with pytest.raises(ValueError):
        TradeNetwork(("A", "B"), np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 1] = -1.0
    with pytest.raises(ValueError):
        TradeNetwork(("A", "B"), bad)


@pytest.mark.parametrize(
    "records, message",
    [
        ([("A", "B", 1e308), ("A", "B", 1e308)], "A -> B in 2020: the sum of 2 records overflows"),
        ([("A", "B", 1.5e308), ("B", "A", 1.5e308)], "the total trade volume in 2020 overflows"),
        (
            [("A", "B", 3.0), ("B", "A", 1e-320)],
            "B -> A in 2020: weight 1e-320 is too small, its length 1/w overflows",
        ),
    ],
    ids=["pair_sum", "total_volume", "length"],
)
def test_weights_that_overflow_float64_are_rejected(records, message):
    with pytest.raises(ValueError) as caught:
        build_network(records, year=2020)
    assert str(caught.value) == message


def test_duplicate_codes_rejected():
    with pytest.raises(ValueError):
        TradeNetwork(("A", "A"), np.zeros((2, 2)))
