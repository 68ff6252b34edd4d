"""Weighted network efficiency, the performance indicator behind every scenario.

Metric convention (everything downstream depends on it): an active edge of
trade volume ``w`` contributes length ``1/w`` to a path. The best route
between two economies is the directed path minimizing the summed length,
and the pair efficiency is the reciprocal of that minimum, so a single
heavy edge is a better route than any detour through light ones. Pairs
with no active route contribute 0. Network efficiency averages the pair
efficiencies over all N(N-1) ordered pairs of the *full* node set; the
denominator stays fixed while nodes are masked, so trajectories taken
during a scenario remain comparable step to step.

Dividing the raw efficiency by a mean edge weight makes values comparable
across networks of different total volume. For cross-year reporting each
year is normalized by its own mean; during a shock-recovery scenario the
reference is frozen at the baseline mean so the trajectory reflects
structural damage, not renormalization drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .network import TradeNetwork


@dataclass(frozen=True)
class EfficiencyResult:
    raw_efficiency: float
    normalized_efficiency: float
    reference_mean_weight: float
    pair_count: int
    degenerate: bool = False  # fewer than 2 nodes: efficiency defined as 0


def _length_graph(net: TradeNetwork) -> csr_matrix:
    rows, cols = np.nonzero(net.active_edge_mask)
    lengths = 1.0 / net.baseline_weights[rows, cols]
    return csr_matrix((lengths, (rows, cols)), shape=(net.n_nodes, net.n_nodes))


def shortest_path_costs(net: TradeNetwork, sources=None) -> np.ndarray:
    """Minimum path lengths (sums of 1/w) between nodes of the active graph.

    Returns the full matrix when ``sources`` is None, otherwise the rows
    for the given source indices. Unreachable pairs are ``inf``.
    """
    graph = _length_graph(net)
    if sources is None:
        return dijkstra(graph, directed=True)
    return dijkstra(graph, directed=True, indices=sources)


def _pair_efficiencies(costs: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Pair efficiencies of cost rows, the k-th row having source ``sources[k]``."""
    with np.errstate(divide="ignore"):
        pair_eff = 1.0 / costs
    pair_eff[np.arange(len(sources)), sources] = 0.0  # a node with itself: cost 0 -> inf
    pair_eff[np.isinf(costs)] = 0.0  # unreachable pairs contribute nothing
    return pair_eff


def _mean_pair_efficiency(pair_eff: np.ndarray) -> float:
    """Raw efficiency: the full ``N x N`` pair-efficiency matrix over N(N-1) pairs."""
    n = pair_eff.shape[0]
    return float(pair_eff.sum()) / (n * (n - 1))


def path_efficiency(net: TradeNetwork, source: str, target: str) -> float:
    """Pair efficiency: reciprocal best-route length, 0 when unreachable."""
    i, j = net.index_of(source), net.index_of(target)
    if i == j:
        raise ValueError(f"path efficiency is undefined for a node with itself ({source!r})")
    cost = shortest_path_costs(net, sources=i)[j]
    return 0.0 if np.isinf(cost) else 1.0 / float(cost)


def network_efficiency(net: TradeNetwork) -> EfficiencyResult:
    """Average pair efficiency over all ordered pairs of the full node set.

    The returned result is also normalized by the network's own active
    mean edge weight (the per-year convention). A scenario divides the raw
    efficiency by the mean frozen at its baseline instead, as
    :func:`normalized_efficiency` does for a caller-supplied reference.
    """
    n = net.n_nodes
    if n < 2:
        return EfficiencyResult(0.0, 0.0, 0.0, 0, degenerate=True)
    raw = _mean_pair_efficiency(_pair_efficiencies(shortest_path_costs(net), np.arange(n)))
    reference = net.stats().mean_edge_weight
    normalized = raw / reference if reference > 0 else 0.0
    return EfficiencyResult(raw, normalized, reference, n * (n - 1))


def normalized_efficiency(net: TradeNetwork, reference_mean_weight: float) -> EfficiencyResult:
    """Network efficiency normalized by a caller-supplied mean edge weight."""
    ref = float(reference_mean_weight)
    if not np.isfinite(ref) or ref <= 0:
        raise ValueError(f"reference mean weight must be positive and finite, got {ref}")
    base = network_efficiency(net)
    return EfficiencyResult(
        base.raw_efficiency,
        base.raw_efficiency / ref,
        ref,
        base.pair_count,
        base.degenerate,
    )


class RemovalProbe:
    """Exact raw efficiency of a network with one element removed at a time.

    The baseline distance matrix ``D`` is computed once. Removing an edge
    ``(u, v)`` of length ``l`` can change source row ``i`` only when the edge
    is tight there: ``D[i, u]`` is finite and ``D[i, u] + l == D[i, v]`` in
    floating point, the same sum Dijkstra forms when it relaxes the edge.
    Every shortest route through a node leaves it by an out-edge, so
    removing a node changes its own column plus the rows in which one of its
    active out-edges is tight. Its own row is one of those (its shortest
    out-edge is tight there) unless it has no out-edge, when the row is
    already all zero. Only those rows are run again; the others are
    bit-identical to a full recompute, and the result is summed over the
    whole matrix exactly as :func:`network_efficiency` sums it.

    Each probe shocks the element on ``net`` and restores it before
    returning, so ``net``'s masks are unchanged afterwards. They must not be
    changed between probes either, since ``D`` describes the masks at build.
    """

    def __init__(self, net: TradeNetwork):
        n = net.n_nodes
        if n < 2:
            raise ValueError(f"a removal probe needs at least 2 nodes, got {n}")
        self.net = net
        self._costs = shortest_path_costs(net)
        self._pair_eff = _pair_efficiencies(self._costs, np.arange(n))
        self.raw_efficiency = _mean_pair_efficiency(self._pair_eff)

    def without(self, element: str | tuple[str, str]) -> float:
        """Raw efficiency of the network with ``element`` (a node code or an edge) removed."""
        net, d = self.net, self._costs
        is_node = isinstance(element, str)
        if is_node:
            u = net.index_of(element)
            targets = np.flatnonzero(net.active_edge_mask[u])
            net.shock_nodes([element])
        else:
            u = net.index_of(element[0])
            targets = np.array([net.index_of(element[1])])
            net.shock_edges([element])
        try:
            lengths = 1.0 / net.baseline_weights[u, targets]
            tight = (d[:, u, None] + lengths == d[:, targets]).any(axis=1)
            tight &= np.isfinite(d[:, u])  # inf + l == inf would flag rows reaching neither end
            rows = np.flatnonzero(tight)
            pair_eff = self._pair_eff.copy()
            if rows.size:
                pair_eff[rows] = _pair_efficiencies(shortest_path_costs(net, sources=rows), rows)
            if is_node:
                pair_eff[:, u] = 0.0
        finally:
            net.restore([element])
        return _mean_pair_efficiency(pair_eff)


class InsertionEngine:
    """Exact distance matrix of a network that only gains edges.

    ``costs`` must be :func:`shortest_path_costs` of ``net`` as it stands;
    the engine owns it from then on. :meth:`restore` reactivates elements on
    ``net`` and updates ``costs`` in place by label correction over the
    edges that became active. Round 0 relaxes each new edge ``(u, v)`` of
    length ``l`` from every row: ``D[i, v]`` takes ``fl(D[i, u] + l)`` when
    that is strictly smaller. Each later round relaxes every active out-edge
    of the entries the round before improved, until no entry improves.

    The result is bit-identical to :func:`shortest_path_costs` of the grown
    network. Let ``W[i, v]`` be the least cost of a walk from ``i`` to ``v``,
    a walk's cost summed left to right in floating point. Because
    ``fl(x + l)`` is monotone in ``x`` and never below ``x``, a matrix with
    a zero diagonal that satisfies ``D[i, v] <= fl(D[i, u] + l_uv)`` for
    every edge is at most ``W`` (induction along any walk), and a matrix of
    walk costs is at least ``W``. scipy's Dijkstra returns walk costs
    (those of its predecessor chains) that satisfy the edge inequalities,
    because a node settles only after every node nearer than it; so it
    returns ``W``, the least fixed point of ``D[v] = min_u fl(D[u] + l_uv)``.
    The engine starts from the old ``W``, whose entries are walk costs in
    the larger graph too, and only writes ``fl(D[i, u] + l)`` of an edge, so
    its entries remain walk costs. Old edges satisfied their inequality
    before the insertion; new edges are relaxed in round 0; and an entry
    that improves has its out-edges relaxed in the next round. When no entry
    improves every inequality holds, so the engine's matrix is ``W`` as
    well. Strict improvement makes the process end: a least walk needs no
    repeated node, so at most ``N`` rounds after round 0 can improve.

    A round's candidates are formed in slices of about ``N * N`` entries at
    a time, so its temporaries stay a fixed multiple of the matrix.
    """

    def __init__(self, net: TradeNetwork, costs: np.ndarray):
        self.net = net
        self.costs = costs

    @property
    def raw_efficiency(self) -> float:
        """Raw efficiency of ``net``, summed exactly as :func:`network_efficiency` sums it."""
        return _mean_pair_efficiency(_pair_efficiencies(self.costs, np.arange(self.net.n_nodes)))

    def restore(self, elements) -> None:
        """Reactivate ``elements`` on ``net`` and bring ``costs`` up to date."""
        net = self.net
        before = net.active_edge_mask
        net.restore(elements)
        self._insert(*np.nonzero(net.active_edge_mask & ~before))

    def _insert(self, tails: np.ndarray, heads: np.ndarray) -> None:
        n = self.net.n_nodes
        flat = self.costs.reshape(-1)  # a view: writes land in costs
        changed = np.zeros(n * n, dtype=bool)
        lengths = 1.0 / self.net.baseline_weights[tails, heads]
        row_starts = np.arange(n)[:, None] * n
        for s in range(0, tails.size, n):
            u, v = tails[s : s + n], heads[s : s + n]
            candidates = self.costs[:, u] + lengths[s : s + n]
            _relax(flat, (row_starts + v).ravel(), candidates.ravel(), changed)

        graph = _length_graph(self.net)
        for _ in range(n + 1):
            frontier = np.flatnonzero(changed)
            if frontier.size == 0:
                return
            changed[:] = False
            rows, nodes = np.divmod(frontier, n)
            starts = graph.indptr[nodes]
            degrees = graph.indptr[nodes + 1] - starts
            ends = np.cumsum(degrees)
            cuts = np.searchsorted(ends, np.arange(n * n, ends[-1], n * n), side="right")
            for a, b in zip([0, *cuts], [*cuts, frontier.size]):
                # Entry k of the slice expands to the out-edges of nodes[k] in CSR order.
                deg = degrees[a:b]
                first = np.cumsum(deg) - deg
                slots = np.repeat(starts[a:b] - first, deg) + np.arange(int(deg.sum()))
                targets = np.repeat(rows[a:b] * n, deg) + graph.indices[slots]
                candidates = np.repeat(flat[frontier[a:b]], deg) + graph.data[slots]
                _relax(flat, targets, candidates, changed)
        raise RuntimeError(f"edge insertion did not settle within {n + 1} rounds")


def _relax(
    flat: np.ndarray, targets: np.ndarray, candidates: np.ndarray, changed: np.ndarray
) -> None:
    """Lower ``flat[targets]`` to ``candidates`` where strictly smaller; flag what improved."""
    better = candidates < flat[targets]
    targets = targets[better]
    np.minimum.at(flat, targets, candidates[better])
    changed[targets] = True
