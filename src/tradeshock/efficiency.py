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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .network import ShockStateError, TradeNetwork, _in_year


@dataclass(frozen=True)
class EfficiencyResult:
    raw_efficiency: float
    normalized_efficiency: float
    reference_mean_weight: float
    degenerate: bool = False  # fewer than 2 nodes: efficiency defined as 0


class _Graph(NamedTuple):
    """Compressed rows: row ``m`` holds the far ends ``indices[indptr[m]:indptr[m + 1]]``
    of its edges and their lengths ``data[indptr[m]:indptr[m + 1]]``.

    The fields are in scipy's ``(data, indices, indptr)`` order, so
    ``csr_matrix`` takes the tuple as it is.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _length_graph(mask: np.ndarray, lengths: np.ndarray) -> _Graph:
    """The edges set in ``mask`` as compressed rows, with their ``lengths``.

    Given the active edge mask these are the CSR arrays of the length graph:
    its out-edges. Given the transposes of both (``lengths`` C-contiguous)
    they are its CSC arrays with sorted indices: its in-edges.
    """
    n = mask.shape[0]
    flat = np.flatnonzero(mask)  # row-major, so already in row order
    return _Graph(lengths.reshape(-1)[flat], flat % n, np.searchsorted(flat, np.arange(n + 1) * n))


def shortest_path_costs(net: TradeNetwork, sources=None) -> np.ndarray:
    """Minimum path lengths (sums of 1/w) between nodes of the active graph.

    Returns the full matrix when ``sources`` is None, otherwise the rows
    for the given source indices. Unreachable pairs are ``inf``.
    """
    lengths = net.baseline_lengths
    graph = csr_matrix(_length_graph(net.active_edge_mask, lengths), shape=lengths.shape)
    return dijkstra(graph, directed=True, indices=sources)


def _pair_efficiencies(costs: np.ndarray) -> np.ndarray:
    """Pair efficiencies ``1 / d`` of an ``N x N`` cost matrix, 0 on the diagonal.

    Unreachable pairs need no pass of their own: ``1.0 / inf`` is ``+0.0``.
    """
    with np.errstate(divide="ignore"):
        pair_eff = 1.0 / costs
    np.fill_diagonal(pair_eff, 0.0)  # a node with itself: cost 0 -> inf
    return pair_eff


def _raw_efficiency(costs: np.ndarray, year: int | None) -> float:
    """Raw efficiency: the pair efficiencies of an ``N x N`` cost matrix over N(N-1) pairs.

    Raises ValueError, naming ``year``, when their sum overflows float64: a
    pair efficiency is at most the total volume, so N(N-1) of them can
    overflow where the total does not.
    """
    n = costs.shape[0]
    with np.errstate(over="ignore"):
        total = float(_pair_efficiencies(costs).sum())
    if math.isinf(total):
        raise ValueError(f"the sum of pair efficiencies{_in_year(year)} overflows")
    return total / (n * (n - 1))


def path_efficiency(net: TradeNetwork, source: str, target: str) -> float:
    """Pair efficiency: reciprocal best-route length, 0 when unreachable."""
    i, j = net.index_of(source), net.index_of(target)
    if i == j:
        raise ValueError(f"path efficiency is undefined for a node with itself ({source!r})")
    return float(1.0 / shortest_path_costs(net, sources=i)[j])


def network_efficiency(net: TradeNetwork) -> EfficiencyResult:
    """Average pair efficiency over all ordered pairs of the full node set.

    The returned result is also normalized by the network's own active
    mean edge weight (the per-year convention). A scenario divides the raw
    efficiency by the mean frozen at its baseline instead.
    """
    n = net.n_nodes
    if n < 2:
        return EfficiencyResult(0.0, 0.0, 0.0, degenerate=True)
    raw = _raw_efficiency(shortest_path_costs(net), net.year)
    reference = net.stats().mean_edge_weight
    normalized = raw / reference if reference > 0 else 0.0
    return EfficiencyResult(raw, normalized, reference)


class DistanceEngine:
    """Exact distance matrix of a network whose elements are removed and restored.

    ``costs`` must be :func:`shortest_path_costs` of ``net`` as it stands; the
    engine owns it from then on. :meth:`restore` and :meth:`remove` change
    the masks of ``net`` and update ``costs`` in place, bit-identical to
    :func:`shortest_path_costs` of the changed network.

    The engine owns a fixed length graph: the network's frozen
    :attr:`~tradeshock.network.TradeNetwork.baseline_lengths`, and their
    transpose for the in-edges, taken once at construction. Each call
    reads the active edge mask before and after its change and takes the active out-edges and in-edges from it as plain
    compressed-row arrays; it keeps no mask state between calls. So between
    calls the masks may change only through :meth:`restore` and
    :meth:`remove`, or by a caller that puts back both the masks and the
    matching ``costs``, as :func:`~tradeshock.simulation.rank_by_impact` does.

    Let ``W[i, v]`` be the least cost of a walk from ``i`` to ``v``, summed
    left to right in floating point. As ``fl(x + l)`` is monotone in ``x``
    and never below ``x``, a matrix with a zero diagonal that satisfies
    ``D[i, v] <= fl(D[i, u] + l_uv)`` for every edge is at most ``W``
    (induction along any walk), and a matrix of walk costs or ``inf`` is at
    least ``W``. scipy's Dijkstra returns the walk costs of its predecessor
    chains, which satisfy the edge inequalities because a node settles only
    after every node nearer than it: it returns ``W``. Both updates start
    from entries that are walk costs in the changed graph or ``inf``, write
    only ``fl(D[i, u] + l)`` of active edges, and relax every edge whose
    inequality may have broken, then the out-edges of every entry that
    improved, until none improves (at most ``N`` rounds, since a least walk
    repeats no node). Every inequality then holds, so the matrix is ``W``.

    Restore: old entries are walk costs in the larger graph too, and old
    edges keep their inequalities; round 0 relaxes each new edge from every
    row. Remove, the two phases of Ramalingam & Reps (J. Algorithms 1996),
    a node being removed as all of its edges. Phase 1 marks ``(i, v)`` for
    each removed edge ``(u, v)`` tight in row ``i``, where
    ``fl(D[i, u] + l) == D[i, v]`` is finite, then every entry reached from
    a marked one by a tight active edge. An unmarked entry's Dijkstra
    predecessor chain is all tight edges, so it avoids the removed edges and
    the entry stays a walk cost. Phase 2 sets the marked entries to ``inf``
    and relaxes each from its active in-edges; inequalities between unmarked
    entries still hold. Edges are expanded in slices of about ``N * N``, so
    temporaries stay a fixed multiple of the matrix.
    """

    def __init__(self, net: TradeNetwork, costs: np.ndarray):
        if net.n_nodes < 2:
            raise ValueError(f"a distance engine needs at least 2 nodes, got {net.n_nodes}")
        self.net = net
        self.costs = costs
        self._lengths = net.baseline_lengths
        self._lengths_in = np.ascontiguousarray(self._lengths.T)  # [v, u]: length of u -> v

    @property
    def raw_efficiency(self) -> float:
        """Raw efficiency of ``net``, summed exactly as :func:`network_efficiency` sums it."""
        return _raw_efficiency(self.costs, self.net.year)

    def _out_edges(self, mask: np.ndarray) -> _Graph:
        return _length_graph(mask, self._lengths)

    def _in_edges(self, mask: np.ndarray) -> _Graph:
        return _length_graph(mask.T, self._lengths_in)

    def restore(self, elements) -> None:
        """Reactivate ``elements`` on ``net`` and bring ``costs`` up to date."""
        net, flat = self.net, self.costs.reshape(-1)  # a view: writes land in costs
        before = net.active_edge_mask
        net.restore(elements)
        after = net.active_edge_mask
        changed = np.zeros(flat.size, dtype=bool)
        for entries, candidates in self._candidates(after & ~before):
            _relax(flat, entries, candidates, changed)
        if changed.any():
            self._settle(self._out_edges(after), changed)

    def remove(self, elements) -> bool:
        """Shock ``elements`` (node codes and edges, in order) on ``net``; update ``costs``.

        Returns False, with ``costs`` untouched, when no entry can change. A
        rejected batch raises with the masks and ``costs`` as they were.
        """
        net, flat = self.net, self.costs.reshape(-1)
        before = net.active_edge_mask
        shocked = []
        try:
            for element in elements:
                if isinstance(element, str):
                    net.shock_nodes([element])
                else:
                    net.shock_edges([element])
                shocked.append(element)
        except (ValueError, ShockStateError):
            net.restore(shocked)
            raise
        after = net.active_edge_mask
        marked = np.zeros(flat.size, dtype=bool)
        for entries, candidates in self._candidates(before & ~after):
            marked[entries[(candidates == flat[entries]) & np.isfinite(candidates)]] = True
        if not marked.any():
            return False

        graph = self._out_edges(after)
        frontier = np.flatnonzero(marked)
        while frontier.size:
            grown = np.zeros_like(marked)
            for a, b, deg, slots, targets in _edge_slices(graph, frontier):
                tight = np.repeat(flat[frontier[a:b]], deg) + graph.data[slots] == flat[targets]
                grown[targets[tight]] = True
            grown &= ~marked
            marked |= grown
            frontier = np.flatnonzero(grown)

        entries = np.flatnonzero(marked)
        flat[entries] = np.inf
        changed = np.zeros_like(marked)
        into = self._in_edges(after)  # row v lists the in-edges of v
        for a, b, deg, slots, sources in _edge_slices(into, entries):
            candidates = flat[sources] + into.data[slots]
            _relax(flat, np.repeat(entries[a:b], deg), candidates, changed)
        self._settle(graph, changed)
        return True

    def _candidates(self, edges: np.ndarray):
        """Per N edges ``(u, v)`` set in mask ``edges``: entries ``(i, v)``, ``fl(D[i, u] + l)``."""
        n = self.net.n_nodes
        tails, heads = np.divmod(np.flatnonzero(edges), n)
        lengths = self._lengths[tails, heads]
        row_starts = np.arange(n)[:, None] * n
        for s in range(0, tails.size, n):
            u, v = tails[s : s + n], heads[s : s + n]
            yield (row_starts + v).ravel(), (self.costs[:, u] + lengths[s : s + n]).ravel()

    def _settle(self, graph: _Graph, changed: np.ndarray) -> None:
        """Relax the out-edges of every ``changed`` entry, round by round, until none improves."""
        n, flat = self.net.n_nodes, self.costs.reshape(-1)
        for _ in range(n + 1):
            frontier = np.flatnonzero(changed)
            if frontier.size == 0:
                return
            changed[:] = False
            for a, b, deg, slots, targets in _edge_slices(graph, frontier):
                candidates = np.repeat(flat[frontier[a:b]], deg) + graph.data[slots]
                _relax(flat, targets, candidates, changed)
        raise RuntimeError(f"label correction did not settle within {n + 1} rounds")


def _edge_slices(graph: _Graph, entries: np.ndarray):
    """Expand flat entries ``(i, m)`` to the edges that ``graph`` holds in row ``m``.

    ``graph`` is the out-edges or the in-edges, and ``entries`` is not
    empty. Yields ``(a, b, deg, slots, ends)`` per slice of about ``N * N``
    edges: entries ``a:b``, their degrees, each edge's storage slot in entry
    order, and the flat entry ``(i, k)`` at the edge's other end ``k``.
    """
    n = graph.indptr.size - 1
    rows, nodes = np.divmod(entries, n)
    starts = graph.indptr[nodes]
    degrees = graph.indptr[nodes + 1] - starts
    ends = np.cumsum(degrees)
    cuts = np.searchsorted(ends, np.arange(n * n, ends[-1], n * n), side="right")
    for a, b in zip([0, *cuts], [*cuts, entries.size]):
        deg = degrees[a:b]
        first = np.cumsum(deg) - deg
        slots = np.repeat(starts[a:b] - first, deg) + np.arange(int(deg.sum()))
        yield a, b, deg, slots, np.repeat(rows[a:b] * n, deg) + graph.indices[slots]


def _relax(
    flat: np.ndarray, targets: np.ndarray, candidates: np.ndarray, changed: np.ndarray
) -> None:
    """Lower ``flat[targets]`` to ``candidates`` where strictly smaller; flag what improved."""
    better = candidates < flat[targets]
    targets = targets[better]
    np.minimum.at(flat, targets, candidates[better])
    changed[targets] = True
