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

from .network import TradeNetwork, _ends, _in_year


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


# Impact probes are removed in lockstep, this many at a time, each in its own
# N x N layer of one reused buffer.
_PROBES_PER_PASS = 4


class DistanceEngine:
    """Exact distance matrix of a network whose elements are shocked and restored.

    ``costs`` is :func:`shortest_path_costs` over the edges set in ``mask``,
    bit for bit. At construction ``costs`` must be that of ``net`` as it
    stands, and ``mask`` is its active edge mask; the engine owns ``costs``
    from then on. :meth:`update` follows the network: however the masks of
    ``net`` changed since the last update, by any caller and in either
    direction, it updates ``costs`` in place and takes the new ``mask``.
    :meth:`without` measures what-if removals and changes neither.

    The engine owns a fixed length graph: the network's frozen
    :attr:`~tradeshock.network.TradeNetwork.baseline_lengths`, and their
    transpose for the in-edges, taken once at construction. Each update
    takes the out-edges and in-edges it needs from the masks as plain
    compressed-row arrays.

    Let ``W[i, v]`` be the least cost of a walk from ``i`` to ``v``, summed
    left to right in floating point. As ``fl(x + l)`` is monotone in ``x``
    and never below ``x``, a matrix with a zero diagonal that satisfies
    ``D[i, v] <= fl(D[i, u] + l_uv)`` for every edge is at most ``W``
    (induction along any walk), and a matrix of walk costs or ``inf`` is at
    least ``W``. scipy's Dijkstra returns the walk costs of its predecessor
    chains, which satisfy the edge inequalities because a node settles only
    after every node nearer than it: it returns ``W``. Both passes of an
    update start from entries that are walk costs in the changed graph or
    ``inf``, write only ``fl(D[i, u] + l)`` of active edges, and relax every
    edge whose inequality may have broken, then the out-edges of every
    entry that improved, until none improves (at most ``N`` rounds, since a
    least walk repeats no node). Every inequality then holds, so the matrix
    is ``W``.

    An update removes, then inserts. Removal takes ``costs`` to the kept
    edges, those set both in ``mask`` and now, by the two phases of
    Ramalingam & Reps (J. Algorithms 1996). Phase 1 marks ``(i, v)`` for
    each removed edge ``(u, v)`` tight in row ``i``, where
    ``fl(D[i, u] + l) == D[i, v]`` is finite, then every entry reached from
    a marked one by a tight kept edge. An unmarked entry's Dijkstra
    predecessor chain is all tight edges, so it avoids the removed edges and
    the entry stays a walk cost. Phase 2 sets the marked entries to ``inf``
    and relaxes each from its kept in-edges; inequalities between unmarked
    entries still hold. Insertion then adds the edges active now and not
    kept: old entries are walk costs in the larger graph too, and old edges
    keep their inequalities, so round 0 relaxes each new edge from every
    row. Edges are expanded in slices of about ``N * N``, so temporaries
    stay a fixed multiple of the matrix. A sum past the float64 range is
    ``inf``, no walk, as in scipy's Dijkstra: the updates raise no overflow
    warning.

    A what-if removal is the same pass on a copy of ``costs`` over the intact
    graph with the removed edges set to length ``inf``: such an edge is
    never tight with a finite candidate and never improves an entry. The
    probes of :meth:`without` come as index arrays of their removed edges;
    they share one graph, stacked in layers, and run their passes in
    lockstep, one layer each.
    """

    def __init__(self, net: TradeNetwork, costs: np.ndarray):
        if net.n_nodes < 2:
            raise ValueError(f"a distance engine needs at least 2 nodes, got {net.n_nodes}")
        self.net = net
        self.costs = costs
        self._lengths = net.baseline_lengths
        self._lengths_in = np.ascontiguousarray(self._lengths.T)  # [v, u]: length of u -> v
        self.mask = net.active_edge_mask

    @property
    def raw_efficiency(self) -> float:
        """Raw efficiency of ``net``, summed exactly as :func:`network_efficiency` sums it."""
        return _raw_efficiency(self.costs, self.net.year)

    def _out_edges(self, mask: np.ndarray) -> _Graph:
        return _length_graph(mask, self._lengths)

    def _in_edges(self, mask: np.ndarray) -> _Graph:
        return _length_graph(mask.T, self._lengths_in)

    @np.errstate(over="ignore")
    def update(self) -> None:
        """Bring ``costs`` up to date with the active edges of ``net``; make them ``mask``.

        The edges of ``mask`` gone inactive are removed first, leaving the
        kept edges, active both then and now; the active edges not kept are
        then inserted.
        """
        net, flat = self.net, self.costs.reshape(-1)  # a view: writes land in costs
        before, after = self.mask, net.active_edge_mask
        kept = before & after
        removed, added = _ends(before > kept), _ends(after > kept)
        if removed[0].size:  # a scenario's restores remove nothing: skip the N x N scans
            marked = np.zeros(flat.size, dtype=bool)
            for _, entries in _tight(self.costs, self._lengths, *removed):
                marked[entries] = True
            if marked.any():
                _remove_marked(flat, self._out_edges(kept), self._in_edges(kept), marked, net.n_nodes)
        if added[0].size:
            changed = np.zeros(flat.size, dtype=bool)
            row_starts = np.arange(net.n_nodes)[:, None] * net.n_nodes
            for _, heads, candidates in _candidates(self.costs, self._lengths, *added):
                _relax(flat, (row_starts + heads).ravel(), candidates.ravel(), changed)
            if changed.any():
                _settle(flat, self._out_edges(after), changed, net.n_nodes)
        self.mask = after

    @np.errstate(over="ignore")
    def without(
        self, owner: np.ndarray, tails: np.ndarray, heads: np.ndarray, n_probes: int
    ) -> np.ndarray:
        """Raw efficiency of ``net`` with each of ``n_probes`` probes' edges removed alone.

        Probe ``owner[k]`` removes the active edge ``tails[k] -> heads[k]``;
        ``owner`` is sorted. It calls :meth:`update` first, then leaves the
        masks and ``costs`` as they are.

        One seed test against ``costs`` settles every probe that marks no
        entry: no distance changes, so it reads :attr:`raw_efficiency`. The
        others run in lockstep, :data:`_PROBES_PER_PASS` at a time, each in
        a layer of one buffer that starts as ``costs``; after each pass only
        the entries it marked are written back.
        """
        self.update()
        n, mask = self.net.n_nodes, self.mask
        hit = np.zeros(n_probes, dtype=bool)
        for edges, _ in _tight(self.costs, self._lengths, tails, heads):
            hit[owner[edges]] = True
        results = np.full(n_probes, self.raw_efficiency)
        keep = hit[owner]  # the removed edges of the probes that run
        owner, tails, heads, live = owner[keep], tails[keep], heads[keep], np.flatnonzero(hit)
        if live.size == 0:
            return results

        out, into = self._out_edges(mask), self._in_edges(mask)
        out_slots, in_slots = _slots(out, tails, heads), _slots(into, heads, tails)
        layers = min(_PROBES_PER_PASS, live.size)
        out_layers, in_layers = _stacked(out, layers), _stacked(into, layers)
        stack = np.empty((layers, n, n))
        stack[:] = self.costs
        flat, intact = stack.reshape(-1), self.costs.reshape(-1)
        marked = np.zeros(flat.size, dtype=bool)
        for c in range(0, live.size, layers):
            chunk = live[c : c + layers]
            lo, hi = np.searchsorted(owner, [chunk[0], chunk[-1] + 1])
            layer = np.searchsorted(chunk, owner[lo:hi])  # of each removed edge
            out_at = layer * out.data.size + out_slots[lo:hi]
            in_at = layer * into.data.size + in_slots[lo:hi]
            out_layers.data[out_at] = in_layers.data[in_at] = np.inf
            size = chunk.size * n * n
            for edges, entries in _tight(self.costs, self._lengths, tails[lo:hi], heads[lo:hi]):
                marked[layer[edges] * n * n + entries] = True
            _remove_marked(flat[:size], out_layers, in_layers, marked[:size], n)
            for k, probe in enumerate(chunk.tolist()):
                results[probe] = _raw_efficiency(stack[k], self.net.year)
            entries = np.flatnonzero(marked[:size])
            flat[entries] = intact[entries % (n * n)]
            marked[entries] = False
            out_layers.data[out_at] = out.data[out_slots[lo:hi]]
            in_layers.data[in_at] = into.data[in_slots[lo:hi]]
        return results


def _candidates(costs: np.ndarray, lengths: np.ndarray, tails: np.ndarray, heads: np.ndarray):
    """Per slice of edges ``(u, v)``: its first edge ``s``, its heads ``v``, ``fl(D[i, u] + l)``.

    ``costs`` has any number of rows ``i`` over ``N`` columns; the
    candidates are a ``(rows, edges)`` array. A slice holds
    ``N * N // rows`` edges, so about ``N * N`` candidates.
    """
    rows, n = costs.shape
    step = n * n // rows
    for s in range(0, tails.size, step):
        u, v = tails[s : s + step], heads[s : s + step]
        yield s, v, costs[:, u] + lengths[u, v]


def _tight(costs: np.ndarray, lengths: np.ndarray, tails: np.ndarray, heads: np.ndarray):
    """The edges ``k = (tails[k], heads[k])`` tight in each row of ``costs``, per slice of edges.

    Yields edge positions ``k`` and flat entries ``(i, v)`` of ``costs``,
    one pair per row ``i`` in which ``fl(D[i, u] + l) == D[i, v]`` is
    finite. These are the phase-1 seeds of removing the edges, and the
    shortest-path DAG that betweenness walks.
    """
    n = costs.shape[1]
    for s, v, candidates in _candidates(costs, lengths, tails, heads):
        tight = np.flatnonzero((candidates == costs[:, v]) & (candidates < np.inf))
        rows, k = np.divmod(tight, v.size)
        yield k + s, rows * n + v[k]


def _stacked(graph: _Graph, layers: int) -> _Graph:
    """``layers`` copies of ``graph`` as one graph: row ``k * N + m`` is row ``m`` of copy ``k``."""
    size = graph.data.size
    indptr = (graph.indptr[:-1] + size * np.arange(layers)[:, None]).ravel()
    return _Graph(
        np.tile(graph.data, layers), np.tile(graph.indices, layers), np.append(indptr, layers * size)
    )


def _slots(graph: _Graph, rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Storage slots of the edges ``rows[k] -> ends[k]``, every one of them held by ``graph``."""
    n = graph.indptr.size - 1
    keys = np.repeat(np.arange(n) * n, np.diff(graph.indptr)) + graph.indices
    return np.searchsorted(keys, rows * n + ends)


def _remove_marked(
    flat: np.ndarray, out: _Graph, into: _Graph, marked: np.ndarray, n: int
) -> None:
    """Finish a removal from its phase-1 seeds, set in ``marked``: grow, reset, relax, settle.

    ``flat`` holds one or more ``N x N`` layers; ``out`` and ``into`` are the
    graph after the removal, stacked alike (see :func:`_stacked`). On return
    ``marked`` holds every entry the removal may have changed.
    """
    frontier = np.flatnonzero(marked)
    while frontier.size:
        grown = np.zeros_like(marked)
        for a, b, deg, slots, targets in _edge_slices(out, frontier, n):
            candidates = np.repeat(flat[frontier[a:b]], deg) + out.data[slots]
            grown[targets[(candidates == flat[targets]) & (candidates < np.inf)]] = True
        grown &= ~marked
        marked |= grown
        frontier = np.flatnonzero(grown)

    entries = np.flatnonzero(marked)
    flat[entries] = np.inf
    changed = np.zeros_like(marked)
    for a, b, deg, slots, sources in _edge_slices(into, entries, n):  # row v lists v's in-edges
        candidates = flat[sources] + into.data[slots]
        _relax(flat, np.repeat(entries[a:b], deg), candidates, changed)
    _settle(flat, out, changed, n)


def _settle(flat: np.ndarray, graph: _Graph, changed: np.ndarray, n: int) -> None:
    """Relax the out-edges of every ``changed`` entry, round by round, until none improves."""
    for _ in range(n + 1):
        frontier = np.flatnonzero(changed)
        if frontier.size == 0:
            return
        changed[:] = False
        for a, b, deg, slots, targets in _edge_slices(graph, frontier, n):
            candidates = np.repeat(flat[frontier[a:b]], deg) + graph.data[slots]
            _relax(flat, targets, candidates, changed)
    raise RuntimeError(f"label correction did not settle within {n + 1} rounds")


def _edge_slices(graph: _Graph, entries: np.ndarray, n: int):
    """Expand flat entries ``(i, m)`` to the edges that ``graph`` holds in row ``m``.

    ``graph`` is the out-edges or the in-edges, of one ``N x N`` layer or
    stacked (see :func:`_stacked`): entry ``(i, m)`` of layer ``k``, flat
    ``(k * N + i) * N + m``, reads row ``k * N + m``. Yields ``(a, b, deg,
    slots, ends)`` per slice of at most ``N * N`` entries and about ``N * N``
    edges: entries ``a:b``, their degrees, each edge's storage slot in entry
    order, and the flat entry ``(i, k)`` at the edge's other end ``k``.
    """
    layered = graph.indptr.size > n + 1
    for lo in range(0, entries.size, n * n):
        piece = entries[lo : lo + n * n]
        rows, nodes = np.divmod(piece, n)
        if layered:
            nodes += rows - rows % n
        starts = graph.indptr[nodes]
        degrees = graph.indptr[nodes + 1] - starts
        ends = np.cumsum(degrees)
        cuts = np.searchsorted(ends, np.arange(n * n, ends[-1], n * n), side="right")
        for a, b in zip([0, *cuts], [*cuts, piece.size]):
            deg = degrees[a:b]
            first = np.cumsum(deg) - deg
            slots = np.repeat(starts[a:b] - first, deg) + np.arange(int(deg.sum()))
            yield lo + a, lo + b, deg, slots, np.repeat(rows[a:b] * n, deg) + graph.indices[slots]


def _relax(
    flat: np.ndarray, targets: np.ndarray, candidates: np.ndarray, changed: np.ndarray
) -> None:
    """Lower ``flat[targets]`` to ``candidates`` where strictly smaller; flag what improved."""
    better = candidates < flat[targets]
    targets = targets[better]
    np.minimum.at(flat, targets, candidates[better])
    changed[targets] = True
