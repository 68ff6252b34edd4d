"""Node influence indicators, edge importance, and the rankings driving shocks.

Weighted-digraph conventions, fixed here as the reproducibility contract:
distances use edge lengths 1/w (as in the efficiency metric), closeness is
the harmonic form so disconnected pairs simply contribute nothing, and the
clustering coefficient is computed on the binarized undirected projection.
Community structure comes from seeded modularity maximization on the
undirected weight-summed projection, so module-based scenarios replay
exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .efficiency import _pair_efficiencies, _tight, shortest_path_costs
from .network import TradeNetwork, _ends


class IndicatorKind(str, Enum):
    out_degree = "out_degree"
    in_degree = "in_degree"
    out_strength = "out_strength"
    in_strength = "in_strength"
    out_closeness = "out_closeness"
    in_closeness = "in_closeness"
    betweenness = "betweenness"
    pagerank = "pagerank"
    hubs = "hubs"
    authorities = "authorities"
    clustering = "clustering"
    within_module = "within_module"
    outside_module = "outside_module"
    participation = "participation"
    edge_weight = "edge_weight"
    random = "random"


NODE_INDICATORS = frozenset(IndicatorKind) - {IndicatorKind.edge_weight}
EDGE_INDICATORS = frozenset({IndicatorKind.edge_weight, IndicatorKind.random})

# Indicators whose scores come from a community assignment.
_MODULE_INDICATORS = frozenset(
    {IndicatorKind.within_module, IndicatorKind.outside_module, IndicatorKind.participation}
)


@dataclass(frozen=True)
class InfluenceRanking:
    """Deterministic descending ordering of nodes or edges under one indicator."""

    indicator: IndicatorKind
    ordered_items: tuple
    scores: tuple[float, ...]
    seed: int | None = None


def _direction_axis(direction: str) -> int:
    if direction == "out":
        return 1
    if direction == "in":
        return 0
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def degree(net: TradeNetwork, direction: str = "out") -> np.ndarray:
    """Count of active out- or in-edges per node."""
    return net.active_edge_mask.sum(axis=_direction_axis(direction)).astype(float)


def strength(net: TradeNetwork, direction: str = "out") -> np.ndarray:
    """Total active trade volume leaving (out) or entering (in) each node."""
    return net.active_weights().sum(axis=_direction_axis(direction))


def closeness(net: TradeNetwork, direction: str = "out") -> np.ndarray:
    """Harmonic closeness over 1/w distances, outgoing or incoming.

    score(i) = (1/(N-1)) * sum over j != i of 1/d(i, j), with unreachable
    pairs contributing 0; direction "in" uses distances toward the node.
    """
    axis = _direction_axis(direction)
    n = net.n_nodes
    if n < 2:
        return np.zeros(n)
    return _pair_efficiencies(shortest_path_costs(net)).sum(axis=axis) / (n - 1)


# Largest shortest-path count betweenness keeps exact (int64 holds up to 2**63 - 1).
_PATH_COUNT_LIMIT = 2**62


def _settlement_order(
    costs: np.ndarray, sources: np.ndarray, tails: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """Per source row, the order in which a (distance, index) heap Dijkstra settles the nodes.

    ``tails`` and ``heads`` hold every tight edge ``u -> v`` of row ``s`` as
    the flat entries ``(s, u)`` and ``(s, v)`` of ``costs``. Normally the
    order is by distance, ties by index. A tight edge can join two nodes at
    the same distance only when ``fl(d + 1/w) == d``; in a row with such an
    edge, a node is settled only once it is reached, so the row is
    replayed: the next node is the nearest reached one, lowest index first.
    Unreachable nodes come last, in any order.
    """
    order = np.argsort(costs, axis=1, kind="stable")
    flat, n = costs.reshape(-1), costs.shape[1]
    for k in np.unique(heads[flat[tails] == flat[heads]] // n).tolist():
        dist = costs[k]
        in_row = heads // n == k
        tail, head = tails[in_row] % n, heads[in_row] % n
        reached = np.zeros(n, dtype=bool)
        reached[sources[k]] = True
        waiting = np.isfinite(dist)
        settled = []
        for _ in range(int(waiting.sum())):
            ready = np.flatnonzero(reached & waiting)
            v = int(ready[np.argmin(dist[ready])])  # first minimum: the lowest index
            settled.append(v)
            waiting[v] = False
            reached[head[tail == v]] = True
        order[k] = settled + np.flatnonzero(~np.isfinite(dist)).tolist()
    return order


def betweenness(net: TradeNetwork) -> np.ndarray:
    """Shortest-path betweenness over 1/w lengths, directed, unnormalized.

    Equal-length shortest paths split the pair's contribution evenly
    (Brandes' dependency accumulation over the shortest-path DAG). The
    distances ``D`` come from :func:`shortest_path_costs`, one row per node
    with an active out-edge. From source ``s``, the nodes settle by
    distance, ties by the lowest index among the nodes already reached, and
    ``v`` is a predecessor of ``w`` when ``v`` settled before ``w`` and the
    edge is tight: ``D[s, v] + 1/weight(v, w) == D[s, w]``, the sum Dijkstra
    forms. That is the order and the DAG of a binary-heap Dijkstra keyed on
    (distance, index), and the scores equal its Brandes scores bit for bit.
    Path counts are held exactly in int64: a network in which some pair has
    more than 2**62 shortest paths raises ``ValueError``.

    Every tight (source, edge) pair is found once, in slices of about
    ``N * N`` candidates, and filed under the rank at which its head
    settles. The counts run forward and the dependencies backward, rank by
    rank over all sources at once, each rank over its own pairs only. So
    memory is O(sources x N) plus the tight pairs, at most sources x edges.
    """
    n = net.n_nodes
    scores = np.zeros(n)
    mask = net.active_edge_mask
    sources = np.flatnonzero(mask.any(axis=1))
    if sources.size == 0:
        return scores
    costs = shortest_path_costs(net, sources=sources)
    tails, heads = _ends(mask)
    # Each edge u -> v tight in row s, once: the flat entries (s, u) and (s, v) of its ends.
    pair_tails, pair_heads = [], []
    with np.errstate(over="ignore"):  # a sum past float64 is inf: no path
        for edges, entries in _tight(costs, net.baseline_lengths, tails, heads):
            pair_tails.append(entries + (tails[edges] - heads[edges]))
            pair_heads.append(entries)
    pair_tails, pair_heads = np.concatenate(pair_tails), np.concatenate(pair_heads)
    rows = np.arange(sources.size)
    origins = rows * n + sources  # the flat entries (s, s)
    # settled[s, r]: the flat entry (s, v) of the node v that settles r-th from source s.
    settled = _settlement_order(costs, sources, pair_tails, pair_heads) + rows[:, None] * n
    rank = np.empty(costs.size, dtype=np.intp)
    rank[settled] = np.arange(n)
    head_ranks = rank[pair_heads]
    by_rank = np.argsort(head_ranks)  # within one rank the order of the pairs changes no sum
    n_ranks = int(np.isfinite(costs).sum(axis=1).max())
    bounds = np.searchsorted(head_ranks[by_rank], np.arange(n_ranks + 1)).tolist()
    pairs = pair_tails[by_rank]  # rank r's pairs, by the entries of their tails
    owners = pairs // n  # and their source rows

    # A predecessor must settle before w. A tight edge from a node settling
    # later adds nothing: the forward pass has not counted that node's paths
    # yet, and the backward pass zeroes each node's weight once it is done.
    sigma = np.zeros(costs.size, dtype=np.int64)
    sigma[origins] = 1
    largest = 1
    for r in range(1, n_ranks):
        lo, hi = bounds[r], bounds[r + 1]
        paths = sigma[pairs[lo:hi]]
        count = np.zeros(sources.size, dtype=np.int64)
        np.add.at(count, owners[lo:hi], paths)
        if largest > _PATH_COUNT_LIMIT // n:  # n counts could pass the limit, or wrap int64
            wide = np.bincount(owners[lo:hi], paths.astype(float), minlength=sources.size)
            if max(count.max(), wide.max()) > _PATH_COUNT_LIMIT:
                raise ValueError("betweenness counts shortest paths exactly only up to 2**62")
        largest = max(largest, int(count.max()))
        sigma[settled[:, r]] = count

    weight = sigma.astype(float)
    del sigma
    delta = np.zeros(costs.size)
    with np.errstate(divide="ignore", invalid="ignore"):  # unreachable and padding ranks: sigma 0
        for r in range(n_ranks - 1, 0, -1):
            w = settled[:, r]
            coeff = (1.0 + delta[w]) / weight[w]
            weight[w] = 0.0
            lo, hi = bounds[r], bounds[r + 1]
            at = pairs[lo:hi]  # one head per row: no entry twice
            delta[at] += weight[at] * coeff[owners[lo:hi]]
    delta[origins] = 0.0
    for row in delta.reshape(sources.size, n):
        scores += row
    return scores


def pagerank(
    net: TradeNetwork, damping: float = 0.85, tol: float = 1e-10, max_iter: int = 200
) -> np.ndarray:
    """Weighted PageRank; scores sum to 1, dangling mass spread uniformly."""
    n = net.n_nodes
    if n == 0:
        return np.zeros(0)
    w = net.active_weights()
    out = w.sum(axis=1)
    dangling = out == 0
    trans = np.zeros_like(w)
    trans[~dangling] = w[~dangling] / out[~dangling, None]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = damping * (x @ trans + x[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    warnings.warn(f"pagerank did not converge within {max_iter} iterations", RuntimeWarning)
    return x


def hits(
    net: TradeNetwork, tol: float = 1e-10, max_iter: int = 500
) -> tuple[np.ndarray, np.ndarray]:
    """Hub and authority scores by power iteration on the weighted adjacency.

    Both vectors are L2-normalized each step and nonnegative throughout.
    Raises on a network with no active edges (the iteration is undefined).
    When the change between steps is still at or above ``tol`` after
    ``max_iter`` steps, warns with a ``RuntimeWarning`` and returns the last
    iterate, which need not be close to the fixed point.
    """
    w = net.active_weights()
    if not w.any():
        raise ValueError("HITS requires at least one active edge")
    n = net.n_nodes
    hubs_vec = np.full(n, 1.0 / math.sqrt(n))
    auth_vec = np.zeros(n)
    for _ in range(max_iter):
        new_auth = hubs_vec @ w
        norm = float(np.linalg.norm(new_auth))
        if norm > 0:
            new_auth /= norm
        new_hubs = w @ new_auth
        norm = float(np.linalg.norm(new_hubs))
        if norm > 0:
            new_hubs /= norm
        change = np.abs(new_hubs - hubs_vec).sum() + np.abs(new_auth - auth_vec).sum()
        hubs_vec, auth_vec = new_hubs, new_auth
        if change < tol:
            return hubs_vec, auth_vec
    warnings.warn(f"HITS did not converge within {max_iter} iterations", RuntimeWarning)
    return hubs_vec, auth_vec


def clustering(net: TradeNetwork) -> np.ndarray:
    """Local clustering coefficient on the binarized undirected projection."""
    und = (net.active_edge_mask | net.active_edge_mask.T).astype(float)
    k = und.sum(axis=1)
    triangles = np.einsum("ij,jk,ki->i", und, und, und) / 2.0
    out = np.zeros(net.n_nodes)
    eligible = k >= 2
    out[eligible] = triangles[eligible] / (k[eligible] * (k[eligible] - 1) / 2.0)
    return out


def _louvain_sweeps(adj: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
    """One level of local moves; returns (community labels, any move made).

    Each node, in a seeded random order, moves to the neighbouring community
    of highest modularity gain, the lowest label among equal gains, when that
    gain is strictly better than staying.
    """
    n = adj.shape[0]
    comm = np.arange(n)
    two_m = adj.sum()
    if two_m <= 0:
        return comm, False
    k = adj.sum(axis=1)
    sigma_tot = k.copy()
    off_diagonal = adj.copy()
    np.fill_diagonal(off_diagonal, 0.0)  # self-loops move with the node; they never decide
    neighbours = [np.flatnonzero(row) for row in off_diagonal]
    link = [row[nbrs] for row, nbrs in zip(off_diagonal, neighbours)]
    moved_any = False
    while True:
        moves = 0
        for i in rng.permutation(n).tolist():
            ci = int(comm[i])
            sigma_tot[ci] -= k[i]
            best_c = ci
            if neighbours[i].size:
                link_w = np.bincount(comm[neighbours[i]], weights=link[i], minlength=n)
                gains = link_w - k[i] * sigma_tot / two_m
                # Candidates are the communities linked to i (link weights are positive).
                best = int(np.argmax(np.where(link_w > 0, gains, -np.inf)))
                if gains[best] > gains[ci]:
                    best_c = best
            comm[i] = best_c
            sigma_tot[best_c] += k[i]
            if best_c != ci:
                moves += 1
        if moves == 0:
            break
        moved_any = True
    return comm, moved_any


def detect_communities(net: TradeNetwork, seed: int | None = 0) -> np.ndarray:
    """Modularity-maximizing module assignment, deterministic given the seed.

    Operates on the undirected weight-summed projection of active edges.
    Returns an integer module id per node index, labels numbered by first
    appearance in node order.
    """
    n = net.n_nodes
    w = net.active_weights()
    level = w + w.T
    np.fill_diagonal(level, 0.0)
    rng = np.random.default_rng(0 if seed is None else seed)
    membership = np.arange(n)
    while level.shape[0] > 1:
        comm, moved = _louvain_sweeps(level, rng)
        if not moved:
            break
        _, compact = np.unique(comm, return_inverse=True)
        membership = compact[membership]
        n_comm = int(compact.max()) + 1
        indicator = np.zeros((level.shape[0], n_comm))
        indicator[np.arange(level.shape[0]), compact] = 1.0
        level = indicator.T @ level @ indicator  # diagonal = intra weight, both orders

    _, first, labels = np.unique(membership, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[labels]  # numbered by first appearance


class ModuleIndicators(NamedTuple):
    within_module_z: np.ndarray
    outside_module_degree: np.ndarray
    participation: np.ndarray


def module_indicators(net: TradeNetwork, assignment: np.ndarray) -> ModuleIndicators:
    """Within-module degree z-score, inter-module degree, and participation.

    All three use the binarized undirected projection. A module with zero
    degree spread gets z = 0; a node with no links gets participation 0.
    """
    n = net.n_nodes
    assignment = np.asarray(assignment, dtype=int)
    if assignment.shape != (n,):
        raise ValueError(f"assignment must have one module per node, got shape {assignment.shape}")
    und = (net.active_edge_mask | net.active_edge_mask.T).astype(float)
    k = und.sum(axis=1)
    if n == 0:
        empty = np.zeros(0)
        return ModuleIndicators(empty, empty.copy(), empty.copy())
    n_modules = int(assignment.max()) + 1
    indicator = np.zeros((n, n_modules))
    indicator[np.arange(n), assignment] = 1.0
    per_module = und @ indicator  # links from node i into module s
    own = per_module[np.arange(n), assignment]
    z = np.zeros(n)
    for s in range(n_modules):
        members = assignment == s
        if not members.any():
            continue
        mu = own[members].mean()
        sd = own[members].std()
        if sd > 0:
            z[members] = (own[members] - mu) / sd
    outside = k - own
    participation = np.zeros(n)
    linked = k > 0
    participation[linked] = 1.0 - ((per_module[linked] / k[linked, None]) ** 2).sum(axis=1)
    return ModuleIndicators(z, outside, participation)


def _node_scores(net: TradeNetwork, indicator: IndicatorKind, seed: int | None) -> np.ndarray:
    if indicator is IndicatorKind.out_degree:
        return degree(net, "out")
    if indicator is IndicatorKind.in_degree:
        return degree(net, "in")
    if indicator is IndicatorKind.out_strength:
        return strength(net, "out")
    if indicator is IndicatorKind.in_strength:
        return strength(net, "in")
    if indicator is IndicatorKind.out_closeness:
        return closeness(net, "out")
    if indicator is IndicatorKind.in_closeness:
        return closeness(net, "in")
    if indicator is IndicatorKind.betweenness:
        return betweenness(net)
    if indicator is IndicatorKind.pagerank:
        return pagerank(net)
    if indicator in (IndicatorKind.hubs, IndicatorKind.authorities):
        if not net.active_edge_mask.any():
            return np.zeros(net.n_nodes)  # HITS is undefined; the tie-break orders the nodes
        hubs_vec, auth_vec = hits(net)
        return hubs_vec if indicator is IndicatorKind.hubs else auth_vec
    if indicator is IndicatorKind.clustering:
        return clustering(net)
    if indicator in _MODULE_INDICATORS:
        assignment = detect_communities(net, seed=seed)
        mods = module_indicators(net, assignment)
        if indicator is IndicatorKind.within_module:
            return mods.within_module_z
        if indicator is IndicatorKind.outside_module:
            return mods.outside_module_degree
        return mods.participation
    if indicator is IndicatorKind.random:
        rng = np.random.default_rng(0 if seed is None else seed)
        return rng.random(net.n_nodes)
    raise ValueError(f"{indicator.value} is not a node indicator")


def _code_ranks(net: TradeNetwork) -> np.ndarray:
    """Each node's place in Python's order of the codes (``<U`` arrays drop trailing NULs)."""
    return np.argsort(sorted(range(net.n_nodes), key=net.codes.__getitem__))


def node_order(net: TradeNetwork, scores: np.ndarray) -> np.ndarray:
    """Active node indices by score descending, then total strength descending, then code."""
    active = np.flatnonzero(net.active_node_mask)
    tie_strength = strength(net, "out") + strength(net, "in")
    keys = (_code_ranks(net)[active], -tie_strength[active], -scores[active])
    return active[np.lexsort(keys)]


def edge_order(
    net: TradeNetwork, scores: np.ndarray, tails: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """Edge positions ``k`` by score descending, then code of ``tails[k]``, then of ``heads[k]``."""
    ranks = _code_ranks(net)
    return np.lexsort((ranks[heads], ranks[tails], -scores))


def rank_nodes(
    net: TradeNetwork, indicator: IndicatorKind | str, seed: int | None = None
) -> InfluenceRanking:
    """Active nodes in descending indicator order, ties broken by :func:`node_order`.

    The seed drives the random indicator and community detection; None
    means 0 so every ranking replays by default.
    """
    kind = IndicatorKind(indicator)
    if kind not in NODE_INDICATORS:
        raise ValueError(f"{kind.value} does not rank nodes")
    scores = _node_scores(net, kind, seed)
    order = node_order(net, scores).tolist()
    return InfluenceRanking(
        kind,
        tuple(net.code_of(i) for i in order),
        tuple(scores[order].tolist()),
        seed,
    )


def rank_edges(
    net: TradeNetwork,
    indicator: IndicatorKind | str = IndicatorKind.edge_weight,
    seed: int | None = None,
) -> InfluenceRanking:
    """Active edges descending by weight, or seeded-random; ties broken by :func:`edge_order`."""
    kind = IndicatorKind(indicator)
    if kind not in EDGE_INDICATORS:
        raise ValueError(f"{kind.value} does not rank edges")
    tails, heads = _ends(net.active_edge_mask)
    if kind is IndicatorKind.edge_weight:
        scores = net.baseline_weights[tails, heads]
    else:
        rng = np.random.default_rng(0 if seed is None else seed)
        scores = rng.random(tails.size)
    order = edge_order(net, scores, tails, heads)
    codes = net.codes
    return InfluenceRanking(
        kind,
        tuple((codes[i], codes[j]) for i, j in zip(tails[order].tolist(), heads[order].tolist())),
        tuple(scores[order].tolist()),
        seed,
    )
