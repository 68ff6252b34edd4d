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
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from .efficiency import _pair_efficiencies, shortest_path_costs
from .network import TradeNetwork


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
    return _pair_efficiencies(shortest_path_costs(net), np.arange(n)).sum(axis=axis) / (n - 1)


def betweenness(net: TradeNetwork) -> np.ndarray:
    """Shortest-path betweenness over 1/w lengths, directed, unnormalized.

    Equal-length shortest paths split the pair's contribution evenly
    (standard dependency accumulation over the shortest-path DAG).
    """
    n = net.n_nodes
    scores = np.zeros(n)
    weights = net.baseline_weights
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    rows, cols = np.nonzero(net.active_edge_mask)
    for i, j in zip(rows.tolist(), cols.tolist()):
        adj[i].append((j, 1.0 / weights[i, j]))

    for s in range(n):
        if not adj[s]:
            continue
        dist = [math.inf] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        settled = [False] * n
        order: list[int] = []
        dist[s] = 0.0
        sigma[s] = 1
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            _, v = heappop(heap)
            if settled[v]:
                continue
            settled[v] = True
            order.append(v)
            dv = dist[v]
            for u, length in adj[v]:
                nd = dv + length
                if nd < dist[u]:
                    dist[u] = nd
                    sigma[u] = sigma[v]
                    preds[u] = [v]
                    heappush(heap, (nd, u))
                elif nd == dist[u] and not settled[u]:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                scores[w] += delta[w]
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
    """One level of local moves; returns (community labels, any move made)."""
    n = adj.shape[0]
    comm = np.arange(n)
    two_m = adj.sum()
    if two_m <= 0:
        return comm, False
    k = adj.sum(axis=1)
    sigma_tot = k.copy()
    moved_any = False
    while True:
        moves = 0
        for i in rng.permutation(n).tolist():
            ci = int(comm[i])
            row = adj[i]
            link_w: dict[int, float] = {}
            for j in np.nonzero(row)[0].tolist():
                if j != i:  # self-loops move with the node; they never decide
                    c = int(comm[j])
                    link_w[c] = link_w.get(c, 0.0) + row[j]
            sigma_tot[ci] -= k[i]
            best_c = ci
            best_gain = link_w.get(ci, 0.0) - k[i] * sigma_tot[ci] / two_m
            for c in sorted(link_w):
                if c == ci:
                    continue
                gain = link_w[c] - k[i] * sigma_tot[c] / two_m
                if gain > best_gain:
                    best_gain, best_c = gain, c
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
        if n_comm == level.shape[0]:
            break
        indicator = np.zeros((level.shape[0], n_comm))
        indicator[np.arange(level.shape[0]), compact] = 1.0
        level = indicator.T @ level @ indicator  # diagonal = intra weight, both orders

    remap: dict[int, int] = {}
    out = np.empty(n, dtype=int)
    for i, c in enumerate(membership.tolist()):
        out[i] = remap.setdefault(c, len(remap))
    return out


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


def rank_nodes(
    net: TradeNetwork, indicator: IndicatorKind | str, seed: int | None = None
) -> InfluenceRanking:
    """Active nodes in descending indicator order.

    Ties break by total (in + out) strength descending, then code. The
    seed drives the random indicator and community detection; None means 0
    so every ranking replays by default.
    """
    kind = IndicatorKind(indicator)
    if kind not in NODE_INDICATORS:
        raise ValueError(f"{kind.value} does not rank nodes")
    scores = _node_scores(net, kind, seed)
    tie_strength = strength(net, "out") + strength(net, "in")
    active = net.active_node_mask
    order = sorted(
        (i for i in range(net.n_nodes) if active[i]),
        key=lambda i: (-scores[i], -tie_strength[i], net.code_of(i)),
    )
    return InfluenceRanking(
        kind,
        tuple(net.code_of(i) for i in order),
        tuple(float(scores[i]) for i in order),
        seed,
    )


def rank_edges(
    net: TradeNetwork,
    indicator: IndicatorKind | str = IndicatorKind.edge_weight,
    seed: int | None = None,
) -> InfluenceRanking:
    """Active edges descending by weight (ties by codes), or seeded-random."""
    kind = IndicatorKind(indicator)
    if kind not in EDGE_INDICATORS:
        raise ValueError(f"{kind.value} does not rank edges")
    edges = list(net.active_edges())
    if kind is IndicatorKind.edge_weight:
        scores = [e.weight for e in edges]
    else:
        rng = np.random.default_rng(0 if seed is None else seed)
        scores = rng.random(len(edges)).tolist()
    order = sorted(
        range(len(edges)), key=lambda k_: (-scores[k_], edges[k_].source, edges[k_].target)
    )
    return InfluenceRanking(
        kind,
        tuple((edges[k_].source, edges[k_].target) for k_ in order),
        tuple(float(scores[k_]) for k_ in order),
        seed,
    )
