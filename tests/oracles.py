"""Brute-force reference implementations, independent of the package's code.

Everything here works by exhaustive enumeration of simple paths on the raw
weight matrix, so it is exponentially slow and only usable on tiny graphs.
Path costs are accumulated left to right along each path — the same order a
priority-queue shortest-path relaxation produces — and with nonnegative
lengths float path sums are monotone along a path, so the minimum over all
simple paths is exactly the value a correct shortest-path routine returns.

The last section keeps former implementations of the package, word for
word: the heap-based Brandes betweenness, the dict-based Louvain local-move
sweep, the scenario loop that recomputed efficiency in full after every
batch, the rankings that ordered items by a Python ``sorted`` key, and the
mask updates that checked and flipped one element at a time. Their
replacements must equal them bit for bit. The scenario loop ranks through
the former sorted-key orderings, so every comparison with it checks the
schedule's order too.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from tradeshock import (
    EDGE_INDICATORS,
    NODE_INDICATORS,
    DistanceEngine,
    IndicatorKind,
    InfluenceRanking,
    Phase,
    RecoveryOrder,
    ScenarioConfig,
    ShockStateError,
    TargetKind,
    TradeNetwork,
    Trajectory,
    network_efficiency,
    shortest_path_costs,
    strength,
)
from tradeshock.centrality import _node_scores
from tradeshock.simulation import _apply_shock, _chunked, child_seed


def _adjacency(net: TradeNetwork) -> list[list[tuple[int, float]]]:
    mask = net.active_edge_mask
    weights = net.baseline_weights
    n = net.n_nodes
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if mask[i, j]:
                adj[i].append((j, 1.0 / weights[i, j]))
    return adj


def all_pairs_costs(net: TradeNetwork) -> np.ndarray:
    """Minimum path cost between every ordered pair, by exhaustive search.

    Branches are pruned only when they cannot improve the label of the node
    they are entering; with nonnegative lengths this label-correcting search
    still visits an optimal prefix of every shortest path.
    """
    n = net.n_nodes
    adj = _adjacency(net)
    costs = np.full((n, n), math.inf)

    for s in range(n):
        best = [math.inf] * n
        best[s] = 0.0
        visited = [False] * n
        visited[s] = True

        def explore(node: int, cost_so_far: float) -> None:
            for nxt, length in adj[node]:
                if visited[nxt]:
                    continue
                cost = cost_so_far + length
                if cost < best[nxt]:
                    best[nxt] = cost
                    visited[nxt] = True
                    explore(nxt, cost)
                    visited[nxt] = False

        explore(s, 0.0)
        costs[s] = best
    return costs


def all_shortest_paths(net: TradeNetwork, s: int, t: int) -> list[list[int]]:
    """Every simple path from s to t whose cost equals the minimum cost."""
    adj = _adjacency(net)
    n = net.n_nodes
    found: list[tuple[list[int], float]] = []
    upper = [math.inf]
    visited = [False] * n
    visited[s] = True

    def explore(node: int, path: list[int], cost: float) -> None:
        if node == t:
            found.append((path.copy(), cost))
            upper[0] = min(upper[0], cost)
            return
        for nxt, length in adj[node]:
            if visited[nxt]:
                continue
            nxt_cost = cost + length
            if nxt_cost > upper[0]:
                continue  # sums only grow, so this branch can never tie
            visited[nxt] = True
            path.append(nxt)
            explore(nxt, path, nxt_cost)
            path.pop()
            visited[nxt] = False

    explore(s, [s], 0.0)
    if not found:
        return []
    min_cost = min(cost for _, cost in found)
    return [path for path, cost in found if cost == min_cost]


def efficiency_oracle(net: TradeNetwork) -> float:
    """Raw network efficiency from enumerated path costs, fsum-aggregated."""
    n = net.n_nodes
    if n < 2:
        return 0.0
    costs = all_pairs_costs(net)
    terms = []
    for i in range(n):
        for j in range(n):
            if i != j and not math.isinf(costs[i, j]):
                terms.append(1.0 / costs[i, j])
    return math.fsum(terms) / (n * (n - 1))


def closeness_oracle(net: TradeNetwork, direction: str) -> np.ndarray:
    """Harmonic closeness from enumerated path costs.

    Aggregation mirrors the implementation (a numpy axis sum over the
    reciprocal-cost matrix) so that any disagreement isolates the distance
    computation itself.
    """
    n = net.n_nodes
    if n < 2:
        return np.zeros(n)
    costs = all_pairs_costs(net)
    with np.errstate(divide="ignore"):
        inv = 1.0 / costs
    np.fill_diagonal(inv, 0.0)
    inv[np.isinf(costs)] = 0.0
    axis = 1 if direction == "out" else 0
    return inv.sum(axis=axis) / (n - 1)


def betweenness_oracle(net: TradeNetwork) -> np.ndarray:
    """Betweenness by enumerating all shortest paths for every pair."""
    n = net.n_nodes
    scores = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = all_shortest_paths(net, s, t)
            if not paths:
                continue
            total = len(paths)
            through: dict[int, int] = {}
            for path in paths:
                for v in path[1:-1]:
                    through[v] = through.get(v, 0) + 1
            for v, count in through.items():
                scores[v] += count / total
    return scores


# -- former implementations ------------------------------------------------


def heap_betweenness(net: TradeNetwork) -> np.ndarray:
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


def dict_louvain_sweeps(adj: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
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


def sorted_rank_nodes(
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


def sorted_rank_edges(
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


def sorted_rank_by_impact(net: TradeNetwork, target_kind: TargetKind | str, top_k: int) -> list:
    """Most damaging single removals, as (element, impact) pairs.

    An element's impact is the drop in normalized efficiency when it alone
    is removed, with the network's mean edge weight as the reference. One
    all-pairs Dijkstra gives the intact distances; each active element is
    then removed through a :class:`DistanceEngine`, which updates only the
    entries the removal can change, and put back by writing the saved
    matrix back and restoring the masks. Ties break by total strength then
    code for nodes, and by (source, target) for edges.
    """
    kind = TargetKind(target_kind)
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    work = net.fork()
    reference = work.stats().mean_edge_weight
    if reference <= 0:
        raise ValueError("impact needs a network with at least one active edge")
    intact = shortest_path_costs(work)
    engine = DistanceEngine(work, intact.copy())
    before = engine.raw_efficiency / reference

    def impact_of(element) -> float:
        engine.remove([element])
        after = engine.raw_efficiency / reference
        np.copyto(engine.costs, intact)
        work.restore([element])
        return before - after

    results: list[tuple] = []
    if kind is TargetKind.nodes:
        tie_strength = strength(net, "out") + strength(net, "in")
        active = net.active_node_mask
        for i in range(net.n_nodes):
            if not active[i]:
                continue
            code = net.code_of(i)
            results.append((code, impact_of(code), float(tie_strength[i])))
        results.sort(key=lambda item: (-item[1], -item[2], item[0]))
        return [(code, impact) for code, impact, _ in results[:top_k]]

    for edge in net.active_edges():
        pair = (edge.source, edge.target)
        results.append((pair, impact_of(pair)))
    results.sort(key=lambda item: (-item[1], item[0][0], item[0][1]))
    return results[:top_k]


def _ranked_targets(net: TradeNetwork, config: ScenarioConfig, seed: int) -> tuple:
    if config.target_kind is TargetKind.nodes:
        return sorted_rank_nodes(net, config.indicator, seed=seed).ordered_items
    return sorted_rank_edges(net, config.indicator, seed=seed).ordered_items


def forward_shock_recovery(net: TradeNetwork, config: ScenarioConfig) -> Trajectory:
    """One scenario with a full efficiency recompute after every batch, walking forward."""
    work = net.fork()
    reference = work.stats().mean_edge_weight
    if reference <= 0:
        raise ValueError("scenario needs a network with at least one active edge")
    if config.target_kind is TargetKind.nodes:
        n_targets = work.n_active_nodes
    else:
        n_targets = work.n_active_edges
    if config.shock_depth * n_targets < 1:
        raise ValueError(
            f"shock depth {config.shock_depth} of {n_targets} targets covers "
            "less than one element; nothing to shock"
        )
    batch = math.ceil(config.batch_fraction * n_targets)
    total = math.ceil(config.shock_depth * n_targets)

    ne: list[float] = []
    batches: list[tuple] = []

    def record(phase: Phase, chunk: tuple) -> None:
        ne.append(network_efficiency(work).raw_efficiency / reference)
        if phase is not Phase.baseline:
            batches.append(chunk)

    record(Phase.baseline, ())
    shocked: list = []
    if config.recompute_rankings:
        # Re-rank the survivors before every batch; random draws get a fresh
        # stream per step so replicates stay independent across steps too.
        step_index = 0
        while len(shocked) < total:
            take = min(batch, total - len(shocked))
            ranked = _ranked_targets(work, config, child_seed(config.master_seed, step_index))
            chunk = tuple(ranked[:take])
            _apply_shock(work, config.target_kind, chunk)
            shocked.extend(chunk)
            record(Phase.shock, chunk)
            step_index += 1
    else:
        ranked = _ranked_targets(work, config, config.master_seed)
        for chunk in _chunked(ranked[:total], batch):
            _apply_shock(work, config.target_kind, chunk)
            shocked.extend(chunk)
            record(Phase.shock, chunk)
    t_r = len(ne) - 1

    if config.recovery_order is RecoveryOrder.shock_order:
        recovery_sequence: list = shocked
    else:
        recovery_sequence = shocked[::-1]
    for chunk in _chunked(recovery_sequence, batch):
        work.restore(chunk)
        record(Phase.recovery, chunk)
    return Trajectory(tuple(ne), t_r, tuple(batches), reference)


def sequential_shock_nodes(net: TradeNetwork, targets) -> TradeNetwork:
    """Mask the given nodes; all incident edges go inactive with them."""
    for code in targets:
        i = net.index_of(code)
        if net._node_shocked[i]:
            raise ShockStateError(f"node {code!r} is already shocked")
        net._node_shocked[i] = True
    return net


def sequential_shock_edges(net: TradeNetwork, targets) -> TradeNetwork:
    """Mask the given edges only; endpoints stay active even if isolated."""
    for source, target in targets:
        i, j = net.index_of(source), net.index_of(target)
        if not net._has_edge[i, j]:
            raise ValueError(f"no such trade relationship {source!r} -> {target!r}")
        if net._edge_shocked[i, j]:
            raise ShockStateError(f"edge {source!r} -> {target!r} is already shocked")
        if net._node_shocked[i] or net._node_shocked[j]:
            raise ShockStateError(
                f"edge {source!r} -> {target!r} is inactive via a shocked endpoint"
            )
        net._edge_shocked[i, j] = True
    return net


def sequential_restore(net: TradeNetwork, elements) -> TradeNetwork:
    """Reactivate elements, in order, at their original baseline weights."""
    for element in elements:
        if isinstance(element, str):
            i = net.index_of(element)
            if not net._node_shocked[i]:
                raise ShockStateError(f"node {element!r} is already active")
            net._node_shocked[i] = False
        else:
            source, target = element
            i, j = net.index_of(source), net.index_of(target)
            if not net._edge_shocked[i, j]:
                raise ShockStateError(f"edge {source!r} -> {target!r} was not shocked")
            net._edge_shocked[i, j] = False
    return net
