"""Weighted directed trade network with maskable shock and restore operations.

The network for one year is a dense ``N x N`` weight matrix plus two
activity masks, one per node and one per edge. Shocking an element flips
its mask; the baseline weights are frozen at build time and never touched,
so restoring every shocked element reproduces the original network bit for
bit. An edge is active exactly when it exists in the baseline, has not been
shocked itself, and both endpoints are unshocked.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# A directed edge handle: (source code, target code).
EdgePair = tuple[str, str]


class ShockStateError(RuntimeError):
    """Shock or restore applied to an element in the wrong state.

    Double-shocking or restoring an already-active element signals a
    scheduling bug in the caller, so it is an error rather than a no-op.
    """


@dataclass(frozen=True)
class NetworkStats:
    """Summary of the currently active part of a network."""

    n_nodes: int
    n_edges: int
    density: float
    total_volume: float
    mean_edge_weight: float


class TradeNetwork:
    """Directed trade graph for one year, with shock/restore mask semantics.

    Nodes are economy codes (e.g. ``"USA"``) mapped to dense indices in the
    order the constructor is given them; :func:`build_network` gives them in
    sorted code order, which makes every derived quantity independent of
    record order. Mutating operations (:meth:`shock_nodes`,
    :meth:`shock_edges`, :meth:`restore`) modify this instance's masks in
    place and return ``self``; use :meth:`fork` to give each scenario a
    private mask copy over the shared read-only baseline.
    """

    def __init__(self, codes: Iterable[str], weights: np.ndarray, year: int | None = None):
        self._codes: tuple[str, ...] = tuple(codes)
        self._index: dict[str, int] = {c: i for i, c in enumerate(self._codes)}
        if len(self._index) != len(self._codes):
            raise ValueError("economy codes must be unique")
        n = len(self._codes)
        w = np.array(weights, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} does not match {n} codes")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        has_edge = w > 0
        with np.errstate(divide="ignore", over="ignore"):
            lengths = 1.0 / w  # inf where there is no edge
            total = w[has_edge].sum()
        too_light = has_edge & np.isinf(lengths)
        if too_light.any():
            i, j = np.argwhere(too_light)[0]
            raise ValueError(
                f"{self._codes[i]} -> {self._codes[j]}{_in_year(year)}: weight "
                f"{float(w[i, j])!r} is too small, its length 1/w overflows"
            )
        if not np.isfinite(total):
            raise ValueError(f"the total trade volume{_in_year(year)} overflows")
        w.setflags(write=False)
        self._weights = w
        self._has_edge = has_edge
        self._has_edge.setflags(write=False)
        lengths.setflags(write=False)
        self._lengths = lengths
        self.year = year
        self._node_shocked = np.zeros(n, dtype=bool)
        self._edge_shocked = np.zeros((n, n), dtype=bool)

    # -- identity ---------------------------------------------------------

    @property
    def codes(self) -> tuple[str, ...]:
        return self._codes

    @property
    def n_nodes(self) -> int:
        return len(self._codes)

    @property
    def n_edges(self) -> int:
        """Baseline edge count, independent of masks."""
        return int(self._has_edge.sum())

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except (KeyError, TypeError):  # TypeError: an unhashable element, such as a list
            raise ValueError(f"unknown economy {code!r}") from None

    def code_of(self, index: int) -> str:
        return self._codes[index]

    @property
    def baseline_weights(self) -> np.ndarray:
        """Frozen ``N x N`` baseline weight matrix (read-only view)."""
        return self._weights

    @property
    def baseline_lengths(self) -> np.ndarray:
        """Frozen ``N x N`` edge lengths ``1/w``, ``inf`` where there is no edge (read-only)."""
        return self._lengths

    # -- mask state --------------------------------------------------------

    @property
    def active_node_mask(self) -> np.ndarray:
        return ~self._node_shocked

    @property
    def active_edge_mask(self) -> np.ndarray:
        mask = self._has_edge > self._edge_shocked  # an edge, and not shocked itself
        mask[self._node_shocked] = False
        mask[:, self._node_shocked] = False
        return mask

    @property
    def n_active_nodes(self) -> int:
        return int((~self._node_shocked).sum())

    @property
    def n_active_edges(self) -> int:
        return int(self.active_edge_mask.sum())

    def active_weights(self) -> np.ndarray:
        """Weight matrix with every inactive entry zeroed (fresh copy)."""
        return np.where(self.active_edge_mask, self._weights, 0.0)

    def fork(self) -> "TradeNetwork":
        """Copy with private masks; the baseline matrix is shared read-only."""
        clone = copy.copy(self)
        clone._node_shocked = self._node_shocked.copy()
        clone._edge_shocked = self._edge_shocked.copy()
        return clone

    # -- shock / restore ----------------------------------------------------

    def shock_nodes(self, targets: Iterable[str]) -> "TradeNetwork":
        """Mask the given nodes; all incident edges go inactive with them.

        The whole batch is checked before any mask changes: the first node
        that is unknown, already shocked or repeated raises, and a rejected
        batch leaves the masks as they were.
        """
        return self._flip(targets, True, nodes=True, edges=False)

    def shock_edges(self, targets: Iterable[EdgePair]) -> "TradeNetwork":
        """Mask the given edges only; endpoints stay active even if isolated.

        Each target is a (source, target) pair. Checked as a batch, like :meth:`shock_nodes`.
        """
        return self._flip(targets, True, nodes=False, edges=True)

    def restore(self, elements: Iterable[str | EdgePair]) -> "TradeNetwork":
        """Reactivate elements at their original baseline weights.

        Restoring a node brings an incident edge back only once its other
        endpoint is active too (and the edge itself was not shocked). Checked
        as a batch, like :meth:`shock_nodes`.
        """
        return self._flip(elements, False, nodes=True, edges=True)

    def _flip(self, elements: Iterable, shock: bool, nodes: bool, edges: bool) -> "TradeNetwork":
        """Set each element's shock flag to ``shock``; with both kinds, a string is a node.

        Flags are read with ``bool()``: ``==`` between a numpy bool and a
        Python bool costs about 17 times the read itself.
        """
        node_set: set[int] = set()
        edge_set: set[tuple[int, int]] = set()
        index_of, node_shocked, edge_shocked = self.index_of, self._node_shocked, self._edge_shocked
        for element in elements:
            is_code = isinstance(element, str)
            if nodes and (is_code or not edges):
                i = index_of(element)
                if bool(node_shocked[i]) == shock or i in node_set:
                    raise ShockStateError(
                        f"node {element!r} is already {'shocked' if shock else 'active'}"
                    )
                node_set.add(i)
                continue
            try:
                source, target = () if is_code else element
            except (TypeError, ValueError):
                raise ValueError(f"expected a (source, target) pair, got {element!r}") from None
            i, j = index_of(source), index_of(target)
            if shock and not self._has_edge[i, j]:
                raise ValueError(f"no such trade relationship {source!r} -> {target!r}")
            if bool(edge_shocked[i, j]) == shock or (i, j) in edge_set:
                state = "is already shocked" if shock else "was not shocked"
                raise ShockStateError(f"edge {source!r} -> {target!r} {state}")
            if shock and (node_shocked[i] or node_shocked[j]):
                raise ShockStateError(
                    f"edge {source!r} -> {target!r} is inactive via a shocked endpoint"
                )
            edge_set.add((i, j))
        for i in node_set:
            node_shocked[i] = shock
        for i, j in edge_set:
            edge_shocked[i, j] = shock
        return self

    # -- summaries -----------------------------------------------------------

    def stats(self) -> NetworkStats:
        """Density, total volume and mean edge weight over active elements."""
        mask = self.active_edge_mask
        n_act = self.n_active_nodes
        e_act = int(mask.sum())
        density = e_act / (n_act * (n_act - 1)) if n_act >= 2 else 0.0
        total = float(self._weights[mask].sum())
        mean = total / e_act if e_act > 0 else 0.0
        return NetworkStats(n_act, e_act, density, total, mean)

    def __repr__(self) -> str:
        return (
            f"TradeNetwork(year={self.year}, nodes={self.n_active_nodes}/{self.n_nodes}, "
            f"edges={self.n_active_edges}/{self.n_edges})"
        )


def _ends(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the edges set in the ``N x N`` mask ``edges``, in row-major order.

    A 2-D ``np.nonzero`` gives the same, about 15 times slower at N = 200.
    """
    return np.divmod(np.flatnonzero(edges), edges.shape[0])


def _in_year(year: int | None) -> str:
    return "" if year is None else f" in {year}"


def build_network(
    records: Iterable[tuple[str, str, float]], year: int | None = None
) -> TradeNetwork:
    """Assemble a network from (source, target, weight) flow records.

    Parallel records for the same ordered pair are aggregated by summation
    (exactly rounded, so the result is independent of record order).
    Self-loops are dropped; their endpoints still join the node set.
    Zero, negative or non-finite weights are rejected.
    """
    flows: dict[tuple[str, str], list[float]] = defaultdict(list)
    codes: set[str] = set()
    for k, (source, target, weight) in enumerate(records):
        if not source or not target:
            raise ValueError(f"record {k} ({source!r} -> {target!r}): empty economy code")
        w = float(weight)
        if not math.isfinite(w):
            raise ValueError(f"record {k} ({source} -> {target}): non-finite weight {weight!r}")
        if w <= 0:
            raise ValueError(f"record {k} ({source} -> {target}): weight must be positive, got {w}")
        codes.add(source)
        codes.add(target)
        if source == target:
            continue
        flows[(source, target)].append(w)

    ordered = sorted(codes)
    index = {c: i for i, c in enumerate(ordered)}
    weights = np.zeros((len(ordered), len(ordered)))
    for (source, target), values in flows.items():
        try:
            weights[index[source], index[target]] = math.fsum(values)
        except OverflowError:
            raise ValueError(
                f"{source} -> {target}{_in_year(year)}: the sum of {len(values)} records overflows"
            ) from None
    return TradeNetwork(ordered, weights, year=year)
