"""Shock-recovery scenario execution and single-element impact rankings.

A scenario forks the network, freezes the baseline mean edge weight as the
normalization reference, and fixes one list of elements, the shock list:
the first ``total = ceil(shock_depth * targets)`` of the ranking, or, when
rankings are recomputed, each batch taken from a fresh ranking of the
survivors. Batch ``k`` of either phase ends ``ends[k - 1] = min(k * batch,
total)`` elements into its order: the shock phase removes the list front
to back, and the recovery phase restores it in shock order or reversed.
Normalized efficiency is read after every batch, so each trajectory is a
staircase kept by position: ``ne[0]`` is the baseline, ``ne[1:t_r + 1]``
the shock phase down to the maximum shock at ``t_r``, and ``ne[t_r + 1:]``
the recovery phase; ``batches[t - 1]`` holds the elements shocked or
restored at step ``t``.

The schedule shocks the list, a static ranking in one call, and computes
no efficiency. One all-pairs Dijkstra at the deepest state then gives
every other point by restoring shocked elements, which only inserts edges;
a :class:`~tradeshock.efficiency.DistanceEngine` applies each insertion
exactly, so every point equals a full recompute bit for bit. Shock step
``t`` is the deepest state with the last ``total - ends[t - 1]`` elements
of the list restored, so restoring the reversed list walks the shock phase
backward. Under ``reverse_shock_order`` the recovery states lie on that
same walk, and one restore pass reads both phases, cutting wherever a shock
or a recovery batch ends; ``shock_order`` recovery takes a second pass from
the deepest state. Every pass ends on the starting masks, so on the
baseline value bit for bit; a run whose pass misses it raises instead of
returning a trajectory. The baseline is one full evaluation, which a
caller computes once per year and passes to every run and replicate of
that year.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .centrality import (
    EDGE_INDICATORS,
    IndicatorKind,
    edge_order,
    node_order,
    rank_edges,
    rank_nodes,
    strength,  # noqa: F401 - unused here, but bench/spans.py wraps simulation.strength
)
from .efficiency import DistanceEngine, network_efficiency, shortest_path_costs
from .network import TradeNetwork, _ends


class TargetKind(str, Enum):
    nodes = "nodes"
    edges = "edges"


class RecoveryOrder(str, Enum):
    shock_order = "shock_order"
    reverse_shock_order = "reverse_shock_order"


class Phase(str, Enum):
    baseline = "baseline"
    shock = "shock"
    recovery = "recovery"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to replay one scenario on a given network."""

    target_kind: TargetKind
    indicator: IndicatorKind
    batch_fraction: float = 0.01
    shock_depth: float = 0.5
    recovery_order: RecoveryOrder = RecoveryOrder.shock_order
    replicates: int = 20
    master_seed: int = 0
    recompute_rankings: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_kind", TargetKind(self.target_kind))
        object.__setattr__(self, "indicator", IndicatorKind(self.indicator))
        object.__setattr__(self, "recovery_order", RecoveryOrder(self.recovery_order))
        if not 0.0 < self.batch_fraction <= self.shock_depth <= 1.0:
            raise ValueError(
                "needs 0 < batch_fraction <= shock_depth <= 1, got "
                f"batch_fraction={self.batch_fraction}, shock_depth={self.shock_depth}"
            )
        if self.replicates < 1:
            raise ValueError(f"needs replicates >= 1, got {self.replicates}")
        if self.target_kind is TargetKind.edges:
            if self.indicator not in EDGE_INDICATORS:
                raise ValueError(
                    "targets edges, which rank by edge_weight or random, "
                    f"not {self.indicator.value}"
                )
        elif self.indicator is IndicatorKind.edge_weight:
            raise ValueError("targets nodes, which edge_weight does not rank")

    @classmethod
    def from_mapping(cls, spec: object, master_seed: int = 0) -> ScenarioConfig:
        """Read a scenario with :func:`read_dataclass`; the caller supplies ``master_seed``.

        A ``random`` scenario, run as a control over its replicates, needs at least 2.
        """
        config = read_dataclass(cls, spec, master_seed=master_seed)
        if config.indicator is IndicatorKind.random and config.replicates < 2:
            raise ValueError(f"has replicates={config.replicates}, but a random control needs >= 2")
        return config


def read_dataclass(cls: type, spec: object, **given: object):
    """Build the dataclass ``cls`` from a JSON object; ``given`` fields are not read from it.

    A key left out takes the field's default. A value that is not an
    object, unknown keys, missing required keys and values of the wrong
    type raise ``ValueError``: enums take one of their string values,
    floats take ints too, a bool is never taken for a number, and a field
    typed ``object`` takes any value for ``cls`` to check. Ranges are
    checked on construction. Every message is a predicate ("is missing
    'indicator'") that reads after the name of what was read.
    """
    if not isinstance(spec, dict):
        raise ValueError("must be a JSON object")
    hints = get_type_hints(cls)
    schema = [f for f in fields(cls) if f.name not in given]
    unknown = sorted(set(spec) - {f.name for f in schema})
    if unknown:
        raise ValueError(f"has unknown key {unknown[0]!r}")
    values = {}
    for field in schema:
        if field.name not in spec:
            if field.default is MISSING:
                raise ValueError(f"is missing {field.name!r}")
            continue
        value, kind = spec[field.name], hints[field.name]
        if issubclass(kind, Enum):
            names = [member.value for member in kind]
            expected = "one of " + ", ".join(names)
            valid = isinstance(value, str) and value in names
        else:
            expected = kind.__name__
            valid = kind is object or type(value) is kind or (kind is float and type(value) is int)
        if not valid:
            raise ValueError(f"has {field.name}={value!r}, expected {expected}")
        values[field.name] = float(value) if kind is float else value
    return cls(**values, **given)


@dataclass(frozen=True)
class Trajectory:
    """Normalized-efficiency series NE(t), one value per step t, by position.

    ``ne[0]`` is the baseline, ``ne[1:t_r + 1]`` the shock phase and
    ``ne[t_r + 1:]`` the recovery phase; each phase has at least one step,
    so ``1 <= t_r < len(ne) - 1``. ``batches[t - 1]`` holds the
    elements shocked or restored at step t; a mean over replicates has none.
    """

    ne: tuple[float, ...]
    t_r: int
    batches: tuple[tuple, ...]
    reference_mean_weight: float

    def __post_init__(self) -> None:
        if not 1 <= self.t_r < len(self.ne) - 1:
            raise ValueError(
                f"t_r={self.t_r} lies outside [1, {len(self.ne) - 1}): a trajectory "
                "needs at least one shock step and one recovery step"
            )

    @property
    def ne0(self) -> float:
        return self.ne[0]

    def phase(self, t: int) -> Phase:
        if t == 0:
            return Phase.baseline
        return Phase.shock if t <= self.t_r else Phase.recovery


def child_seed(master_seed: int, *keys: int) -> int:
    """The seed of one run, replicate or step: a pure function of its keys."""
    return int(np.random.SeedSequence([int(master_seed), *map(int, keys)]).generate_state(1)[0])


def _ranked_targets(net: TradeNetwork, config: ScenarioConfig, seed: int) -> tuple:
    if config.target_kind is TargetKind.nodes:
        return rank_nodes(net, config.indicator, seed=seed).ordered_items
    return rank_edges(net, config.indicator, seed=seed).ordered_items


def _apply_shock(net: TradeNetwork, target_kind: TargetKind, elements: Sequence) -> None:
    if target_kind is TargetKind.nodes:
        net.shock_nodes(elements)
    else:
        net.shock_edges(elements)


def _schedule(work: TradeNetwork, config: ScenarioConfig, ends: Sequence[int]) -> list:
    """Shock ``work`` down to ``ends[-1]`` elements; return them in shock order."""
    if not config.recompute_rankings:
        shocked = list(_ranked_targets(work, config, config.master_seed)[: ends[-1]])
        _apply_shock(work, config.target_kind, shocked)
        return shocked
    # Re-rank the survivors before every batch; random draws get a fresh
    # stream per step so replicates stay independent across steps too.
    shocked = []
    for step, end in enumerate(ends):
        ranked = _ranked_targets(work, config, child_seed(config.master_seed, step))
        taken = ranked[: end - len(shocked)]
        _apply_shock(work, config.target_kind, taken)
        shocked.extend(taken)
    return shocked


def plan_scenario(net: TradeNetwork, config: ScenarioConfig) -> tuple[float, int, int]:
    """The reference mean weight, batch size and shock total of a scenario on ``net``.

    ``ValueError`` if it cannot run there: no active edge, or under one target to shock.
    """
    reference = net.stats().mean_edge_weight
    if reference <= 0:
        raise ValueError("scenario needs a network with at least one active edge")
    nodes = config.target_kind is TargetKind.nodes
    n_targets = net.n_active_nodes if nodes else net.n_active_edges
    depth = config.shock_depth * n_targets
    if depth < 1:
        raise ValueError(
            f"shock depth {config.shock_depth} of {n_targets} targets covers "
            "less than one element; nothing to shock"
        )
    return reference, math.ceil(config.batch_fraction * n_targets), math.ceil(depth)


def _restore_through(
    engine: DistanceEngine, elements: Sequence, cuts: Iterable[int]
) -> dict[int, float]:
    """Restore ``elements`` in order; the raw efficiency after each prefix length in ``cuts``."""
    raw, done = {}, 0
    for cut in sorted(set(cuts)):
        if cut > done:
            engine.net.restore(elements[done:cut])
            engine.update()
            done = cut
        raw[cut] = engine.raw_efficiency
    return raw


def run_shock_recovery(
    net: TradeNetwork, config: ScenarioConfig, baseline: float | None = None
) -> Trajectory:
    """Execute one full shock-then-recovery scenario and return its trajectory.

    ``baseline`` is the raw efficiency of ``net`` as given, when the caller
    already has it; by default it is computed here by a full evaluation.
    """
    work = net.fork()
    reference, batch, total = plan_scenario(work, config)
    if baseline is None:
        baseline = network_efficiency(work).raw_efficiency
    # Batch k of either phase ends ends[k - 1] elements into its order.
    ends = [min(end, total) for end in range(batch, total + batch, batch)]
    shocked = _schedule(work, config, ends)
    # Every later point is the deepest state plus restored elements: one APSP
    # there, then edge insertions only. Shock step t is the deepest state
    # plus backward[:total - ends[t - 1]], the last elements shocked.
    backward = shocked[::-1]
    shock_cuts = [total - end for end in ends]
    reverse = config.recovery_order is RecoveryOrder.reverse_shock_order
    recovered = backward if reverse else shocked
    deepest = shortest_path_costs(work)
    if reverse:
        # Recovery restores the same elements in the same order: one pass
        # reads both phases at the union of their cuts.
        engine = DistanceEngine(work, deepest)
        shock_raw = recovery_raw = _restore_through(engine, backward, shock_cuts + ends)
    else:
        engine = DistanceEngine(work.fork(), deepest.copy())
        shock_raw = _restore_through(engine, backward, shock_cuts + [total])
        recovery_raw = _restore_through(DistanceEngine(work, deepest), recovered, ends)
    for walk in (shock_raw, recovery_raw):
        if walk[total] != baseline:
            raise RuntimeError(
                f"restoring every batch gave raw efficiency {walk[total]!r}, "
                f"not the baseline {baseline!r}"
            )
    raw = [baseline] + [shock_raw[c] for c in shock_cuts] + [recovery_raw[c] for c in ends]
    ne = tuple(x / reference for x in raw)
    spans = list(zip([0, *ends], ends))
    batches = tuple(tuple(order[a:b]) for order in (shocked, recovered) for a, b in spans)
    return Trajectory(ne, len(ends), batches, reference)


@dataclass(frozen=True)
class RandomControl:
    """Pointwise mean trajectory over random-target replicates, with spread."""

    mean: Trajectory
    std: tuple[float, ...]
    replicates: tuple[Trajectory, ...]


def run_random_control(
    net: TradeNetwork, config: ScenarioConfig, baseline: float | None = None
) -> RandomControl:
    """Average a random-targeting scenario over independent replicates.

    Each replicate runs the same protocol with its own child seed derived
    from (master_seed, replicate index), and all of them share one baseline
    evaluation, ``baseline`` when the caller passes it. The std is the
    population spread at each step; it is exactly zero at the baseline step.
    """
    if config.replicates < 2:
        raise ValueError(f"a random control needs >= 2 replicates, got {config.replicates}")
    if baseline is None:
        baseline = network_efficiency(net).raw_efficiency
    runs = []
    for r in range(config.replicates):
        cfg = replace(
            config,
            indicator=IndicatorKind.random,
            master_seed=child_seed(config.master_seed, r),
            replicates=1,
        )
        runs.append(run_shock_recovery(net, cfg, baseline))
    ne = np.array([t.ne for t in runs])
    mean = replace(runs[0], ne=tuple(ne.mean(axis=0).tolist()), batches=())
    return RandomControl(mean, tuple(ne.std(axis=0).tolist()), tuple(runs))


def rank_by_impact(net: TradeNetwork, target_kind: TargetKind | str, top_k: int) -> list:
    """Most damaging single removals, as (element, impact) pairs.

    An element's impact is the drop in normalized efficiency when it alone
    is removed, with the network's mean edge weight as the reference. One
    all-pairs Dijkstra gives the intact distances; :meth:`DistanceEngine.without`
    then measures every active element as a probe, leaving the masks alone:
    it updates only the entries a removal can change, in chunks of probes
    that share one graph. A removal that changes no distance has impact 0.0.
    Ties break as in rankings: by total strength then code for nodes
    (``node_order``), by (source, target) for edges (``edge_order``).
    """
    kind = TargetKind(target_kind)
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    reference = net.stats().mean_edge_weight
    if reference <= 0:
        raise ValueError("impact needs a network with at least one active edge")
    engine = DistanceEngine(net, shortest_path_costs(net))
    before = engine.raw_efficiency / reference
    codes, (tails, heads) = net.codes, _ends(net.active_edge_mask)
    if kind is TargetKind.nodes:  # a node removes its out-edges, then its in-edges
        ends = np.concatenate([tails, heads])
        by_node = np.argsort(ends, kind="stable")
        probes = ends[by_node], np.tile(tails, 2)[by_node], np.tile(heads, 2)[by_node], net.n_nodes
    else:
        probes = np.arange(tails.size), tails, heads, tails.size
    impacts = before - engine.without(*probes) / reference
    if kind is TargetKind.nodes:
        order = node_order(net, impacts)[:top_k].tolist()
        return [(codes[i], float(impacts[i])) for i in order]
    order = edge_order(net, impacts, tails, heads)[:top_k].tolist()
    return [((codes[tails[k]], codes[heads[k]]), float(impacts[k])) for k in order]
