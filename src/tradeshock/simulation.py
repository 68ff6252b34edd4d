"""Shock-recovery scenario execution and single-element impact rankings.

A scenario forks the network, freezes the baseline mean edge weight as the
normalization reference, then removes targets in ranked batches down to the
configured depth and restores them in batches of the same size. Normalized
efficiency is recorded after every batch, so each trajectory is a staircase
from the intact network through maximum disruption and back.

A run has two passes. The schedule pass walks the shock phase forward and
fixes the batches, ranking each state when rankings are recomputed; it
computes no efficiency. The evaluate pass runs one all-pairs Dijkstra at
the deepest state and reaches every other point by restoring batches, which
only inserts edges: the shock points by restoring the batches in reverse,
the recovery points by restoring them in recovery order. A
:class:`~tradeshock.efficiency.DistanceEngine` applies each insertion
exactly, so every point equals a full recompute bit for bit. Restoring
every shocked element reproduces the starting masks exactly, so the final
trajectory value equals the baseline value bit for bit. The backward pass
ends on the baseline as well; a run whose backward pass misses the baseline
value raises instead of returning a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .centrality import (
    EDGE_INDICATORS,
    IndicatorKind,
    rank_edges,
    rank_nodes,
    strength,
)
from .efficiency import DistanceEngine, network_efficiency, shortest_path_costs
from .network import TradeNetwork


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
    def from_mapping(cls, spec: Mapping[str, object], master_seed: int = 0) -> ScenarioConfig:
        """Build a scenario from JSON-style values, the one schema of a scenario.

        The keys are the fields other than ``master_seed``, which the caller
        supplies; a key left out takes the field's default. Unknown keys,
        missing required keys and values of the wrong type raise
        ``ValueError``: enums take one of their string values, floats take
        ints too, and a bool is never taken for a number. Ranges are checked
        on construction, as for any config, and a ``random`` scenario, run
        as a control over its replicates, needs at least 2. Every message is
        a predicate ("is missing 'indicator'") that reads after the
        scenario's name.
        """
        hints = get_type_hints(cls)
        schema = [f for f in fields(cls) if f.name != "master_seed"]
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
                valid = type(value) is kind or (kind is float and type(value) is int)
            if not valid:
                raise ValueError(f"has {field.name}={value!r}, expected {expected}")
            values[field.name] = float(value) if kind is float else value
        config = cls(**values, master_seed=master_seed)
        if config.indicator is IndicatorKind.random and config.replicates < 2:
            raise ValueError(f"has replicates={config.replicates}, but a random control needs >= 2")
        return config


@dataclass(frozen=True)
class TrajectoryStep:
    t: int
    ne: float
    phase: Phase
    elements: tuple


@dataclass(frozen=True)
class Trajectory:
    """Normalized-efficiency time series with its phase anchors.

    t_0/t_r/t_rs index into steps: baseline, end of the disruptive stage
    (maximum applied shock), and end of recovery.
    """

    steps: tuple[TrajectoryStep, ...]
    t_0: int
    t_r: int
    t_rs: int
    reference_mean_weight: float

    @property
    def ne0(self) -> float:
        return self.steps[self.t_0].ne

    def phase_steps(self, phase: Phase) -> tuple[TrajectoryStep, ...]:
        return tuple(s for s in self.steps if s.phase is phase)


def child_seed(master_seed: int, *keys: int) -> int:
    """The seed of one run, replicate or step: a pure function of its keys."""
    return int(np.random.SeedSequence([int(master_seed), *map(int, keys)]).generate_state(1)[0])


def _ranked_targets(net: TradeNetwork, config: ScenarioConfig, seed: int) -> tuple:
    if config.target_kind is TargetKind.nodes:
        return rank_nodes(net, config.indicator, seed=seed).ordered_items
    return rank_edges(net, config.indicator, seed=seed).ordered_items


def _apply_shock(net: TradeNetwork, target_kind: TargetKind, chunk: Sequence) -> None:
    if target_kind is TargetKind.nodes:
        net.shock_nodes(chunk)
    else:
        net.shock_edges(chunk)


def _chunked(items: Sequence, size: int) -> Iterable[tuple]:
    for start in range(0, len(items), size):
        yield tuple(items[start : start + size])


def _schedule(work: TradeNetwork, config: ScenarioConfig, batch: int, total: int) -> list[tuple]:
    """Shock ``work`` batch by batch down to the scenario's depth; return the batches."""
    chunks: list[tuple] = []
    if config.recompute_rankings:
        # Re-rank the survivors before every batch; random draws get a fresh
        # stream per step so replicates stay independent across steps too.
        shocked = 0
        while shocked < total:
            take = min(batch, total - shocked)
            ranked = _ranked_targets(work, config, child_seed(config.master_seed, len(chunks)))
            chunks.append(tuple(ranked[:take]))
            _apply_shock(work, config.target_kind, chunks[-1])
            shocked += take
    else:
        ranked = _ranked_targets(work, config, config.master_seed)
        chunks = list(_chunked(ranked[:total], batch))
        for chunk in chunks:
            _apply_shock(work, config.target_kind, chunk)
    return chunks


def run_shock_recovery(net: TradeNetwork, config: ScenarioConfig) -> Trajectory:
    """Execute one full shock-then-recovery scenario and return its trajectory."""
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

    # The baseline by a full evaluation: the check below compares against it.
    baseline = network_efficiency(work).raw_efficiency
    chunks = _schedule(work, config, batch, total)

    # Every later point is the deepest state plus restored elements: one APSP
    # there, then edge insertions only. Restoring the batches in reverse
    # walks the shock phase backward to the baseline.
    deepest = shortest_path_costs(work)
    backward = DistanceEngine(work.fork(), deepest.copy())
    shock_raw = []
    for chunk in reversed(chunks):
        shock_raw.append(backward.raw_efficiency)
        backward.restore(chunk)
    if backward.raw_efficiency != baseline:
        raise RuntimeError(
            f"restoring every batch gave raw efficiency {backward.raw_efficiency!r}, "
            f"not the baseline {baseline!r}"
        )

    steps = [TrajectoryStep(0, baseline / reference, Phase.baseline, ())]
    for chunk, raw in zip(chunks, reversed(shock_raw)):
        steps.append(TrajectoryStep(len(steps), raw / reference, Phase.shock, chunk))
    t_r = len(steps) - 1

    shocked = [element for chunk in chunks for element in chunk]
    if config.recovery_order is RecoveryOrder.reverse_shock_order:
        shocked.reverse()
    forward = DistanceEngine(work, deepest)
    for chunk in _chunked(shocked, batch):
        forward.restore(chunk)
        ne = forward.raw_efficiency / reference
        steps.append(TrajectoryStep(len(steps), ne, Phase.recovery, chunk))
    return Trajectory(
        steps=tuple(steps),
        t_0=0,
        t_r=t_r,
        t_rs=len(steps) - 1,
        reference_mean_weight=reference,
    )


@dataclass(frozen=True)
class RandomControl:
    """Pointwise mean trajectory over random-target replicates, with spread."""

    mean: Trajectory
    std: tuple[float, ...]
    replicates: tuple[Trajectory, ...]


def run_random_control(net: TradeNetwork, config: ScenarioConfig) -> RandomControl:
    """Average a random-targeting scenario over independent replicates.

    Each replicate runs the same protocol with its own child seed derived
    from (master_seed, replicate index). The std is the population spread
    at each step; it is exactly zero at the baseline step.
    """
    if config.replicates < 2:
        raise ValueError(f"a random control needs >= 2 replicates, got {config.replicates}")
    runs = []
    for r in range(config.replicates):
        cfg = replace(
            config,
            indicator=IndicatorKind.random,
            master_seed=child_seed(config.master_seed, r),
            replicates=1,
        )
        runs.append(run_shock_recovery(net, cfg))
    ne = np.array([[s.ne for s in t.steps] for t in runs])
    mean = ne.mean(axis=0)
    std = ne.std(axis=0)
    template = runs[0]
    steps = tuple(
        TrajectoryStep(s.t, float(mean[k]), s.phase, ())
        for k, s in enumerate(template.steps)
    )
    mean_traj = Trajectory(
        steps=steps,
        t_0=template.t_0,
        t_r=template.t_r,
        t_rs=template.t_rs,
        reference_mean_weight=template.reference_mean_weight,
    )
    return RandomControl(mean_traj, tuple(float(x) for x in std), tuple(runs))


def rank_by_impact(net: TradeNetwork, target_kind: TargetKind | str, top_k: int) -> list:
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
