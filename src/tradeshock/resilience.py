"""Resilience indices computed from a shock-recovery trajectory.

All quantities work on the normalized-efficiency series NE(t), the tuple
``trajectory.ne``. Each phase is one slice that starts at its anchor, the
level the network held as the phase began: ``ne[:t_r + 1]`` for the shock
phase (anchored at the baseline), ``ne[t_r:]`` for the recovery phase
(anchored at the maximum shock).

- R: the worst performance level reached once disruption starts, min(ne[1:]).
- Rate of change: the differences of consecutive values in a phase's slice.
- LONE: cumulative performance lost relative to the baseline level,
  summed one unit of time per step (a right-rectangle sum of ne0 - NE(t)
  over the slice after its anchor).
- Resilience: total loss across both stages, LONE_DS + LONE_RS. Lower is
  better; a network that barely dips and snaps back scores near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simulation import Phase, Trajectory


@dataclass(frozen=True)
class ResilienceReport:
    r: float
    roc_ds: tuple[float, ...]
    roc_rs: tuple[float, ...]
    lone_ds: float
    lone_rs: float
    resilience: float
    ne0: float


def min_performance(trajectory: Trajectory) -> float:
    """R: minimum NE over every step after the disturbance begins."""
    return min(trajectory.ne[1:])


def _span(trajectory: Trajectory, phase: Phase, index: str) -> tuple[float, ...]:
    """NE through one phase, starting at its anchor; ``index`` names the caller's index."""
    phase = Phase(phase)
    if phase is Phase.baseline:
        raise ValueError(f"{index} is defined for the shock and recovery phases")
    if phase is Phase.shock:
        return trajectory.ne[: trajectory.t_r + 1]
    return trajectory.ne[trajectory.t_r :]


def rate_of_change(trajectory: Trajectory, phase: Phase) -> tuple[float, ...]:
    """Forward differences of NE through one phase, including the entry step.

    The first difference is taken against the level the network held as the
    phase began, so a phase of k steps yields k differences.
    """
    span = _span(trajectory, phase, "rate of change")
    return tuple(b - a for a, b in zip(span, span[1:]))


def lone(trajectory: Trajectory, phase: Phase) -> float:
    """Loss of normalized efficiency accumulated over one phase.

    Each step contributes (ne0 - NE(t)) for one unit of time.
    """
    span = _span(trajectory, phase, "loss")
    return sum(trajectory.ne0 - v for v in span[1:])


def summarize(trajectory: Trajectory) -> ResilienceReport:
    """All indices for one trajectory; each of its two phases has at least one step."""
    lone_ds = lone(trajectory, Phase.shock)
    lone_rs = lone(trajectory, Phase.recovery)
    return ResilienceReport(
        r=min_performance(trajectory),
        roc_ds=rate_of_change(trajectory, Phase.shock),
        roc_rs=rate_of_change(trajectory, Phase.recovery),
        lone_ds=lone_ds,
        lone_rs=lone_rs,
        resilience=lone_ds + lone_rs,
        ne0=trajectory.ne0,
    )
