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
    complete: bool


def min_performance(trajectory: Trajectory) -> float:
    """R: minimum NE over every step after the disturbance begins."""
    values = trajectory.ne[1:]
    if not values:
        raise ValueError("trajectory has no post-disturbance steps")
    return min(values)


def _span(trajectory: Trajectory, phase: Phase, baseline_error: str) -> tuple[float, ...]:
    """NE through one phase, starting at its anchor."""
    if phase is Phase.baseline:
        raise ValueError(baseline_error)
    if phase is Phase.shock:
        return trajectory.ne[: trajectory.t_r + 1]
    return trajectory.ne[trajectory.t_r :]


def rate_of_change(trajectory: Trajectory, phase: Phase) -> tuple[float, ...]:
    """Forward differences of NE through one phase, including the entry step.

    The first difference is taken against the level the network held as the
    phase began, so a phase of k steps yields k differences.
    """
    phase = Phase(phase)
    span = _span(trajectory, phase, "rate of change is defined for the shock and recovery phases")
    if len(span) < 2:
        raise ValueError(f"trajectory has no {phase.value} steps")
    return tuple(b - a for a, b in zip(span, span[1:]))


def lone(trajectory: Trajectory, phase: Phase) -> float:
    """Loss of normalized efficiency accumulated over one phase.

    Each step contributes (ne0 - NE(t)) for one unit of time.
    """
    span = _span(trajectory, Phase(phase), "loss accumulates over the shock and recovery phases")
    return sum(trajectory.ne0 - v for v in span[1:])


def summarize(trajectory: Trajectory) -> ResilienceReport:
    """All indices for one trajectory; tolerates a missing recovery stage.

    A trajectory that was never recovered reports roc_rs=() and lone_rs=0,
    flags itself incomplete, and its resilience is the disruption loss alone.
    """
    has_recovery = len(trajectory.ne) > trajectory.t_r + 1
    lone_ds = lone(trajectory, Phase.shock)
    lone_rs = lone(trajectory, Phase.recovery) if has_recovery else 0.0
    return ResilienceReport(
        r=min_performance(trajectory),
        roc_ds=rate_of_change(trajectory, Phase.shock),
        roc_rs=rate_of_change(trajectory, Phase.recovery) if has_recovery else (),
        lone_ds=lone_ds,
        lone_rs=lone_rs,
        resilience=lone_ds + lone_rs,
        ne0=trajectory.ne0,
        complete=has_recovery,
    )
