"""Resilience indices computed from a shock-recovery trajectory.

All quantities work on the normalized-efficiency series NE(t):

- R: the worst performance level reached once disruption starts.
- Rate of change: per-step forward differences within a phase, anchored at
  the last value before the phase begins (the baseline value for the
  disruptive stage, the maximum-shock value for the recovery stage).
- LONE: cumulative performance lost relative to the baseline level,
  summed one unit of time per step (a right-rectangle sum of ne0 - NE(t)).
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
    values = [s.ne for s in trajectory.steps if s.phase is not Phase.baseline]
    if not values:
        raise ValueError("trajectory has no post-disturbance steps")
    return min(values)


def _phase_anchor(trajectory: Trajectory, phase: Phase) -> float:
    if phase is Phase.shock:
        return trajectory.ne0
    return trajectory.steps[trajectory.t_r].ne


def rate_of_change(trajectory: Trajectory, phase: Phase) -> tuple[float, ...]:
    """Forward differences of NE through one phase, including the entry step.

    The first difference is taken against the level the network held as the
    phase began, so a phase of k steps yields k differences.
    """
    phase = Phase(phase)
    if phase is Phase.baseline:
        raise ValueError("rate of change is defined for the shock and recovery phases")
    values = [s.ne for s in trajectory.steps if s.phase is phase]
    if not values:
        raise ValueError(f"trajectory has no {phase.value} steps")
    series = [_phase_anchor(trajectory, phase)] + values
    return tuple(series[i + 1] - series[i] for i in range(len(values)))


def lone(trajectory: Trajectory, phase: Phase) -> float:
    """Loss of normalized efficiency accumulated over one phase.

    Each step contributes (ne0 - NE(t)) for one unit of time.
    """
    phase = Phase(phase)
    if phase is Phase.baseline:
        raise ValueError("loss accumulates over the shock and recovery phases")
    ne0 = trajectory.ne0
    return sum(ne0 - s.ne for s in trajectory.steps if s.phase is phase)


def summarize(trajectory: Trajectory) -> ResilienceReport:
    """All indices for one trajectory; tolerates a missing recovery stage.

    A trajectory that was never recovered reports roc_rs=() and lone_rs=0,
    flags itself incomplete, and its resilience is the disruption loss alone.
    """
    has_recovery = any(s.phase is Phase.recovery for s in trajectory.steps)
    lone_ds = lone(trajectory, Phase.shock)
    if has_recovery:
        roc_rs = rate_of_change(trajectory, Phase.recovery)
        lone_rs = lone(trajectory, Phase.recovery)
    else:
        roc_rs = ()
        lone_rs = 0.0
    return ResilienceReport(
        r=min_performance(trajectory),
        roc_ds=rate_of_change(trajectory, Phase.shock),
        roc_rs=roc_rs,
        lone_ds=lone_ds,
        lone_rs=lone_rs,
        resilience=lone_ds + lone_rs,
        ne0=trajectory.ne0,
        complete=has_recovery,
    )
