import math
from dataclasses import replace

import numpy as np
import pytest

from tradeshock import (
    Phase,
    ScenarioConfig,
    Trajectory,
    lone,
    min_performance,
    rate_of_change,
    run_shock_recovery,
    summarize,
)

from netgen import connected_random_network, grid_trajectory


def make_trajectory(ne0, shock, recovery):
    return Trajectory((ne0, *shock, *recovery), len(shock), (), 1.0)


HAND = make_trajectory(1.0, [0.6, 0.2], [0.5, 1.0])


def test_hand_fixture_minimum():
    assert min_performance(HAND) == 0.2


def test_hand_fixture_rates():
    assert rate_of_change(HAND, Phase.shock) == pytest.approx([-0.4, -0.4], abs=1e-12)
    assert rate_of_change(HAND, Phase.recovery) == pytest.approx([0.3, 0.5], abs=1e-12)


def test_hand_fixture_areas():
    lone_ds = lone(HAND, Phase.shock)
    lone_rs = lone(HAND, Phase.recovery)
    # identical to the hand rectangle sums, operation for operation
    assert lone_ds == (1.0 - 0.6) + (1.0 - 0.2)
    assert lone_ds == pytest.approx(1.2, abs=1e-12)
    assert lone_rs == 0.5
    report = summarize(HAND)
    assert report.r == 0.2
    assert report.resilience == lone_ds + lone_rs
    assert report.resilience == pytest.approx(1.7, abs=1e-12)
    assert report.ne0 == 1.0
    assert report.complete


def test_constant_trajectory_is_lossless():
    traj = make_trajectory(0.75, [0.75, 0.75], [0.75, 0.75])
    report = summarize(traj)
    assert report.r == 0.75
    assert report.roc_ds == (0.0, 0.0)
    assert report.roc_rs == (0.0, 0.0)
    assert report.lone_ds == 0.0
    assert report.lone_rs == 0.0
    assert report.resilience == 0.0


def test_monotone_decline_min_is_last_shock_step():
    traj = make_trajectory(1.0, [0.8, 0.5, 0.1], [0.6, 1.0])
    assert min_performance(traj) == traj.ne[traj.t_r]


def test_recovery_dip_still_counts_toward_minimum():
    # R scans everything after the disturbance, not just the shock phase
    traj = make_trajectory(1.0, [0.5], [0.05, 1.0])
    assert min_performance(traj) == 0.05


def test_rate_of_change_rejects_baseline_phase():
    with pytest.raises(ValueError):
        rate_of_change(HAND, Phase.baseline)
    with pytest.raises(ValueError):
        lone(HAND, Phase.baseline)


def test_empty_phase_rejected():
    shock_only = make_trajectory(1.0, [0.4], [])
    with pytest.raises(ValueError):
        rate_of_change(shock_only, Phase.recovery)


def test_baseline_only_trajectory_has_no_minimum():
    traj = make_trajectory(1.0, [], [])
    with pytest.raises(ValueError):
        min_performance(traj)


def test_incomplete_trajectory_flagged_partial():
    traj = make_trajectory(1.0, [0.5, 0.25], [])
    report = summarize(traj)
    assert not report.complete
    assert report.roc_rs == ()
    assert report.lone_rs == 0.0
    assert report.resilience == report.lone_ds


def test_telescoping_and_additivity_exact_on_grid_trajectories():
    rng = np.random.default_rng(123)
    for _ in range(100):
        traj = grid_trajectory(rng)
        report = summarize(traj)
        # forward differences telescope to the phase endpoints, bit for bit
        assert math.fsum(report.roc_ds) == traj.ne[traj.t_r] - traj.ne0
        assert math.fsum(report.roc_rs) == traj.ne[-1] - traj.ne[traj.t_r]
        # areas agree with an independently ordered exact summation
        assert report.lone_ds == math.fsum(traj.ne0 - v for v in traj.ne[1 : traj.t_r + 1])
        assert report.resilience == report.lone_ds + report.lone_rs
        assert report.lone_ds >= 0.0
        assert report.lone_rs >= 0.0
        assert report.r <= traj.ne0


def test_pointwise_dominance_orders_losses():
    rng = np.random.default_rng(9)
    for _ in range(20):
        upper = grid_trajectory(rng)
        dip = float(rng.integers(1, 50)) * 2.0**-20
        lowered = (upper.ne0, *(max(0.0, v - dip) for v in upper.ne[1:]))
        lower = replace(upper, ne=lowered)
        for phase in (Phase.shock, Phase.recovery):
            assert lone(upper, phase) <= lone(lower, phase)


def test_simulated_trajectory_report_is_consistent():
    rng = np.random.default_rng(77)
    net = connected_random_network(rng, 15)
    cfg = ScenarioConfig(target_kind="nodes", indicator="betweenness", batch_fraction=0.15)
    traj = run_shock_recovery(net, cfg)
    report = summarize(traj)
    assert report.ne0 == traj.ne0
    assert report.r <= report.ne0
    assert report.lone_ds >= 0.0
    assert report.lone_rs >= 0.0
    assert report.complete
    # recovery ends where it started, so its rates telescope to R..ne0
    assert sum(report.roc_rs) == pytest.approx(report.ne0 - traj.ne[traj.t_r], abs=1e-12)
