#!/usr/bin/env python3
"""Grid sweeps for the hybrid controllers' gains.

``cart`` runs the built-in ``cart-position-hybrid-nominal`` scenario (swing
the hanging pendulum's cart to a 1 m step) over the channel and crisp gains
and the fuzzy output scale. The sweep surfaces rows noticeably faster than
the scenario's defaults; those were picked mid-grid on purpose so the
hybrid-to-pid settling ratio stays near the published 54% figure rather
than racing past it.

``simultaneous`` runs ``simultaneous-hybrid-nominal`` (balance the upright
pendulum while the cart tracks a 0.3 m step). The angle channel's crisp PD
does the stabilizing; the sweep walks the position channel and the two
output scales. Fast rows buy speed with larger pendulum excursions; the
scenario's defaults keep theta_max modest instead of taking the top row.

Rows that diverge or never settle are dropped; the rest are ranked by
settling time of the cart position. ``swing`` is the peak |theta - theta(0)|.
A ``--duration`` or ``--gamma`` the scenario rejects, or a ``--top`` below 1,
exits 2 with one error line.
"""
import argparse
import dataclasses
import itertools
import sys

from cartpend.metrics import score_trajectory
from cartpend.scenario import builtin_scenarios, run_scenario
from cartpend.sim import SimulationFault

# study -> (built-in scenario, [controller] key -> grid values); each key is a
# field of the scenario's controller record, so dataclasses.replace checks it
STUDIES = {
    "cart": ("cart-position-hybrid-nominal", {
        "channel_kp": (1.0, 1.5, 2.0),
        "channel_kd": (1.0, 1.4, 2.0),
        "output_scale": (8.0, 12.0, 16.0),
        "crisp_kp": (0.8, 1.2, 1.6),
        "crisp_kd": (0.2, 0.3, 0.5),
    }),
    "simultaneous": ("simultaneous-hybrid-nominal", {
        "position_channel_kp": (2.5, 3.5, 4.5),
        "position_channel_kd": (2.0, 3.0, 4.0),
        "position_output_scale": (4.0, 6.0, 8.0),
        "angle_output_scale": (6.0, 8.0, 10.0),
    }),
}


def evaluate(base, setting, gamma, duration_s):
    """Metrics and peak swing of ``base`` with the controller keys in ``setting``."""
    s = dataclasses.replace(
        base, controller=dataclasses.replace(base.controller, **setting, gamma=gamma),
        sim=dataclasses.replace(base.sim, duration_s=duration_s))
    traj = run_scenario(s)
    m = score_trajectory(traj)
    return m, float(abs(traj.states[:, 0] - traj.states[0, 0]).max())


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("study", choices=STUDIES)
    ap.add_argument("--duration", type=float, help="default: the scenario's")
    ap.add_argument("--gamma", type=float, help="default: the scenario's")
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()
    if args.top < 1:
        print(f"error: --top must be at least 1, got {args.top}", file=sys.stderr)
        return 2

    name, grid = STUDIES[args.study]
    base = builtin_scenarios()[name]
    duration = base.sim.duration_s if args.duration is None else args.duration
    gamma = base.controller.gamma if args.gamma is None else args.gamma
    rows = []
    try:
        for values in itertools.product(*grid.values()):
            try:
                m, swing = evaluate(base, dict(zip(grid, values)), gamma, duration)
            except SimulationFault:
                continue
            if m.settled:
                rows.append((m.settling_time_s, m.overshoot_pct, m.steady_state_error,
                             swing, *values))
    except ValueError as exc:  # a bad --duration or --gamma; ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows.sort()
    print("settle_s overshoot_pct sse      swing_rad " + " ".join(grid))
    for settle, over, sse, swing, *values in rows[:args.top]:
        print(f"{settle:8.3f} {over:13.2f} {sse:+.1e} {swing:9.4f} "
              + " ".join(f"{v:{len(key)}.2f}" for key, v in zip(grid, values)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
