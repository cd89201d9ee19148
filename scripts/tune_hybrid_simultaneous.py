#!/usr/bin/env python3
"""Grid sweep for the simultaneous-control hybrid channel pair.

Runs the built-in ``simultaneous-hybrid-nominal`` scenario (balance the
upright pendulum while the cart tracks a 0.3 m step) with each setting on
the grid. The angle channel's crisp PD does the stabilizing; the sweep walks
the position channel and the two output scales. Fast rows buy speed with
larger pendulum excursions; the scenario's defaults keep theta_max modest
instead of taking the top row.
"""
import argparse
import dataclasses
import itertools
import math

from cartpend.metrics import overshoot_pct, settling_time
from cartpend.scenario import builtin_scenarios, run_scenario
from cartpend.sim import SimulationFault

BASE = builtin_scenarios()["simultaneous-hybrid-nominal"]


def evaluate(pos_kp, pos_kd, pos_scale, angle_scale, gamma, duration_s):
    s = dataclasses.replace(
        BASE,
        controller_config=dict(BASE.controller_config, position_channel_kp=pos_kp,
                               position_channel_kd=pos_kd, position_output_scale=pos_scale,
                               angle_output_scale=angle_scale, gamma=gamma),
        sim=dataclasses.replace(BASE.sim, duration_s=duration_s))
    traj = run_scenario(s)
    x = traj.states[:, 2]
    reference = BASE.sim.reference.amplitude
    theta_max = float(abs(traj.states[:, 0]).max())
    return (settling_time(traj.times_s, x, reference), overshoot_pct(x, reference),
            theta_max)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--duration", type=float, default=BASE.sim.duration_s)
    ap.add_argument("--gamma", type=float, default=BASE.controller_config["gamma"])
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()

    grid = itertools.product(
        (2.5, 3.5, 4.5),       # position channel kp
        (2.0, 3.0, 4.0),       # position channel kd
        (4.0, 6.0, 8.0),       # position output scale
        (6.0, 8.0, 10.0),      # angle output scale
    )
    rows = []
    for pkp, pkd, pout, aout in grid:
        try:
            settle, over, theta_max = evaluate(pkp, pkd, pout, aout,
                                               args.gamma, args.duration)
        except SimulationFault:
            continue
        if math.isfinite(settle):
            rows.append((settle, over, theta_max, pkp, pkd, pout, aout))
    rows.sort()
    print("settle_s overshoot_pct theta_max pos_kp pos_kd pos_out angle_out")
    for settle, over, theta_max, pkp, pkd, pout, aout in rows[:args.top]:
        print(f"{settle:8.3f} {over:13.2f} {theta_max:9.4f} {pkp:6.2f} "
              f"{pkd:6.2f} {pout:7.1f} {aout:9.1f}")


if __name__ == "__main__":
    main()
