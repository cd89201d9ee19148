"""Command line front end.

Verbs:
  run <config>...   simulate scenario files, write CSV trajectories + reports
  analyze <csv>     step metrics for an existing trajectory file
  lqr-gain <config> print the synthesized K, N, and Riccati solution P
  repro             rerun the built-in study matrix against published values

``run`` writes one ``<scenario>.csv`` per config plus ``report.txt`` and
``report.csv`` into ``--out`` (or ``$CARTPEND_OUT_DIR``, or ``./out``).
Exit codes: 0 success, 1 a simulation diverged, 2 bad input. Other runs
still finish after a divergence or a controller setting that cannot be
built.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .metrics import (REPORT_CSV_HEADER, SETTLING_BAND, report_csv_row, report_text,
                      score_trajectory)
from .repro import run_comparison
from .scenario import ConfigError, build_controller, parse_scenario, run_scenario
from .sim import SEED_LIMIT, SimulationFault, Trajectory, write_atomic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartpend",
        description="cart-pendulum control study: simulate, analyze, reproduce")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="simulate scenario config files")
    run_p.add_argument("configs", nargs="+", help="scenario config paths")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the disturbance seed of every run")

    an_p = sub.add_parser("analyze", help="metrics for a trajectory CSV")
    an_p.add_argument("csv")
    an_p.add_argument("--reference", type=float, default=None,
                      help="reference value (default: final logged reference)")
    an_p.add_argument("--band", type=float, default=SETTLING_BAND,
                      help=f"settling band fraction (default {SETTLING_BAND})")

    gain_p = sub.add_parser("lqr-gain", help="print K, N, P for an lqr config")
    gain_p.add_argument("config")

    sub.add_parser("repro", help="compare the built-in matrix to published values")
    return parser


def _read_text(path: str):
    """The UTF-8 text of ``path``, or None after printing an error line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def _load_scenario(path: str):
    text = _read_text(path)
    if text is None:
        return None
    try:
        return parse_scenario(text)
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
        print(f"error: --seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return 2
    scenarios = []
    for path in args.configs:
        s = _load_scenario(path)
        if s is None:
            return 2
        if args.seed is not None:
            s = dataclasses.replace(s, sim=dataclasses.replace(s.sim, seed=args.seed))
        scenarios.append(s)
    names = [s.name for s in scenarios]
    duplicate = next((name for name in names if names.count(name) > 1), None)
    if duplicate is not None:
        print(f"error: [scenario] name {duplicate!r} is used by more than one config",
              file=sys.stderr)
        return 2

    out_dir = Path(args.out or os.environ.get("CARTPEND_OUT_DIR") or "out")
    try:
        return _run_into(out_dir, scenarios)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_into(out_dir: Path, scenarios) -> int:
    """Make ``out_dir`` before anything runs, then write each CSV and the reports."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scored = []  # (scenario, controller, Metrics) of each finished run
    status = 0
    for s in scenarios:
        try:
            traj = run_scenario(s)
        except ConfigError as exc:
            print(f"error: scenario {s.name}: {exc}", file=sys.stderr)
            status = 2
            continue
        except SimulationFault as fault:
            fault.trajectory.write_csv(out_dir / f"{s.name}.csv")
            print(f"error: scenario {s.name} diverged at step {fault.step_index}: "
                  f"{fault.what}; partial trajectory kept", file=sys.stderr)
            status = max(status, 1)
            continue
        traj.write_csv(out_dir / f"{s.name}.csv")
        scored.append((s.name, s.controller_kind, score_trajectory(traj)))

    text = "".join(report_text(*row) for row in scored)
    write_atomic(out_dir / "report.txt", [text])
    write_atomic(out_dir / "report.csv",
                 [REPORT_CSV_HEADER + "\n", *(report_csv_row(*row) for row in scored)])
    print(text, end="")
    return status


def _cmd_analyze(args) -> int:
    if not 0.0 < args.band < 1.0:
        print(f"error: --band must be in (0, 1), got {args.band!r}", file=sys.stderr)
        return 2
    if args.reference is not None and not math.isfinite(args.reference):
        print(f"error: --reference must be finite, got {args.reference!r}",
              file=sys.stderr)
        return 2
    try:
        traj = Trajectory.read_csv(args.csv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.csv}: {exc}", file=sys.stderr)
        return 2
    m = score_trajectory(traj, args.reference, args.band)
    settle_text = f"{m.settling_time_s:.4g} s" if m.settled else "never (outside band)"
    print(f"reference {m.reference:.4g}")
    print(f"settling {settle_text}")
    print(f"overshoot {m.overshoot_pct:.4g} %")
    print(f"steady-state error {m.steady_state_error:.4g}")
    return 0


def _cmd_lqr_gain(args) -> int:
    s = _load_scenario(args.config)
    if s is None:
        return 2
    if s.controller_kind != "lqr":
        print(f"error: {args.config}: lqr-gain needs an lqr controller, "
              f"got {s.controller_kind!r}", file=sys.stderr)
        return 2
    try:
        ctrl = build_controller(s)
    except ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2
    print(f"operating point: {s.controller_config['operating_point']}")
    print("K =", np.array2string(ctrl.k_gain, precision=6, suppress_small=True))
    print(f"N = {ctrl.n_scale:.6f}")
    print("P =")
    print(np.array2string(ctrl.riccati_solution, precision=6, suppress_small=True))
    return 0


def _cmd_repro(_args) -> int:
    def progress(name):
        print(f"running {name} ...", file=sys.stderr, flush=True)

    print(run_comparison(progress=progress), end="")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {"run": _cmd_run, "analyze": _cmd_analyze,
               "lqr-gain": _cmd_lqr_gain, "repro": _cmd_repro}[args.verb]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
