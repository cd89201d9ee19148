#!/usr/bin/env python3
"""Benchmark of the cartpend toolkit.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in its own fresh
process with BLAS thread counts pinned to 1, importing ``cartpend`` from
the checkout's ``src``. For each workload the launcher prints every metric
with its unit and sample count, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Results, with the
environment they were measured in, go to ``perfbench/results/``.

``correct`` is false when any output is wrong. ``failed`` also counts
refusals: a divergence, or a solver error on an input the benchmark judges
valid.

Set-up time is timed from starting a fresh process until it reports its
inputs ready: interpreter start-up, importing ``cartpend`` and building the
workload's inputs from the seed. It is the median over several processes.

Every pass runs the same fixed list of operations; a run makes two passes
or more, unless one pass is so slow that a second would risk the time
limit. On a shared host the same work runs up to twice as slow in phases of
seconds to minutes, so each operation's latency is scaled to a reference
host speed sampled around it (see ``hostspeed.py``), and then taken as its
median over the passes. ``wall_s`` is the sum of those latencies, and
``op_s.p50`` and ``op_s.p90`` are their percentiles. The unscaled wall time
is printed beside them.

End-to-end numbers come from runs with no wrappers installed. ``--trace 1``
spends half its time on traced passes, then half on untraced ones, and
reports the difference of their fastest passes as the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("study-matrix", "care-design")
SHIPPED_SEED = 12345
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = ("setup_s", "wall_s", "op_s.p50", "op_s.p90", "peak_rss_mb")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in SINGLE_THREAD:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list, deadline: float) -> tuple:
    """Run one worker process to completion.

    Returns the seconds from starting it until its ready line, and its last
    JSON line.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next process")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        if proc.returncode < 0 and time.monotonic() >= deadline:
            raise BenchError(f"worker timed out: {' '.join(args)}")
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    if ready.strip() != json.dumps({"ready": True}):
        raise BenchError("worker printed no ready line")
    lines = stdout.strip().splitlines() or [ready]
    return setup_s, json.loads(lines[-1])


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "scipy": scipy_version,
            "commit": commit, "platform": platform.platform()}


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between samples; one sample is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{name}-{os.getpid()}"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    try:
        setups = []
        if trace == 0:
            probe_count = 1 if smoke else 8
            for i in range(probe_count):
                setup_s, _ = _worker(base + ["--probe-setup", "--workdir",
                                             str(workdir / f"probe-{i}")], deadline)
                setups.append(setup_s)
        trace_file = RESULTS / f"trace-{name}-seed{seed}.json"
        extra = ["--trace-file", str(trace_file)] if trace else []
        setup_s, result = _worker(base + ["--workdir", str(workdir / "run")] + extra,
                                  deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expected = str((ROOT / "src" / "cartpend").resolve())
    if os.path.realpath(result["program"]) != expected:
        raise BenchError(f"imported cartpend from {result['program']}, not {expected}")
    result["setup_samples"] = setups + [setup_s]
    return result


def summarize(r: dict, trace: int) -> tuple:
    """(text lines, metrics dict) for one workload result."""
    walls = r["walls"]
    lines = []
    metrics = {}
    attempted, failed = r["attempted"], r["failed"]
    if trace == 0:
        per_op = [statistics.median(samples) for samples in zip(*r["ops_ref"])]
        setup = r["setup_samples"]
        wall = sum(per_op)
        values = {
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "wall_s": (wall, "s", len(per_op)),
            "op_s.p50": (statistics.median(per_op), "s", len(per_op)),
            "op_s.p90": (percentile(per_op, 90), "s", len(per_op)),
            "peak_rss_mb": (r["peak_rss_mb"], "MB", 1),
        }
        passes = f"each the median of {len(walls)} passes"
        for key in END_TO_END:
            value, unit, n = values[key]
            metrics[key] = {"value": value, "unit": unit}
            note = {"setup_s": "  (median of fresh processes)",
                    "wall_s": f"  (sum over operations, {passes})",
                    "op_s.p50": f"  ({passes})",
                    "op_s.p90": f"  ({passes})"}.get(key, "")
            if key == "op_s.p90" and n < 100:
                note = "  (fewer than 10 samples beyond p90: not a resolved percentile)"
            lines.append(f"  {key:<18} {value:>14.6g} {unit:<6} n={n}{note}")
        raw = sum(statistics.median(samples) for samples in zip(*r["ops"]))
        lines.append(f"  {'unscaled wall':<18} {raw:>14.6g} s      "
                     f"(host time factor {raw / wall:.3f} against reference, "
                     f"{r['host_samples']} speed samples)")
        if r["steps"]:
            lines.append(f"  {'sim_steps_per_s':<18} {r['steps'] / wall:>14.6g} 1/s    "
                         f"{r['steps']} steps per pass over wall_s")
        else:
            lines.append(f"  {'sim_steps_per_s':<18} {'n/a':>14} 1/s    (no simulation)")
    else:
        for key, m in r["layers"].items():
            metrics[key] = m
            flag = "  not observed" if key in r["not_observed"] else ""
            lines.append(f"  {key:<44} {m['value']:>14.6g} {m['unit']:<6}{flag}")
        lines.append(f"  per traced pass; {len(r['walls'])} untraced and "
                     f"{len(r['traced_walls'])} traced passes")
        if r["missing_patch_targets"]:
            lines.append("  missing patch targets: " + ", ".join(r["missing_patch_targets"]))
    frac = failed / attempted if attempted else 0.0
    lines.append(f"  {'ops_failed_frac':<18} {frac:>14.6g} 1      "
                 f"({failed} failed / {attempted} attempted)")
    for f in r["failures"]:
        lines.append(f"  FAILED: {f}")
    for note in r["notes"]:
        lines.append(f"  note: {note}")
    return lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cartpend" / "__init__.py").is_file():
        print(f"error: no cartpend sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        lines, metrics = summarize(r, args.trace)
        correct = r["wrong_outputs"] == 0
        print(f"workload {name}  seed {args.seed}  trace {args.trace}  size {r['size']}")
        print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items())
              + f", numpy={r['numpy']}")
        print("\n".join(lines))
        result = {"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                  "metrics": metrics}
        record = dict(result, workload=name, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, size=r["size"], environment=env,
                      numpy=r["numpy"], samples={"pass_s": r["walls"], "op_s": r.get("ops"),
                                                 "op_ref_s": r.get("ops_ref"),
                                                 "setup_s": r["setup_samples"]},
                      failures=r["failures"], notes=r["notes"],
                      not_observed=r.get("not_observed", []))
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
