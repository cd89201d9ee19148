"""One workload in one fresh process; prints JSON lines and exits.

Started by ``run.py`` with BLAS thread counts pinned to 1 and the checkout's
``src`` first on ``PYTHONPATH``. As soon as the workload's inputs are built
it prints a ready line; the launcher times set-up from starting the process
to that line, so set-up covers interpreter start-up, importing ``cartpend``
and building the inputs from the seed. ``--probe-setup`` exits there.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--smoke] [--probe-setup]
"""
import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# No pass starts that is projected to end past this cap. It keeps every run
# inside the launcher's time limit and bounds how long a run takes on a slow
# host, at the cost of cutting such a run to a single pass.
_MEASURE_CAP_S = 90.0


def _measure(workload, seconds: float, min_passes: int) -> dict:
    """Whole passes: ``min_passes``, more while another fits in ``seconds``.

    No pass starts that would be projected to end past ``_MEASURE_CAP_S``.
    """
    walls, windows, steps = [], [], 0
    start = time.perf_counter()
    while True:
        result = workload.run_pass()
        walls.append(result.wall_s)
        windows.append(result.op_windows)
        steps = result.sim_steps
        elapsed = time.perf_counter() - start
        projected = elapsed + statistics.median(walls)
        if projected > _MEASURE_CAP_S:
            break
        if projected > seconds and len(walls) >= min_passes:
            break
    return {"walls": walls, "windows": windows, "steps": steps}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time set-up, then exit")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed
    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = Path(args.workdir)
    workload = workloads.BUILDERS[args.workload](args.seed, size, workdir)
    print(json.dumps({"ready": True}), flush=True)
    if args.probe_setup:
        return 0

    import cartpend
    import numpy

    out = {"workload": args.workload, "seed": args.seed, "size": size.name,
           "program": str(Path(cartpend.__file__).parent),
           "numpy": numpy.__version__}
    if args.trace == 0:
        with hostspeed.Sampler() as sampler:
            measured = _measure(workload, args.seconds, 2)
        windows = measured.pop("windows")
        out.update(measured)
        out["ops"] = [[sum(e - s for s, e in op) * 1e-9 for op in pass_ops]
                      for pass_ops in windows]
        out["ops_ref"] = [[sum(sampler.scaled(s, e) for s, e in op) for op in pass_ops]
                          for pass_ops in windows]
        out["host_samples"] = len(sampler.spans)
        out["peak_rss_mb"] = _peak_rss_mb()
    else:
        import tracer as tracing
        t = tracing.Tracer()
        workload.tracer = t
        t.install()
        try:
            traced = _measure(workload, args.seconds / 2.0, 1)
        finally:
            t.uninstall()
            workload.tracer = None
        layers, not_observed = tracing.layer_metrics(t, len(traced["walls"]))
        traced_wall = min(traced["walls"])
        # The untraced passes give the reference for the tracing overhead;
        # they are skipped when one more pass would risk the time limit.
        plain = {"walls": [], "steps": 0}
        if sum(traced["walls"]) + traced_wall < _MEASURE_CAP_S:
            plain = _measure(workload, args.seconds / 2.0, 1)
            overhead = traced_wall - min(plain["walls"])
            layers["trace.overhead_s"] = (overhead, "s")
            layers["trace.overhead_frac"] = (overhead / min(plain["walls"]), "ratio")
        else:
            layers["trace.overhead_s"] = (0.0, "s")
            layers["trace.overhead_frac"] = (0.0, "ratio")
            not_observed += ["trace.overhead_s", "trace.overhead_frac"]
        out.update(walls=plain["walls"], steps=plain["steps"])
        out["traced_walls"] = traced["walls"]
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out["not_observed"] = not_observed
        out["missing_patch_targets"] = t.missing
        if args.trace_file:
            Path(args.trace_file).write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "traced_passes": len(traced["walls"]),
                "stats": {k: {"calls": v[0], "total_ns": v[1], "self_ns": v[2]}
                          for k, v in t.stats.items()},
                "counters": t.counters, "spans": t.span_records()}))
    check = workload.check()
    out.update(attempted=check.attempted, failed=len(check.failures),
               wrong_outputs=check.wrong_outputs, failures=check.failures[:20],
               notes=check.notes)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
