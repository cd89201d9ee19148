"""Self-tests of the benchmark: its checks catch faults and it prints every metric."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cartpend.classic  # noqa: E402
import cartpend.sim  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cartpend.plant import PlantParams, State  # noqa: E402


def test_flipped_csv_byte_is_a_failed_operation(tmp_path):
    w = workloads.StudyMatrix(workloads.SHIPPED_SEED, workloads.SMOKE, tmp_path)
    result = w.run_pass()
    # one operation per scenario plus the report, together the whole pass
    op_ns = [sum(end - start for start, end in op) for op in result.op_windows]
    assert len(op_ns) == 19 and min(op_ns) >= 0
    assert sum(op_ns) * 1e-9 == pytest.approx(result.wall_s, rel=0.05)
    clean = w.check()
    assert clean.failures == [] and clean.attempted == 19

    csv = tmp_path / "out" / "simultaneous-lqr-nominal.csv"
    data = bytearray(csv.read_bytes())
    at = data.rindex(b"\n", 0, len(data) - 1) + 3  # a digit in the last row
    data[at] = ord("7") if data[at] != ord("7") else ord("3")
    csv.write_bytes(bytes(data))
    flipped = w.check()
    assert flipped.wrong_outputs >= 1
    assert any("simultaneous-lqr-nominal" in f for f in flipped.failures)


def test_forced_convergence_error_raises_failed_fraction(tmp_path, monkeypatch):
    def refuse(ss, weights, *args, **kwargs):
        raise cartpend.classic.ConvergenceError("forced", math.inf)

    w = workloads.CareDesign(workloads.SHIPPED_SEED, workloads.SMOKE, tmp_path)
    monkeypatch.setattr(cartpend.classic, "solve_care", refuse)
    w.run_pass()
    c = w.check()
    assert c.attempted > 0
    assert len(c.failures) / c.attempted == 1.0
    assert c.wrong_outputs == 0  # refusals, not wrong answers


def test_inlined_layer_is_not_observed(monkeypatch):
    params = PlantParams()

    def inlined(p):
        return lambda state, u: cartpend.plant.nonlinear_derivative(p, state, u)

    monkeypatch.setattr(cartpend.sim, "make_derivative", inlined)
    t = tracer.Tracer()
    t.install()
    try:
        ctrl = cartpend.classic.pid_simultaneous_topology()
        cartpend.sim.run_closed_loop(params, ctrl, cartpend.sim.SimConfig(duration_s=0.05),
                                     State(0.01, 0.0, 0.0, 0.0))
    finally:
        t.uninstall()
    layers, not_observed = tracer.layer_metrics(t, 1)
    assert "plant.derivative.calls" in not_observed
    assert layers["sim.rk4.calls"][0] == 50
    assert layers["sim.rk4.self_s"][0] > 0.0


def test_scaling_removes_samples_and_follows_host_speed():
    s = hostspeed.Sampler()
    ref_ns = int(hostspeed.REFERENCE_S * 1e9)
    # host at half speed around the operation; one sample of 1 ms inside it
    s.starts = [0, 10_000_000, 2_000_000_000]
    s.spans = [(0, 1), (10_000_000, 11_000_000), (2_000_000_000, 2_000_000_001)]
    s.times = [2 * ref_ns] * 3
    assert s.scaled(5_000_000, 105_000_000) == pytest.approx(0.099 / 2)


def _json_lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_named_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec[key]}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "0.5", "--trace", str(trace), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = _json_lines(proc.stdout)
    assert len(results) == len(workloads.BUILDERS)
    for r in results:
        assert set(r) == {"correct", "attempted", "failed", "metrics"}
        assert r["correct"] and r["attempted"] >= 1
        assert set(r["metrics"]) == names


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "study-matrix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert _json_lines(proc.stdout) == []
