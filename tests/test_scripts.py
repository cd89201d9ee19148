"""The hybrid tuning sweep runs end to end for both studies."""
import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cartpend.scenario import builtin_scenarios

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "tune_hybrid.py"


def _studies():
    spec = importlib.util.spec_from_file_location("tune_hybrid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STUDIES


@pytest.mark.parametrize("study", ["cart", "simultaneous"])
def test_tune_hybrid_runs_and_names_every_grid_key(study):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPT), study, "--duration", "0.05", "--top", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    header = done.stdout.splitlines()[0].split()
    name, grid = _studies()[study]
    assert header[:4] == ["settle_s", "overshoot_pct", "sse", "swing_rad"]
    assert header[4:] == list(grid)
    record = builtin_scenarios()[name].controller
    assert set(grid) <= {f.name for f in dataclasses.fields(record)}


@pytest.mark.parametrize("args", [
    ["cart", "--gamma", "-1", "--duration", "0.01"],
    ["simultaneous", "--duration", "0.0105"],
    ["cart", "--top", "0", "--duration", "0.01"],
    ["simultaneous", "--top", "-1", "--duration", "0.01"],
], ids=["negative-gamma", "fractional-steps", "zero-top", "negative-top"])
def test_tune_hybrid_rejects_bad_input_with_one_error_line(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
