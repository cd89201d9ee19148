"""The hybrid tuning sweep runs end to end for both studies."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    _, grid = _studies()[study]
    assert header[:4] == ["settle_s", "overshoot_pct", "sse", "swing_rad"]
    assert header[4:] == list(grid)
