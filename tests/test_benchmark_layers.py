"""The benchmark tracer's patch targets exist and each observed layer sees calls.

``perfbench/tracer.py`` times layers by swapping module attributes, so a
rename, a deletion, or a call that stops going through the module global
silently costs the benchmark a layer. Six targets are already dead; this
pins that list and checks that every other layer records calls on a short
run of each controller kind.
"""
import sys
from pathlib import Path

import pytest

from cartpend.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

DEAD_TARGETS = {
    "cartpend.sim.nonlinear_derivative",
    "cartpend.cli.settling_time",
    "cartpend.cli.overshoot_pct",
    "cartpend.cli.steady_state_error",
    "cartpend.sim.Trajectory.to_csv_text",
    "cartpend.sim.Trajectory.from_csv_text",
}
# the layers those targets fed
DEAD_LAYERS = {
    "plant.derivative.calls", "plant.derivative.self_s",
    "sim.csv_write.s", "sim.csv_write.bytes", "sim.csv_write.rows",
    "sim.csv_read.s", "sim.csv_read.bytes",
}


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_missing_targets_are_exactly_the_known_dead_ones(installed):
    assert len(installed.missing) == len(DEAD_TARGETS)
    assert set(installed.missing) == DEAD_TARGETS


def test_every_live_layer_is_observed(installed, tmp_path, capsys):
    configs = []
    for kind in tracer.CONTROLLER_KINDS:
        path = tmp_path / f"{kind}.ini"
        path.write_text(f"[scenario]\nname = {kind}\ncondition = disturbance\n\n"
                        f"[controller]\nkind = {kind}\n\n[sim]\nduration_s = 0.05\n\n"
                        "[disturbance]\n")
        configs.append(str(path))
    assert main(["run", *configs, "--out", str(tmp_path / "out")]) == 0
    assert main(["analyze", str(tmp_path / "out" / "lqr.csv")]) == 0
    _, not_observed = tracer.layer_metrics(installed, 1)
    assert set(not_observed) == DEAD_LAYERS
