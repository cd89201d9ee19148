"""Fixtures shared by the test modules."""
import pytest

from cartpend.plant import State
from cartpend.scenario import build_controller, builtin_scenarios, effective_plant
from cartpend.sim import run_closed_loop


@pytest.fixture(scope="session")
def runs():
    """Built-in scenario name -> (trajectory, controller), each run once per session.

    The controller is kept because its ``clamp_events`` are read after the run.
    """
    cache = {}
    cat = builtin_scenarios()

    def get(name):
        if name not in cache:
            s = cat[name]
            ctrl = build_controller(s)
            traj = run_closed_loop(
                effective_plant(s), ctrl, s.sim,
                initial_state=State(s.initial_theta_rad, 0.0, 0.0, 0.0),
            )
            cache[name] = (traj, ctrl)
        return cache[name]

    return get
