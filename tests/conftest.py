"""Fixtures shared by the test modules."""
import pytest

from cartpend.plant import State
from cartpend.scenario import build_controller, builtin_scenarios, effective_plant
from cartpend.sim import CSV_HEADER, run_closed_loop


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


_MALFORMED_CSV_BODIES = {
    "ragged-rows": "0,0,0,0,0,0\n0,0,0,0,0,0,0,0\n",
    "six-columns": "0,0,0,0,0,0\n0.001,0,0,0,0,0\n",
    "header-only": "",
    "non-numeric": "0,0,0,0,0,zero,0\n",
    "trailing-comma": "0,0,0,0,0,0,0,\n",
    "underscore-literal": "1_0,0,0,0,0,0,0\n",
    "nan": "0,0,0,0,0,0,0\n0.001,0,0,nan,0,0,0\n",
    "inf": "0,0,0,0,0,0,inf\n",
    "time-backwards": "0.5,0,0,1,0,0,1\n0.1,0,0,1,0,0,1\n0.3,0,0,1,0,0,1\n",
    "time-repeated": "0,0,0,1,0,0,1\n0,0,0,1,0,0,1\n",
}


@pytest.fixture(params=sorted(_MALFORMED_CSV_BODIES))
def malformed_csv(request):
    """Trajectory CSV text with the right header and a malformed body."""
    return CSV_HEADER + "\n" + _MALFORMED_CSV_BODIES[request.param]
