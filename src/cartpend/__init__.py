"""Cart-pendulum control study: plant, controllers, simulation, metrics.

The package compares three controller families on the same nonlinear
pendulum-on-a-cart plant: cascade/simultaneous PID, LQR state feedback
with reference feedforward, and a hybrid model-reference adaptive fuzzy
PI-D. Scenario configs drive deterministic closed-loop runs; metrics and
a CLI turn them into comparable reports.
"""

from .classic import (
    CascadeLoop,
    ConvergenceError,
    LqrController,
    LqrWeights,
    PidChannel,
    PidGains,
    PidState,
    SimultaneousLoop,
    lqr_synthesize,
    pid_position_topology,
    pid_simultaneous_topology,
    pid_step,
    solve_care,
)
from .fuzzy import (
    FuzzySystem,
    fuzzy_infer,
    fuzzify,
)
from .hybrid import (
    HybridChannel,
    ReferenceModel,
    reference_model_step,
)
from .metrics import (
    Metrics,
    compute_metrics,
    overshoot_pct,
    score_trajectory,
    settling_time,
    steady_state_error,
)
from .plant import (
    PlantParams,
    State,
    StateSpace,
    linearize_at,
    mechanical_energy,
    nonlinear_derivative,
)
from .scenario import (
    ConfigError,
    Scenario,
    build_controller,
    builtin_scenarios,
    effective_plant,
    lqr_design,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)
from .sim import (
    DisturbanceSpec,
    ReferenceSpec,
    SimConfig,
    SimulationFault,
    Trajectory,
    run_closed_loop,
)

__version__ = "0.1.0"
