"""Scenario config parsing, defaults, round-trip identity, and the built-in matrix."""
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cartpend.classic import (
    CascadeLoop,
    LqrWeights,
    PidGains,
    SimultaneousLoop,
    lqr_synthesize,
    pid_position_topology,
    pid_simultaneous_topology,
)
from cartpend.fuzzy import FuzzySystem
from cartpend.hybrid import HybridChannel
from cartpend.metrics import report_csv_row, score_trajectory
from cartpend.scenario import (
    ConfigError,
    build_controller,
    builtin_scenarios,
    effective_plant,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)
from cartpend.plant import PlantParams, State, linearize_at
from cartpend.sim import SimConfig, run_closed_loop

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

MINIMAL = "[controller]\nkind = lqr\n"


def test_minimal_lqr_defaults():
    s = parse_scenario(MINIMAL)
    assert s.controller_kind == "lqr"
    assert s.condition == "nominal"
    assert s.plant.cart_mass_kg == 1.2
    assert s.plant.bob_mass_kg == 0.2
    assert s.plant.pendulum_length_m == 0.36
    assert s.plant.gravity_ms2 == 9.8
    assert s.sim.dt_s == 1e-3
    assert s.sim.duration_s == 40.0
    assert s.sim.reference.amplitude == 0.3
    assert s.sim.disturbance.kind == "none"
    assert s.initial_theta_rad == 0.0
    cc = s.controller_config
    assert (cc["q_theta"], cc["q_theta_dot"], cc["q_x"], cc["q_x_dot"]) == (1.0, 9.0, 230.0, 180.0)
    assert cc["r"] == 1.5
    assert cc["operating_point"] == "upright"


def test_unknown_key_reports_path():
    with pytest.raises(ConfigError) as e:
        parse_scenario("[controller]\nkind = lqr\n\n[plant]\nwheel_radius_m = 0.1\n")
    assert "[plant] wheel_radius_m" in str(e.value)


def test_unknown_controller_key_reports_path():
    with pytest.raises(ConfigError) as e:
        parse_scenario("[controller]\nkind = lqr\nangle_kp = 2\n")
    assert "[controller] angle_kp" in str(e.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as e:
        parse_scenario(MINIMAL + "\n[weather]\nwind = 3\n")
    assert "weather" in str(e.value)


def test_missing_controller_kind():
    with pytest.raises(ConfigError):
        parse_scenario("[sim]\nduration_s = 10\n")
    with pytest.raises(ConfigError):
        parse_scenario("[controller]\nkind = sliding-mode\n")


def test_malformed_number_reported_with_path():
    with pytest.raises(ConfigError) as e:
        parse_scenario("[controller]\nkind = lqr\n\n[sim]\ndt_s = fast\n")
    assert "[sim] dt_s" in str(e.value)


def test_out_of_range_values_rejected():
    with pytest.raises(ConfigError):
        parse_scenario("[controller]\nkind = lqr\n\n[plant]\ncart_mass_kg = -1\n")
    with pytest.raises(ConfigError):
        parse_scenario("[controller]\nkind = lqr\n\n[sim]\ndt_s = 50\nduration_s = 1\n")


def test_condition_validation():
    with pytest.raises(ConfigError):
        parse_scenario("[controller]\nkind = lqr\n\n[scenario]\ncondition = windy\n")


def test_multipliers_only_bite_under_parameter_variation():
    text = (
        "[scenario]\ncondition = nominal\n\n[controller]\nkind = lqr\n\n"
        "[plant]\ncart_mass_multiplier = 1.2\n"
    )
    s = parse_scenario(text)
    assert effective_plant(s).cart_mass_kg == 1.2


def test_multiplier_value_under_parameter_variation():
    text = (
        "[scenario]\ncondition = parameter-variation\n\n[controller]\nkind = lqr\n\n"
        "[plant]\ncart_mass_multiplier = 1.2\n"
    )
    s = parse_scenario(text)
    assert effective_plant(s).cart_mass_kg == pytest.approx(1.44, abs=1e-12)


def test_simultaneous_variation_case():
    text = (
        "[scenario]\ncondition = parameter-variation\n\n[controller]\nkind = lqr\n\n"
        "[plant]\npendulum_length_multiplier = 1.05\ncart_mass_multiplier = 1.15\n"
    )
    p = effective_plant(parse_scenario(text))
    assert p.cart_mass_kg == pytest.approx(1.2 * 1.15, abs=1e-12)
    assert p.pendulum_length_m == pytest.approx(0.36 * 1.05, abs=1e-12)


def test_disturbance_condition_gets_default_noise():
    s = parse_scenario("[scenario]\ncondition = disturbance\n\n[controller]\nkind = lqr\n")
    assert s.sim.disturbance.kind == "uniform_noise"
    assert s.sim.disturbance.amplitude_N == 0.5
    assert s.sim.disturbance.end_s == s.sim.duration_s


def test_round_trip_identity_minimal():
    s = parse_scenario(MINIMAL)
    assert parse_scenario(serialize_scenario(s)) == s


@pytest.mark.parametrize("condition", ["nominal", "disturbance"])
def test_round_trip_keeps_an_explicit_none_disturbance(condition):
    s = parse_scenario(f"[scenario]\ncondition = {condition}\n\n{MINIMAL}"
                       "\n[disturbance]\nkind = none\n")
    assert s.sim.disturbance.kind == "none"
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_identity_builtins():
    for name, s in builtin_scenarios().items():
        back = parse_scenario(serialize_scenario(s))
        assert back == s, name


def test_builtin_catalog_shape():
    cat = builtin_scenarios()
    assert len(cat) == 18
    conditions = {"nominal", "disturbance", "parameter-variation"}
    for name, s in cat.items():
        assert s.name == name
        assert s.condition in conditions
        if name.startswith("cart-position-"):
            assert s.initial_theta_rad == pytest.approx(math.pi)
            assert s.sim.reference.amplitude == 1.0
            assert s.controller_kind in ("pid-position", "lqr", "hybrid")
        else:
            assert name.startswith("simultaneous-")
            assert s.initial_theta_rad == 0.0
            assert s.sim.reference.amplitude == 0.3
            assert s.controller_kind in ("pid-simultaneous", "lqr", "hybrid-simultaneous")
    # parameter-variation cart runs leave room for slow loops
    assert cat["cart-position-pid-parameter-variation"].sim.duration_s == 120.0
    assert cat["cart-position-lqr-parameter-variation"].cart_mass_multiplier == 1.2
    assert cat["simultaneous-lqr-parameter-variation"].pendulum_length_multiplier == 1.05
    assert cat["simultaneous-lqr-parameter-variation"].cart_mass_multiplier == 1.15
    assert cat["cart-position-lqr-nominal"].controller_config["operating_point"] == "hanging"
    assert cat["simultaneous-lqr-nominal"].controller_config["operating_point"] == "upright"


def test_build_controller_all_builtins():
    for name, s in builtin_scenarios().items():
        ctrl = build_controller(s)
        u = ctrl.step(0.0, State(s.initial_theta_rad, 0.0, 0.0, 0.0), s.sim.dt_s)
        assert math.isfinite(u), name


def test_custom_fuzzy_shape_is_configurable():
    text = (
        "[controller]\n"
        "kind = hybrid\n"
        "input1_peaks = -2 -1.2 -0.5 0 0.5 1.2 2\n"
        "rule_row0 = 0 0 0 0 1 2 3\n"
        "rule_row1 = 0 0 0 1 2 3 4\n"
        "rule_row2 = 0 0 1 2 3 4 5\n"
        "rule_row3 = 0 1 2 3 4 5 6\n"
        "rule_row4 = 1 2 3 4 5 6 6\n"
        "rule_row5 = 2 3 4 5 6 6 6\n"
        "rule_row6 = 3 4 5 6 6 6 6\n"
    )
    s = parse_scenario(text)
    ctrl = build_controller(s)
    u = ctrl.step(0.5, State(math.pi, 0.0, 0.0, 0.0), 1e-3)
    assert math.isfinite(u)
    assert parse_scenario(serialize_scenario(s)) == s


def test_run_scenario_smoke():
    s = builtin_scenarios()["cart-position-lqr-nominal"]
    short = dataclasses.replace(s, sim=dataclasses.replace(s.sim, duration_s=10.0))
    traj = run_scenario(short)
    assert abs(traj.states[-1, 2] - 1.0) < 0.02
    assert np.all(np.isfinite(traj.states))


def _channel(cc, prefix=""):
    """A channel from the config's own gains and the library's other defaults."""
    return HybridChannel(
        PidGains(*(cc[f"{prefix}channel_{p}"] for p in ("kp", "ki", "kd"))),
        PidGains(*(cc[f"{prefix}crisp_{p}"] for p in ("kp", "ki", "kd"))),
        FuzzySystem(output_scale=cc[f"{prefix}output_scale"]))


def test_minimal_configs_build_the_library_defaults():
    """``[controller] kind = ...`` alone builds what the no-argument objects build."""
    library = {
        "lqr": lambda cc: lqr_synthesize(linearize_at(PlantParams(), 0.0), LqrWeights(), 2),
        "pid-position": lambda cc: pid_position_topology(),
        "pid-simultaneous": lambda cc: pid_simultaneous_topology(),
        "hybrid": lambda cc: CascadeLoop(_channel(cc)),
        "hybrid-simultaneous": lambda cc: SimultaneousLoop(
            _channel(cc, "angle_"), _channel(cc, "position_")),
    }
    short = SimConfig(duration_s=0.3)
    start = State(0.05, 0.0, 0.0, 0.0)
    for kind, make in library.items():
        s = parse_scenario(f"[controller]\nkind = {kind}\n")
        assert s.plant == PlantParams(), kind
        assert s.sim == SimConfig(), kind
        built = run_closed_loop(s.plant, build_controller(s), short, initial_state=start)
        lib = run_closed_loop(PlantParams(), make(s.controller_config), short,
                              initial_state=start)
        assert np.array_equal(built.inputs_N, lib.inputs_N), kind
        assert np.array_equal(built.states, lib.states), kind


def test_builtin_trajectories_match_golden_hashes(runs, tmp_path):
    """Every built-in run hashes to the benchmark's recorded CSV and report row."""
    golden = json.loads(GOLDEN.read_text())
    recorded = golden["full"]["study-matrix"]
    cat = builtin_scenarios()
    assert {s.sim.seed for s in cat.values()} == {golden["shipped_seed"]}
    assert sorted(cat) == sorted(recorded["csv_sha256"])
    wrong = []
    for name, s in cat.items():
        traj = runs(name)[0]
        traj.write_csv(tmp_path / f"{name}.csv")
        sha = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
        row = report_csv_row(name, s.controller_kind, score_trajectory(traj)).rstrip("\n")
        if sha != recorded["csv_sha256"][name] or row != recorded["report_rows"][name]:
            wrong.append(name)
    assert wrong == []


@pytest.mark.parametrize("name", ["../escaped", "a/b", "report", "", ".hidden", "-x",
                                  "two words", "a,b"])
def test_name_must_be_plain_file_stem(name):
    with pytest.raises(ConfigError, match=r"\[scenario\] name"):
        parse_scenario(f"[scenario]\nname = {name}\n\n[controller]\nkind = lqr\n")


@pytest.mark.parametrize("key", ["position_kp", "velocity_ki", "position_kd"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_pid_gain_is_a_controller_error(key, value):
    s = parse_scenario(f"[controller]\nkind = pid-position\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[controller\] {key} must be finite"):
        build_controller(s)
