"""Scenario config parsing, defaults, round-trip identity, and the built-in matrix."""
import dataclasses
import hashlib
import json
import math
import pickle
import re
from fractions import Fraction
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
from cartpend import scenario
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

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"

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
    assert s.sim.reference_amplitude == 0.3
    assert s.sim.disturbance.kind == "none"
    assert s.initial_theta_rad == 0.0
    c = s.controller
    assert (c.q_theta, c.q_theta_dot, c.q_x, c.q_x_dot) == (1.0, 9.0, 230.0, 180.0)
    assert c.r == 1.5
    assert c.operating_point == "upright"


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


@pytest.mark.parametrize("key", ["cart_mass_multiplier", "pendulum_length_multiplier"])
@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_a_multiplier_must_be_positive(key, value):
    with pytest.raises(ConfigError) as e:
        parse_scenario(f"{MINIMAL}\n[plant]\n{key} = {value}\n")
    assert str(e.value) == f"[plant] {key} must be positive, got {float(value)!r}"


@pytest.mark.parametrize("keys, message", [
    ({"dt_s": "0", "reference_amplitude": "inf"},
     "reference_amplitude must be finite, got inf"),
    ({"duration_s": "nan", "reference_step_time_s": "-1"},
     "reference_step_time_s must be >= 0, got -1.0"),
    ({"reference_amplitude": "inf", "reference_step_time_s": "-1"},
     "reference_amplitude must be finite, got inf"),
    ({"dt_s": "0", "seed": "-1", "force_limit_N": "0"}, "dt_s must be positive, got 0.0"),
    ({"seed": "-1", "force_limit_N": "0"}, "seed must be in [0, 2**64), got -1"),
], ids=["dt-amplitude", "duration-step-time", "amplitude-step-time", "dt-seed-limit",
        "seed-limit"])
def test_several_bad_sim_keys_name_the_reference_keys_first(keys, message):
    body = "".join(f"{key} = {value}\n" for key, value in keys.items())
    with pytest.raises(ConfigError) as e:
        parse_scenario(f"{MINIMAL}\n[sim]\n{body}")
    assert str(e.value) == f"[sim] {message}"


def test_condition_validation():
    with pytest.raises(ConfigError):
        parse_scenario("[controller]\nkind = lqr\n\n[scenario]\ncondition = windy\n")


def test_multipliers_only_bite_under_parameter_variation():
    # a multiplier other than 1 makes the condition parameter-variation; one of 1
    # leaves the plant bit for bit
    s = parse_scenario(MINIMAL + "\n[plant]\ncart_mass_multiplier = 1.2\n")
    assert s.condition == "parameter-variation"
    assert effective_plant(s).cart_mass_kg == 1.2 * 1.2
    nominal = parse_scenario(MINIMAL)
    assert nominal.condition == "nominal" and effective_plant(nominal) == nominal.plant


@pytest.mark.parametrize("stated, keys, deciding", [
    ("nominal", "[plant]\ncart_mass_multiplier = 3\n",
     "parameter-variation: [plant] cart_mass_multiplier = 3.0"),
    ("nominal", "[plant]\npendulum_length_multiplier = 0.5\n",
     "parameter-variation: [plant] pendulum_length_multiplier = 0.5"),
    ("nominal", "[disturbance]\namplitude_N = 2\n",
     "disturbance: [disturbance] kind = uniform_noise"),
    ("disturbance", "[disturbance]\nkind = none\n", "nominal: [disturbance] kind = none"),
    ("disturbance", "", "nominal: [disturbance] kind = none"),
    ("disturbance", "[disturbance]\namplitude_N = 0\n", "nominal: [disturbance] amplitude_N = 0.0"),
    ("disturbance", "[plant]\ncart_mass_multiplier = 3\n\n[disturbance]\n",
     "parameter-variation: [plant] cart_mass_multiplier = 3.0"),
    ("parameter-variation", "", "nominal: [plant] cart_mass_multiplier and "
                                "pendulum_length_multiplier are 1.0"),
    ("parameter-variation", "[disturbance]\n", "disturbance: [plant] cart_mass_multiplier "
                                               "and pendulum_length_multiplier are 1.0"),
], ids=["nominal-cart-multiplier", "nominal-length-multiplier", "nominal-noise",
        "disturbance-kind-none", "disturbance-no-section", "disturbance-zero-amplitude",
        "disturbance-multiplier", "variation-no-multiplier", "variation-noise-only"])
def test_a_stated_condition_the_keys_contradict_is_refused(stated, keys, deciding):
    with pytest.raises(ConfigError) as e:
        parse_scenario(f"[scenario]\ncondition = {stated}\n\n{MINIMAL}\n{keys}")
    assert str(e.value) == (f"[scenario] condition = {stated} disagrees with the keys, "
                            f"which give {deciding}")


def test_an_unstated_condition_with_a_multiplier_runs_the_scaled_plant():
    s = parse_scenario(MINIMAL + "\n[plant]\ncart_mass_multiplier = 3\n\n[sim]\nduration_s = 1\n")
    assert s.condition == "parameter-variation"
    scaled = run_closed_loop(PlantParams(cart_mass_kg=1.2 * 3.0), build_controller(s), s.sim)
    nominal = run_closed_loop(s.plant, build_controller(s), s.sim)
    states = run_scenario(s).states
    assert np.array_equal(states, scaled.states)
    assert not np.array_equal(states, nominal.states)


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
    # a bare [disturbance] section is 0.5 N of uniform noise over the whole run
    s = parse_scenario("[scenario]\ncondition = disturbance\n\n[controller]\nkind = lqr\n"
                       "\n[disturbance]\n")
    assert s == parse_scenario(MINIMAL + "\n[disturbance]\n")
    assert s.condition == "disturbance"
    assert s.sim.disturbance.kind == "uniform_noise"
    assert s.sim.disturbance.amplitude_N == 0.5
    assert s.sim.disturbance.end_s == s.sim.duration_s


def test_zero_amplitude_noise_is_nominal_and_runs_as_no_noise(tmp_path):
    quiet = parse_scenario(MINIMAL + "\n[sim]\nduration_s = 2\n\n[disturbance]\namplitude_N = 0\n")
    assert quiet.sim.disturbance.kind == "uniform_noise" and quiet.condition == "nominal"
    assert parse_scenario(serialize_scenario(quiet)) == quiet
    run_scenario(quiet).write_csv(tmp_path / "quiet.csv")
    run_scenario(parse_scenario(MINIMAL + "\n[sim]\nduration_s = 2\n")).write_csv(
        tmp_path / "none.csv")
    assert (tmp_path / "quiet.csv").read_bytes() == (tmp_path / "none.csv").read_bytes()


def test_round_trip_identity_minimal():
    s = parse_scenario(MINIMAL)
    assert parse_scenario(serialize_scenario(s)) == s


@pytest.mark.parametrize("stated", ["[scenario]\ncondition = nominal\n\n", ""],
                         ids=["nominal", "unstated"])
def test_round_trip_keeps_an_explicit_none_disturbance(stated):
    s = parse_scenario(f"{stated}{MINIMAL}\n[disturbance]\nkind = none\n")
    assert s.sim.disturbance.kind == "none" and s.condition == "nominal"
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_identity_builtins():
    for name, s in builtin_scenarios().items():
        back = parse_scenario(serialize_scenario(s))
        assert back == s, name


def test_each_builtin_derives_the_condition_its_catalog_states():
    for name, text in scenario._catalog_text().items():
        stated = re.search(r"^condition = (.*)$", text, re.M).group(1)
        assert name.endswith("-" + stated)
        assert parse_scenario(text).condition == stated, name
        unstated = parse_scenario(text.replace(f"condition = {stated}\n", ""))
        assert unstated == parse_scenario(text), name


def test_builtin_catalog_shape():
    cat = builtin_scenarios()
    assert len(cat) == 18
    conditions = {"nominal", "disturbance", "parameter-variation"}
    for name, s in cat.items():
        assert s.name == name
        assert s.condition in conditions
        if name.startswith("cart-position-"):
            assert s.initial_theta_rad == pytest.approx(math.pi)
            assert s.sim.reference_amplitude == 1.0
            assert s.controller_kind in ("pid-position", "lqr", "hybrid")
        else:
            assert name.startswith("simultaneous-")
            assert s.initial_theta_rad == 0.0
            assert s.sim.reference_amplitude == 0.3
            assert s.controller_kind in ("pid-simultaneous", "lqr", "hybrid-simultaneous")
    # parameter-variation cart runs leave room for slow loops
    assert cat["cart-position-pid-parameter-variation"].sim.duration_s == 120.0
    assert cat["cart-position-lqr-parameter-variation"].cart_mass_multiplier == 1.2
    assert cat["simultaneous-lqr-parameter-variation"].pendulum_length_multiplier == 1.05
    assert cat["simultaneous-lqr-parameter-variation"].cart_mass_multiplier == 1.15
    assert cat["cart-position-lqr-nominal"].controller.operating_point == "hanging"
    assert cat["simultaneous-lqr-nominal"].controller.operating_point == "upright"


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


@pytest.mark.parametrize("kind", sorted(scenario._CONTROLLERS))
def test_a_controller_record_is_its_kind_keys_and_pickles(kind):
    s = parse_scenario(f"[controller]\nkind = {kind}\n")
    record = type(s.controller)
    assert record.kind == s.controller_kind == kind
    assert getattr(scenario, record.__qualname__) is record  # where pickle looks it up
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(TypeError):  # a key of no kind is refused, not carried along
        dataclasses.replace(s.controller, angle_kq=1.0)


def test_an_lqr_record_refuses_an_unknown_operating_point():
    with pytest.raises(ConfigError, match=r"^\[controller\] operating_point must be "):
        parse_scenario(MINIMAL + "operating_point = sideways\n")
    with pytest.raises(ConfigError, match=r"^\[controller\] operating_point must be "):
        dataclasses.replace(parse_scenario(MINIMAL).controller, operating_point="sideways")


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
        lib = run_closed_loop(PlantParams(), make(vars(s.controller)), short,
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


def _readme_config_table() -> dict:
    """Row name -> [(key, parenthesized default text or '')] from README's config table.

    A section's row is named by the section, and each controller kind's row
    by ``kind = <kind>``.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Scenario configs", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in (ln for ln in section.splitlines() if ln.startswith("| `")):
        # a cell may hold an escaped \| between alternatives
        _, name, keys, _ = re.split(r"(?<!\\)\|", line)
        rows[name.strip().strip("`[]")] = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", keys)
    return rows


def _printed_default(text):
    """A number, or a tuple for whitespace-separated numbers such as ``-1 -2/3 0``;
    None for prose."""
    try:
        values = tuple(float(Fraction(token)) for token in text.split())
    except ValueError:
        return None
    return values[0] if len(values) == 1 else values or None


@pytest.mark.parametrize("section", ["scenario", "plant", "sim", "disturbance",
                                     *scenario._CONTROLLERS])
def test_readme_config_table_matches_the_schema(section):
    if section in scenario._CONTROLLERS:
        schema = scenario._schema(scenario._CONTROLLERS[section])
        row = _readme_config_table()[f"kind = {section}"]
    else:
        schema = getattr(scenario, f"_{section.upper()}_KEYS")
        row = _readme_config_table()[section]
    assert [key for key, _ in row] == list(schema)
    printed = {key: _printed_default(text) for key, text in row}
    numeric = {key: default for key, (_, default) in schema.items()
               if isinstance(default, (int, float, tuple))}
    assert {key: v for key, v in printed.items() if v is not None} == numeric


def _cart_positions(s, amplitude):
    sim = dataclasses.replace(s.sim, duration_s=10.0, reference_amplitude=amplitude)
    return run_scenario(dataclasses.replace(s, sim=sim)).states[:, 2]


@pytest.mark.parametrize("name", sorted(n for n in builtin_scenarios() if n.endswith("-nominal")))
def test_small_steps_give_homogeneous_nominal_responses(name):
    """x(a) / a settles onto one shape as the step amplitude a shrinks.

    D(a) = max |x(a)/a - x(10a)/(10a)| over a 10 s run. The PID and LQR loops
    are linear about the equilibrium and the plant is odd-symmetric, so D falls
    100x per decade of a; the fuzzy surface's kink at the origin leaves the
    hybrid loops homogeneous of degree one, with D falling about 10x.
    """
    s = builtin_scenarios()[name]
    x = {a: _cart_positions(s, a) / a for a in (1e-4, 1e-3, 1e-2)}
    d_small = np.abs(x[1e-4] - x[1e-3]).max()
    d_large = np.abs(x[1e-3] - x[1e-2]).max()
    if s.controller_kind.startswith("hybrid"):
        assert d_small <= d_large / 5 and d_small <= 2e-2, (d_small, d_large)
    else:
        assert d_small <= d_large / 50 and d_small <= 1e-8, (d_small, d_large)
