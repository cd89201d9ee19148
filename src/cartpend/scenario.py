"""Declarative run descriptions in a small INI dialect.

A scenario names a plant, a controller with its gains, a simulation window
with a step reference, and one of three study conditions: ``nominal``,
``disturbance`` (uniform random force noise at the input), or
``parameter-variation`` (plant multipliers applied to the simulated cart
while the controller keeps its nominal design). Text and dataclass forms
round-trip exactly; every field has a default, so the shortest valid config
is two lines naming a controller kind.

The built-in catalog covers two studies times three controller families
times three conditions: swing the cart of a hanging pendulum to a 1 m step,
and hold an upright pendulum while the cart tracks a 0.3 m step.
"""
from __future__ import annotations

import configparser
import contextlib
import inspect
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .classic import (
    CascadeLoop,
    ConvergenceError,
    LqrController,
    LqrWeights,
    PidGains,
    SimultaneousLoop,
    lqr_synthesize,
    pid_position_topology,
    pid_simultaneous_topology,
)
from .fuzzy import FuzzySystem
from .hybrid import HybridChannel
from .plant import PlantParams, State, linearize_at
from .sim import DisturbanceSpec, ReferenceSpec, SimConfig, Trajectory, run_closed_loop


class ConfigError(ValueError):
    """Unparseable, unknown, or out-of-range scenario settings."""


_CONDITIONS = ("nominal", "disturbance", "parameter-variation")
_SECTIONS = ("scenario", "plant", "controller", "sim", "disturbance")
_OPERATING_POINTS = {"upright": 0.0, "hanging": math.pi}
_Q_KEYS = ("q_theta", "q_theta_dot", "q_x", "q_x_dot")
# a run writes <name>.csv next to report.csv and report.txt
_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def _defaults(fn) -> dict:
    """Parameter name -> default value in the signature of ``fn``."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()}


def _gain_keys(**loops) -> dict:
    """Schema entries ``<loop>_kp/_ki/_kd`` defaulting to each loop's PidGains."""
    return {f"{loop}_{part}": ("float", getattr(gains, part))
            for loop, gains in loops.items() for part in ("kp", "ki", "kd")}


def _channel_keys(prefix: str, channel: PidGains, crisp: PidGains,
                  output_scale: float) -> dict:
    """Gain and scale entries of one hybrid channel, keys starting with ``prefix``."""
    return {**_gain_keys(**{prefix + "channel": channel, prefix + "crisp": crisp}),
            prefix + "input1_scale": ("float", FuzzySystem.input1_scale),
            prefix + "input2_scale": ("float", FuzzySystem.input2_scale),
            prefix + "output_scale": ("float", output_scale)}


# Defaults are read from the library objects a bare config builds: dataclass
# fields and the signatures of the PID topologies and of HybridChannel. Only
# the tuned hybrid gains are written here.
_CASCADE = _defaults(pid_position_topology)
_SIMULTANEOUS = _defaults(pid_simultaneous_topology)
_CHANNEL = _defaults(HybridChannel)
_FILTER_KEY = {"filter_tau_s": ("float", PidGains.filter_tau_s)}
_ADAPTATION_KEYS = {
    "gamma": ("float", _CHANNEL["gamma"]),
    "safety_bound": ("float", _CHANNEL["safety_bound"]),
    **_FILTER_KEY,
    "natural_frequency_rads": ("float", _CHANNEL["natural_frequency_rads"]),
    "damping_ratio": ("float", _CHANNEL["damping_ratio"]),
}

# key -> (value kind, default); kinds: float / int / str / floats / ints
_SCENARIO_KEYS = {
    "name": ("str", "custom"),
    "condition": ("str", "nominal"),
    "initial_theta_rad": ("float", 0.0),
}
_PLANT_KEYS = {
    **{f.name: ("float", f.default) for f in fields(PlantParams)},
    "cart_mass_multiplier": ("float", 1.0),
    "pendulum_length_multiplier": ("float", 1.0),
}
_SIM_KEYS = {
    "dt_s": ("float", SimConfig.dt_s),
    "duration_s": ("float", SimConfig.duration_s),
    "seed": ("int", SimConfig.seed),
    "force_limit_N": ("float", SimConfig.force_limit_N),
    "reference_amplitude": ("float", ReferenceSpec.amplitude),
    "reference_step_time_s": ("float", ReferenceSpec.step_time_s),
}
_DISTURBANCE_KEYS = {
    "kind": ("str", "uniform_noise"),
    "amplitude_N": ("float", 0.5),
    "start_s": ("float", 0.0),
    "end_s": ("float", None),  # None resolves to the run duration
}

_CONTROLLER_SCHEMAS = {
    "lqr": {
        **{key: ("float", float(q)) for key, q in zip(_Q_KEYS, np.diag(LqrWeights().q))},
        "r": ("float", LqrWeights.r),
        "operating_point": ("str", "upright"),
    },
    "pid-position": {
        **_gain_keys(position=_CASCADE["position_gains"],
                     velocity=_CASCADE["velocity_gains"]),
        **_FILTER_KEY,
    },
    "pid-simultaneous": {
        **_gain_keys(angle=_SIMULTANEOUS["angle_gains"],
                     position=_SIMULTANEOUS["position_gains"]),
        **_FILTER_KEY,
    },
    "hybrid": {
        **_channel_keys("", PidGains(1.5, 0.0, 1.4), PidGains(1.2, 0.0, 0.3), 12.0),
        **_ADAPTATION_KEYS,
        **{name: ("floats", getattr(FuzzySystem, name))
           for name in ("input1_peaks", "input2_peaks", "output_centers")},
        **{f"rule_row{i}": ("ints", row) for i, row in enumerate(FuzzySystem.rule_table)},
    },
    "hybrid-simultaneous": {
        **_channel_keys("angle_", PidGains(5.0, 0.0, 1.0), PidGains(40.0, 0.0, 4.0), 8.0),
        **_channel_keys("position_", PidGains(3.5, 0.0, 3.0), PidGains(1.5, 0.0, 3.0), 6.0),
        **_ADAPTATION_KEYS,
    },
}


@dataclass(frozen=True)
class Scenario:
    name: str
    condition: str
    plant: PlantParams
    controller_kind: str
    controller_config: dict
    sim: SimConfig
    initial_theta_rad: float
    cart_mass_multiplier: float
    pendulum_length_multiplier: float


@contextlib.contextmanager
def _config_keys(section: str, **keys):
    """Re-raise a library ValueError as a ConfigError naming ``[section] key``.

    Library messages open with the parameter name; ``keys`` maps each name
    a config spells differently to its config key.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        name, sep, rest = str(exc).partition(" ")
        raise ConfigError(f"[{section}] {keys.get(name, name)}{sep}{rest}") from None


def _convert(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    if kind == "str":
        return raw
    if kind in ("float", "int"):
        caster = float if kind == "float" else int
        try:
            return caster(raw)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: cannot parse {raw!r} as a number") from None
    # whitespace-separated vectors
    caster = float if kind == "floats" else int
    try:
        values = tuple(caster(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as numbers") from None
    if len(values) != 7:
        raise ConfigError(f"[{section}] {key}: expected 7 values, got {len(values)}")
    return values


def _read_section(cp, section: str, schema: dict) -> dict:
    out = {key: default for key, (_, default) in schema.items()}
    if not cp.has_section(section):
        return out
    for key, raw in cp.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key [{section}] {key}")
        out[key] = _convert(section, key, schema[key][0], raw)
    return out


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")

    meta = _read_section(cp, "scenario", _SCENARIO_KEYS)
    if not _NAME.fullmatch(meta["name"]) or meta["name"] == "report":
        raise ConfigError(f"[scenario] name must be a plain file stem (letters, digits, "
                          f"'_', '.', '-'; not starting with '.' or '-'; not 'report'), "
                          f"got {meta['name']!r}")
    if not math.isfinite(meta["initial_theta_rad"]):
        raise ConfigError(f"[scenario] initial_theta_rad must be finite, "
                          f"got {meta['initial_theta_rad']!r}")
    if meta["condition"] not in _CONDITIONS:
        raise ConfigError(f"[scenario] condition must be one of {_CONDITIONS}, "
                          f"got {meta['condition']!r}")

    if not cp.has_section("controller") or not cp.has_option("controller", "kind"):
        raise ConfigError("[controller] kind is required")
    kind = cp.get("controller", "kind").strip()
    if kind not in _CONTROLLER_SCHEMAS:
        raise ConfigError(f"[controller] kind: unknown kind {kind!r}; "
                          f"valid kinds: {', '.join(sorted(_CONTROLLER_SCHEMAS))}")
    controller_config = _read_section(cp, "controller",
                                      {"kind": ("str", kind), **_CONTROLLER_SCHEMAS[kind]})
    del controller_config["kind"]
    if kind == "lqr" and controller_config["operating_point"] not in _OPERATING_POINTS:
        raise ConfigError(f"[controller] operating_point must be 'upright' or "
                          f"'hanging', got {controller_config['operating_point']!r}")

    plant_vals = _read_section(cp, "plant", _PLANT_KEYS)
    multipliers = {key: plant_vals.pop(key)
                   for key in ("cart_mass_multiplier", "pendulum_length_multiplier")}
    for key, v in multipliers.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"[plant] {key} must be positive, got {v!r}")
    with _config_keys("plant"):
        plant = PlantParams(**plant_vals)

    sim_vals = _read_section(cp, "sim", _SIM_KEYS)
    duration = sim_vals["duration_s"]
    with _config_keys("sim", amplitude="reference_amplitude",
                      step_time_s="reference_step_time_s"):
        reference = ReferenceSpec(amplitude=sim_vals["reference_amplitude"],
                                  step_time_s=sim_vals["reference_step_time_s"])
        sim = SimConfig(dt_s=sim_vals["dt_s"], duration_s=duration, reference=reference,
                        seed=sim_vals["seed"], force_limit_N=sim_vals["force_limit_N"])
    if cp.has_section("disturbance") or meta["condition"] == "disturbance":
        dist_args = _read_section(cp, "disturbance", _DISTURBANCE_KEYS)
        if dist_args["end_s"] is None:
            dist_args["end_s"] = duration
        with _config_keys("disturbance"):
            sim = replace(sim, disturbance=DisturbanceSpec(**dist_args))

    return Scenario(name=meta["name"], condition=meta["condition"], plant=plant,
                    controller_kind=kind, controller_config=controller_config,
                    sim=sim, initial_theta_rad=meta["initial_theta_rad"],
                    cart_mass_multiplier=multipliers["cart_mass_multiplier"],
                    pendulum_length_multiplier=multipliers["pendulum_length_multiplier"])


def _format_value(kind: str, value) -> str:
    if kind == "str":
        return str(value)
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    if kind == "floats":
        return " ".join(repr(float(v)) for v in value)
    return " ".join(str(int(v)) for v in value)


def serialize_scenario(s: Scenario) -> str:
    """Config text that parses back to an equal Scenario.

    Every section is written with every key of its schema; only an unset
    ``force_limit_N`` is left out. Keys missing from ``controller_config``
    are written with their schema defaults.
    """
    sim = s.sim
    values = {
        "scenario": {"name": s.name, "condition": s.condition,
                     "initial_theta_rad": s.initial_theta_rad},
        "plant": {**{f.name: getattr(s.plant, f.name) for f in fields(PlantParams)},
                  "cart_mass_multiplier": s.cart_mass_multiplier,
                  "pendulum_length_multiplier": s.pendulum_length_multiplier},
        "controller": s.controller_config,
        "sim": {"dt_s": sim.dt_s, "duration_s": sim.duration_s, "seed": sim.seed,
                "force_limit_N": sim.force_limit_N,
                "reference_amplitude": sim.reference.amplitude,
                "reference_step_time_s": sim.reference.step_time_s},
        "disturbance": {f.name: getattr(sim.disturbance, f.name)
                        for f in fields(DisturbanceSpec)},
    }
    # the kind is the default of the schema's first key, as in parse_scenario
    schemas = {"scenario": _SCENARIO_KEYS, "plant": _PLANT_KEYS,
               "controller": {"kind": ("str", s.controller_kind),
                              **_CONTROLLER_SCHEMAS[s.controller_kind]},
               "sim": _SIM_KEYS, "disturbance": _DISTURBANCE_KEYS}
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, (kind, default) in schemas[section].items():
            value = values[section].get(key, default)
            if value is not None:
                lines.append(f"{key} = {_format_value(kind, value)}")
        lines.append("")
    return "\n".join(lines)


def effective_plant(s: Scenario) -> PlantParams:
    """The simulated plant: multipliers apply only under parameter variation."""
    if s.condition != "parameter-variation":
        return s.plant
    return replace(s.plant,
                   cart_mass_kg=s.plant.cart_mass_kg * s.cart_mass_multiplier,
                   pendulum_length_m=s.plant.pendulum_length_m * s.pendulum_length_multiplier)


def _gains(cc: dict, loop: str) -> PidGains:
    with _config_keys("controller", kp=loop + "_kp", ki=loop + "_ki", kd=loop + "_kd"):
        return PidGains(cc[loop + "_kp"], cc[loop + "_ki"], cc[loop + "_kd"],
                        cc["filter_tau_s"])


def _build_channel(cc: dict, prefix: str = "") -> HybridChannel:
    # hybrid-simultaneous configs have no fuzzy shape keys: the FuzzySystem defaults
    rules = FuzzySystem.rule_table
    scales = {name: prefix + name for name in ("input1_scale", "input2_scale", "output_scale")}
    rows = {f"rule_table[{i}]": f"rule_row{i}" for i in range(len(rules))}
    with _config_keys("controller", **scales, **rows):
        system = FuzzySystem(
            input1_peaks=cc.get("input1_peaks", FuzzySystem.input1_peaks),
            input2_peaks=cc.get("input2_peaks", FuzzySystem.input2_peaks),
            output_centers=cc.get("output_centers", FuzzySystem.output_centers),
            rule_table=tuple(cc.get(f"rule_row{i}", row) for i, row in enumerate(rules)),
            **{name: cc[key] for name, key in scales.items()})
    return HybridChannel(
        channel_gains=_gains(cc, prefix + "channel"),
        crisp_gains=_gains(cc, prefix + "crisp"),
        fuzzy_system=system,
        gamma=cc["gamma"],
        safety_bound=cc["safety_bound"],
        natural_frequency_rads=cc["natural_frequency_rads"],
        damping_ratio=cc["damping_ratio"])


def lqr_design(s: Scenario) -> LqrController:
    """Synthesize the gain of an ``lqr`` scenario on its nominal plant.

    The weights come from the config, the plant is linearized at the
    configured operating point, and the returned controller measures the
    state about that point and carries the Riccati solution its gain came from.
    """
    cc = s.controller_config
    # a q error is about the first non-finite weight, else the smallest one
    worst = next((key for key in _Q_KEYS if not math.isfinite(cc[key])),
                 min(_Q_KEYS, key=cc.get))
    theta_e = _OPERATING_POINTS[cc["operating_point"]]
    with _config_keys("controller", q=worst):
        weights = LqrWeights(q=np.diag([cc[key] for key in _Q_KEYS]), r=cc["r"])
        try:
            return lqr_synthesize(linearize_at(s.plant, theta_e), weights, tracked_output_index=2,
                                  equilibrium=State(theta_e, 0.0, 0.0, 0.0))
        except ConvergenceError as exc:
            named = ", ".join(f"{key} = {cc[key]:g}" for key in _Q_KEYS + ("r",))
            why = f"{exc} (best residual {exc.residual:.3g})" if math.isfinite(exc.residual) else exc
            raise ConfigError(f"[controller] the Riccati solver refused {named}: {why}") from None


def build_controller(s: Scenario):
    """Instantiate the scenario's control loop against the nominal plant.

    Parameter variation deliberately never reaches this function: gains and
    LQR synthesis always use the nominal plant, and only the simulated
    dynamics drift.
    """
    cc = s.controller_config
    kind = s.controller_kind
    with _config_keys("controller"):
        if kind == "lqr":
            return lqr_design(s)
        if kind == "pid-position":
            return pid_position_topology(_gains(cc, "position"), _gains(cc, "velocity"))
        if kind == "pid-simultaneous":
            return pid_simultaneous_topology(_gains(cc, "angle"), _gains(cc, "position"))
        if kind == "hybrid":
            return CascadeLoop(_build_channel(cc))
        if kind == "hybrid-simultaneous":
            return SimultaneousLoop(_build_channel(cc, "angle_"),
                                    _build_channel(cc, "position_"))
    raise ConfigError(f"[controller] kind: unknown kind {kind!r}")


def run_scenario(s: Scenario) -> Trajectory:
    controller = build_controller(s)
    plant = effective_plant(s)
    initial = State(s.initial_theta_rad, 0.0, 0.0, 0.0)
    return run_closed_loop(plant, controller, s.sim, initial_state=initial)


def _catalog_text():
    """Config text for the built-in study matrix; parsed on demand."""
    texts = {}
    cart_kind = {"pid": "pid-position", "lqr": "lqr", "hybrid": "hybrid"}
    sim_kind = {"pid": "pid-simultaneous", "lqr": "lqr",
                "hybrid": "hybrid-simultaneous"}
    for family in ("pid", "lqr", "hybrid"):
        for condition in _CONDITIONS:
            name = f"cart-position-{family}-{condition}"
            lines = ["[scenario]", f"name = {name}", f"condition = {condition}",
                     f"initial_theta_rad = {math.pi!r}", "",
                     "[controller]", f"kind = {cart_kind[family]}"]
            if family == "lqr":
                lines.append("operating_point = hanging")
            lines += ["", "[sim]", "reference_amplitude = 1.0"]
            if family == "pid" and condition == "parameter-variation":
                lines.append("duration_s = 120.0")
            if condition == "parameter-variation":
                lines += ["", "[plant]", "cart_mass_multiplier = 1.2"]
            texts[name] = "\n".join(lines) + "\n"

            name = f"simultaneous-{family}-{condition}"
            lines = ["[scenario]", f"name = {name}", f"condition = {condition}", "",
                     "[controller]", f"kind = {sim_kind[family]}"]
            if condition == "parameter-variation":
                lines += ["", "[plant]", "cart_mass_multiplier = 1.15",
                          "pendulum_length_multiplier = 1.05"]
            texts[name] = "\n".join(lines) + "\n"
    return texts


def builtin_scenarios() -> dict:
    """Name -> Scenario for the full study matrix (18 runs)."""
    return {name: parse_scenario(text) for name, text in _catalog_text().items()}
