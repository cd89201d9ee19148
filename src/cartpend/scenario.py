"""Declarative run descriptions in a small INI dialect.

A scenario names a plant, a controller with its gains, a simulation window
with a step reference, and an input disturbance. Every key acts: plant
multipliers scale the simulated cart and rod while the controller keeps its
nominal design, and a ``[disturbance]`` section adds uniform random force
noise unless its kind is ``none`` or its amplitude 0. The study condition is
derived from them, and a stated ``[scenario] condition`` must agree. The
``[plant]``, ``[controller]`` and ``[sim]`` keys are the fields of
``PlantParams``, of the controller kind's record and of ``SimConfig``, and
the text is written from those records. Text and dataclass forms round-trip
exactly; every field has a default, so the shortest valid config is two
lines naming a controller kind.

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
from dataclasses import dataclass, fields, make_dataclass, replace

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
from .sim import DisturbanceSpec, SimConfig, Trajectory, run_closed_loop


class ConfigError(ValueError):
    """Unparseable, unknown, or out-of-range scenario settings."""


_CONDITIONS = ("nominal", "disturbance", "parameter-variation")
_MULTIPLIERS = ("cart_mass_multiplier", "pendulum_length_multiplier")
_SECTIONS = ("scenario", "plant", "controller", "sim", "disturbance")
_OPERATING_POINTS = {"upright": 0.0, "hanging": math.pi}
_Q_KEYS = ("q_theta", "q_theta_dot", "q_x", "q_x_dot")
_SHAPE_KEYS = ("input1_peaks", "input2_peaks", "output_centers")
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
# the tuned hybrid gains are written, in the _CONTROLLERS records.
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
    "condition": ("str", None),  # derived from the keys; a stated value is checked
    "initial_theta_rad": ("float", 0.0),
}
_PLANT_KEYS = {
    **{f.name: ("float", f.default) for f in fields(PlantParams)},
    **{key: ("float", 1.0) for key in _MULTIPLIERS},
}
_SIM_KEYS = {f.name: ("int" if f.name == "seed" else "float", f.default)
             for f in fields(SimConfig) if f.name != "disturbance"}
_DISTURBANCE_KEYS = {
    "kind": ("str", "uniform_noise"),
    "amplitude_N": ("float", 0.5),
    "start_s": ("float", 0.0),
    "end_s": ("float", None),  # None resolves to the run duration
}


@dataclass(frozen=True)
class Scenario:
    name: str
    plant: PlantParams
    controller: object  # a record of _CONTROLLERS: the [controller] keys of its kind
    sim: SimConfig
    initial_theta_rad: float
    cart_mass_multiplier: float
    pendulum_length_multiplier: float

    @property
    def controller_kind(self) -> str:
        return self.controller.kind

    @property
    def condition(self) -> str:
        """The study condition the keys give: ``parameter-variation`` when a
        multiplier is not 1, else ``disturbance`` when the disturbance kind is
        not ``none`` and its amplitude is positive, else ``nominal``."""
        if any(getattr(self, key) != 1.0 for key in _MULTIPLIERS):
            return "parameter-variation"
        if self.sim.disturbance.kind != "none" and self.sim.disturbance.amplitude_N > 0.0:
            return "disturbance"
        return "nominal"


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
    # no header can spell "\n", so a [DEFAULT] section is an unknown section like any other
    cp = configparser.ConfigParser(interpolation=None, strict=True, default_section="\n")
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
    stated = meta.pop("condition")
    if stated is not None and stated not in _CONDITIONS:
        raise ConfigError(f"[scenario] condition must be one of {_CONDITIONS}, "
                          f"got {stated!r}")

    if not cp.has_section("controller") or not cp.has_option("controller", "kind"):
        raise ConfigError("[controller] kind is required")
    kind = cp.get("controller", "kind").strip()
    if kind not in _CONTROLLERS:
        raise ConfigError(f"[controller] kind: unknown kind {kind!r}; "
                          f"valid kinds: {', '.join(sorted(_CONTROLLERS))}")
    keys = _read_section(cp, "controller", {"kind": ("str", kind), **_schema(_CONTROLLERS[kind])})
    del keys["kind"]
    controller = _CONTROLLERS[kind](**keys)

    plant_vals = _read_section(cp, "plant", _PLANT_KEYS)
    multipliers = {key: plant_vals.pop(key) for key in _MULTIPLIERS}
    for key, v in multipliers.items():
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"[plant] {key} must be positive, got {v!r}")
    with _config_keys("plant"):
        plant = PlantParams(**plant_vals)

    with _config_keys("sim"):
        sim = SimConfig(**_read_section(cp, "sim", _SIM_KEYS))
    if cp.has_section("disturbance"):
        dist_args = _read_section(cp, "disturbance", _DISTURBANCE_KEYS)
        if dist_args["end_s"] is None:
            dist_args["end_s"] = sim.duration_s
        with _config_keys("disturbance"):
            sim = replace(sim, disturbance=DisturbanceSpec(**dist_args))

    scenario = Scenario(**meta, **multipliers, plant=plant, controller=controller, sim=sim)
    if stated is not None and stated != scenario.condition:
        scaled = [key for key in _MULTIPLIERS if multipliers[key] != 1.0]
        if scaled:
            deciding = f"[plant] {scaled[0]} = {multipliers[scaled[0]]!r}"
        elif stated == "parameter-variation":
            deciding = f"[plant] {' and '.join(_MULTIPLIERS)} are 1.0"
        elif scenario.condition == "disturbance" or sim.disturbance.kind == "none":
            deciding = f"[disturbance] kind = {sim.disturbance.kind}"
        else:
            deciding = f"[disturbance] amplitude_N = {sim.disturbance.amplitude_N!r}"
        raise ConfigError(f"[scenario] condition = {stated} disagrees with the keys, which "
                          f"give {scenario.condition}: {deciding}")
    try:
        effective_plant(scenario)
    except ValueError as exc:
        # the simulated field the message names is the one its multiplier scales
        key = ("pendulum_length_multiplier" if str(exc).startswith("pendulum_length_m")
               else "cart_mass_multiplier")
        raise ConfigError(f"[plant] {key} = {multipliers[key]!r} gives an invalid simulated "
                          f"plant: {exc}") from None
    return scenario


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
    ``force_limit_N`` is left out.
    """
    # each schema key names a field of its section's record; the multipliers are
    # Scenario's, and the condition is its derived label
    values = {"scenario": {**vars(s), "condition": s.condition},
              "plant": {**vars(s), **vars(s.plant)},
              "controller": {"kind": s.controller.kind, **vars(s.controller)},
              "sim": vars(s.sim), "disturbance": vars(s.sim.disturbance)}
    schemas = {"scenario": _SCENARIO_KEYS, "plant": _PLANT_KEYS,
               "controller": {"kind": ("str", None), **_schema(s.controller)},
               "sim": _SIM_KEYS, "disturbance": _DISTURBANCE_KEYS}
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, (kind, _) in schemas[section].items():
            value = values[section][key]
            if value is not None:
                lines.append(f"{key} = {_format_value(kind, value)}")
        lines.append("")
    return "\n".join(lines)


def effective_plant(s: Scenario) -> PlantParams:
    """The simulated plant: the nominal plant with the multipliers applied."""
    return replace(s.plant,
                   cart_mass_kg=s.plant.cart_mass_kg * s.cart_mass_multiplier,
                   pendulum_length_m=s.plant.pendulum_length_m * s.pendulum_length_multiplier)


def _gains(c, loop: str) -> PidGains:
    keys = {part: f"{loop}_{part}" for part in ("kp", "ki", "kd")}
    with _config_keys("controller", **keys):
        return PidGains(**{part: getattr(c, key) for part, key in keys.items()},
                        filter_tau_s=c.filter_tau_s)


def _channel(c, prefix: str, gamma: float) -> HybridChannel:
    """The hybrid channel of the keys starting with ``prefix``, adapting at ``gamma``."""
    # hybrid-simultaneous records have no fuzzy shape keys: the FuzzySystem defaults
    rules = FuzzySystem.rule_table
    scales = {name: prefix + name for name in ("input1_scale", "input2_scale", "output_scale")}
    rows = {f"rule_table[{i}]": f"rule_row{i}" for i in range(len(rules))}
    with _config_keys("controller", **scales, **rows):
        system = FuzzySystem(
            **{name: getattr(c, name) for name in _SHAPE_KEYS if hasattr(c, name)},
            rule_table=tuple(getattr(c, f"rule_row{i}", row) for i, row in enumerate(rules)),
            **{name: getattr(c, key) for name, key in scales.items()})
        return HybridChannel(_gains(c, prefix + "channel"), _gains(c, prefix + "crisp"), system,
                             gamma=gamma, safety_bound=c.safety_bound,
                             natural_frequency_rads=c.natural_frequency_rads,
                             damping_ratio=c.damping_ratio)


def _lqr(c, plant: PlantParams) -> LqrController:
    """The LQR designed on ``plant`` linearized at the operating point; it
    measures the state about that point and carries its Riccati solution."""
    q = {key: getattr(c, key) for key in _Q_KEYS}
    # a q error is about the first non-finite weight, else the smallest one. With
    # every weight positive, Q has full rank, and only the spread of the weights
    # can hide a mode from the scaled rank test, so the largest is named beside it.
    low, high = min(q, key=q.get), max(q, key=q.get)
    worst = next((key for key, v in q.items() if not math.isfinite(v)),
                 low if q[low] <= 0.0 else f"{low} = {q[low]:g} beside {high} = {q[high]:g}")
    theta_e = _OPERATING_POINTS[c.operating_point]
    with _config_keys("controller", q=worst):
        weights = LqrWeights(q=np.diag(list(q.values())), r=c.r)
        # a plant whose coefficients overflow, or whose m_cart * l underflows to
        # zero, has no linear model to design on
        try:
            linear = linearize_at(plant, theta_e)
            finite = np.isfinite(linear.a).all() and np.isfinite(linear.b).all()
        except ZeroDivisionError:
            finite = False
        if not finite:
            named = ", ".join(f"{f.name} = {getattr(plant, f.name)!r}"
                              for f in fields(PlantParams))
            raise ConfigError(f"[plant] no finite linear model about the "
                              f"{c.operating_point} point for {named}")
        try:
            return lqr_synthesize(linear, weights, tracked_output_index=2,
                                  equilibrium=State(theta_e, 0.0, 0.0, 0.0))
        except ConvergenceError as exc:
            named = ", ".join(f"{key} = {getattr(c, key):g}" for key in _Q_KEYS + ("r",))
            why = f"{exc} (best residual {exc.residual:.3g})" if math.isfinite(exc.residual) else exc
            raise ConfigError(f"[controller] the Riccati solver refused {named}: {why}") from None


def _check_operating_point(c) -> None:
    if c.operating_point not in _OPERATING_POINTS:
        raise ConfigError(f"[controller] operating_point must be 'upright' or "
                          f"'hanging', got {c.operating_point!r}")


def _record(kind: str, keys: dict, build, **namespace):
    """The frozen record class of one controller kind, named as this module binds it.

    Its fields are ``keys`` (key -> (value kind, default)), typed by value
    kind. ``build(plant)`` returns its loop designed on ``plant``, and a bad
    value is a ConfigError naming its ``[controller]`` key.
    """
    name = "".join(word.title() for word in kind.split("-")) + "Config"
    return make_dataclass(name, [(key, value_kind, default)
                                 for key, (value_kind, default) in keys.items()], frozen=True,
                          namespace={"kind": kind, "build": build, "__module__": __name__,
                                     **namespace})


def _pid_record(kind: str, topology):
    """The record of a PID loop builder: each loop's gains and one derivative filter."""
    loops = {name.removesuffix("_gains"): gains for name, gains in _defaults(topology).items()}
    return _record(kind, {**_gain_keys(**loops), **_FILTER_KEY},
                   lambda c, plant: topology(*(_gains(c, loop) for loop in loops)))


def _schema(record) -> dict:
    """Key -> (value kind, default) of a controller record class or instance."""
    return {f.name: (f.type, f.default) for f in fields(record)}


LqrConfig = _record("lqr", {
    **{key: ("float", float(q)) for key, q in zip(_Q_KEYS, np.diag(LqrWeights().q))},
    "r": ("float", LqrWeights.r),
    "operating_point": ("str", "upright"),
}, _lqr, __post_init__=_check_operating_point)
PidPositionConfig = _pid_record("pid-position", pid_position_topology)
PidSimultaneousConfig = _pid_record("pid-simultaneous", pid_simultaneous_topology)
HybridConfig = _record("hybrid", {
    **_channel_keys("", PidGains(1.5, 0.0, 1.4), PidGains(1.2, 0.0, 0.3), 12.0),
    **_ADAPTATION_KEYS,
    **{name: ("floats", getattr(FuzzySystem, name)) for name in _SHAPE_KEYS},
    **{f"rule_row{i}": ("ints", row) for i, row in enumerate(FuzzySystem.rule_table)},
}, lambda c, plant: CascadeLoop(_channel(c, "", c.gamma)))
# driven at r = 0 the angle channel's models and update stay inert
HybridSimultaneousConfig = _record("hybrid-simultaneous", {
    **_channel_keys("angle_", PidGains(5.0, 0.0, 1.0), PidGains(40.0, 0.0, 4.0), 8.0),
    **_channel_keys("position_", PidGains(3.5, 0.0, 3.0), PidGains(1.5, 0.0, 3.0), 6.0),
    **_ADAPTATION_KEYS,
}, lambda c, plant: SimultaneousLoop(_channel(c, "angle_", 0.0),
                                     _channel(c, "position_", c.gamma)))
_CONTROLLERS = {record.kind: record for record in (
    LqrConfig, PidPositionConfig, PidSimultaneousConfig, HybridConfig, HybridSimultaneousConfig)}


def build_controller(s: Scenario):
    """Instantiate the scenario's control loop against the nominal plant.

    Parameter variation deliberately never reaches this function: gains and
    LQR synthesis always use the nominal plant, and only the simulated
    dynamics drift.
    """
    return s.controller.build(s.plant)


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
            if condition == "disturbance":
                lines += ["", "[disturbance]"]
            if condition == "parameter-variation":
                lines += ["", "[plant]", "cart_mass_multiplier = 1.2"]
            texts[name] = "\n".join(lines) + "\n"

            name = f"simultaneous-{family}-{condition}"
            lines = ["[scenario]", f"name = {name}", f"condition = {condition}", "",
                     "[controller]", f"kind = {sim_kind[family]}"]
            if condition == "disturbance":
                lines += ["", "[disturbance]"]
            if condition == "parameter-variation":
                lines += ["", "[plant]", "cart_mass_multiplier = 1.15",
                          "pendulum_length_multiplier = 1.05"]
            texts[name] = "\n".join(lines) + "\n"
    return texts


def builtin_scenarios() -> dict:
    """Name -> Scenario for the full study matrix (18 runs)."""
    return {name: parse_scenario(text) for name, text in _catalog_text().items()}
