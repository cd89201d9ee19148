"""Model-reference adaptive fuzzy PI-D channel.

One channel tracks a second-order reference model. A gradient (MIT-style)
rule adapts four mixing parameters from the model error; the adapted
signals feed a PI shaping path and a filtered-derivative path into a fuzzy
surface, and a crisp PID term on the raw error is added on top:

    ym   <- reference model driven by r
    em   = y - ym
    ymf  <- second model instance driven by ym (a filtered model output)
    theta1..3 -= gamma_* em ym dt, theta' -= gamma' em ymf dt   (boxed)
    lam_i = theta_i r - theta' y
    u = fuzzy(kp lam1 + ki int(lam2), kd dfilt(lam3)) + cp e + ci int(e) + cd edot

With the rates at zero and unit thetas the channel drops back to a fixed
fuzzy PI-D on r (theta' = 0) or on the error (theta' = 1); a property test
holds this reduction to float accuracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .classic import PidGains
from .fuzzy import FuzzySystem, fuzzy_infer


class ReferenceModel:
    """Second-order unit-DC-gain target response, advanced by RK4."""

    __slots__ = ("natural_frequency_rads", "damping_ratio", "_w2", "_tz", "y", "y_dot")

    def __init__(self, natural_frequency_rads: float, damping_ratio: float):
        if not (math.isfinite(natural_frequency_rads) and natural_frequency_rads > 0.0):
            raise ValueError(
                f"natural_frequency_rads must be positive, got {natural_frequency_rads!r}")
        if not (math.isfinite(damping_ratio) and damping_ratio >= 0.0):
            raise ValueError(f"damping_ratio must be >= 0, got {damping_ratio!r}")
        self.natural_frequency_rads = natural_frequency_rads
        self.damping_ratio = damping_ratio
        # the step's w^2 and 2 z w, the same expressions evaluated once
        self._w2 = natural_frequency_rads * natural_frequency_rads
        self._tz = 2.0 * damping_ratio * natural_frequency_rads
        self.y = 0.0
        self.y_dot = 0.0


def reference_model_step(model: ReferenceModel, r: float, dt_s: float) -> float:
    """Advance ydd = w^2 (r - y) - 2 z w yd one step; returns the new y.

    Classical RK4 on (y, yd): stages at ``+ h k`` (h = dt/2) and ``+ dt k``,
    then ``+ (dt/6) (k1 + 2 k2 + 2 k3 + k4)`` summed left to right.
    """
    w2 = model._w2
    tz = model._tz
    y, yd = model.y, model.y_dot
    h = 0.5 * dt_s
    a1 = w2 * (r - y) - tz * yd
    yd2 = yd + h * a1
    a2 = w2 * (r - (y + h * yd)) - tz * yd2
    yd3 = yd + h * a2
    a3 = w2 * (r - (y + h * yd2)) - tz * yd3
    yd4 = yd + dt_s * a3
    a4 = w2 * (r - (y + dt_s * yd3)) - tz * yd4
    w = dt_s / 6.0
    model.y = y + w * (yd + 2.0 * yd2 + 2.0 * yd3 + yd4)
    model.y_dot = yd + w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return model.y


_THETA_NAMES = ("theta1", "theta2", "theta3", "theta_prime")


@dataclass(frozen=True)
class AdaptiveParams:
    """Initial mixing parameters and their adaptation rates.

    Validated once, when a channel is built; the channel then adapts a plain
    tuple seeded from the four thetas. ``theta_prime`` scales the measured
    output inside the lambda signals; 1 makes them error-like, 0 makes them
    reference-like. The scenario schema reads its ``gamma`` default from
    ``gamma_p``.
    """

    theta1: float = 1.0
    theta2: float = 1.0
    theta3: float = 1.0
    theta_prime: float = 1.0
    gamma_p: float = 0.001
    gamma_i: float = 0.001
    gamma_d: float = 0.001
    gamma_prime: float = 0.001

    def __post_init__(self):
        for name in ("gamma_p", "gamma_i", "gamma_d", "gamma_prime"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")
        for name in _THETA_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def mit_rule_update(theta, params: AdaptiveParams, e_model: float, y: float,
                    y_model_filtered: float, dt_s: float, bound: float):
    """Gradient step on ``theta = (theta1, theta2, theta3, theta_prime)``.

    theta1..3 descend along e_model * y at the rates in ``params``;
    theta_prime along e_model times the filtered model output. The result is
    clipped to the box [-bound, bound], which keeps a mis-tuned rate from
    running away. Returns the boxed tuple and the names the box clipped.
    """
    t1, t2, t3, tp = theta
    step = e_model * y * dt_s
    r1 = t1 - params.gamma_p * step
    r2 = t2 - params.gamma_i * step
    r3 = t3 - params.gamma_d * step
    rp = tp - params.gamma_prime * e_model * y_model_filtered * dt_s
    raw = (r1, r2, r3, rp)
    lo = -bound
    # inside the box nothing is clipped; a NaN fails these tests and is boxed below
    if lo <= r1 <= bound and lo <= r2 <= bound and lo <= r3 <= bound and lo <= rp <= bound:
        return raw, []
    boxed = tuple(min(max(v, -bound), bound) for v in raw)
    return boxed, [name for name, v, b in zip(_THETA_NAMES, raw, boxed) if v != b]


def lambda_signals(theta, r: float, y: float):
    """The three adapted shaping signals lam_i = theta_i r - theta' y."""
    t1, t2, t3, tp = theta
    common = tp * y
    return (t1 * r - common,
            t2 * r - common,
            t3 * r - common)


class HybridChannel:
    """One adaptive fuzzy PI-D channel; see the module docstring for the law.

    ``step(r, y, edot, dt_s)`` is the channel interface of ``cartpend.classic``.
    The crisp derivative acts on ``edot`` rather than on a difference of
    errors, so reference steps do not kick it. The scenario schema reads its
    ``safety_bound`` and reference-model defaults from this signature.
    """

    def __init__(self, channel_gains: PidGains, crisp_gains: PidGains,
                 fuzzy_system: FuzzySystem, adaptive: AdaptiveParams = AdaptiveParams(),
                 safety_bound: float = 100.0,
                 natural_frequency_rads: float = 1.0, damping_ratio: float = 0.9):
        if not (math.isfinite(safety_bound) and safety_bound > 0.0):
            raise ValueError(f"safety_bound must be positive, got {safety_bound!r}")
        self.channel_gains = channel_gains
        self.crisp_gains = crisp_gains
        self.fuzzy_system = fuzzy_system
        self.safety_bound = safety_bound
        self.natural_frequency_rads = natural_frequency_rads
        self.damping_ratio = damping_ratio
        self._adaptive = adaptive
        # the gains as plain floats, read once here rather than on every step
        self._kp, self._ki, self._kd = channel_gains.kp, channel_gains.ki, channel_gains.kd
        self._tau = channel_gains.filter_tau_s
        self._cp, self._ci, self._cd = crisp_gains.kp, crisp_gains.ki, crisp_gains.kd
        self.reset()

    def reset(self):
        a = self._adaptive
        self.theta = (a.theta1, a.theta2, a.theta3, a.theta_prime)
        self.clamp_events = []
        self._model = ReferenceModel(self.natural_frequency_rads, self.damping_ratio)
        self._model_filter = ReferenceModel(self.natural_frequency_rads, self.damping_ratio)
        self._lambda_integral = 0.0
        self._lambda2_prev = 0.0
        self._lambda3_prev = 0.0
        self._derivative_filter = 0.0
        self._error_integral = 0.0
        self._error_prev = 0.0
        self._steps = 0
        self._first = True

    def step(self, r: float, y: float, edot: float, dt_s: float) -> float:
        y_model = reference_model_step(self._model, r, dt_s)
        e_model = y - y_model
        y_model_filtered = reference_model_step(self._model_filter, y_model, dt_s)

        theta, clamped = mit_rule_update(self.theta, self._adaptive, e_model, y,
                                         y_model_filtered, dt_s, self.safety_bound)
        self.theta = theta
        for name in clamped:
            self.clamp_events.append((self._steps, name))

        lam1, lam2, lam3 = lambda_signals(theta, r, y)
        e = r - y
        if self._first:
            # prime the histories so the first step has no derivative kick
            self._first = False
            lam2_prev, e_prev, raw_rate = lam2, e, 0.0
        else:
            lam2_prev, e_prev = self._lambda2_prev, self._error_prev
            raw_rate = (lam3 - self._lambda3_prev) / dt_s
        lam_integral = self._lambda_integral + dt_s * (lam2 + lam2_prev) / 2.0
        dfilt = self._derivative_filter
        dfilt += dt_s / (self._tau + dt_s) * (raw_rate - dfilt)
        u_fuzzy = fuzzy_infer(self.fuzzy_system, self._kp * lam1 + self._ki * lam_integral,
                              self._kd * dfilt)
        e_integral = self._error_integral + dt_s * (e + e_prev) / 2.0

        self._lambda_integral = lam_integral
        self._lambda2_prev = lam2
        self._lambda3_prev = lam3
        self._derivative_filter = dfilt
        self._error_integral = e_integral
        self._error_prev = e
        self._steps += 1
        return u_fuzzy + self._cp * e + self._ci * e_integral + self._cd * edot
