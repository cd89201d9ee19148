"""Model-reference adaptive fuzzy PI-D channel.

One channel tracks a second-order reference model. A gradient (MIT-style)
rule adapts two mixing parameters from the model error at one rate; the
adapted signal feeds a PI shaping path and a filtered-derivative path into
a fuzzy surface, and a crisp PID term on the raw error is added on top:

    ym   <- reference model driven by r
    em   = y - ym
    ymf  <- second model instance driven by ym (a filtered model output)
    theta -= gamma em y dt, theta' -= gamma em ymf dt   (each boxed)
    lam  = theta r - theta' y
    u = fuzzy(kp lam + ki int(lam), kd dfilt(lam)) + cp e + ci int(e) + cd edot

With the rate at zero the channel drops back to a fixed fuzzy PI-D on r
(theta' = 0) or on the error (theta' = 1); a property test holds this
reduction to float accuracy.
"""
from __future__ import annotations

import math

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



class HybridChannel:
    """One adaptive fuzzy PI-D channel; see the module docstring for the law.

    ``step(r, y, edot, dt_s)`` is the channel interface of ``cartpend.classic``.
    The crisp derivative acts on ``edot`` rather than on a difference of
    errors, so reference steps do not kick it. ``theta`` holds the live
    pair (theta, theta'); theta starts at 1 and theta' at ``theta_prime``,
    which scales the measured output inside lambda: 1 makes it error-like,
    0 reference-like. Each clip of the pair to the safety box is logged in
    ``clamp_events`` as ``(step, "theta")`` or ``(step, "theta_prime")``.
    The scenario schema reads its ``gamma``, ``safety_bound`` and
    reference-model defaults from this signature.
    """

    def __init__(self, channel_gains: PidGains, crisp_gains: PidGains,
                 fuzzy_system: FuzzySystem, gamma: float = 0.001, theta_prime: float = 1.0,
                 safety_bound: float = 100.0,
                 natural_frequency_rads: float = 1.0, damping_ratio: float = 0.9):
        if not (math.isfinite(gamma) and gamma >= 0.0):
            raise ValueError(f"gamma must be >= 0, got {gamma!r}")
        if not math.isfinite(theta_prime):
            raise ValueError(f"theta_prime must be finite, got {theta_prime!r}")
        if not (math.isfinite(safety_bound) and safety_bound > 0.0):
            raise ValueError(f"safety_bound must be positive, got {safety_bound!r}")
        self.fuzzy_system = fuzzy_system
        self._gamma = gamma
        self._bound = safety_bound
        # the gains as plain floats, read once here rather than on every step
        self._kp, self._ki, self._kd = channel_gains.kp, channel_gains.ki, channel_gains.kd
        self._tau = channel_gains.filter_tau_s
        self._cp, self._ci, self._cd = crisp_gains.kp, crisp_gains.ki, crisp_gains.kd
        self._model = ReferenceModel(natural_frequency_rads, damping_ratio)
        self._model_filter = ReferenceModel(natural_frequency_rads, damping_ratio)
        self.theta = (1.0, theta_prime)
        self.clamp_events = []
        self._lambda_integral = 0.0
        self._lambda_prev = 0.0
        self._derivative_filter = 0.0
        self._error_integral = 0.0
        self._error_prev = 0.0
        self._steps = 0
        self._first = True

    def step(self, r: float, y: float, edot: float, dt_s: float) -> float:
        y_model = reference_model_step(self._model, r, dt_s)
        e_model = y - y_model
        y_model_filtered = reference_model_step(self._model_filter, y_model, dt_s)

        # MIT-rule gradient step, each parameter boxed to the safety bound; a
        # NaN fails the box test, stays NaN and is logged like any other clip
        theta, theta_prime = self.theta
        bound = self._bound
        theta -= self._gamma * (e_model * y * dt_s)
        theta_prime -= self._gamma * e_model * y_model_filtered * dt_s
        if not -bound <= theta <= bound:
            theta = min(max(theta, -bound), bound)
            self.clamp_events.append((self._steps, "theta"))
        if not -bound <= theta_prime <= bound:
            theta_prime = min(max(theta_prime, -bound), bound)
            self.clamp_events.append((self._steps, "theta_prime"))
        self.theta = (theta, theta_prime)

        lam = theta * r - theta_prime * y
        e = r - y
        if self._first:
            # prime the histories so the first step has no derivative kick
            self._first = False
            lam_prev, e_prev, raw_rate = lam, e, 0.0
        else:
            lam_prev, e_prev = self._lambda_prev, self._error_prev
            raw_rate = (lam - lam_prev) / dt_s
        lam_integral = self._lambda_integral + dt_s * (lam + lam_prev) / 2.0
        dfilt = self._derivative_filter
        dfilt += dt_s / (self._tau + dt_s) * (raw_rate - dfilt)
        u_fuzzy = fuzzy_infer(self.fuzzy_system, self._kp * lam + self._ki * lam_integral,
                              self._kd * dfilt)
        e_integral = self._error_integral + dt_s * (e + e_prev) / 2.0

        self._lambda_integral = lam_integral
        self._lambda_prev = lam
        self._derivative_filter = dfilt
        self._error_integral = e_integral
        self._error_prev = e
        self._steps += 1
        return u_fuzzy + self._cp * e + self._ci * e_integral + self._cd * edot
