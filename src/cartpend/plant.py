"""Cart-pole rig: nonlinear dynamics and equilibrium linearizations.

State is ``(theta, theta_dot, x, x_dot)``. ``theta`` is the pendulum angle
measured from the upright vertical, with positive ``theta`` leaning the bob
toward negative ``x``; ``x`` is the cart position along the rail. ``theta = 0``
is the unstable balance point, ``theta = pi`` hangs at rest. A horizontal
force on the cart is the single input.

With cart mass M, bob mass m, rod length l and gravity g, the accelerations
solve the coupled Euler-Lagrange pair

    thetadd = ((M + m) g sin(theta) + cos(theta) (F - m l thetadot^2 sin(theta))) / den
    xdd     = l (F - m l thetadot^2 sin(theta) + m g sin(theta) cos(theta)) / den
    den     = l (M + m) - m l cos(theta)^2

which keeps total energy invariant at F = 0 (pointwise dE/dt = F xdot).
``make_derivative`` returns this field with a fused RK4 step attached,
which ``sim.rk4_step`` runs in place of its generic body, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class State(NamedTuple):
    theta_rad: float
    theta_dot_rads: float
    x_m: float
    x_dot_ms: float


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the rig. All strictly positive, and M not lost beside m."""

    cart_mass_kg: float = 1.2
    bob_mass_kg: float = 0.2
    pendulum_length_m: float = 0.36
    gravity_ms2: float = 9.8

    def __post_init__(self):
        for name in ("cart_mass_kg", "bob_mass_kg", "pendulum_length_m", "gravity_ms2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        # make_derivative's den = l (M + m) - m l cos(theta)^2 is at least
        # l (M + m) - m l in floats, so this keeps it positive at every theta
        m_cart, m_bob, length = self.cart_mass_kg, self.bob_mass_kg, self.pendulum_length_m
        if not length * (m_cart + m_bob) - m_bob * length > 0.0:
            raise ValueError(f"cart_mass_kg = {m_cart!r} is too small beside bob_mass_kg = "
                             f"{m_bob!r}: l (M + m) - m l is not positive in floats")


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Continuous-time (A, B, C, D) quadruple; arrays are not aliased by callers."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def make_derivative(params: PlantParams):
    """The field ``f(state, force) -> (thd, thdd, xd, xdd)`` of one plant.

    Reads ``params`` once and keeps the constant products ``l (M + m)``,
    ``m l``, ``(M + m) g`` and ``m g``. Each is the left-most product in the
    module docstring's equations, evaluated left to right, so keeping it
    changes no bit of the result. Inputs are not checked here:
    ``run_closed_loop`` checks the force and the state once per step, not at
    every RK4 stage.

    The field carries ``f.rk4(state, force, dt) -> tuple``, which
    ``sim.rk4_step`` calls in place of its generic body: the same four
    stages with the field written inline, in the same operation order, so
    it gives the same bits and raises the same exception at the same stage.
    A stage's first and third rates are its ``thd`` and ``xd``, and the
    field never reads ``x``, so only the final sum computes with ``x``.
    """
    m_cart = params.cart_mass_kg
    m_bob = params.bob_mass_kg
    length = params.pendulum_length_m
    g = params.gravity_ms2
    l_total = length * (m_cart + m_bob)
    ml = m_bob * length
    total_g = (m_cart + m_bob) * g
    mg = m_bob * g
    sin = math.sin
    cos = math.cos

    def field(state, force_N: float) -> tuple:
        th, thd, _, xd = state
        sin_th = sin(th)
        cos_th = cos(th)
        den = l_total - ml * cos_th * cos_th
        centripetal = force_N - ml * thd * thd * sin_th
        return (thd,
                (total_g * sin_th + cos_th * centripetal) / den,
                xd,
                length * (centripetal + mg * sin_th * cos_th) / den)

    def rk4(state, force_N: float, dt_s: float) -> tuple:
        th, thd, x, xd = state
        h = 0.5 * dt_s
        sin_th = sin(th)
        cos_th = cos(th)
        den = l_total - ml * cos_th * cos_th
        centripetal = force_N - ml * thd * thd * sin_th
        a2 = (total_g * sin_th + cos_th * centripetal) / den
        a4 = length * (centripetal + mg * sin_th * cos_th) / den
        th_b = th + h * thd
        thd_b = thd + h * a2
        xd_b = xd + h * a4
        sin_th = sin(th_b)
        cos_th = cos(th_b)
        den = l_total - ml * cos_th * cos_th
        centripetal = force_N - ml * thd_b * thd_b * sin_th
        b2 = (total_g * sin_th + cos_th * centripetal) / den
        b4 = length * (centripetal + mg * sin_th * cos_th) / den
        th_c = th + h * thd_b
        thd_c = thd + h * b2
        xd_c = xd + h * b4
        sin_th = sin(th_c)
        cos_th = cos(th_c)
        den = l_total - ml * cos_th * cos_th
        centripetal = force_N - ml * thd_c * thd_c * sin_th
        c2 = (total_g * sin_th + cos_th * centripetal) / den
        c4 = length * (centripetal + mg * sin_th * cos_th) / den
        th_d = th + dt_s * thd_c
        thd_d = thd + dt_s * c2
        xd_d = xd + dt_s * c4
        sin_th = sin(th_d)
        cos_th = cos(th_d)
        den = l_total - ml * cos_th * cos_th
        centripetal = force_N - ml * thd_d * thd_d * sin_th
        d2 = (total_g * sin_th + cos_th * centripetal) / den
        d4 = length * (centripetal + mg * sin_th * cos_th) / den
        w = dt_s / 6.0
        return (th + w * (thd + 2.0 * thd_b + 2.0 * thd_c + thd_d),
                thd + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                x + w * (xd + 2.0 * xd_b + 2.0 * xd_c + xd_d),
                xd + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4))

    field.rk4 = rk4
    return field


def nonlinear_derivative(params: PlantParams, state: State, force_N: float) -> State:
    """Exact state derivative under a horizontal cart force."""
    return State._make(make_derivative(params)(state, force_N))


def mechanical_energy(params: PlantParams, state: State) -> float:
    """Kinetic plus potential energy; conserved exactly at zero force."""
    m_cart = params.cart_mass_kg
    m_bob = params.bob_mass_kg
    length = params.pendulum_length_m
    g = params.gravity_ms2
    th, thd, _, xd = state
    kinetic = (0.5 * (m_cart + m_bob) * xd * xd
               - m_bob * length * math.cos(th) * xd * thd
               + 0.5 * m_bob * length * length * thd * thd)
    potential = m_bob * g * length * math.cos(th)
    return kinetic + potential


def linearize_at(params: PlantParams, theta_eq_rad: float) -> StateSpace:
    """Jacobian model about an unforced equilibrium (any multiple of pi).

    The angle coupling flips sign between the upright and hanging points
    while the cart coupling does not: d(xdd)/d(theta) carries cos(2 theta_e).
    """
    if abs(math.sin(theta_eq_rad)) > 1e-9:
        raise ValueError(
            f"theta = {theta_eq_rad!r} is not an unforced equilibrium; "
            "only multiples of pi qualify")
    m_cart = params.cart_mass_kg
    m_bob = params.bob_mass_kg
    length = params.pendulum_length_m
    g = params.gravity_ms2
    cos_e = math.cos(theta_eq_rad)

    a = np.zeros((4, 4))
    a[0, 1] = 1.0
    a[2, 3] = 1.0
    a[1, 0] = (m_cart + m_bob) * g * cos_e / (m_cart * length)
    a[3, 0] = m_bob * g * math.cos(2.0 * theta_eq_rad) / m_cart
    b = np.zeros((4, 1))
    b[1, 0] = cos_e / (m_cart * length)
    b[3, 0] = 1.0 / m_cart
    return StateSpace(a=a, b=b, c=np.eye(4), d=np.zeros((4, 1)))
