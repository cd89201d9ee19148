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
    """Physical constants of the rig. All strictly positive."""

    cart_mass_kg: float = 1.2
    bob_mass_kg: float = 0.2
    pendulum_length_m: float = 0.36
    gravity_ms2: float = 9.8

    def __post_init__(self):
        for name in ("cart_mass_kg", "bob_mass_kg", "pendulum_length_m", "gravity_ms2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")


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
