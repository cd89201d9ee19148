"""Classical control: the PID channel, the loop compositions, a CARE solver, LQR.

A channel is any object with ``step(r, y, edot, dt_s) -> force``: ``y`` is
the measured output, ``r`` its reference, and ``edot = -ydot``, the rate of
the error ``r - y`` for a held reference. ``PidChannel`` (which ignores
``edot``) and ``hybrid.HybridChannel`` are the two channels; every control
loop but the LQR is one of two compositions of them, ``CascadeLoop`` or
``SimultaneousLoop``. The PID primitive under ``PidChannel`` is a pure
function over an explicit state tuple. The Riccati solver runs in
two phases: a forward differential-Riccati sweep from P = 0 until the
implied gain stabilizes the plant, then Newton iterations with exact
Lyapunov solves to drive the algebraic residual below tolerance, first in
direct form and then, where that stalls, in increment form. scipy has
an equivalent solver; it is deliberately only used in the test suite as an
independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .plant import State, StateSpace


class ConvergenceError(RuntimeError):
    """Riccati iteration ran out of budget; carries the last residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------- PID

@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float
    filter_tau_s: float = 0.01

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (math.isfinite(self.filter_tau_s) and self.filter_tau_s >= 0.0):
            raise ValueError(f"filter_tau_s must be >= 0, got {self.filter_tau_s!r}")


def pid_step(gains: PidGains, state: tuple, error: float,
             dt_s: float) -> Tuple[float, tuple]:
    """One PID update: trapezoidal integral, filtered backward difference.

    ``state`` is ``(integral, previous_error, filtered_derivative)``, and the
    next state is returned with the force. With ``filter_tau_s = 0`` the
    derivative is the raw difference quotient. The caller decides whether to
    prime ``previous_error`` before the first step; an unprimed zero history
    ``(0.0, 0.0, 0.0)`` gives the textbook derivative kick.
    """
    integral, previous_error, filtered = state
    integral = integral + dt_s * (error + previous_error) / 2.0
    raw = (error - previous_error) / dt_s
    if gains.filter_tau_s > 0.0:
        alpha = dt_s / (gains.filter_tau_s + dt_s)
        derivative = filtered + alpha * (raw - filtered)
    else:
        derivative = raw
    u = gains.kp * error + gains.ki * integral + gains.kd * derivative
    return u, (integral, error, derivative)


class PidChannel:
    """``pid_step`` on the error ``r - y`` as a channel; ignores ``edot``.

    The error history is primed on the first step, so a step reference
    gives no derivative kick.
    """

    clamp_events = ()  # no adaptation, so nothing is ever clamped

    def __init__(self, gains: PidGains):
        self.gains = gains
        self._state = None

    def step(self, r: float, y: float, edot: float, dt_s: float) -> float:
        e = r - y
        if self._state is None:
            self._state = (0.0, e, 0.0)
        u, self._state = pid_step(self.gains, self._state, e, dt_s)
        return u


# ---------------------------------------------------------------- CARE / LQR

def _default_q() -> np.ndarray:
    return np.diag([1.0, 9.0, 230.0, 180.0])


@dataclass(frozen=True, eq=False)
class LqrWeights:
    """Quadratic state weight ``q`` (symmetric PSD) and input weight ``r > 0``."""

    q: np.ndarray = field(default_factory=_default_q)
    r: float = 1.5

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"q must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError(f"q must be finite, got {float(q[~np.isfinite(q)][0])!r}")
        scale = float(np.max(np.abs(q))) if q.size else 0.0
        if np.max(np.abs(q - q.T)) > 1e-9 * (1.0 + scale):
            raise ValueError("q must be symmetric")
        if float(np.min(np.linalg.eigvalsh(q))) < -1e-12 * (1.0 + scale):
            raise ValueError("q must be positive semidefinite")
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive, got {self.r!r}")


def _rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(mat.shape) * 1e-12 * s[0]))


def _stabilizable(a: np.ndarray, b: np.ndarray) -> bool:
    # PBH test on the closed right half plane
    n = a.shape[0]
    eye = np.eye(n)
    for lam in np.linalg.eigvals(a):
        if lam.real < -1e-9:
            continue
        if _rank(np.hstack([a - lam * eye, b]).astype(complex)) < n:
            return False
    return True


def _unweighted_axis_mode(a: np.ndarray, q: np.ndarray):
    # PBH test of (Q, A) on the imaginary axis: an eigenvalue whose mode Q does
    # not see, or None. Each block is scaled to a unit largest entry, so that
    # neither sets the rank threshold for the other.
    n = a.shape[0]
    q_unit = q / (np.max(np.abs(q)) or 1.0)
    for lam in np.linalg.eigvals(a):
        if abs(lam.real) > 1e-9:
            continue
        shifted = a - lam * np.eye(n)
        shifted = shifted / (np.max(np.abs(shifted)) or 1.0)
        if _rank(np.vstack([shifted, q_unit]).astype(complex)) < n:
            return lam
    return None


def _lyapunov_solve(a_cl: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # a_cl^T P + P a_cl = -rhs, vectorized column-major
    n = a_cl.shape[0]
    eye = np.eye(n)
    m = np.kron(eye, a_cl.T) + np.kron(a_cl.T, eye)
    p = np.linalg.solve(m, -rhs.flatten(order="F"))
    return p.reshape((n, n), order="F")


def _riccati_residual(a, b, q, r, p) -> np.ndarray:
    # PB(B'P) is a rank-one outer product, more accurate than P (BB'/r) P
    return a.T @ p + p @ a - p @ b @ (b.T @ p) / r + q


def _care_residual(a, b, q, r, p) -> float:
    return float(np.linalg.norm(_riccati_residual(a, b, q, r, p), "fro"))


# Riccati sweep: fixed-step RK4 with a 1 ms step over a 50 s horizon, and a
# gain check every 100 steps. The step count is a multiple of the check
# interval, so the last step is always checked.
_RDE_DT = 1e-3
_HORIZON_S = 50.0
_CHECK_EVERY = 100
_TOL = 1e-9  # residual at which the polish returns at once
_ACCEPT = 1e-8  # residual at which a stalled polish still returns its best P


# A diverging sweep or polish is caught by the finiteness and residual checks
# below, so numpy's overflow warnings on the way there are noise.
@np.errstate(over="ignore", invalid="ignore")
def solve_care(ss: StateSpace, weights: LqrWeights) -> np.ndarray:
    """Stabilizing solution of A'P + PA - PB(1/r)B'P + Q = 0.

    ValueError, before any iteration, when none exists: (A, B) is not
    stabilizable, or Q leaves a mode of A on the imaginary axis unweighted.
    Phase one integrates the matrix Riccati flow dP/dtau = A'P + PA -
    PB(1/r)B'P + Q from P = 0 (fixed-step RK4, 1 ms, up to 50 s) until the
    gain it implies is stabilizing. It tests P for finiteness only at each
    100-step gain check: a non-finite entry stays non-finite, so a diverged
    flow is still caught there. Phase two polishes by Newton iteration, each
    step an exact Lyapunov solve: up to 50 direct steps, since the seed gain
    can be barely stabilizing, then steps in increment form, solving for the
    correction to P from the residual matrix. It returns the first P with
    residual <= 1e-9. Once three steps bring no improvement, it returns the
    best P if that residual is <= 1e-8, and else raises with it.
    """
    a = np.asarray(ss.a, float)
    b = np.asarray(ss.b, float)
    n = a.shape[0]
    if b.ndim != 2 or b.shape != (n, 1):
        raise ValueError(f"b must be a column of height {n}, got shape {b.shape}")
    q = weights.q
    if q.shape != (n, n):
        raise ValueError(f"q shape {q.shape} does not match state dimension {n}")
    r = float(weights.r)
    if not _stabilizable(a, b):
        raise ValueError("(A, B) is not stabilizable; no stabilizing solution exists")
    if (lam := _unweighted_axis_mode(a, q)) is not None:
        raise ValueError(f"q leaves the mode of A at eigenvalue {complex(lam):.3g} "
                         "unweighted; no stabilizing solution exists")

    g = b @ b.T / r
    a_t = a.T

    # ndarray.dot is cheaper per call than @ on these small matrices and
    # gives the same bits here
    def flow(p):
        return a_t.dot(p) + p.dot(a) - p.dot(g).dot(p) + q

    def gain_stabilizes(p):
        k = (b.T @ p) / r
        return float(np.max(np.linalg.eigvals(a - b @ k).real)) < -1e-6

    p = np.zeros((n, n))
    dt = _RDE_DT
    for step in range(1, int(round(_HORIZON_S / dt)) + 1):
        k1 = flow(p)
        k2 = flow(p + 0.5 * dt * k1)
        k3 = flow(p + 0.5 * dt * k2)
        k4 = flow(p + dt * k3)
        p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = 0.5 * (p + p.T)
        if step % _CHECK_EVERY == 0:
            if not np.all(np.isfinite(p)):
                raise ConvergenceError("Riccati flow diverged", math.inf)
            if gain_stabilizes(p):
                break
    else:
        raise ConvergenceError(
            f"no stabilizing gain within a {_HORIZON_S} s Riccati sweep",
            _care_residual(a, b, q, r, p))

    for _ in range(50):
        k = (b.T @ p) / r
        p = _lyapunov_solve(a - b @ k, q + k.T @ (r * k))
        p = 0.5 * (p + p.T)
        res = _care_residual(a, b, q, r, p)
        if res <= _TOL:
            return p
    # Kleinman's step again, solved for the increment: (A - BK)'D + D(A - BK)
    # = -R(P), P <- P + D. Once ||P|| is large, the direct form loses to
    # cancellation what the increment form keeps.
    best, best_p, stalled = res, p, 0
    while stalled < 3:
        k = (b.T @ p) / r
        p = p + _lyapunov_solve(a - b @ k, _riccati_residual(a, b, q, r, p))
        p = 0.5 * (p + p.T)
        res = _care_residual(a, b, q, r, p)
        if res <= _TOL:
            return p
        if res < best:
            best, best_p, stalled = res, p, 0
        else:
            stalled += 1
    if best <= _ACCEPT:
        return best_p
    raise ConvergenceError("Newton polish did not reach tolerance", best)


@dataclass(frozen=True, eq=False)
class LqrController:
    """Full-state feedback ``u = n_scale * r - k_gain . (x - equilibrium)``
    and the CARE solution behind it."""

    k_gain: np.ndarray
    n_scale: float
    riccati_solution: Optional[np.ndarray] = None
    equilibrium: State = State(0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        # the deviation vector each step fills; frozen, so set it directly
        object.__setattr__(self, "_dev", np.empty(len(self.k_gain)))

    def step(self, reference: float, state: State, dt_s: float) -> float:
        # The deviation goes into the held float64 vector, not a fresh array.
        # The product stays the BLAS ddot that np.dot ran on a fresh tuple:
        # ddot may fuse its multiply-adds, so a Python sum would not give the
        # same bits.
        th, thd, x, xd = state
        e_th, e_thd, e_x, e_xd = self.equilibrium
        v = self._dev
        v[0] = th - e_th
        v[1] = thd - e_thd
        v[2] = x - e_x
        v[3] = xd - e_xd
        return float(self.n_scale * reference - float(self.k_gain.dot(v)))


def lqr_synthesize(ss: StateSpace, weights: LqrWeights, tracked_output_index: int, *,
                   equilibrium: State = State(0.0, 0.0, 0.0, 0.0)) -> LqrController:
    """Solve the CARE and attach the reference feedforward scale.

    ``n_scale`` is fixed so the closed loop has unit DC gain from the
    reference to the tracked state component. The controller measures the
    state about ``equilibrium``, the point ``ss`` was linearized at.
    """
    p = solve_care(ss, weights)
    k = ((ss.b.T @ p) / weights.r).ravel()
    a_cl = ss.a - ss.b @ k[None, :]
    n = ss.a.shape[0]
    e_i = np.zeros(n)
    e_i[tracked_output_index] = 1.0
    dc = float(e_i @ np.linalg.solve(a_cl, ss.b[:, 0]))
    if dc == 0.0:
        raise ValueError("tracked output has no DC response; cannot scale reference")
    return LqrController(k_gain=k, n_scale=-1.0 / dc, riccati_solution=p,
                         equilibrium=equilibrium)


# ---------------------------------------------------------------- loop compositions

class _Composition:
    """What the two compositions share: the adaptation clamps of their channels."""

    @property
    def clamp_events(self) -> list:
        return [event for channel in self.channels for event in channel.clamp_events]


class CascadeLoop(_Composition):
    """Outer channel on the cart position; optional inner channel on its rate.

    The outer channel's output is the force, or with an inner channel a
    velocity command that the inner channel turns into force against the
    measured cart velocity. The cart acceleration is not measured, so the
    inner channel gets ``edot = 0.0``.
    """

    def __init__(self, outer, inner=None):
        self.outer = outer
        self.inner = inner
        self.channels = (outer,) if inner is None else (outer, inner)

    def step(self, reference: float, state: State, dt_s: float) -> float:
        _, _, x, xd = state
        u = self.outer.step(reference, x, -xd, dt_s)
        if self.inner is None:
            return u
        return self.inner.step(u, xd, 0.0, dt_s)


class SimultaneousLoop(_Composition):
    """Angle channel and position channel act on the same force input.

    The angle channel regulates theta to zero; the position channel's output
    is subtracted, leaning the pendulum so that balancing drags the cart
    toward the reference.
    """

    def __init__(self, angle, position):
        self.angle = angle
        self.position = position
        self.channels = (angle, position)

    def step(self, reference: float, state: State, dt_s: float) -> float:
        th, thd, x, xd = state
        return (self.angle.step(0.0, th, -thd, dt_s)
                - self.position.step(reference, x, -xd, dt_s))


def pid_position_topology(
        position_gains: PidGains = PidGains(1.2, 0.5, 0.3),
        velocity_gains: PidGains = PidGains(8.0, 2.0, 0.0)) -> CascadeLoop:
    """Cart-position cascade for the hanging pendulum; defaults of ``pid-position``.

    An all-zero velocity gain set leaves the inner loop out, so the position
    PID commands force directly, which is occasionally useful when retuning.
    """
    inner_on = velocity_gains.kp or velocity_gains.ki or velocity_gains.kd
    return CascadeLoop(PidChannel(position_gains),
                       PidChannel(velocity_gains) if inner_on else None)


def pid_simultaneous_topology(
        angle_gains: PidGains = PidGains(30.0, 0.1, 4.0),
        position_gains: PidGains = PidGains(1.8, 0.5, 3.0)) -> SimultaneousLoop:
    """Balance-and-track pair for the upright pendulum; defaults of ``pid-simultaneous``."""
    return SimultaneousLoop(PidChannel(angle_gains), PidChannel(position_gains))
