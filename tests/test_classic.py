"""PID discretization, Riccati solver, and LQR synthesis oracles."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartpend import classic
from cartpend.classic import (
    ConvergenceError,
    LqrController,
    LqrWeights,
    PidGains,
    PidState,
    lqr_synthesize,
    pid_position_topology,
    pid_simultaneous_topology,
    pid_step,
    solve_care,
)
from cartpend.plant import PlantParams, State, StateSpace, linearize_at
from cartpend.scenario import builtin_scenarios, lqr_design

P = PlantParams()

# frozen via an independent dense solver on the default rig, Q=diag(1,9,230,180), R=1.5
K_UPRIGHT = [82.323338643971, 15.590921139161447, -12.382783747337594, -17.127971553737527]
K_HANGING = [-9.895232405869741, -1.0013370274549889, 12.382783747337843, 13.40440314518234]
K3_EXACT = math.sqrt(230.0 / 1.5)


def _ss(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = a.shape[0]
    return StateSpace(a=a, b=b, c=np.eye(n), d=np.zeros_like(b))


def _care_residual(ss, w, p):
    a, b = ss.a, ss.b
    return np.linalg.norm(a.T @ p + p @ a - p @ b @ (b.T @ p) / w.r + w.q, "fro")


# ---------------- PID ----------------

def test_pid_proportional_only():
    u, _ = pid_step(PidGains(2.0, 0.0, 0.0, 0.0), PidState(), 1.0, 0.1)
    assert u == 2.0


def test_pid_trapezoidal_integral():
    g = PidGains(0.0, 1.0, 0.0, 0.0)
    s = PidState()
    for _ in range(10):
        u, s = pid_step(g, s, 1.0, 0.1)
    # trapezoid from a zero-seeded history: 0.05 + 9 * 0.1
    assert u == pytest.approx(0.95, abs=1e-12)
    assert abs(u - 1.0) <= 0.05 + 1e-12
    assert s.integral_accumulator == pytest.approx(0.95, abs=1e-12)


def test_pid_unfiltered_derivative_jump():
    g = PidGains(0.0, 0.0, 1.0, 0.0)
    s = PidState()
    u, s = pid_step(g, s, 0.0, 0.1)
    assert u == 0.0
    u, s = pid_step(g, s, 1.0, 0.1)
    assert u == pytest.approx(10.0, abs=1e-12)
    u, s = pid_step(g, s, 1.0, 0.1)
    assert u == 0.0


def test_pid_filtered_derivative_softens_jump():
    g = PidGains(0.0, 0.0, 1.0, 0.01)
    s = PidState()
    u, s = pid_step(g, s, 1.0, 1e-3)
    # first-order filter: alpha = dt/(tau+dt) of the raw 1000 backward difference
    assert u == pytest.approx(1e-3 / 0.011 * 1000.0, rel=1e-12)


@settings(max_examples=50)
@given(st.lists(st.floats(-10, 10), min_size=30, max_size=30),
       st.lists(st.floats(-10, 10), min_size=30, max_size=30))
def test_pid_superposition(ea, eb):
    g = PidGains(1.3, 0.7, 0.2, 0.01)
    sa = sb = sab = PidState()
    for a, b in zip(ea, eb):
        ua, sa = pid_step(g, sa, a, 1e-2)
        ub, sb = pid_step(g, sb, b, 1e-2)
        uab, sab = pid_step(g, sab, a + b, 1e-2)
        assert uab == pytest.approx(ua + ub, abs=1e-9)


def test_pid_integral_is_exact_trapezoid():
    g = PidGains(0.0, 1.0, 0.0, 0.0)
    s = PidState()
    errs = [0.3, -0.2, 1.5, 0.0, 2.0]
    prev = 0.0
    acc = 0.0
    for e in errs:
        _, s = pid_step(g, s, e, 0.1)
        acc += 0.1 * (e + prev) / 2
        prev = e
    assert s.integral_accumulator == pytest.approx(acc, abs=1e-15)


# ---------------- CARE / LQR ----------------

def test_care_scalar_closed_form():
    ss = _ss([[0.0]], [[1.0]])
    p = solve_care(ss, LqrWeights(q=np.eye(1), r=1.0))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_care_double_integrator_closed_form():
    ss = _ss([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
    w = LqrWeights(q=np.eye(2), r=1.0)
    p = solve_care(ss, w)
    k = (ss.b.T @ p / w.r).ravel()
    assert k == pytest.approx([1.0, math.sqrt(3.0)], abs=1e-8)


def test_care_residual_reference_plant_both_equilibria():
    w = LqrWeights()
    for ss in (linearize_at(P, 0.0), linearize_at(P, math.pi)):
        p = solve_care(ss, w)
        assert _care_residual(ss, w, p) <= 1e-9
        assert np.max(np.abs(p - p.T)) <= 1e-10
        np.linalg.cholesky(p)  # positive definite


def test_care_random_systems_against_independent_solver():
    import scipy.linalg as sla

    rng = np.random.RandomState(7)
    done = 0
    while done < 10:
        n = rng.randint(2, 7)
        a = rng.randn(n, n)
        b = rng.randn(n, 1)
        c = rng.randn(n, n)
        q = c.T @ c + 1e-6 * np.eye(n)
        r = float(rng.uniform(0.5, 2.0))
        ss = _ss(a, b)
        w = LqrWeights(q=q, r=r)
        try:
            p = solve_care(ss, w)
        except ConvergenceError:
            continue
        assert _care_residual(ss, w, p) <= 1e-9
        p_ref = sla.solve_continuous_are(a, b, q, np.array([[r]]))
        assert np.linalg.norm(p - p_ref, "fro") <= 1e-6 * (1.0 + np.linalg.norm(p_ref, "fro"))
        done += 1


def _criterion2_problems(count):
    """The first ``count`` draws of acceptance criterion 2's RandomState(2024)
    sequence, which is also the benchmark's CARE panel."""
    rng = np.random.RandomState(2024)
    out = []
    for _ in range(count):
        n = int(rng.randint(2, 7))
        a = rng.randn(n, n)
        b = rng.randn(n, 1)
        r = float(rng.uniform(0.5, 2.0))
        out.append((_ss(a, b), LqrWeights(q=np.eye(n), r=r)))
    return out


@np.errstate(over="ignore", invalid="ignore")
def _care_oracle(ss, weights, tol=1e-9):
    """The two-phase solver as it stood before the sweep moved to ndarray.dot,
    tested finiteness only at gain checks and gained the increment-form
    polish: the bit-level reference for every P and every other refusal."""
    a = np.asarray(ss.a, float)
    b = np.asarray(ss.b, float)
    n = a.shape[0]
    if b.ndim != 2 or b.shape != (n, 1):
        raise ValueError(f"b must be a column of height {n}, got shape {b.shape}")
    q = weights.q
    if q.shape != (n, n):
        raise ValueError(f"q shape {q.shape} does not match state dimension {n}")
    r = float(weights.r)
    if not classic._stabilizable(a, b):
        raise ValueError("(A, B) is not stabilizable; no stabilizing solution exists")

    g = b @ b.T / r

    def flow(p):
        return a.T @ p + p @ a - p @ g @ p + q

    def gain_stabilizes(p):
        k = (b.T @ p) / r
        return float(np.max(np.linalg.eigvals(a - b @ k).real)) < -1e-6

    rde_dt, horizon_s = 1e-3, 50.0
    p = np.zeros((n, n))
    steps = int(round(horizon_s / rde_dt))
    check_every = 100
    found = False
    for step in range(1, steps + 1):
        k1 = flow(p)
        k2 = flow(p + 0.5 * rde_dt * k1)
        k3 = flow(p + 0.5 * rde_dt * k2)
        k4 = flow(p + rde_dt * k3)
        p = p + rde_dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = 0.5 * (p + p.T)
        if not np.all(np.isfinite(p)):
            raise ConvergenceError("Riccati flow diverged", math.inf)
        if step % check_every == 0 and gain_stabilizes(p):
            found = True
            break
    if not found and not gain_stabilizes(p):
        raise ConvergenceError(
            f"no stabilizing gain within a {horizon_s} s Riccati sweep",
            classic._care_residual(a, b, q, r, p))

    for _ in range(50):
        k = (b.T @ p) / r
        a_cl = a - b @ k
        rhs = q + k.T @ (r * k)
        p = classic._lyapunov_solve(a_cl, rhs)
        p = 0.5 * (p + p.T)
        if classic._care_residual(a, b, q, r, p) <= tol:
            return p
    raise ConvergenceError("Newton polish did not reach tolerance",
                           classic._care_residual(a, b, q, r, p))


def _care_outcome(solver, ss, w):
    try:
        return solver(ss, w)
    except (ValueError, ConvergenceError) as exc:
        return exc


def _scipy_care(ss, w):
    import scipy.linalg as sla

    return sla.solve_continuous_are(ss.a, ss.b, w.q, np.array([[w.r]]))


def test_care_matches_the_two_phase_oracle_bit_for_bit():
    upright, hanging = linearize_at(P, 0.0), linearize_at(P, math.pi)
    draws = _criterion2_problems(87)
    problems = [("upright", upright, LqrWeights()), ("hanging", hanging, LqrWeights()),
                ("q_x=1e308", upright, LqrWeights(q=np.diag([1.0, 9.0, 1e308, 180.0]))),
                ("r=1e-300", upright, LqrWeights(r=1e-300))]
    problems += [(f"draw {i}", *draws[i]) for i in [*range(40), 86]]
    kinds = set()
    for name, ss, w in problems:
        want = _care_outcome(_care_oracle, ss, w)
        got = _care_outcome(solve_care, ss, w)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray), (name, got)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            kinds.add("solved")
        elif str(want) == "Newton polish did not reach tolerance" and isinstance(got, np.ndarray):
            # the only outcome allowed to change: a refusal the polish now solves
            assert _care_residual(ss, w, got) <= 1e-9, name
            p_ref = _scipy_care(ss, w)
            assert np.linalg.norm(got - p_ref) <= 1e-6 * max(1.0, np.linalg.norm(p_ref)), name
            kinds.add("rescued")
        else:
            assert (type(got), str(got)) == (type(want), str(want)), name
            if str(want) != "Newton polish did not reach tolerance":
                assert repr(got.residual) == repr(want.residual), name
            kinds.add(str(want))
    assert kinds == {"solved", "rescued", "Riccati flow diverged",
                     "Newton polish did not reach tolerance"}


def test_care_increment_polish_solves_draw_28():
    ss, w = _criterion2_problems(29)[28]
    with pytest.raises(ConvergenceError, match="Newton polish"):
        _care_oracle(ss, w)
    p = solve_care(ss, w)
    assert _care_residual(ss, w, p) <= 1e-9
    p_ref = _scipy_care(ss, w)
    assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)


def test_care_refusal_carries_the_best_residual(monkeypatch):
    # draw 86 sits below its rounding floor under the absolute 1e-9 gate
    ss, w = _criterion2_problems(87)[86]
    seen = []
    residual = classic._care_residual

    def recording(*args):
        seen.append(residual(*args))
        return seen[-1]

    monkeypatch.setattr(classic, "_care_residual", recording)
    with pytest.raises(ConvergenceError, match="Newton polish did not reach tolerance") as info:
        solve_care(ss, w)
    assert info.value.residual == min(seen)
    assert info.value.residual < seen[-1]


def test_care_returns_the_stalled_polish_best_within_1e_8():
    # the increment polish stalls above 1e-9 on these panel draws; its best
    # iterate is returned when within 1e-8 and refused otherwise
    draws = _criterion2_problems(102)
    for i in (72, 97):
        ss, w = draws[i]
        p = solve_care(ss, w)
        assert _care_residual(ss, w, p) <= 1e-8, i
        p_ref = _scipy_care(ss, w)
        assert np.linalg.norm(p - p_ref) <= 1e-6 * max(1.0, np.linalg.norm(p_ref)), i
    for i in (86, 101):
        ss, w = draws[i]
        with pytest.raises(ConvergenceError, match="Newton polish") as info:
            solve_care(ss, w)
        assert info.value.residual > 1e-8, i


def test_care_rejects_an_unweighted_mode_on_the_imaginary_axis():
    # q_x = 0 leaves the cart's integrator mode unseen at both equilibria
    q = np.diag([1.0, 9.0, 0.0, 180.0])
    for theta_e in (0.0, math.pi):
        with pytest.raises(ValueError, match="^q leaves the mode of A at eigenvalue 0"):
            solve_care(linearize_at(P, theta_e), LqrWeights(q=q))
    # the rank test scales each block, so a weight far above A's entries still counts
    a = linearize_at(P, 0.0).a
    assert classic._unweighted_axis_mode(a, np.diag([1.0, 9.0, 1e308, 180.0])) is None
    assert classic._unweighted_axis_mode(a, np.diag([0.0, 0.0, 1e-3, 0.0])) is None


def test_care_rejects_unstabilizable_pair():
    # unstable mode not reachable from the input
    ss = _ss([[1.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        solve_care(ss, LqrWeights(q=np.eye(2), r=1.0))


def test_lqr_weights_validation():
    with pytest.raises(ValueError):
        LqrWeights(q=np.diag([1.0, -1.0, 1.0, 1.0]), r=1.0)
    with pytest.raises(ValueError):
        LqrWeights(r=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"q must be finite, got {bad!r}"):
            LqrWeights(q=np.diag([1.0, 9.0, bad, 180.0]))


def test_lqr_synthesize_upright_frozen_gain():
    ctrl = lqr_synthesize(linearize_at(P, 0.0), LqrWeights(), 2)
    assert ctrl.k_gain == pytest.approx(K_UPRIGHT, rel=1e-6)
    assert abs(abs(ctrl.k_gain[2]) - K3_EXACT) <= 1e-6
    assert ctrl.n_scale == pytest.approx(ctrl.k_gain[2], abs=1e-9)


def test_lqr_synthesize_hanging_frozen_gain():
    ctrl = lqr_synthesize(linearize_at(P, math.pi), LqrWeights(), 2)
    assert ctrl.k_gain == pytest.approx(K_HANGING, rel=1e-6)
    assert ctrl.n_scale == pytest.approx(ctrl.k_gain[2], abs=1e-9)


def test_lqr_closed_loop_hurwitz_and_unit_dc_gain():
    ss = linearize_at(P, 0.0)
    w = LqrWeights()
    ctrl = lqr_synthesize(ss, w, 2)
    k = np.asarray(ctrl.k_gain)[None, :]
    acl = ss.a - ss.b @ k
    assert np.max(np.linalg.eigvals(acl).real) < 0.0
    dc = -np.array([0, 0, 1, 0]) @ np.linalg.solve(acl, ss.b[:, 0]) * ctrl.n_scale
    assert dc == pytest.approx(1.0, abs=1e-9)


def test_lqr_step_arithmetic():
    ctrl = LqrController(k_gain=np.array([1.0, 0.0, 0.0, 0.0]), n_scale=0.0,
                         tracked_output_index=2)
    assert ctrl.step(0.0, State(0, 0, 0, 0), 1e-3) == 0.0
    assert ctrl.step(0.0, State(2, 0, 0, 0), 1e-3) == -2.0
    ctrl2 = LqrController(k_gain=np.zeros(4), n_scale=3.0, tracked_output_index=2)
    assert ctrl2.step(2.0, State(0, 0, 0, 0), 1e-3) == 6.0


@pytest.mark.parametrize("theta_e", [0.0, math.pi], ids=["upright", "hanging"])
def test_lqr_step_about_equilibrium_matches_step_on_the_deviation_bit_for_bit(theta_e):
    eq = State(theta_e, 0.0, 0.0, 0.0)
    ctrl = lqr_synthesize(linearize_at(P, theta_e), LqrWeights(), 2, equilibrium=eq)
    about_zero = dataclasses.replace(ctrl, equilibrium=State(0.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1.0, 1.0, (20000, 5)) * [4.0, 30.0, 5.0, 10.0, 2.0]
    for th, thd, x, xd, r in rows.tolist():
        s = State(th + theta_e, thd, x, xd)
        want = about_zero.step(r, State(*(v - e for v, e in zip(s, eq))), 1e-3)
        assert ctrl.step(r, s, 1e-3).hex() == want.hex()


def test_lqr_step_equilibrium_offset():
    ctrl = lqr_synthesize(linearize_at(P, math.pi), LqrWeights(), 2,
                          equilibrium=State(math.pi, 0.0, 0.0, 0.0))
    # exactly at the shifted equilibrium with r=0 the force is zero
    assert ctrl.step(0.0, State(math.pi, 0.0, 0.0, 0.0), 1e-3) == pytest.approx(0.0, abs=1e-12)


def _builtin_lqr_designs():
    scenarios = builtin_scenarios()
    return {point: lqr_design(scenarios[name]) for point, name in (
        ("hanging", "cart-position-lqr-nominal"), ("upright", "simultaneous-lqr-nominal"))}


def _random_equilibrium_design():
    rng = np.random.default_rng(23)
    eq = State(*rng.uniform(-3.0, 3.0, 4).tolist())
    return LqrController(k_gain=rng.normal(0.0, 50.0, 4), n_scale=float(rng.normal(0.0, 10.0)),
                         tracked_output_index=2, equilibrium=eq)


@pytest.mark.parametrize("design", ["hanging", "upright", "random-equilibrium"])
def test_lqr_step_is_the_np_dot_on_the_deviation_tuple_bit_for_bit(design):
    # the held-vector product must stay the ddot np.dot ran on a fresh tuple
    ctrl = (_random_equilibrium_design() if design == "random-equilibrium"
            else _builtin_lqr_designs()[design])
    k, n = ctrl.k_gain, ctrl.n_scale
    e_th, e_thd, e_x, e_xd = ctrl.equilibrium
    rng = np.random.default_rng(7)
    rows = rng.uniform(-1.0, 1.0, (12000, 5)) * [4.0, 30.0, 5.0, 10.0, 2.0]
    for th, thd, x, xd, r in rows.tolist():
        want = float(n * r - float(np.dot(k, (th - e_th, thd - e_thd, x - e_x, xd - e_xd))))
        assert ctrl.step(r, State(th, thd, x, xd), 1e-3).hex() == want.hex()


def test_lqr_controllers_do_not_share_the_held_vector():
    designs = _builtin_lqr_designs()
    a, b = designs["upright"], designs["hanging"]
    c = dataclasses.replace(a, equilibrium=State(0.5, 0.0, -1.0, 0.0))
    assert len({id(a._dev), id(b._dev), id(c._dev)}) == 3
    rng = np.random.default_rng(11)
    rows = (rng.uniform(-1.0, 1.0, (3000, 5)) * [4.0, 30.0, 5.0, 10.0, 2.0]).tolist()

    def separate(ctrl):
        fresh = dataclasses.replace(ctrl)
        return [fresh.step(r, State(*s), 1e-3).hex() for *s, r in rows]

    want = {name: separate(ctrl) for name, ctrl in zip("abc", (a, b, c))}
    got = {"a": [], "b": [], "c": []}
    for *s, r in rows:
        for name, ctrl in zip("abc", (a, b, c)):
            got[name].append(ctrl.step(r, State(*s), 1e-3).hex())
    assert got == want


# ---------------- loop topologies ----------------

def test_cascade_zero_in_zero_out():
    ctrl = pid_position_topology()
    assert ctrl.step(0.0, State(0.0, 0.0, 0.0, 0.0), 1e-3) == 0.0


def test_cascade_inner_zero_bypasses_to_single_loop():
    pos = PidGains(1.2, 0.5, 0.3, 0.01)
    cascade = pid_position_topology(pos, PidGains(0.0, 0.0, 0.0, 0.0))
    single_state = PidState()
    first = True
    for k, x in enumerate([0.0, 0.01, 0.05, 0.02]):
        s = State(math.pi, 0.0, x, 0.1 * k)
        e = 1.0 - x
        if first:
            single_state = PidState(0.0, e, 0.0)
            first = False
        u_single, single_state = pid_step(pos, single_state, e, 1e-3)
        assert cascade.step(1.0, s, 1e-3) == pytest.approx(u_single, abs=1e-12)


@pytest.mark.parametrize("inner", [PidGains(0.0, 0.0, 0.0, 0.0), PidGains(-0.0, 0.0, -0.0, 0.5)])
def test_cascade_zero_inner_gains_is_the_position_loop_bit_for_bit(inner):
    rng = np.random.default_rng(31)
    pos = PidGains(1.2, 0.5, 0.3, 0.01)
    cascade = pid_position_topology(pos, inner)
    single_state = None
    for r, x, xd in rng.standard_normal((2000, 3)).tolist():
        e = r - x
        if single_state is None:
            single_state = PidState(0.0, e, 0.0)
        u_single, single_state = pid_step(pos, single_state, e, 1e-3)
        assert type(single_state) is PidState
        assert cascade.step(r, State(math.pi, 0.0, x, xd), 1e-3).hex() == u_single.hex()
    assert cascade.inner is None


def test_cascade_first_step_has_no_derivative_kick():
    ctrl = pid_position_topology(PidGains(1.2, 0.5, 0.3, 0.01), PidGains(8.0, 2.0, 0.0, 0.01))
    u = ctrl.step(1.0, State(math.pi, 0.0, 0.0, 0.0), 1e-3)
    # primed error history: proportional chain only, no 1/dt spike
    assert abs(u) < 50.0


def test_simultaneous_equilibrium_zero_force():
    ctrl = pid_simultaneous_topology()
    assert ctrl.step(0.3, State(0.0, 0.0, 0.3, 0.0), 1e-3) == 0.0


class _SimultaneousOracle:
    """The inline PID simultaneous law SimultaneousLoop replaced, kept as its reference."""

    def __init__(self, angle_gains, position_gains):
        self._ang_g = angle_gains
        self._pos_g = position_gains
        self._ang_s = None
        self._pos_s = None

    def step(self, reference, state, dt_s):
        e_th = -state.theta_rad
        e_x = reference - state.x_m
        if self._ang_s is None:
            self._ang_s = PidState(0.0, e_th, 0.0)
            self._pos_s = PidState(0.0, e_x, 0.0)
        u_th, self._ang_s = pid_step(self._ang_g, self._ang_s, e_th, dt_s)
        u_x, self._pos_s = pid_step(self._pos_g, self._pos_s, e_x, dt_s)
        return u_th - u_x


@pytest.mark.parametrize("filter_tau_s", [0.01, 0.0])
def test_simultaneous_law_matches_the_inline_oracle_bit_for_bit(filter_tau_s):
    # The oracle's angle error is -theta, the channel's 0.0 - theta: they differ
    # only in the sign of a zero error, which the shipped gains keep out of the
    # force. (A negative ki with no derivative filter lets it through as the
    # sign of a zero force.)
    angle = PidGains(30.0, 0.1, 4.0, filter_tau_s)
    position = PidGains(1.8, 0.5, 3.0, filter_tau_s)
    zeros = [(0.0, State(th, thd, x, xd)) for th in (0.0, -0.0) for thd in (0.0, -0.0)
             for x in (0.0, -0.0) for xd in (0.0, -0.0)]
    rng = np.random.default_rng(47)
    draws = [(r, State(*s)) for r, *s in (0.3 * rng.standard_normal((2000, 5))).tolist()]
    # each signed-zero state primes a run, follows another, and recurs among the draws
    runs = [[z] + draws[:100] for z in zeros]
    runs.append(zeros + zeros[::-1])
    mixed = []
    for k, d in enumerate(draws):
        mixed.append(d)
        if k % 7 == 6:
            mixed.append(zeros[k % 16])
    runs.append(mixed)
    for states in runs:
        loop = pid_simultaneous_topology(angle, position)
        oracle = _SimultaneousOracle(angle, position)
        for r, s in states:
            assert loop.step(r, s, 1e-3).hex() == oracle.step(r, s, 1e-3).hex()


def test_simultaneous_angle_loop_off_is_unstable():
    # position-only feedback leaves the upright pole in the right half plane
    ss = linearize_at(P, 0.0)
    kp, kd = 1.5, 3.0
    k_row = np.array([[0.0, 0.0, kp, kd]])
    acl = ss.a - ss.b @ k_row
    assert np.max(np.linalg.eigvals(acl).real) > 0.0


def test_simultaneous_tracks_and_balances():
    from cartpend.sim import ReferenceSpec, SimConfig, run_closed_loop

    ctrl = pid_simultaneous_topology(PidGains(30.0, 0.1, 4.0, 0.01),
                                     PidGains(1.8, 0.5, 3.0, 0.01))
    cfg = SimConfig(dt_s=1e-3, duration_s=20.0, reference=ReferenceSpec(0.3, 0.0))
    traj = run_closed_loop(P, ctrl, cfg)
    assert abs(traj.states[-1, 2] - 0.3) <= 0.01
    assert abs(traj.states[-1, 0]) <= 1e-3
