"""Oracle tests for the cart-pole dynamics, linearizations, and system analysis."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cartpend.classic import _rank, _stabilizable
from cartpend.plant import (
    PlantParams,
    State,
    StateSpace,
    linearize_at,
    make_derivative,
    mechanical_energy,
    nonlinear_derivative,
)

P = PlantParams()

# hand-derived constants for the default rig (M=1.2, m=0.2, l=0.36, g=9.8)
A_THETA = (1.2 + 0.2) * 9.8 / (1.2 * 0.36)   # 31.759259...
A_X = 0.2 * 9.8 / 1.2                         # 1.633333...
B_THETA = 1.0 / (1.2 * 0.36)                  # 2.314814...
B_X = 1.0 / 1.2                               # 0.833333...
UNSTABLE_POLE = 5.6355354012958925            # sqrt(A_THETA)


def test_default_params():
    assert P.cart_mass_kg == 1.2
    assert P.bob_mass_kg == 0.2
    assert P.pendulum_length_m == 0.36
    assert P.gravity_ms2 == 9.8


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        PlantParams(cart_mass_kg=-1.0)
    with pytest.raises(ValueError):
        PlantParams(pendulum_length_m=0.0)


def test_upright_unforced_fixed_point():
    d = nonlinear_derivative(P, State(0.0, 0.0, 0.0, 0.0), 0.0)
    assert d == State(0.0, 0.0, 0.0, 0.0)


@given(x=st.floats(-50.0, 50.0))
def test_fixed_point_family_any_cart_position(x):
    d = nonlinear_derivative(P, State(0.0, 0.0, x, 0.0), 0.0)
    assert all(abs(v) == 0.0 for v in d)


def test_unit_force_hand_oracle():
    # at theta=0: den = l(M+m) - ml = 0.432, thetadd = F/den, xdd = l F/den
    d = nonlinear_derivative(P, State(0.0, 0.0, 0.0, 0.0), 1.0)
    assert d.theta_dot_rads == pytest.approx(1.0 / 0.432, abs=1e-12)
    assert d.x_dot_ms == pytest.approx(0.36 / 0.432, abs=1e-12)
    assert d.theta_rad == 0.0 and d.x_m == 0.0


def test_linearize_b_vector():
    ss = linearize_at(P, 0.0)
    assert ss.b[:, 0] == pytest.approx([0.0, B_THETA, 0.0, B_X], abs=1e-12)
    assert ss.b[1, 0] == pytest.approx(2.31481, abs=1e-5)
    assert ss.b[3, 0] == pytest.approx(0.83333, abs=1e-5)


def test_linearize_a_entries():
    a = linearize_at(P, 0.0).a
    assert a[1, 0] == pytest.approx(A_THETA, abs=1e-12)
    assert a[1, 0] == pytest.approx(31.7593, abs=1e-4)
    assert a[3, 0] == pytest.approx(A_X, abs=1e-12)
    assert a[0, 1] == 1.0 and a[2, 3] == 1.0
    # every other entry is zero
    mask = np.ones((4, 4), bool)
    mask[1, 0] = mask[3, 0] = mask[0, 1] = mask[2, 3] = False
    assert np.all(a[mask] == 0.0)


def test_linearize_c_d_blocks():
    ss = linearize_at(P, 0.0)
    assert np.array_equal(ss.c, np.eye(4))
    assert np.all(ss.d == 0.0)


def test_linearize_matches_finite_difference_jacobian():
    ss = linearize_at(P, 0.0)
    h = 1e-6
    jac = np.empty((4, 4))
    for j in range(4):
        hi = [0.0] * 4
        lo = [0.0] * 4
        hi[j] = h
        lo[j] = -h
        fp = nonlinear_derivative(P, State(*hi), 0.0)
        fm = nonlinear_derivative(P, State(*lo), 0.0)
        jac[:, j] = [(a - b) / (2 * h) for a, b in zip(fp, fm)]
    assert np.max(np.abs(jac - ss.a)) <= 1e-6
    fb_p = nonlinear_derivative(P, State(0, 0, 0, 0), h)
    fb_m = nonlinear_derivative(P, State(0, 0, 0, 0), -h)
    b_fd = [(a - b) / (2 * h) for a, b in zip(fb_p, fb_m)]
    assert np.max(np.abs(np.asarray(b_fd) - ss.b[:, 0])) <= 1e-6


def test_small_angle_derivative_matches_linear_model():
    ss = linearize_at(P, 0.0)
    s = State(0.01, 0.0, 0.0, 0.0)
    dn = np.asarray(nonlinear_derivative(P, s, 0.0))
    dl = ss.a @ np.asarray(s)
    for vn, vl in zip(dn, dl):
        if abs(vl) > 1e-12:
            assert abs(vn - vl) <= 1e-3 * abs(vl)
        else:
            assert abs(vn - vl) <= 1e-9


@given(
    th=st.floats(-0.005, 0.005),
    thd=st.floats(-0.005, 0.005),
    xd=st.floats(-0.005, 0.005),
    f=st.floats(-0.005, 0.005),
)
def test_small_signal_consistency_ball(th, thd, xd, f):
    ss = linearize_at(P, 0.0)
    s = State(th, thd, 0.0, xd)
    dn = np.asarray(nonlinear_derivative(P, s, f))
    dl = ss.a @ np.asarray(s) + ss.b[:, 0] * f
    for vn, vl in zip(dn, dl):
        assert abs(vn - vl) <= max(0.01 * abs(vl), 1e-6)


def test_hanging_linearization_signs():
    ss = linearize_at(P, math.pi)
    assert ss.a[1, 0] == pytest.approx(-A_THETA, abs=1e-12)
    assert ss.a[3, 0] == pytest.approx(A_X, abs=1e-12)  # same sign at both equilibria
    assert ss.b[1, 0] == pytest.approx(-B_THETA, abs=1e-12)
    assert ss.b[3, 0] == pytest.approx(B_X, abs=1e-12)


def test_linearize_at_rejects_non_equilibrium():
    with pytest.raises(ValueError):
        linearize_at(P, 0.3)


def test_hanging_jacobian_matches_finite_difference():
    ss = linearize_at(P, math.pi)
    h = 1e-6
    base = [math.pi, 0.0, 0.0, 0.0]
    jac = np.empty((4, 4))
    for j in range(4):
        hi = list(base)
        lo = list(base)
        hi[j] += h
        lo[j] -= h
        fp = nonlinear_derivative(P, State(*hi), 0.0)
        fm = nonlinear_derivative(P, State(*lo), 0.0)
        jac[:, j] = [(a - b) / (2 * h) for a, b in zip(fp, fm)]
    assert np.max(np.abs(jac - ss.a)) <= 1e-6


def _controllability_rank(ss):
    n = ss.a.shape[0]
    return _rank(np.hstack([np.linalg.matrix_power(ss.a, k) @ ss.b for k in range(n)]))


def _observability_rank(ss):
    n = ss.a.shape[0]
    return _rank(np.vstack([ss.c @ np.linalg.matrix_power(ss.a, k) for k in range(n)]))


def test_assess_reference_plant():
    """Kalman ranks, the PBH test and the open-loop poles of the upright model."""
    ss = linearize_at(P, 0.0)
    assert _controllability_rank(ss) == 4 and _observability_rank(ss) == 4
    assert _stabilizable(ss.a, ss.b)
    reals = sorted(p.real for p in np.linalg.eigvals(ss.a))
    assert reals[-1] == pytest.approx(UNSTABLE_POLE, abs=1e-6)


def test_assess_stable_system():
    """A stable system reached through one state: uncontrollable, yet stabilizable."""
    sys = StateSpace(
        a=-np.eye(4), b=np.array([[1.0], [0.0], [0.0], [0.0]]), c=np.eye(4), d=np.zeros((4, 1))
    )
    assert np.all(np.linalg.eigvals(sys.a).real < 0.0)
    assert _controllability_rank(sys) == 1
    assert _stabilizable(sys.a, sys.b)  # the PBH test skips the stable modes


@given(scale=st.floats(1e-3, 1e3))
def test_controllability_invariant_under_b_scaling(scale):
    ss = linearize_at(P, 0.0)
    scaled = StateSpace(a=ss.a, b=ss.b * scale, c=ss.c, d=ss.d)
    assert _controllability_rank(scaled) == _controllability_rank(ss) == 4


def test_energy_rest_values():
    mgl = 0.2 * 9.8 * 0.36
    assert mechanical_energy(P, State(0.0, 0.0, 0.0, 0.0)) == pytest.approx(mgl, abs=1e-12)
    assert mechanical_energy(P, State(math.pi, 0.0, 0.0, 0.0)) == pytest.approx(-mgl, abs=1e-12)
    # cart position does not enter the energy
    assert mechanical_energy(P, State(0.0, 0.0, 3.0, 0.0)) == pytest.approx(mgl, abs=1e-12)


@given(
    th=st.floats(-3.0, 3.0),
    thd=st.floats(-3.0, 3.0),
    xd=st.floats(-3.0, 3.0),
    f=st.floats(-5.0, 5.0),
)
def test_energy_rate_equals_force_power(th, thd, xd, f):
    # directional derivative of E along the vector field equals F * xdot
    s = State(th, thd, 0.0, xd)
    d = nonlinear_derivative(P, s, f)
    eps = 1e-6
    sp = State(th + eps * d.theta_rad, thd + eps * d.theta_dot_rads,
               eps * d.x_m, xd + eps * d.x_dot_ms)
    sm = State(th - eps * d.theta_rad, thd - eps * d.theta_dot_rads,
               -eps * d.x_m, xd - eps * d.x_dot_ms)
    de = (mechanical_energy(P, sp) - mechanical_energy(P, sm)) / (2 * eps)
    assert de == pytest.approx(f * xd, abs=1e-4 + 1e-4 * abs(f * xd))


def _derivative_oracle(params, state, force_N):
    """The nonlinear_derivative body before the field was bound once, kept as its reference."""
    m_cart = params.cart_mass_kg
    m_bob = params.bob_mass_kg
    length = params.pendulum_length_m
    g = params.gravity_ms2

    th, thd, _, xd = state
    sin_th = math.sin(th)
    cos_th = math.cos(th)
    den = length * (m_cart + m_bob) - m_bob * length * cos_th * cos_th
    centripetal = force_N - m_bob * length * thd * thd * sin_th
    thetadd = ((m_cart + m_bob) * g * sin_th + cos_th * centripetal) / den
    xdd = length * (centripetal + m_bob * g * sin_th * cos_th) / den
    return State(thd, thetadd, xd, xdd)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("scenario", [None, "cart-position-lqr-parameter-variation",
                                      "simultaneous-lqr-parameter-variation"])
def test_bound_field_matches_the_unbound_body_bit_for_bit(scenario):
    # the nominal plant and the two parameter-variation plants of the study
    from cartpend.scenario import builtin_scenarios, effective_plant

    params = P if scenario is None else effective_plant(builtin_scenarios()[scenario])
    field = make_derivative(params)
    rng = np.random.default_rng(20261018)
    scale = np.array([4.0, 30.0, 5.0, 10.0, 50.0])
    samples = [(0.0, -0.0, 0.0, -0.0, -0.0), (math.pi, 0.0, 1.0, 0.0, 0.0),
               (-0.0, 0.0, 0.0, 0.0, 1e300), (1e-300, -1e-300, 0.0, 5e-324, -5e-324)]
    samples += [tuple(row) for row in rng.uniform(-1.0, 1.0, (20000, 5)) * scale]
    for th, thd, x, xd, force in samples:
        s = State(th, thd, x, xd)
        expected = _hex(_derivative_oracle(params, s, force))
        assert _hex(field(s, force)) == expected
        d = nonlinear_derivative(params, s, force)
        assert type(d) is State and _hex(d) == expected


# ---------------- Lagrangian oracle ----------------

@functools.lru_cache(maxsize=None)
def _lagrangian_model():
    """Euler-Lagrange accelerations of T - V, derived by sympy from the bob
    position (x - l sin theta, l cos theta), as functions and as the
    symbolic Jacobian of the state field."""
    import sympy as sp

    t = sp.Symbol("t")
    m_cart, m_bob, length, g, force = sp.symbols("M m l g F", positive=True)
    th, x = sp.Function("theta")(t), sp.Function("x")(t)
    bob_x, bob_y = x - length * sp.sin(th), length * sp.cos(th)
    kinetic = (m_cart * x.diff(t) ** 2
               + m_bob * (bob_x.diff(t) ** 2 + bob_y.diff(t) ** 2)) / 2
    lag = kinetic - m_bob * g * bob_y
    # the force acts on x only
    eqs = [lag.diff(q.diff(t)).diff(t) - lag.diff(q) - gen
           for q, gen in ((th, 0), (x, force))]
    q0, q1, v0, v1 = sp.symbols("q0 q1 v0 v1")
    plain = {th.diff(t, 2): sp.Symbol("thdd"), x.diff(t, 2): sp.Symbol("xdd"),
             th.diff(t): v0, x.diff(t): v1}
    eqs = [e.subs(plain).subs({th: q0, x: q1}) for e in eqs]
    sol = sp.solve(eqs, [sp.Symbol("thdd"), sp.Symbol("xdd")], dict=True)[0]
    field = sp.Matrix([v0, sol[sp.Symbol("thdd")], v1, sol[sp.Symbol("xdd")]])
    args = (m_cart, m_bob, length, g, q0, v0, q1, v1, force)
    return (sp.lambdify(args, list(field), "math"),
            sp.lambdify(args, field.jacobian([q0, v0, q1, v1]).tolist(), "math"),
            sp.lambdify(args, field.jacobian([force]).tolist(), "math"))


def _random_plants(rng, n):
    for _ in range(n):
        yield PlantParams(cart_mass_kg=float(rng.uniform(0.2, 5.0)),
                          bob_mass_kg=float(rng.uniform(0.02, 2.0)),
                          pendulum_length_m=float(rng.uniform(0.1, 2.0)),
                          gravity_ms2=float(rng.uniform(1.0, 20.0)))


def _physics(params):
    return (params.cart_mass_kg, params.bob_mass_kg, params.pendulum_length_m,
            params.gravity_ms2)


def test_field_matches_the_sympy_euler_lagrange_accelerations():
    oracle = _lagrangian_model()[0]
    rng = np.random.default_rng(13)
    worst = 0.0
    plants = [P] + list(_random_plants(rng, 39))
    for k in range(2000):
        params = plants[k % len(plants)]
        th, thd, x, xd = rng.uniform(-1.0, 1.0, 4) * [2 * math.pi, 20.0, 5.0, 10.0]
        f = float(rng.uniform(-50.0, 50.0))
        got = make_derivative(params)(State(th, thd, x, xd), f)
        want = oracle(*_physics(params), th, thd, x, xd, f)
        for a, b in zip(got, want):
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("theta_e", [0.0, math.pi], ids=["upright", "hanging"])
def test_linearize_at_matches_the_symbolic_jacobian(theta_e):
    _, jac_a, jac_b = _lagrangian_model()
    for params in [P] + list(_random_plants(np.random.default_rng(17), 9)):
        at = (*_physics(params), theta_e, 0.0, 0.0, 0.0, 0.0)
        ss = linearize_at(params, theta_e)
        a_ref = np.asarray(jac_a(*at), dtype=float)
        b_ref = np.asarray(jac_b(*at), dtype=float)
        assert np.allclose(ss.a, a_ref, rtol=1e-12, atol=1e-12), (params, ss.a, a_ref)
        assert np.allclose(ss.b, b_ref, rtol=1e-12, atol=1e-12), (params, ss.b, b_ref)
