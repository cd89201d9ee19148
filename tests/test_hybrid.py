"""Reference model, MIT-rule adaptation, and hybrid channel structure tests."""
import math

import numpy as np
import pytest

from cartpend.classic import CascadeLoop, PidChannel, PidGains, SimultaneousLoop
from cartpend.fuzzy import FuzzySystem, fuzzy_infer
from cartpend.hybrid import (
    AdaptiveParams,
    HybridChannel,
    ReferenceModel,
    lambda_signals,
    mit_rule_update,
    reference_model_step,
)
from cartpend.plant import PlantParams, State
from cartpend.sim import ReferenceSpec, SimConfig, run_closed_loop

P = PlantParams()


def _angle_channel():
    return HybridChannel(
        channel_gains=PidGains(5.0, 0.0, 1.0, 0.01),
        crisp_gains=PidGains(40.0, 0.0, 4.0, 0.01),
        fuzzy_system=FuzzySystem(output_scale=8.0),
        adaptive=AdaptiveParams(gamma_p=0.001, gamma_i=0.001, gamma_d=0.001,
                                gamma_prime=0.001),
    )


def _position_channel():
    return HybridChannel(
        channel_gains=PidGains(3.5, 0.0, 3.0, 0.01),
        crisp_gains=PidGains(1.5, 0.0, 3.0, 0.01),
        fuzzy_system=FuzzySystem(output_scale=6.0),
        adaptive=AdaptiveParams(gamma_p=0.001, gamma_i=0.001, gamma_d=0.001,
                                gamma_prime=0.001),
    )


def _cart_channel():
    return HybridChannel(
        channel_gains=PidGains(1.5, 0.0, 1.4, 0.01),
        crisp_gains=PidGains(1.2, 0.0, 0.3, 0.01),
        fuzzy_system=FuzzySystem(output_scale=12.0),
        adaptive=AdaptiveParams(gamma_p=0.001, gamma_i=0.001, gamma_d=0.001,
                                gamma_prime=0.001),
    )


# ---------------- reference model ----------------

def test_reference_model_zero_input_stays_zero():
    m = ReferenceModel(1.0, 0.9)
    for _ in range(100):
        assert reference_model_step(m, 0.0, 1e-3) == 0.0


def test_reference_model_critically_damped_closed_form():
    m = ReferenceModel(1.0, 1.0)
    y = 0.0
    for _ in range(1000):
        y = reference_model_step(m, 1.0, 1e-3)
    assert y == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-6)


def test_reference_model_unit_dc_gain():
    m = ReferenceModel(1.0, 0.9)
    y = 0.0
    for _ in range(40000):
        y = reference_model_step(m, 1.0, 1e-3)
    assert y == pytest.approx(1.0, abs=1e-6)


def _reference_model_oracle(model, r, dt_s):
    """The closure form reference_model_step replaced, kept as its reference."""
    w2 = model.natural_frequency_rads * model.natural_frequency_rads
    tz = 2.0 * model.damping_ratio * model.natural_frequency_rads
    y, yd = model.y, model.y_dot

    def f(y_, yd_):
        return yd_, w2 * (r - y_) - tz * yd_

    k1 = f(y, yd)
    k2 = f(y + 0.5 * dt_s * k1[0], yd + 0.5 * dt_s * k1[1])
    k3 = f(y + 0.5 * dt_s * k2[0], yd + 0.5 * dt_s * k2[1])
    k4 = f(y + dt_s * k3[0], yd + dt_s * k3[1])
    model.y = y + dt_s / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    model.y_dot = yd + dt_s / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return model.y


def test_reference_model_step_matches_the_closure_form_bit_for_bit():
    rng = np.random.default_rng(7)
    for w, z, r, y, yd, dt in zip(rng.uniform(0.1, 20.0, 20000), rng.uniform(0.0, 2.0, 20000),
                                  rng.uniform(-5.0, 5.0, 20000), rng.uniform(-5.0, 5.0, 20000),
                                  rng.uniform(-20.0, 20.0, 20000),
                                  rng.choice([1e-4, 1e-3, 2e-3, 1e-2], 20000)
                                  * rng.uniform(0.5, 1.5, 20000)):
        new, old = ReferenceModel(w, z), ReferenceModel(w, z)
        new.y = old.y = float(y)
        new.y_dot = old.y_dot = float(yd)
        got = reference_model_step(new, float(r), float(dt))
        want = _reference_model_oracle(old, float(r), float(dt))
        assert [v.hex() for v in (got, new.y, new.y_dot)] == \
            [v.hex() for v in (want, old.y, old.y_dot)]


def test_reference_model_validation():
    with pytest.raises(ValueError):
        ReferenceModel(0.0, 0.9)
    with pytest.raises(ValueError):
        ReferenceModel(1.0, -0.1)


# ---------------- MIT rule ----------------

UNIT_THETA = (1.0, 1.0, 1.0, 1.0)


def test_mit_rule_zero_rates_freeze_parameters():
    p = AdaptiveParams(gamma_p=0.0, gamma_i=0.0, gamma_d=0.0, gamma_prime=0.0)
    assert mit_rule_update(UNIT_THETA, p, 0.5, 2.0, 1.5, 0.01, 100.0) == (UNIT_THETA, [])


def test_mit_rule_zero_model_error_freezes_parameters():
    p = AdaptiveParams()
    q, clamped = mit_rule_update(UNIT_THETA, p, 0.0, 2.0, 1.5, 0.01, 100.0)
    assert q == (1.0, 1.0, 1.0, 1.0) and clamped == []


def test_mit_rule_gradient_arithmetic():
    p = AdaptiveParams(gamma_p=1.0, gamma_i=0.0, gamma_d=0.0, gamma_prime=0.0)
    (t1, t2, t3, tp), _ = mit_rule_update(UNIT_THETA, p, 0.5, 2.0, 0.0, 0.01, 100.0)
    assert t1 == pytest.approx(1.0 - 0.01, abs=1e-15)
    assert t2 == 1.0 and t3 == 1.0 and tp == 1.0


def test_mit_rule_uses_filtered_output_for_theta_prime():
    p = AdaptiveParams(gamma_p=0.0, gamma_i=0.0, gamma_d=0.0, gamma_prime=2.0)
    (_, _, _, tp), _ = mit_rule_update(UNIT_THETA, p, 0.5, 2.0, 1.5, 0.01, 100.0)
    assert tp == pytest.approx(1.0 - 2.0 * 0.5 * 1.5 * 0.01, abs=1e-15)


def test_mit_rule_safety_box_clamps():
    p = AdaptiveParams(theta1=99.999, gamma_p=1000.0)
    theta = (p.theta1, p.theta2, p.theta3, p.theta_prime)
    q, clamped = mit_rule_update(theta, p, -1.0, 1.0, 1.0, 1.0, 100.0)
    assert q[0] == 100.0
    assert clamped == ["theta1"]


def _mit_rule_oracle(theta, params, e_model, y, y_model_filtered, dt_s, bound):
    """The generator form mit_rule_update replaced, kept as its reference."""
    t1, t2, t3, tp = theta
    step = e_model * y * dt_s
    raw = (t1 - params.gamma_p * step,
           t2 - params.gamma_i * step,
           t3 - params.gamma_d * step,
           tp - params.gamma_prime * e_model * y_model_filtered * dt_s)
    boxed = tuple(min(max(v, -bound), bound) for v in raw)
    return boxed, [name for name, v, b in zip(
        ("theta1", "theta2", "theta3", "theta_prime"), raw, boxed) if v != b]


def _mit_rule_cases():
    rng = np.random.default_rng(11)
    p = AdaptiveParams(gamma_p=0.3, gamma_i=0.02, gamma_d=1.5, gamma_prime=0.7)
    b = 2.0
    # on the box edges (no step), outside them, and NaN in each input
    yield (b, -b, 0.5, -b), p, 0.0, 1.0, 1.0, 0.01, b
    yield (-b, b, -0.0, b), p, 0.0, 1.0, 1.0, 0.01, b
    yield (3.0, -3.0, 0.0, 1.0), p, 0.0, 1.0, 1.0, 0.01, b
    yield (1.9, 0.0, -1.9, 0.0), p, 50.0, 1.0, -1.0, 0.1, b
    for i in range(4):
        yield UNIT_THETA[:i] + (math.nan,) + UNIT_THETA[i + 1:], p, 0.1, 1.0, 1.0, 0.01, b
    yield UNIT_THETA, p, math.nan, 1.0, 1.0, 0.01, b
    yield UNIT_THETA, p, 0.1, 1.0, math.nan, 0.01, b
    yield (1.0, 1.0, 1.0, math.inf), p, 0.1, 1.0, 1.0, 0.01, b
    for row in rng.uniform(-1.0, 1.0, (20000, 8)) * [2.5, 2.5, 2.5, 2.5, 5.0, 5.0, 5.0, 0.05]:
        yield tuple(row[:4].tolist()), p, *row[4:].tolist(), b


def test_mit_rule_matches_the_generator_form_bit_for_bit():
    clipped = 0
    for args in _mit_rule_cases():
        got, got_names = mit_rule_update(*args)
        want, want_names = _mit_rule_oracle(*args)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert got_names == want_names
        clipped += bool(want_names)
    assert clipped >= 100  # the random draws cross the box too


def test_adaptive_params_reject_negative_rates():
    with pytest.raises(ValueError):
        AdaptiveParams(gamma_p=-0.01)


# ---------------- lambda signals ----------------

def test_lambda_signals_examples():
    assert lambda_signals((1.0, 1.0, 1.0, 0.0), 0.3, 5.0) == pytest.approx((0.3, 0.3, 0.3))
    assert lambda_signals((1.0, 1.0, 1.0, 1.0), 0.0, 0.2) == pytest.approx((-0.2, -0.2, -0.2))
    assert lambda_signals((2.0, 0.0, 1.0, 1.0), 1.0, 0.5) == pytest.approx((1.5, -0.5, 0.5))


# ---------------- channel structure ----------------

def test_channel_zero_history_zero_output():
    ch = _cart_channel()
    for _ in range(50):
        assert ch.step(0.0, 0.0, 0.0, 1e-3) == 0.0


def _reduction_reference(kp, ki, kd, cp, ci, cd, fsys, lam_seq, e_seq, edot_seq, tau, dt):
    # independent restatement of the adaptation-off pipeline arithmetic
    out = []
    i_lam = 0.0
    fd = 0.0
    lam_prev = lam_seq[0]
    i_e = 0.0
    e_prev = e_seq[0]
    for k, (lam, e, edot) in enumerate(zip(lam_seq, e_seq, edot_seq)):
        i_lam += dt * (lam + lam_prev) / 2.0
        raw = (lam - lam_prev) / dt
        fd += dt / (tau + dt) * (raw - fd)
        lam_prev = lam
        uf = fuzzy_infer(fsys, kp * lam + ki * i_lam, kd * fd)
        i_e += dt * (e + e_prev) / 2.0
        e_prev = e
        out.append(uf + cp * e + ci * i_e + cd * edot)
    return out


@pytest.mark.parametrize("theta_prime", [0.0, 1.0])
def test_adaptation_off_structural_reduction(theta_prime):
    # gamma = 0, theta = (1,1,1): lambda is r (theta'=0) or the error e (theta'=1)
    fsys = FuzzySystem(output_scale=5.0)
    ch = HybridChannel(
        channel_gains=PidGains(1.1, 0.4, 0.7, 0.01),
        crisp_gains=PidGains(2.0, 0.3, 0.5, 0.01),
        fuzzy_system=fsys,
        adaptive=AdaptiveParams(theta_prime=theta_prime, gamma_p=0.0, gamma_i=0.0,
                                gamma_d=0.0, gamma_prime=0.0),
    )
    dt = 0.01
    rs = [0.3] * 40
    ys = [0.02 * k * math.sin(0.4 * k) for k in range(40)]
    edots = [0.1 * math.cos(0.3 * k) for k in range(40)]
    es = [r - y for r, y in zip(rs, ys)]
    lams = rs if theta_prime == 0.0 else es
    want = _reduction_reference(1.1, 0.4, 0.7, 2.0, 0.3, 0.5, fsys, lams, es, edots, 0.01, dt)
    got = [ch.step(r, y, ed, dt) for r, y, ed in zip(rs, ys, edots)]
    assert got == pytest.approx(want, abs=1e-12)


def _hot_channel():
    """Runaway adaptation rates in a +-2 box: clamps from the first step."""
    return HybridChannel(
        channel_gains=PidGains(1.0, 0.0, 0.0, 0.01),
        crisp_gains=PidGains(0.0, 0.0, 0.0, 0.01),
        fuzzy_system=FuzzySystem(),
        adaptive=AdaptiveParams(gamma_p=1e7, gamma_i=1e7, gamma_d=1e7, gamma_prime=1e7),
        safety_bound=2.0,
    )


def test_channel_clamp_logging():
    ch = _hot_channel()
    for k in range(200):
        ch.step(1.0, -1.0, 0.0, 1e-2)
    assert len(ch.clamp_events) == 791
    assert len(set(ch.clamp_events)) == len(ch.clamp_events)
    assert ch.clamp_events[:3] == [(0, "theta1"), (0, "theta2"), (0, "theta3")]
    assert all(abs(v) <= 2.0 for v in ch.theta)


def test_channel_no_clamp_events_at_default_rates():
    ch = _cart_channel()
    for k in range(2000):
        ch.step(1.0, 0.4 * math.sin(0.01 * k), 0.0, 1e-3)
    assert ch.clamp_events == []


def test_channel_reset():
    ch = _cart_channel()
    u0 = ch.step(1.0, 0.0, 0.0, 1e-3)
    for _ in range(100):
        ch.step(1.0, 0.3, -0.1, 1e-3)
    ch.reset()
    assert ch.step(1.0, 0.0, 0.0, 1e-3) == u0
    assert ch.clamp_events == []


class _ChannelOracle(HybridChannel):
    """The attribute-per-update step HybridChannel.step replaced, kept as its reference."""

    def step(self, r, y, edot, dt_s):
        y_model = reference_model_step(self._model, r, dt_s)
        e_model = y - y_model
        y_model_filtered = reference_model_step(self._model_filter, y_model, dt_s)

        self.theta, clamped = mit_rule_update(self.theta, self._adaptive, e_model, y,
                                              y_model_filtered, dt_s, self.safety_bound)
        for name in clamped:
            self.clamp_events.append((self._steps, name))

        lam1, lam2, lam3 = lambda_signals(self.theta, r, y)
        if self._first:
            self._lambda2_prev = lam2
            self._lambda3_prev = lam3
        self._lambda_integral += dt_s * (lam2 + self._lambda2_prev) / 2.0
        self._lambda2_prev = lam2
        raw_rate = 0.0 if self._first else (lam3 - self._lambda3_prev) / dt_s
        self._lambda3_prev = lam3
        tau = self.channel_gains.filter_tau_s
        self._derivative_filter += dt_s / (tau + dt_s) * (raw_rate - self._derivative_filter)

        g = self.channel_gains
        pi_input = g.kp * lam1 + g.ki * self._lambda_integral
        d_input = g.kd * self._derivative_filter
        u_fuzzy = fuzzy_infer(self.fuzzy_system, pi_input, d_input)

        e = r - y
        if self._first:
            self._error_prev = e
            self._first = False
        self._error_integral += dt_s * (e + self._error_prev) / 2.0
        self._error_prev = e

        c = self.crisp_gains
        self._steps += 1
        return u_fuzzy + c.kp * e + c.ki * self._error_integral + c.kd * edot


def test_channel_step_matches_the_reference_body_bit_for_bit():
    rng = np.random.default_rng(23)
    fast = AdaptiveParams(theta_prime=0.4, gamma_p=300.0, gamma_i=20.0, gamma_d=900.0,
                          gamma_prime=50.0)
    cases = [  # gains, crisp gains, fuzzy scales, adaptation, safety bound, dt
        (PidGains(1.5, 0.0, 1.4, 0.01), PidGains(1.2, 0.0, 0.3, 0.01), (1.0, 1.0, 12.0),
         AdaptiveParams(), 100.0, 1e-3),
        (PidGains(5.0, 0.7, 1.0, 0.0), PidGains(40.0, 3.0, 4.0, 0.01), (2.0, 0.5, 8.0),
         AdaptiveParams(theta1=0.5, theta3=-2.0, theta_prime=0.0, gamma_d=0.3), 100.0, 1e-2),
        (PidGains(1.0, 0.4, 0.8, 0.05), PidGains(0.5, 0.2, 0.1, 0.0), (1.0, 1.0, 6.0),
         fast, 2.0, 1e-2),  # clips on most steps
    ]
    steps = 0
    clipped = 0
    for gains, crisp, (s1, s2, s3), adaptive, bound, dt in cases:
        fuzzy = FuzzySystem(input1_scale=s1, input2_scale=s2, output_scale=s3)
        args = (gains, crisp, fuzzy, adaptive, bound)
        ch, oracle = HybridChannel(*args), _ChannelOracle(*args)
        for run in range(4):  # a fresh channel, then resets: each primes its histories
            if run:
                ch.reset()
                oracle.reset()
            draws = rng.standard_normal((2000, 3)) * rng.uniform(0.01, 3.0, 3)
            for r, y, edot in draws.tolist():
                assert ch.step(r, y, edot, dt).hex() == oracle.step(r, y, edot, dt).hex()
            assert [v.hex() for v in ch.theta] == [v.hex() for v in oracle.theta]
            assert ch.clamp_events == oracle.clamp_events
            steps += len(draws)
            clipped += len(ch.clamp_events)
    assert steps >= 20000
    assert clipped >= 100


# ---------------- loop compositions ----------------

def test_simultaneous_equilibrium_zero_output():
    ctrl = SimultaneousLoop(_angle_channel(), _position_channel())
    for _ in range(20):
        assert ctrl.step(0.0, State(0.0, 0.0, 0.0, 0.0), 1e-3) == 0.0


def test_simultaneous_stabilizes_small_tilt():
    ctrl = SimultaneousLoop(_angle_channel(), _position_channel())
    cfg = SimConfig(dt_s=1e-3, duration_s=15.0, reference=ReferenceSpec(0.0, 0.0))
    traj = run_closed_loop(P, ctrl, cfg, initial_state=State(0.05, 0.0, 0.0, 0.0))
    assert abs(traj.states[-1, 0]) < 5e-3
    assert abs(traj.states[-1, 2]) < 0.05
    assert np.max(np.abs(traj.states[-1000:, 0])) < 5e-3


def test_simultaneous_step_keeps_pendulum_tight():
    ctrl = SimultaneousLoop(_angle_channel(), _position_channel())
    cfg = SimConfig(dt_s=1e-3, duration_s=15.0, reference=ReferenceSpec(0.3, 0.0))
    traj = run_closed_loop(P, ctrl, cfg)
    th = np.abs(traj.states[:, 0])
    # pendulum excursion returns below 0.01 rad within 10 s and stays there
    over = np.nonzero(th > 0.01)[0]
    t_back = 0.0 if len(over) == 0 else traj.times_s[over[-1] + 1]
    assert t_back < 10.0
    assert abs(traj.states[-1, 2] - 0.3) < 0.01


def test_position_topology_reaches_cart_reference():
    ctrl = CascadeLoop(_cart_channel())
    cfg = SimConfig(dt_s=1e-3, duration_s=10.0, reference=ReferenceSpec(1.0, 0.0))
    traj = run_closed_loop(P, ctrl, cfg, initial_state=State(math.pi, 0.0, 0.0, 0.0))
    assert abs(traj.states[-1, 2] - 1.0) < 0.02


def test_compositions_report_the_clamps_of_every_channel_in_order():
    pair = SimultaneousLoop(_hot_channel(), _hot_channel())
    cascade = CascadeLoop(_hot_channel(), PidChannel(PidGains(8.0, 2.0, 0.0)))
    for _ in range(50):
        pair.step(1.0, State(0.5, 0.0, -1.0, 0.0), 1e-2)
        cascade.step(1.0, State(0.0, 0.0, -1.0, 0.0), 1e-2)
    assert pair.angle.clamp_events and pair.position.clamp_events
    assert pair.clamp_events == pair.angle.clamp_events + pair.position.clamp_events
    assert cascade.outer.clamp_events
    assert cascade.clamp_events == cascade.outer.clamp_events
