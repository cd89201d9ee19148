"""Reference model, MIT-rule adaptation, and hybrid channel structure tests."""
import math

import numpy as np
import pytest

from cartpend.classic import CascadeLoop, PidChannel, PidGains, SimultaneousLoop
from cartpend.fuzzy import FuzzySystem, fuzzy_infer
from cartpend.hybrid import HybridChannel, ReferenceModel, reference_model_step
from cartpend.plant import PlantParams, State
from cartpend.sim import ReferenceSpec, SimConfig, run_closed_loop

P = PlantParams()


def _angle_channel():
    return HybridChannel(
        channel_gains=PidGains(5.0, 0.0, 1.0, 0.01),
        crisp_gains=PidGains(40.0, 0.0, 4.0, 0.01),
        fuzzy_system=FuzzySystem(output_scale=8.0),
    )


def _position_channel():
    return HybridChannel(
        channel_gains=PidGains(3.5, 0.0, 3.0, 0.01),
        crisp_gains=PidGains(1.5, 0.0, 3.0, 0.01),
        fuzzy_system=FuzzySystem(output_scale=6.0),
    )


def _cart_channel(**adaptation):
    return HybridChannel(
        channel_gains=PidGains(1.5, 0.0, 1.4, 0.01),
        crisp_gains=PidGains(1.2, 0.0, 0.3, 0.01),
        fuzzy_system=FuzzySystem(output_scale=12.0),
        **adaptation,
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

def test_mit_rule_zero_rates_freeze_parameters():
    ch = _cart_channel(gamma=0.0)
    for _ in range(100):
        ch.step(0.5, 2.0, 0.0, 0.01)
    assert ch.theta == (1.0, 1.0) and ch.clamp_events == []


def test_mit_rule_zero_model_error_freezes_parameters():
    # r = y = 0 keeps the reference model at 0, so the model error is 0
    ch = _cart_channel(gamma=1e6)
    for _ in range(100):
        ch.step(0.0, 0.0, 0.0, 0.01)
    assert ch.theta == (1.0, 1.0) and ch.clamp_events == []


def test_mit_rule_gradient_arithmetic():
    ch = _cart_channel(gamma=1.0)
    ch.step(1.0, 2.0, 0.0, 0.01)
    e_model = 2.0 - reference_model_step(ReferenceModel(1.0, 0.9), 1.0, 0.01)
    assert ch.theta[0] == pytest.approx(1.0 - e_model * 2.0 * 0.01, abs=1e-15)


def test_mit_rule_uses_filtered_output_for_theta_prime():
    ch = _cart_channel(gamma=2.0, theta_prime=0.5)
    model, model_filter = ReferenceModel(1.0, 0.9), ReferenceModel(1.0, 0.9)
    theta, theta_prime = 1.0, 0.5
    for k in range(300):
        y = 0.5 * math.sin(0.02 * k)
        ch.step(1.0, y, 0.0, 0.01)
        y_model = reference_model_step(model, 1.0, 0.01)
        y_model_filtered = reference_model_step(model_filter, y_model, 0.01)
        theta -= 2.0 * (y - y_model) * y * 0.01
        theta_prime -= 2.0 * (y - y_model) * y_model_filtered * 0.01
    assert ch.theta == pytest.approx((theta, theta_prime), abs=1e-12)
    # theta' moved along the filtered model output, not along y
    assert abs((ch.theta[1] - 0.5) - (ch.theta[0] - 1.0)) > 0.01


def test_mit_rule_safety_box_clamps():
    # the model error is 1 on the first step: theta runs to -99 and is boxed
    # to -1; theta' stays at 1 (the filtered model output is 0), on the box edge
    ch = _cart_channel(gamma=1e4, safety_bound=1.0)
    ch.step(0.0, 1.0, 0.0, 0.01)
    assert ch.theta == (-1.0, 1.0)
    assert ch.clamp_events == [(0, "theta")]
    # a NaN fails the box test too: it stays NaN and is logged
    ch = _cart_channel()
    ch.step(1.0, math.nan, 0.0, 0.01)
    assert all(math.isnan(v) for v in ch.theta)
    assert ch.clamp_events == [(0, "theta"), (0, "theta_prime")]


def test_channel_rejects_bad_adaptation_settings():
    for name, value in (("gamma", -0.01), ("gamma", math.nan), ("gamma", math.inf),
                        ("theta_prime", math.inf), ("theta_prime", math.nan)):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            _cart_channel(**{name: value})
    _cart_channel(gamma=0.0, theta_prime=-3.0)  # a zero rate and any finite theta' are fine


# ---------------- lambda signal ----------------

def test_lambda_signal_examples():
    # zero rate, proportional-only channel: the force is the fuzzy surface at lambda
    fsys = FuzzySystem()
    for theta_prime, r, y, lam in ((0.0, 0.3, 5.0, 0.3), (1.0, 0.0, 0.2, -0.2),
                                   (1.0, 1.0, 0.5, 0.5)):
        ch = HybridChannel(PidGains(1.0, 0.0, 0.0, 0.01), PidGains(0.0, 0.0, 0.0, 0.01),
                           fsys, gamma=0.0, theta_prime=theta_prime)
        assert ch.step(r, y, 0.0, 0.01) == fuzzy_infer(fsys, lam, 0.0) != 0.0


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
    # gamma = 0, theta = 1: lambda is r (theta'=0) or the error e (theta'=1)
    fsys = FuzzySystem(output_scale=5.0)
    ch = HybridChannel(
        channel_gains=PidGains(1.1, 0.4, 0.7, 0.01),
        crisp_gains=PidGains(2.0, 0.3, 0.5, 0.01),
        fuzzy_system=fsys,
        gamma=0.0,
        theta_prime=theta_prime,
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
        gamma=1e7,
        safety_bound=2.0,
    )


def test_channel_clamp_logging():
    ch = _hot_channel()
    for k in range(200):
        ch.step(1.0, -1.0, 0.0, 1e-2)
    assert len(ch.clamp_events) == 391
    assert len(set(ch.clamp_events)) == len(ch.clamp_events)
    assert sum(name == "theta" for _, name in ch.clamp_events) == 200
    assert ch.clamp_events[0] == (0, "theta")
    assert all(abs(v) <= 2.0 for v in ch.theta)


def test_channel_no_clamp_events_at_default_rates():
    ch = _cart_channel()
    for k in range(2000):
        ch.step(1.0, 0.4 * math.sin(0.01 * k), 0.0, 1e-3)
    assert ch.clamp_events == []


def _mit_rule_oracle(theta, rates, e_model, y, y_model_filtered, dt_s, bound):
    """The four-parameter generator-form MIT rule, kept as the channel's reference."""
    t1, t2, t3, tp = theta
    gamma_p, gamma_i, gamma_d, gamma_prime = rates
    step = e_model * y * dt_s
    raw = (t1 - gamma_p * step,
           t2 - gamma_i * step,
           t3 - gamma_d * step,
           tp - gamma_prime * e_model * y_model_filtered * dt_s)
    boxed = tuple(min(max(v, -bound), bound) for v in raw)
    return boxed, [name for name, v, b in zip(
        ("theta1", "theta2", "theta3", "theta_prime"), raw, boxed) if v != b]


class _ChannelOracle:
    """The four-parameter, three-lambda channel HybridChannel collapsed, kept as its
    reference: with equal theta1..3 starts and one rate it is the two-parameter law."""

    def __init__(self, channel_gains, crisp_gains, fuzzy_system, thetas, rates, safety_bound,
                 natural_frequency_rads=1.0, damping_ratio=0.9):
        self.channel_gains = channel_gains
        self.crisp_gains = crisp_gains
        self.fuzzy_system = fuzzy_system
        self.rates = rates
        self.safety_bound = safety_bound
        self.theta = thetas
        self.clamp_events = []
        self._model = ReferenceModel(natural_frequency_rads, damping_ratio)
        self._model_filter = ReferenceModel(natural_frequency_rads, damping_ratio)
        self._lambda_integral = 0.0
        self._lambda2_prev = 0.0
        self._lambda3_prev = 0.0
        self._derivative_filter = 0.0
        self._error_integral = 0.0
        self._error_prev = 0.0
        self._steps = 0
        self._first = True

    def step(self, r, y, edot, dt_s):
        y_model = reference_model_step(self._model, r, dt_s)
        e_model = y - y_model
        y_model_filtered = reference_model_step(self._model_filter, y_model, dt_s)

        self.theta, clamped = _mit_rule_oracle(self.theta, self.rates, e_model, y,
                                               y_model_filtered, dt_s, self.safety_bound)
        for name in clamped:
            self.clamp_events.append((self._steps, name))

        t1, t2, t3, tp = self.theta
        lam1, lam2, lam3 = t1 * r - tp * y, t2 * r - tp * y, t3 * r - tp * y
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


def _merged(events):
    """A four-parameter clamp log with each step's theta1..3 entries as one "theta"."""
    out = []
    for k, name in events:
        entry = (k, "theta_prime" if name == "theta_prime" else "theta")
        if out[-1:] != [entry]:
            out.append(entry)
    return out


def test_channel_step_matches_the_reference_body_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = [  # gains, crisp gains, fuzzy scales, gamma, theta', safety bound, dt
        (PidGains(1.5, 0.0, 1.4, 0.01), PidGains(1.2, 0.0, 0.3, 0.01), (1.0, 1.0, 12.0),
         0.001, 1.0, 100.0, 1e-3),
        (PidGains(5.0, 0.7, 1.0, 0.0), PidGains(40.0, 3.0, 4.0, 0.01), (2.0, 0.5, 8.0),
         0.3, 0.0, 100.0, 1e-2),
        (PidGains(1.0, 0.4, 0.8, 0.05), PidGains(0.5, 0.2, 0.1, 0.0), (1.0, 1.0, 6.0),
         300.0, 0.4, 2.0, 1e-2),  # clips on most steps
    ]
    steps = 0
    clipped = 0
    for gains, crisp, (s1, s2, s3), gamma, theta_prime, bound, dt in cases:
        fuzzy = FuzzySystem(input1_scale=s1, input2_scale=s2, output_scale=s3)
        for run in range(4):  # fresh channels each run: each primes its histories
            ch = HybridChannel(gains, crisp, fuzzy, gamma, theta_prime, bound)
            oracle = _ChannelOracle(gains, crisp, fuzzy, (1.0, 1.0, 1.0, theta_prime),
                                    (gamma,) * 4, bound)
            draws = rng.standard_normal((2000, 3)) * rng.uniform(0.01, 3.0, 3)
            for r, y, edot in draws.tolist():
                assert ch.step(r, y, edot, dt).hex() == oracle.step(r, y, edot, dt).hex()
            t1, t2, t3, tp = oracle.theta
            assert t1.hex() == t2.hex() == t3.hex()
            assert [v.hex() for v in ch.theta] == [t1.hex(), tp.hex()]
            # the oracle clips theta1..3 together, in that order, on the same steps
            thetas = [event for event in oracle.clamp_events if event[1] != "theta_prime"]
            assert thetas == [(k, f"theta{i}") for k, _ in thetas[::3] for i in (1, 2, 3)]
            assert ch.clamp_events == _merged(oracle.clamp_events)
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
