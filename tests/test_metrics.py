"""Step-response metric oracles: settling band, overshoot, steady-state error."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cartpend.metrics import (
    REPORT_CSV_HEADER,
    Metrics,
    compute_metrics,
    overshoot_pct,
    report_csv_row,
    report_text,
    score_trajectory,
    settling_time,
    steady_state_error,
)


def _first_order(tau=1.0, dt=1e-3, t_end=10.0):
    t = np.arange(0.0, t_end + dt / 2, dt)
    return t, 1.0 - np.exp(-t / tau)


def _under_damped(zeta, wn=2.0, dt=1e-3, t_end=30.0):
    t = np.arange(0.0, t_end + dt / 2, dt)
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    phi = math.acos(zeta)
    y = 1.0 - np.exp(-zeta * wn * t) * np.sin(wd * t + phi) / math.sin(phi)
    return t, y


def test_settling_constant_signal_is_zero():
    t = np.arange(0.0, 1.0, 1e-3)
    assert settling_time(t, np.full_like(t, 0.3), 0.3) == 0.0


def test_settling_first_order_oracle():
    t, y = _first_order()
    s = settling_time(t, y, 1.0, band_fraction=0.02)
    assert abs(s - (-math.log(0.02))) <= 1e-3  # one sample period


def test_settling_diverging_ramp_not_settled():
    t = np.arange(0.0, 5.0, 1e-3)
    assert settling_time(t, 2.0 * t, 1.0) == math.inf


def test_settling_zero_reference_uses_absolute_band():
    t = np.arange(0.0, 10.0, 1e-3)
    y = 0.5 * np.exp(-t)
    s = settling_time(t, y, 0.0, band_fraction=0.02)
    # |y| <= 0.02 after t = ln(25)
    assert abs(s - math.log(25.0)) <= 1e-3


@given(b1=st.floats(0.01, 0.2), b2=st.floats(0.01, 0.2))
def test_settling_band_monotonicity(b1, b2):
    t, y = _under_damped(0.3)
    lo, hi = min(b1, b2), max(b1, b2)
    assert settling_time(t, y, 1.0, hi) <= settling_time(t, y, 1.0, lo)


def test_overshoot_monotone_response_is_zero():
    t, y = _first_order()
    assert overshoot_pct(y, 1.0) == 0.0


@pytest.mark.parametrize("zeta", [0.2, 0.5, 0.7])
def test_overshoot_second_order_oracle(zeta):
    _, y = _under_damped(zeta)
    want = 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    assert abs(overshoot_pct(y, 1.0) - want) <= 0.1


def test_overshoot_negative_reference():
    _, y = _under_damped(0.5)
    want = overshoot_pct(y, 1.0)
    assert overshoot_pct(-y, -1.0) == pytest.approx(want, abs=1e-12)


@given(c=st.floats(0.1, 10.0))
def test_overshoot_scale_invariance(c):
    _, y = _under_damped(0.4)
    assert overshoot_pct(c * y, c * 1.0) == pytest.approx(overshoot_pct(y, 1.0), rel=1e-9)


def test_overshoot_zero_reference_regulation():
    t = np.arange(0.0, 10.0, 1e-3)
    decay = 0.05 * np.exp(-t)  # monotone decay: no overshoot
    assert overshoot_pct(decay, 0.0) == 0.0
    swing = 0.05 * np.exp(-t) * np.cos(3.0 * t)
    assert overshoot_pct(swing, 0.0) == 0.0  # never exceeds the initial excursion
    whip = np.concatenate([decay[:100], -0.08 * np.exp(-t[:500])[::-1]])
    assert overshoot_pct(whip, 0.0) > 0.0
    assert overshoot_pct(np.zeros(10), 0.0) == 0.0


def test_sse_perfect_tracker():
    y = np.full(1000, 0.3)
    assert steady_state_error(y, 0.3) == 0.0


def test_sse_constant_offset():
    y = np.full(1000, 1.0 - 0.0319)
    assert steady_state_error(y, 1.0) == pytest.approx(0.0319, abs=1e-12)


@given(c=st.floats(-2.0, 2.0))
def test_sse_shift_property(c):
    _, y = _under_damped(0.5)
    base = steady_state_error(y, 1.0)
    assert steady_state_error(y + c, 1.0) == pytest.approx(base - c, abs=1e-9)


def test_sse_noise_averaging_bound():
    rng = np.random.RandomState(0)
    y = 1.0 + 0.01 * (2.0 * rng.rand(10000) - 1.0)
    assert abs(steady_state_error(y, 1.0)) <= 0.01


def test_compute_metrics_record():
    t, y = _first_order()
    m = compute_metrics(t, y, 1.0)
    assert isinstance(m, Metrics)
    assert m.settled
    assert m.settling_time_s <= t[-1]
    assert m.overshoot_pct == 0.0


def test_report_rows_text_and_csv():
    from cartpend.sim import Trajectory

    def fake_traj(settle_frac, ref=1.0, t_end=20.0, dt=1e-2):
        t = np.arange(0.0, t_end + dt / 2, dt)
        tau = settle_frac / (-math.log(0.02))
        y = ref * (1.0 - np.exp(-t / tau))
        states = np.zeros((len(t), 4))
        states[:, 2] = y
        return Trajectory(times_s=t, states=states, inputs_N=np.zeros(len(t)),
                          references=np.full(len(t), ref))

    m = score_trajectory(fake_traj(6.18))
    text = report_text("cart-position", "hybrid", m)
    assert text == (f"scenario cart-position\n  hybrid: settling {m.settling_time_s:.4g} s, "
                    f"overshoot 0%, sse {m.steady_state_error:.4g}\n")
    assert REPORT_CSV_HEADER == "controller,scenario,settling_s,overshoot_pct,sse"
    row = report_csv_row("cart-position", "pid", score_trajectory(fake_traj(11.53)))
    assert row.startswith("pid,cart-position,") and row.endswith("\n")
    assert len(row.rstrip("\n").split(",")) == len(REPORT_CSV_HEADER.split(","))


def test_report_rows_single_and_not_settled():
    from cartpend.sim import Trajectory

    t = np.arange(0.0, 1.0, 1e-2)
    states = np.zeros((len(t), 4))
    states[:, 2] = 0.3
    traj = Trajectory(times_s=t, states=states, inputs_N=np.zeros(len(t)),
                      references=np.full(len(t), 0.3))
    assert report_csv_row("solo", "lqr", score_trajectory(traj)) == "lqr,solo,0,0,0\n"
    never = compute_metrics(t, np.zeros(len(t)), 0.3)
    assert "  lqr: settling not settled, " in report_text("solo", "lqr", never)
    assert report_csv_row("solo", "lqr", never).startswith("lqr,solo,inf,")
