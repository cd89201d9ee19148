"""Integrator order, determinism, disturbance, and fault-path tests."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cartpend.plant import PlantParams, State, linearize_at, mechanical_energy, nonlinear_derivative
from cartpend.rng import SplitMix64
from cartpend.sim import (
    CSV_HEADER,
    MAX_STEPS,
    DisturbanceSpec,
    ReferenceSpec,
    SimConfig,
    SimulationFault,
    Trajectory,
    make_derivative,
    rk4_step,
    run_closed_loop,
)

P = PlantParams()


def _csv_text(traj, tmp_path):
    """The text ``write_csv`` gives ``traj``, read back byte for byte."""
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    return path.read_bytes().decode("utf-8")


class _ZeroController:
    def step(self, reference, state, dt_s):
        return 0.0


class _NanController:
    def step(self, reference, state, dt_s):
        return math.nan


def test_rk4_zero_field():
    f = lambda s, u: State(0.0, 0.0, 0.0, 0.0)
    s = rk4_step(f, State(1.0, 2.0, 3.0, 4.0), 0.0, 0.1)
    assert s == State(1.0, 2.0, 3.0, 4.0)


def test_rk4_exponential_oracle():
    # ydot = y in component 0; 1000 steps of 1e-3 reach e within 1e-10
    f = lambda s, u: (s[0], 0.0, 0.0, 0.0)
    s = State(1.0, 0.0, 0.0, 0.0)
    for _ in range(1000):
        s = rk4_step(f, s, 0.0, 1e-3)
    assert abs(s.theta_rad - math.e) <= 1e-10


def _exp_error(dt):
    f = lambda s, u: (s[0], 0.0, 0.0, 0.0)
    s = State(1.0, 0.0, 0.0, 0.0)
    for _ in range(int(round(1.0 / dt))):
        s = rk4_step(f, s, 0.0, dt)
    return abs(s.theta_rad - math.e)


def test_rk4_order_exponential():
    e4, e2, e1 = _exp_error(4e-3), _exp_error(2e-3), _exp_error(1e-3)
    assert math.log2(e4 / e2) >= 3.9
    assert math.log2(e2 / e1) >= 3.9


def _pendulum_state_at(dt, t_end=1.0):
    f = make_derivative(P)
    s = State(2.0, 0.0, 0.0, 0.0)
    for _ in range(int(round(t_end / dt))):
        s = rk4_step(f, s, 0.0, dt)
    return np.asarray(s)


def test_rk4_order_unforced_pendulum():
    ref = _pendulum_state_at(1e-5)
    e4 = np.max(np.abs(_pendulum_state_at(4e-3) - ref))
    e2 = np.max(np.abs(_pendulum_state_at(2e-3) - ref))
    e1 = np.max(np.abs(_pendulum_state_at(1e-3) - ref))
    assert math.log2(e4 / e2) >= 3.9
    assert math.log2(e2 / e1) >= 3.9


def test_energy_drift_conservative_swing():
    cfg = SimConfig(dt_s=1e-3, duration_s=10.0, reference=ReferenceSpec(0.0, 0.0))
    traj = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(3.0, 0.0, 0.0, 0.0))
    e0 = mechanical_energy(P, State(*traj.states[0]))
    eT = mechanical_energy(P, State(*traj.states[-1]))
    assert abs(eT - e0) / abs(e0) < 1e-3


def test_zero_everything_stays_at_origin():
    cfg = SimConfig(dt_s=1e-3, duration_s=1.0, reference=ReferenceSpec(0.0, 0.0))
    traj = run_closed_loop(P, _ZeroController(), cfg)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.inputs_N == 0.0)


def test_determinism_identical_runs(tmp_path):
    cfg = SimConfig(
        dt_s=1e-3,
        duration_s=2.0,
        reference=ReferenceSpec(0.0, 0.0),
        disturbance=DisturbanceSpec("uniform_noise", 0.5, 0.0, 2.0),
        seed=77,
    )
    t1 = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(math.pi, 0, 0, 0))
    t2 = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(math.pi, 0, 0, 0))
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.inputs_N, t2.inputs_N)
    assert _csv_text(t1, tmp_path) == _csv_text(t2, tmp_path)


def test_seed_changes_disturbed_trajectory():
    base = dict(
        dt_s=1e-3,
        duration_s=1.0,
        reference=ReferenceSpec(0.0, 0.0),
        disturbance=DisturbanceSpec("uniform_noise", 0.5, 0.0, 1.0),
    )
    t1 = run_closed_loop(P, _ZeroController(), SimConfig(seed=1, **base),
                         initial_state=State(math.pi, 0, 0, 0))
    t2 = run_closed_loop(P, _ZeroController(), SimConfig(seed=2, **base),
                         initial_state=State(math.pi, 0, 0, 0))
    assert not np.array_equal(t1.inputs_N, t2.inputs_N)


def _disturbance_forces(spec, seed=1, duration_s=0.02):
    """The applied forces of a short run under a zero controller: the draws alone."""
    cfg = SimConfig(dt_s=1e-3, duration_s=duration_s, reference=ReferenceSpec(0.0, 0.0),
                    disturbance=spec, seed=seed)
    traj = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(math.pi, 0, 0, 0))
    return traj.inputs_N[:-1]


def test_disturbance_trivials():
    assert not _disturbance_forces(DisturbanceSpec("uniform_noise", 0.0, 0.0, 10.0)).any()
    assert not _disturbance_forces(DisturbanceSpec("none", 0.0, 0.0, 0.0)).any()
    # the window [0.005, 0.010] s is inclusive: steps 5..10 draw, the others do not
    forces = _disturbance_forces(DisturbanceSpec("uniform_noise", 2.0, 0.005, 0.010))
    drawn = np.flatnonzero(forces)
    assert drawn.tolist() == list(range(5, 11))


def test_disturbance_outside_window_preserves_rng_state():
    # steps before the window draw nothing, so the first step inside it takes
    # the generator's first draw, and each later step the next one
    spec = DisturbanceSpec("uniform_noise", 1.0, 0.005, 0.010)
    forces = _disturbance_forces(spec, seed=9)
    rng = SplitMix64(9)
    expected = [spec.amplitude_N * (2.0 * rng.uniform() - 1.0) for _ in range(6)]
    assert forces[5:11].tolist() == expected


def test_disturbance_bounds_and_mean():
    # the run's draw is amplitude * (2 u - 1) of the generator's uniform u
    # (pinned by the test above); here its range and mean over 1e6 draws
    amplitude = 0.5
    rng = SplitMix64(123)
    n = 1_000_000
    total = 0.0
    lo = hi = 0.0
    for _ in range(n):
        v = amplitude * (2.0 * rng.uniform() - 1.0)
        total += v
        lo = min(lo, v)
        hi = max(hi, v)
    assert -0.5 <= lo and hi <= 0.5
    assert abs(total / n) <= 0.01 * 0.5
    forces = _disturbance_forces(DisturbanceSpec("uniform_noise", amplitude, 0.0, 1e9),
                                 seed=123, duration_s=0.1)
    assert np.all(np.abs(forces) <= amplitude) and len(set(forces.tolist())) == len(forces)


def test_fault_carries_partial_trajectory():
    cfg = SimConfig(dt_s=1e-3, duration_s=1.0, reference=ReferenceSpec(0.0, 0.0))
    with pytest.raises(SimulationFault) as exc:
        run_closed_loop(P, _NanController(), cfg)
    err = exc.value
    assert err.step_index == 0
    assert err.what == "force non-finite"
    assert str(err) == "simulation diverged at step 0: force non-finite"
    assert len(err.trajectory.times_s) == 1
    assert np.all(np.isfinite(err.trajectory.states))
    # a force fault logs no force for its step
    assert err.trajectory.inputs_N[err.step_index] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_state_raises_before_the_controller_runs(bad):
    class Spy:
        calls = 0

        def step(self, reference, state, dt_s):
            Spy.calls += 1
            return 0.0

    cfg = SimConfig(dt_s=1e-3, duration_s=0.01, reference=ReferenceSpec(0.0, 0.0))
    with pytest.raises(ValueError, match="initial state"):
        run_closed_loop(P, Spy(), cfg, initial_state=State(0.0, 0.0, bad, 0.0))
    assert Spy.calls == 0


def test_finite_overflowing_force_faults_at_its_step():
    # 1e300 N is finite, so it passes the force check; a stage state overflows
    # inside the RK4 step, whose math.sin raises, and the fault names step 5
    class Kick:
        k = 0

        def step(self, reference, state, dt_s):
            Kick.k += 1
            return 1e300 if Kick.k == 6 else 0.0

    cfg = SimConfig(dt_s=1e-3, duration_s=0.05, reference=ReferenceSpec(0.0, 0.0))
    with pytest.raises(SimulationFault) as exc:
        run_closed_loop(P, Kick(), cfg, initial_state=State(0.1, 0.0, 0.0, 0.0))
    err = exc.value
    assert err.step_index == 5
    assert err.what == "RK4 step raised ValueError: math domain error"
    assert str(err).endswith(": " + err.what)
    assert err.trajectory.states.shape == (6, 4)
    assert np.all(np.isfinite(err.trajectory.states))
    assert err.trajectory.inputs_N[5] == 1e300
    clean = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(0.1, 0.0, 0.0, 0.0))
    assert err.trajectory.states.tobytes() == clean.states[:6].tobytes()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fault_names_the_first_non_finite_state_entry(monkeypatch, bad):
    # a field whose rates turn non-finite from step 3 on, in one entry or from
    # one entry onwards: the post-step check names the first, as the CSV does
    import cartpend.sim

    for first, name in enumerate(CSV_HEADER.split(",")[1:5]):
        def field(state, u, first=first):
            return tuple(bad if i >= first and u else 0.0 for i in range(4))

        monkeypatch.setattr(cartpend.sim, "make_derivative", lambda params: field)
        kick = iter([0.0] * 3 + [1.0] * 10)

        class Late:
            def step(self, reference, state, dt_s):
                return next(kick)

        cfg = SimConfig(dt_s=1e-3, duration_s=0.01, reference=ReferenceSpec(0.0, 0.0))
        with pytest.raises(SimulationFault) as exc:
            run_closed_loop(P, Late(), cfg)
        assert (exc.value.step_index, exc.value.what) == (3, f"{name} non-finite")
        assert np.all(np.isfinite(exc.value.trajectory.states))


def test_finite_state_whose_sum_overflows_does_not_fault():
    # theta + x overflows to inf, yet each value is finite: the run goes on
    cfg = SimConfig(dt_s=1e-3, duration_s=0.003, reference=ReferenceSpec(0.0, 0.0))
    traj = run_closed_loop(P, _ZeroController(), cfg,
                           initial_state=State(1.7e308, 0.0, 1.7e308, 0.0))
    assert traj.states.shape == (4, 4)
    assert np.all(np.isfinite(traj.states))
    assert math.isinf(sum(traj.states[-1].tolist()))


def test_negative_zero_force_is_written_as_zero(tmp_path):
    class NegativeZero:
        def step(self, reference, state, dt_s):
            return -0.0

    cfg = SimConfig(dt_s=1e-3, duration_s=0.01, reference=ReferenceSpec(0.0, 0.0))
    rows = _csv_text(run_closed_loop(P, NegativeZero(), cfg), tmp_path).splitlines()[1:]
    assert [row.split(",")[5] for row in rows] == ["0"] * 11


def test_force_limit_clamps_inputs():
    class Big:
        def step(self, reference, state, dt_s):
            return 1e4

    cfg = SimConfig(dt_s=1e-3, duration_s=0.05, reference=ReferenceSpec(0.0, 0.0),
                    force_limit_N=5.0)
    traj = run_closed_loop(P, Big(), cfg, initial_state=State(math.pi, 0, 0, 0))
    assert np.max(np.abs(traj.inputs_N)) <= 5.0


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt_s=0.0, duration_s=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt_s=2.0, duration_s=1.0)
    with pytest.raises(ValueError):
        SimConfig(dt_s=3e-3, duration_s=1.0)  # not an integer step count
    with pytest.raises(ValueError):
        DisturbanceSpec("uniform_noise", -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        DisturbanceSpec("uniform_noise", 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        DisturbanceSpec("sinusoid", 1.0, 0.0, 1.0)
    for bounds in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="must be a number"):
            DisturbanceSpec("uniform_noise", 0.5, *bounds)


def test_trajectory_shape_and_times():
    cfg = SimConfig(dt_s=1e-3, duration_s=0.25, reference=ReferenceSpec(1.0, 0.1))
    traj = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(math.pi, 0, 0, 0))
    n = 250
    assert len(traj.times_s) == n + 1
    assert traj.states.shape == (n + 1, 4)
    assert np.allclose(np.diff(traj.times_s), 1e-3, rtol=0, atol=1e-12)
    # reference steps from 0 to 1 at t=0.1
    assert traj.references[0] == 0.0
    assert traj.references[-1] == 1.0
    k = np.searchsorted(traj.times_s, 0.1)
    assert np.all(traj.references[:k] == 0.0) and np.all(traj.references[k:] == 1.0)


def test_csv_header_and_round_trip(tmp_path):
    cfg = SimConfig(dt_s=1e-3, duration_s=0.05, reference=ReferenceSpec(0.3, 0.0),
                    disturbance=DisturbanceSpec("uniform_noise", 0.5, 0.0, 0.05))
    traj = run_closed_loop(P, _ZeroController(), cfg, initial_state=State(math.pi, 0, 0, 0))
    assert _csv_text(traj, tmp_path).splitlines()[0] == "t,theta,theta_dot,x,x_dot,u,ref"
    back = Trajectory.read_csv(tmp_path / "traj.csv")
    assert np.allclose(back.times_s, traj.times_s, rtol=1e-14, atol=1e-18)
    assert np.allclose(back.states, traj.states, rtol=1e-14, atol=1e-18)
    assert np.allclose(back.inputs_N, traj.inputs_N, rtol=1e-14, atol=1e-18)
    assert np.allclose(back.references, traj.references, rtol=1e-14, atol=1e-18)


def _csv_text_oracle(traj):
    """The per-value writer the bulk writer replaced, kept as its reference."""
    rows = [CSV_HEADER]
    for k in range(len(traj.times_s)):
        vals = (traj.times_s[k], *traj.states[k], traj.inputs_N[k], traj.references[k])
        rows.append(",".join(format(v, ".15g") for v in vals))
    return "\n".join(rows) + "\n"


def _csv_parse_oracle(text):
    """The per-value float() parser loadtxt replaced, kept as its reference."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _edge_trajectory():
    # more than one 4096-row chunk and not a multiple of it, with values
    # spanning the double range and the edge values in every column
    n = 2 * 4096 + 37
    rng = np.random.default_rng(5)
    table = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-300, 300, (n, 7))
    edges = [-0.0, 5e-324, 1e16, -1e-300]
    for i, row in enumerate((0, 4095, 4096, n - 1)):
        table[row] = np.roll(edges * 2, i)[:7]
    return Trajectory(times_s=table[:, 0], states=table[:, 1:5], inputs_N=table[:, 5],
                      references=table[:, 6])


def test_csv_writer_matches_the_per_value_oracle_byte_for_byte(runs, tmp_path):
    for traj in (_edge_trajectory(), runs("cart-position-lqr-disturbance")[0]):
        got = _csv_text(traj, tmp_path).splitlines()
        want = _csv_text_oracle(traj).splitlines()
        # report the first differing line, not a diff of megabytes of text
        wrong = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), None)
        assert wrong is None, (wrong, got[wrong], want[wrong])
        assert len(got) == len(want)
    # the temporary file was renamed onto the CSV
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


def test_csv_parser_matches_the_float_oracle_bit_for_bit(runs, tmp_path):
    for traj in (_edge_trajectory(), runs("cart-position-lqr-disturbance")[0]):
        text = _csv_text(traj, tmp_path)
        back = Trajectory.read_csv(tmp_path / "traj.csv")
        parsed = np.column_stack((back.times_s, back.states, back.inputs_N, back.references))
        want = _csv_parse_oracle(text)
        assert parsed.shape == want.shape
        same = parsed.tobytes() == want.tobytes()
        assert same, np.argwhere(parsed.view(np.uint64) != want.view(np.uint64))[:3]


def test_malformed_csv_raises_value_error_without_warning(malformed_csv, tmp_path):
    # the same bodies with \r\n line ends
    path = tmp_path / "bad.csv"
    path.write_text(malformed_csv, encoding="utf-8", newline="\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            Trajectory.read_csv(path)


def _columns(traj):
    return np.column_stack((traj.times_s, traj.states, traj.inputs_N, traj.references))


def test_read_csv_rejects_malformed_file_without_warning(malformed_csv, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(malformed_csv, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            Trajectory.read_csv(path)


_ROWS = ["0,0,0,0,0,0,0.3", "0.001,1e-3,-2,3.5,4,5,0.3", "0.002,1,2,3,4,-5e-300,0.3"]


@pytest.mark.parametrize("text", [
    CSV_HEADER + "\r\n" + "\r\n".join(_ROWS) + "\r\n",
    "\n\n" + CSV_HEADER + "\n" + "\n".join(_ROWS) + "\n",
    "  \n " + CSV_HEADER + "\n" + "\n".join(_ROWS) + "\n",
    CSV_HEADER + "\n" + _ROWS[0] + "\n\n" + "\n".join(_ROWS[1:]) + "\n",
    CSV_HEADER + "\n" + "\n".join(_ROWS),
    CSV_HEADER + "\n" + "\n".join(_ROWS) + "\n\n \n\t\n",
], ids=["crlf", "leading-blank-lines", "leading-whitespace", "blank-line-between-rows",
        "no-final-newline", "trailing-blank-lines"])
def test_both_parsers_accept_loose_layouts(text, tmp_path):
    # read_csv and the per-value oracle give the same bits
    plain = _csv_parse_oracle(CSV_HEADER + "\n" + "\n".join(_ROWS) + "\n")
    path = tmp_path / "layout.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _columns(Trajectory.read_csv(path)).tobytes() == plain.tobytes()


@pytest.mark.parametrize("text", [
    CSV_HEADER + "\n" + _ROWS[0] + "\n   \n" + _ROWS[1] + "\n",
    CSV_HEADER + "  \n" + _ROWS[0] + "\n",
    *(CSV_HEADER + "\n" + _ROWS[0] + sep + _ROWS[1] + "\n"
      for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")),
], ids=["whitespace-line-between-rows", "header-trailing-spaces", "vt-between-rows",
        "ff-between-rows", "fs-between-rows", "gs-between-rows", "rs-between-rows",
        "nel-between-rows", "line-separator-between-rows", "paragraph-separator-between-rows"])
def test_both_parsers_reject_bad_layouts(text, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            Trajectory.read_csv(path)


def test_csv_write_and_read_memory_is_bounded_by_a_chunk(tmp_path):
    # the traced peak while writing or parsing 100,001 rows, beyond the
    # arrays themselves, is a fraction of the file: neither path holds its text
    n = 100_001
    rng = np.random.default_rng(11)
    traj = Trajectory(times_s=np.arange(n) * 1e-3, states=rng.standard_normal((n, 4)),
                      inputs_N=rng.standard_normal(n), references=np.full(n, 0.3))
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        traj.write_csv(path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = Trajectory.read_csv(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert write_peak < 0.25 * size, write_peak / size
    arrays = 7 * n * np.dtype(np.float64).itemsize
    assert read_peak < 0.25 * size + arrays, (read_peak - arrays) / size
    assert _columns(back).shape == (n, 7)


def _rk4_oracle(f, state, u, dt_s):
    """The generator form rk4_step replaced, kept as its reference."""
    k1 = f(state, u)
    s2 = State(*(s + 0.5 * dt_s * k for s, k in zip(state, k1)))
    k2 = f(s2, u)
    s3 = State(*(s + 0.5 * dt_s * k for s, k in zip(state, k2)))
    k3 = f(s3, u)
    s4 = State(*(s + dt_s * k for s, k in zip(state, k3)))
    k4 = f(s4, u)
    return State(*(
        s + dt_s / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)))


def test_rk4_step_matches_the_generator_form_bit_for_bit():
    f = make_derivative(P)
    s = oracle = State(2.0, 0.5, 0.1, -0.2)
    for k in range(2000):
        u = 5.0 * math.sin(0.01 * k)
        s = rk4_step(f, s, u, 1e-3)
        oracle = _rk4_oracle(f, oracle, u, 1e-3)
        assert s == oracle


def test_lqr_step_tracking_smoke():
    # classic-controller integration: a 0.3 m step converges to within 5%
    from cartpend.classic import LqrWeights, lqr_synthesize

    ctrl = lqr_synthesize(linearize_at(P, 0.0), LqrWeights(), 2)
    cfg = SimConfig(dt_s=1e-3, duration_s=10.0, reference=ReferenceSpec(0.3, 0.0))
    traj = run_closed_loop(P, ctrl, cfg)
    assert abs(traj.states[-1, 2] - 0.3) <= 0.05 * 0.3


def test_linear_vs_nonlinear_small_step():
    # 0.01 m step under the same LQR: linear and nonlinear loops agree to 2% sup-norm
    from cartpend.classic import LqrWeights, lqr_synthesize

    ss = linearize_at(P, 0.0)
    ctrl = lqr_synthesize(ss, LqrWeights(), 2)
    dt, t_end, r = 1e-3, 5.0, 0.01
    n = int(round(t_end / dt))
    f_nl = make_derivative(P)
    a, b = ss.a, ss.b[:, 0]
    f_lin = lambda s, u: State(*(a @ np.asarray(s) + b * u))
    s_nl = s_lin = State(0.0, 0.0, 0.0, 0.0)
    worst = 0.0
    for _ in range(n):
        u_nl = ctrl.step(r, s_nl, dt)
        u_lin = ctrl.step(r, s_lin, dt)
        s_nl = rk4_step(f_nl, s_nl, u_nl, dt)
        s_lin = rk4_step(f_lin, s_lin, u_lin, dt)
        worst = max(worst, abs(s_nl.x_m - s_lin.x_m))
    assert worst <= 0.02 * r


def test_step_count_is_bounded():
    from cartpend.scenario import builtin_scenarios

    longest = max(s.sim.step_count for s in builtin_scenarios().values())
    assert longest == 120_000 <= MAX_STEPS
    assert SimConfig(dt_s=1e-3, duration_s=MAX_STEPS * 1e-3).step_count == MAX_STEPS
    for dt_s, duration_s in ((1e-300, 40.0), (1e-300, 1e308), (1e-3, 2.0 * MAX_STEPS * 1e-3)):
        with pytest.raises(ValueError, match="exceeds the bound"):
            SimConfig(dt_s=dt_s, duration_s=duration_s)
