"""Numbered acceptance checks, one printed PASS/FAIL line each.

Checks 1 and 6a-6d compare this implementation against the published study,
whose numbers live in ``cartpend.repro``. Checks 6a-6d are the rows of
``repro.CLAIMS``, judged on the session's runs as ``cartpend repro`` judges
them, and each test pins its row's bound. The published gain of check 1 cannot
hold for this plant, so the check asserts the claim behind it: the gain fails
Kalman's return-difference inequality |1 + K(jwI - A)^-1 B| >= 1, or leaves
the loop unstable, on every candidate linearization, so it is no LQR gain of
this plant for any weights. The check passes on an entrywise 2% match or on
that proof, and always requires |K_x| = sqrt(q_x / r) = 12.3828 (the one entry
the weights force), stable loops satisfying the inequality for every
synthesized gain, and synthesis under 1 s. README.md discusses each
divergence.
"""
import math
import time

import numpy as np

from cartpend.classic import (
    LqrWeights,
    PidGains,
    lqr_synthesize,
    solve_care,
)
from cartpend.fuzzy import FuzzySystem, fuzzify, fuzzy_infer
from cartpend.hybrid import HybridChannel
from cartpend.metrics import overshoot_pct, score_trajectory, settling_time, steady_state_error
from cartpend.plant import PlantParams, State, StateSpace, linearize_at, nonlinear_derivative
from cartpend import repro
from cartpend.scenario import builtin_scenarios, run_scenario
from cartpend.sim import make_derivative, rk4_step

P = PlantParams()

PUBLISHED_GAIN = np.array(repro.PUBLISHED_GAIN)

def _report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------- 1: published gain reproduction ----------------

_OMEGA = np.logspace(-3.0, 3.0, 2001)


def _max_pole(ss, k):
    return float(np.max(np.linalg.eigvals(ss.a - ss.b @ k[None, :]).real))


def _min_return_difference(ss, k):
    """min over _OMEGA of |1 + K (jwI - A)^-1 B| for the loop u = -K x."""
    n = ss.a.shape[0]
    resolvent = 1j * _OMEGA[:, None, None] * np.eye(n) - ss.a
    loop = np.linalg.solve(resolvent, np.broadcast_to(ss.b, (_OMEGA.size, n, 1)))[..., 0] @ k
    return float(np.min(np.abs(1.0 + loop)))


def _lqr_admissible(ss, k, slack):
    """Necessary for k to be an LQR gain of ss (Kalman 1964): for Q >= 0 and
    r > 0 the loop is stable and the return difference never drops below 1."""
    return _max_pole(ss, k) < 0.0 and _min_return_difference(ss, k) >= 1.0 - slack


def test_criterion_1_lqr_gain_matches_published(runs):
    w = LqrWeights()
    # sign-convention candidate: the state matrix as printed, with
    # negated angle coupling and an all-positive input column
    M, m, l, g = P.cart_mass_kg, P.bob_mass_kg, P.pendulum_length_m, P.gravity_ms2
    a_lit = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-(M + m) * g / (M * l), 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-m * g / M, 0.0, 0.0, 0.0],
    ])
    b_lit = np.array([[0.0], [1.0 / (M * l)], [0.0], [1.0 / M]])
    candidates = {
        "upright": linearize_at(P, 0.0),
        "hanging": linearize_at(P, math.pi),
        "printed": StateSpace(a=a_lit, b=b_lit, c=np.eye(4), d=np.zeros((4, 1))),
    }
    gains = {}
    elapsed = 0.0
    for name, ss in candidates.items():
        t0 = time.perf_counter()
        gains[name] = np.asarray(lqr_synthesize(ss, w, 2).k_gain)
        elapsed = max(elapsed, time.perf_counter() - t0)

    matches = any(
        np.all(np.abs(k - PUBLISHED_GAIN) <= 0.02 * np.abs(PUBLISHED_GAIN))
        for k in gains.values())
    # the published gain under either sign convention, u = -K x or u = +K x
    published_not_lqr = not any(
        _lqr_admissible(ss, sign * PUBLISHED_GAIN, 1e-6)
        for ss in candidates.values() for sign in (1.0, -1.0))
    kx_forced = all(abs(abs(k[2]) - PUBLISHED_GAIN[2]) <= 5e-5 for k in gains.values())
    synthesized_sound = all(
        _lqr_admissible(ss, gains[name], 1e-9) for name, ss in candidates.items())
    ok = (matches or published_not_lqr) and kx_forced and synthesized_sound and elapsed < 1.0

    published_notes = "; ".join(
        f"{name}: max pole {_max_pole(ss, PUBLISHED_GAIN):+.2f}, "
        f"min |1+L| {_min_return_difference(ss, PUBLISHED_GAIN):.3f}"
        for name, ss in candidates.items())
    synth_notes = "; ".join(f"{name} K={np.round(k, 4).tolist()}" for name, k in gains.items())
    _report("1", ok, (
        f"published K={PUBLISHED_GAIN.tolist()}; {synth_notes}; entrywise 2% match {matches}; "
        f"published K under u=-Kx ({published_notes}) is no LQR gain under either sign "
        f"{published_not_lqr}; |K_x| = published {PUBLISHED_GAIN[2]} on every design "
        f"{kx_forced}; synthesized loops stable with min |1+L| >= 1 {synthesized_sound}; "
        f"synthesis took {elapsed * 1e3:.1f} ms (<1 s)"
    ))


# ---------------- 2: Riccati solver accuracy ----------------

def _residual(ss, w, p):
    return np.linalg.norm(
        ss.a.T @ p + p @ ss.a - p @ ss.b @ (ss.b.T @ p) / w.r + w.q, "fro")


def test_criterion_2_care_residuals():
    worst = 0.0
    w4 = LqrWeights()
    for ss in (linearize_at(P, 0.0), linearize_at(P, math.pi)):
        p = solve_care(ss, w4)
        worst = max(worst, _residual(ss, w4, p))

    rng = np.random.RandomState(2024)
    solved = 0
    tried = 0
    while solved < 50 and tried < 500:
        tried += 1
        n = int(rng.randint(2, 7))
        ss = StateSpace(a=rng.randn(n, n), b=rng.randn(n, 1),
                        c=np.eye(n), d=np.zeros((n, 1)))
        w = LqrWeights(q=np.eye(n), r=float(rng.uniform(0.5, 2.0)))
        try:
            p = solve_care(ss, w)
        except ValueError:
            continue  # unstabilizable draw; a Riccati refusal fails the test
        worst = max(worst, _residual(ss, w, p))
        solved += 1

    # scalar closed form: p = r (a + sqrt(a^2 + b^2 q / r)) / b^2
    a, b, q, r = -0.7, 1.3, 2.0, 0.5
    ss1 = StateSpace(a=np.array([[a]]), b=np.array([[b]]),
                     c=np.eye(1), d=np.zeros((1, 1)))
    p1 = solve_care(ss1, LqrWeights(q=np.array([[q]]), r=r))[0, 0]
    p_exact = r * (a + math.sqrt(a * a + b * b * q / r)) / (b * b)
    scalar_err = abs(p1 - p_exact)

    ok = solved == 50 and worst <= 1e-8 and scalar_err <= 1e-10
    _report("2", ok, (
        f"{solved}/50 random stabilizable systems solved, worst residual {worst:.2e} "
        f"(<=1e-8), scalar closed-form error {scalar_err:.2e} (<=1e-10)"
    ))


# ---------------- 3: integrator order ----------------

def _exp_error(dt):
    f = lambda s, u: (s[0], 0.0, 0.0, 0.0)
    s = State(1.0, 0.0, 0.0, 0.0)
    for _ in range(int(round(1.0 / dt))):
        s = rk4_step(f, s, 0.0, dt)
    return abs(s.theta_rad - math.e)


def _pendulum_at(dt):
    f = make_derivative(P)
    s = State(2.0, 0.0, 0.0, 0.0)
    for _ in range(int(round(1.0 / dt))):
        s = rk4_step(f, s, 0.0, dt)
    return np.asarray(s)


def test_criterion_3_rk4_order():
    e4, e2, e1 = _exp_error(4e-3), _exp_error(2e-3), _exp_error(1e-3)
    p_exp = min(math.log2(e4 / e2), math.log2(e2 / e1))
    ref = _pendulum_at(1e-5)
    g4 = np.max(np.abs(_pendulum_at(4e-3) - ref))
    g2 = np.max(np.abs(_pendulum_at(2e-3) - ref))
    g1 = np.max(np.abs(_pendulum_at(1e-3) - ref))
    p_pend = min(math.log2(g4 / g2), math.log2(g2 / g1))
    ok = p_exp >= 3.9 and p_pend >= 3.9
    _report("3", ok, (
        f"observed order {p_exp:.2f} on the exponential field and {p_pend:.2f} "
        f"on the unforced pendulum (>=3.9)"
    ))


# ---------------- 4: linearization fidelity ----------------

def test_criterion_4_linearization():
    h = 1e-6
    worst_jac = 0.0
    for theta_e in (0.0, math.pi):
        ss = linearize_at(P, theta_e)
        base = [theta_e, 0.0, 0.0, 0.0]
        for j in range(4):
            hi, lo = list(base), list(base)
            hi[j] += h
            lo[j] -= h
            fp = nonlinear_derivative(P, State(*hi), 0.0)
            fm = nonlinear_derivative(P, State(*lo), 0.0)
            col = [(x - y) / (2 * h) for x, y in zip(fp, fm)]
            worst_jac = max(worst_jac, float(np.max(np.abs(np.asarray(col) - ss.a[:, j]))))

    ss = linearize_at(P, 0.0)
    ctrl = lqr_synthesize(ss, LqrWeights(), 2)
    dt, r = 1e-3, 0.01
    f_nl = make_derivative(P)
    a, b = ss.a, ss.b[:, 0]
    f_lin = lambda s, u: State(*(a @ np.asarray(s) + b * u))
    s_nl = s_lin = State(0.0, 0.0, 0.0, 0.0)
    worst_x = 0.0
    for _ in range(int(round(5.0 / dt))):
        s_nl = rk4_step(f_nl, s_nl, ctrl.step(r, s_nl, dt), dt)
        s_lin = rk4_step(f_lin, s_lin, ctrl.step(r, s_lin, dt), dt)
        worst_x = max(worst_x, abs(s_nl.x_m - s_lin.x_m))
    ok = worst_jac <= 1e-6 and worst_x <= 0.02 * r
    _report("4", ok, (
        f"Jacobian mismatch {worst_jac:.2e} (<=1e-6) at both equilibria; "
        f"linear vs nonlinear 0.01 m step diverges {worst_x / r * 100:.2f}% sup (<=2%)"
    ))


# ---------------- 5: fuzzy engine vs oracle ----------------

_PEAKS = [(k - 3) / 3.0 for k in range(7)]


def _oracle_membership(v, k):
    p = _PEAKS[k]
    if k == 0:
        return 1.0 if v <= p else max(0.0, 1.0 - 3.0 * (v - p))
    if k == 6:
        return 1.0 if v >= p else max(0.0, 1.0 - 3.0 * (p - v))
    return max(0.0, 1.0 - 3.0 * abs(v - p))


def _oracle_infer(in1, in2, s1, s2, out):
    v1, v2 = in1 * s1, in2 * s2
    num = den = 0.0
    for i in range(7):
        for j in range(7):
            w = min(_oracle_membership(v1, i), _oracle_membership(v2, j))
            z = _PEAKS[min(max(i + j - 3, 0), 6)]
            num += w * z
            den += w
    return out * num / den


def test_criterion_5_fuzzy_engine():
    import random

    sysd = FuzzySystem(input1_scale=0.9, input2_scale=1.4, output_scale=6.0)
    rnd = random.Random(2024)
    worst = 0.0
    worst_odd = 0.0
    for _ in range(1000):
        a = rnd.uniform(-2.5, 2.5)
        b = rnd.uniform(-2.5, 2.5)
        worst = max(worst, abs(fuzzy_infer(sysd, a, b) - _oracle_infer(a, b, 0.9, 1.4, 6.0)))
        worst_odd = max(worst_odd, abs(fuzzy_infer(sysd, a, b) + fuzzy_infer(sysd, -a, -b)))
    bound = 6.0 * max(abs(c) for c in sysd.output_centers)
    bounded = all(
        abs(fuzzy_infer(sysd, rnd.uniform(-40, 40), rnd.uniform(-40, 40))) <= bound + 1e-12
        for _ in range(500)
    )
    covered = True
    for i in range(201):
        v = -1.0 + 2.0 * i / 200
        _, w_lo, w_hi = fuzzify(sysd.input1_peaks, v)
        if w_lo + w_hi <= 0.0:
            covered = False
    ok = worst <= 1e-12 and worst_odd <= 1e-12 and bounded and covered
    _report("5", ok, (
        f"max |engine - oracle| {worst:.1e} over 1000 inputs (<=1e-12), odd-symmetry "
        f"defect {worst_odd:.1e}, outputs bounded by {bound:g}, unit grid fully covered"
    ))


# ---------------- 6: comparative scenario matrix ----------------

def _claim(runs, claim_id):
    """Report one row of ``repro.CLAIMS`` judged on the session's runs; return the row."""
    claim = repro.CLAIMS[claim_id]
    _report(claim_id, *claim.verdict(lambda name: repro.observe(runs(name)[0])))
    return claim


def test_criterion_6a_nominal_cart_settling_order(runs):
    assert _claim(runs, "6a").bound == (0.39, 0.69)  # hybrid/pid around the published 54%


def test_criterion_6b_disturbance_steady_state_error(runs):
    assert _claim(runs, "6b").bound == 1e-3


def test_criterion_6c_parameter_variation_degrades_lqr_most(runs):
    assert _claim(runs, "6c").bound == 1.1


def test_criterion_6d_simultaneous_stabilize_and_track(runs):
    assert _claim(runs, "6d").bound == (0.3, 0.01, 0.01)


# ---------------- 7: metric closed forms ----------------

def test_criterion_7_metric_closed_forms():
    dt = 1e-3
    t = np.arange(0.0, 10.0 + dt / 2, dt)
    y1 = 1.0 - np.exp(-t)
    e_settle = abs(settling_time(t, y1, 1.0) - (-math.log(0.02)))

    zeta, wn = 0.5, 2.0
    t2 = np.arange(0.0, 30.0 + dt / 2, dt)
    wd = wn * math.sqrt(1 - zeta * zeta)
    phi = math.acos(zeta)
    y2 = 1.0 - np.exp(-zeta * wn * t2) * np.sin(wd * t2 + phi) / math.sin(phi)
    want_os = 100.0 * math.exp(-math.pi * zeta / math.sqrt(1 - zeta * zeta))
    e_os = abs(overshoot_pct(y2, 1.0) - want_os)

    e_sse = abs(steady_state_error(np.full(1000, 1.0 - 0.0319), 1.0) - 0.0319)
    ok = e_settle <= 1e-3 and e_os <= 0.1 and e_sse <= 1e-12
    _report("7", ok, (
        f"settling error {e_settle:.1e}s vs -ln(0.02) (<=1e-3), overshoot error "
        f"{e_os:.2e}% vs exp closed form (<=0.1), sse error {e_sse:.1e} (exact)"
    ))


# ---------------- 8: reproducibility ----------------

def test_criterion_8_reproducibility(tmp_path):
    from cartpend.metrics import report_text

    cat = builtin_scenarios()
    s = cat["cart-position-lqr-disturbance"]

    t1, t2 = run_scenario(s), run_scenario(s)
    t1.write_csv(tmp_path / "1.csv")
    t2.write_csv(tmp_path / "2.csv")
    csv_same = (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
    r1 = report_text(s.name, "lqr", score_trajectory(t1))
    r2 = report_text(s.name, "lqr", score_trajectory(t2))
    ok = csv_same and r1 == r2
    _report("8", ok, (
        f"two fresh disturbed runs: csv byte-identical {csv_same}, report text identical "
        f"{r1 == r2} (fixed-seed integer generator, fixed float formatting)"
    ))


# ---------------- 9: adaptation sanity ----------------

def _reduction_reference(kp, ki, kd, cp, ci, cd, fsys, lam_seq, e_seq, edot_seq, tau, dt):
    out = []
    i_lam = 0.0
    fd = 0.0
    lam_prev = lam_seq[0]
    i_e = 0.0
    e_prev = e_seq[0]
    for lam, e, edot in zip(lam_seq, e_seq, edot_seq):
        i_lam += dt * (lam + lam_prev) / 2.0
        raw = (lam - lam_prev) / dt
        fd += dt / (tau + dt) * (raw - fd)
        lam_prev = lam
        uf = fuzzy_infer(fsys, kp * lam + ki * i_lam, kd * fd)
        i_e += dt * (e + e_prev) / 2.0
        e_prev = e
        out.append(uf + cp * e + ci * i_e + cd * edot)
    return out


def test_criterion_9_adaptation_reduction_and_safety(runs):
    fsys = FuzzySystem(output_scale=5.0)
    dt = 0.01
    rs = [0.3] * 40
    ys = [0.02 * k * math.sin(0.4 * k) for k in range(40)]
    edots = [0.1 * math.cos(0.3 * k) for k in range(40)]
    es = [r - y for r, y in zip(rs, ys)]
    worst_red = 0.0
    for theta_prime, lams in ((0.0, rs), (1.0, es)):
        ch = HybridChannel(
            channel_gains=PidGains(1.1, 0.4, 0.7, 0.01),
            crisp_gains=PidGains(2.0, 0.3, 0.5, 0.01),
            fuzzy_system=fsys,
            gamma=0.0,
            theta_prime=theta_prime,
        )
        want = _reduction_reference(1.1, 0.4, 0.7, 2.0, 0.3, 0.5, fsys, lams, es, edots,
                                    0.01, dt)
        got = [ch.step(r, y, ed, dt) for r, y, ed in zip(rs, ys, edots)]
        worst_red = max(worst_red, max(abs(a - b) for a, b in zip(got, want)))

    hot = HybridChannel(
        channel_gains=PidGains(1.0, 0.0, 0.0, 0.01),
        crisp_gains=PidGains(0.0, 0.0, 0.0, 0.01),
        fuzzy_system=FuzzySystem(),
        gamma=1e7,
        safety_bound=2.0,
    )
    for _ in range(200):
        hot.step(1.0, -1.0, 0.0, 1e-2)
    boxed = all(abs(v) <= 2.0 for v in hot.theta)
    logged = len(hot.clamp_events) > 0

    clean = []
    for name in ("cart-position-hybrid-nominal", "simultaneous-hybrid-nominal"):
        ctrl = runs(name)[1]
        clean.append(len(ctrl.clamp_events) == 0)

    ok = worst_red <= 1e-12 and boxed and logged and all(clean)
    _report("9", ok, (
        f"adaptation-off reduction max defect {worst_red:.1e} (<=1e-12, both output-term "
        f"conventions), runaway rates boxed to +/-2 with {len(hot.clamp_events)} logged "
        f"clamps, built-in hybrid runs clamp-free {all(clean)}"
    ))
