"""The benchmark's two workloads, their inputs and their output checks.

Every workload is closed loop with a single caller: the next operation
starts when the previous one returns. A workload object is built from the
benchmark seed (set-up), then runs whole passes of the same fixed list of
operations; each pass returns the time intervals of every operation, in
order, and ``check`` judges the outputs afterwards, outside every timed
region.

Why these workloads:

* ``study-matrix`` is the paper's 18-scenario study as users run it:
  ``cartpend run`` on all built-in configs, then ``analyze`` on each CSV.
  It is dominated by simulation and CSV formatting; CARE is under 1%.
  Its six disturbance scenarios draw from the generator on every step.
* ``care-design`` is LQR design: synthesis on both plant linearizations
  and CARE solves on random systems drawn as acceptance criterion 2 draws
  them. It runs no simulation, so it moves only with the Riccati solver.

Each workload exercises the mechanism the other bypasses: a faster
simulation loop moves the first and not the second, a faster Riccati
solver the second and not the first.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from cartpend import classic, cli, scenario
from cartpend.plant import PlantParams, StateSpace, linearize_at

SHIPPED_SEED = 12345
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The timed CARE panel is fixed so that every run times the same systems:
# per-seed panels of 150 draws spread 15-20% in median solve time between
# seeds, because single solves range from milliseconds to seconds. The
# benchmark seed draws further systems that are solved and checked untimed.
CARE_PANEL_SEED = 2024


@dataclasses.dataclass(frozen=True)
class Size:
    """Work per pass. ``smoke`` is a tiny size for the benchmark's self-tests."""

    name: str
    matrix_duration_s: float | None  # None keeps each built-in duration
    care_panel: int  # timed draws; with the two plant designs, 110 operations
    care_probes: int  # draws from the benchmark seed, solved and checked untimed


FULL = Size("full", None, 108, 20)
SMOKE = Size("smoke", 0.2, 6, 2)


@dataclasses.dataclass
class PassResult:
    wall_s: float
    # per operation, in the workload's fixed order: the perf_counter_ns
    # (start, end) intervals it ran in
    op_windows: list
    sim_steps: int


@dataclasses.dataclass
class Check:
    """Outcome of the output checks: operations attempted, failures listed.

    A failed operation is either a wrong output, which makes the run
    incorrect, or a refusal (divergence, an exception on a valid input),
    which counts as failed but returned nothing to judge.
    """

    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    wrong_outputs: int = 0
    notes: list = dataclasses.field(default_factory=list)

    def fail(self, what: str, refusal: bool = False) -> None:
        self.failures.append(("refused: " if refusal else "wrong: ") + what)
        if not refusal:
            self.wrong_outputs += 1


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one generated input, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def load_golden(size: Size) -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get(size.name, {})


# ------------------------------------------------ reference computations
# The benchmark's own formulas, written from the documented definitions,
# so that outputs are judged without calling the code under test.

def reference_metrics(times, x, reference: float) -> tuple:
    """(settling time, overshoot %, steady-state error) of a cart position."""
    band = 0.02 * abs(reference) if reference != 0.0 else 0.02
    outside = np.abs(x - reference) > band
    if outside[-1]:
        settling = math.inf
    elif not outside.any():
        settling = 0.0
    else:
        settling = float(times[int(np.flatnonzero(outside)[-1]) + 1])
    if reference > 0.0:
        overshoot = max(0.0, 100.0 * (float(np.max(x)) - reference) / reference)
    elif reference < 0.0:
        overshoot = max(0.0, 100.0 * (reference - float(np.min(x))) / -reference)
    else:
        base = abs(float(x[0]))
        overshoot = 0.0 if base == 0.0 else max(
            0.0, 100.0 * (float(np.max(np.abs(x))) - base) / base)
    tail = max(1, int(round(0.1 * x.size)))
    sse = float(np.mean(reference - x[-tail:]))
    return settling, overshoot, sse


ENERGY_TOL = 1e-9  # integrator error here is about 1e-13 of the energy scale


def energy_residual(plant: PlantParams, states, inputs) -> float:
    """|E(T) - E(0) - work| relative to the energy scale of the run.

    With the force held over each step, the work it does is exactly
    u_k (x_{k+1} - x_k), so only integrator error remains.
    """
    big_m, m = plant.cart_mass_kg, plant.bob_mass_kg
    length, g = plant.pendulum_length_m, plant.gravity_ms2
    th, thd, x, xd = states[:, 0], states[:, 1], states[:, 2], states[:, 3]
    energy = (0.5 * (big_m + m) * xd * xd - m * length * np.cos(th) * xd * thd
              + 0.5 * m * length * length * thd * thd + m * g * length * np.cos(th))
    work = inputs[:-1] * np.diff(x)
    scale = 1.0 + float(np.max(np.abs(energy))) + float(np.sum(np.abs(work)))
    return abs(float(energy[-1] - energy[0] - np.sum(work))) / scale


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def stabilizable(a: np.ndarray, b: np.ndarray) -> bool:
    """PBH test: rank [A - lambda I, b] = n for every closed-RHP eigenvalue."""
    n = a.shape[0]
    scale = max(1.0, float(np.linalg.norm(np.hstack([a, b]))))
    for lam in np.linalg.eigvals(a):
        if lam.real < 0.0:
            continue
        sv = np.linalg.svd(np.hstack([a - lam * np.eye(n), b]), compute_uv=False)
        if sv[-1] <= 1e-10 * scale:
            return False
    return True


def care_residual(a, b, q, r, p) -> float:
    return float(np.linalg.norm(a.T @ p + p @ a - (p @ b) @ (b.T @ p) / r + q, "fro"))


def _with_sim(s, seed: int, duration_s: float | None):
    sim = dataclasses.replace(s.sim, seed=seed)
    if duration_s is not None:
        sim = dataclasses.replace(
            sim, duration_s=duration_s,
            disturbance=dataclasses.replace(
                sim.disturbance, end_s=min(sim.disturbance.end_s, duration_s)))
    return dataclasses.replace(s, sim=sim)


# ------------------------------------------------ study-matrix

def _analyze_text(times, x, reference: float) -> str:
    settling, overshoot, sse = reference_metrics(times, x, reference)
    settle = f"{settling:.4g} s" if math.isfinite(settling) else "never (outside band)"
    return (f"reference {reference:.4g}\nsettling {settle}\n"
            f"overshoot {overshoot:.4g} %\nsteady-state error {sse:.4g}\n")


class StudyMatrix:
    """All 18 built-in scenarios through ``cartpend run``, then ``analyze`` each.

    The disturbance seed of every config is the benchmark seed, so the
    shipped seed reproduces the built-in matrix byte for byte.
    """

    name = "study-matrix"
    tracer = None  # set while traced; its op_id labels the spans of each operation

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.scenarios = {}
        config_dir = workdir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = workdir / "out"
        self.config_paths = []
        for name, s in scenario.builtin_scenarios().items():
            s = _with_sim(s, seed, size.matrix_duration_s)
            self.scenarios[name] = s
            path = config_dir / f"{name}.ini"
            path.write_text(scenario.serialize_scenario(s))
            self.config_paths.append(str(path))
        self.steps = sum(s.sim.step_count for s in self.scenarios.values())
        self._passes = []

    def run_pass(self) -> PassResult:
        """One study: ``cartpend run`` on every config, then ``analyze`` on each CSV.

        One operation is one scenario: its share of the run call, which ends
        when its CSV is written, plus its ``analyze`` call. The run call
        writes the CSVs in config order, so their modification times split
        it without touching the program; the last operation is writing the
        report. The operations' intervals add up to the pass's wall time.
        """
        sink = io.StringIO()
        analyzed = {}
        if self.tracer is not None:
            self.tracer.op_id = f"study-{len(self._passes)}"
        start = time.perf_counter_ns()
        wall_start = time.time_ns()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", *self.config_paths, "--out", str(self.out_dir)])
        end = time.perf_counter_ns()
        marks = [start]
        for name in self.scenarios:
            path = self.out_dir / f"{name}.csv"
            written = (path.stat().st_mtime_ns - wall_start + start if path.exists()
                       else marks[-1])
            marks.append(min(max(written, marks[-1]), end))
        marks.append(end)
        ops = [[(a, b)] for a, b in zip(marks, marks[1:])]
        for i, name in enumerate(self.scenarios):
            text = io.StringIO()
            begin = time.perf_counter_ns()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                arc = cli.main(["analyze", str(self.out_dir / f"{name}.csv")])
            ops[i].append((begin, time.perf_counter_ns()))
            analyzed[name] = (arc, text.getvalue())
        wall = (time.perf_counter_ns() - start) * 1e-9
        self._passes.append(self._snapshot(rc, analyzed))
        return PassResult(wall, ops, self.steps)

    def _shas(self) -> dict:
        shas = {}
        for name in [*self.scenarios, "report"]:
            path = self.out_dir / f"{name}.csv"
            shas[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                          if path.exists() else None)
        return shas

    def _snapshot(self, rc: int, analyzed: dict) -> dict:
        return {"rc": rc, "sha": self._shas(), "analyze": analyzed}

    def outputs(self) -> dict:
        """What the golden file records for this workload."""
        last = self._passes[-1]
        report = (self.out_dir / "report.csv").read_text().splitlines()[1:]
        return {"csv_sha256": {n: last["sha"][n] for n in self.scenarios},
                "report_sha256": last["sha"]["report"],
                "report_rows": {row.split(",")[1]: row for row in report},
                "analyze": {n: last["analyze"][n][1] for n in self.scenarios}}

    def check(self) -> Check:
        """Judge the outputs on disk, then hold every pass to them.

        One operation is one scenario's CSV with its analysis and report
        row, plus report.csv itself: 19 per pass.
        """
        golden = load_golden(self.size).get(self.name)
        names = [*self.scenarios, "report"]
        c = Check(attempted=len(names) * len(self._passes))
        if golden is None:
            c.notes.append("no golden outputs recorded for this size")
        shipped = self.seed == SHIPPED_SEED
        disk = self._shas()
        last = self._passes[-1]
        report_rows = {}
        bad = {}
        if disk["report"] is not None:
            header, *rows = (self.out_dir / "report.csv").read_text().splitlines()
            report_rows = {row.split(",")[1]: row for row in rows if "," in row}
            if header != "controller,scenario,settling_s,overshoot_pct,sse" or (
                    len(rows) != len(self.scenarios)):
                bad["report"] = "unexpected header or row count"
        for name, s in self.scenarios.items():
            problem = self._check_scenario(name, s, disk[name], last["analyze"][name],
                                           report_rows, golden, shipped)
            if problem:
                bad[name] = problem
        if disk["report"] is None:
            bad["report"] = "missing"
        elif "report" not in bad and golden and shipped and (
                disk["report"] != golden["report_sha256"]):
            bad["report"] = "SHA-256 differs from golden"
        for p, snap in enumerate(self._passes):
            for name in names:
                if snap["rc"] != 0:
                    c.fail(f"pass {p} {name}: cartpend run exited {snap['rc']}",
                           refusal=True)
                elif name in bad:
                    c.fail(f"pass {p} {name}: {bad[name]}")
                elif snap["sha"][name] != disk[name] or (
                        name != "report" and snap["analyze"][name] != last["analyze"][name]):
                    c.fail(f"pass {p} {name}: differs from the final outputs")
        return c

    def _check_scenario(self, name, s, sha, analyzed, report_rows, golden,
                        shipped) -> str:
        if sha is None:
            return "csv missing"
        seed_free = s.condition != "disturbance"
        rc, analyze_text = analyzed
        if rc != 0:
            return f"analyze exited {rc}"
        if golden and (seed_free or shipped):
            if sha != golden["csv_sha256"][name]:
                return "csv SHA-256 differs from golden"
            if analyze_text != golden["analyze"][name]:
                return "analyze output differs from golden"
            if report_rows.get(name) != golden["report_rows"][name]:
                return "report.csv row differs from golden"
            return ""
        # seed-dependent trajectory: judge it by physics and recomputed metrics
        try:
            data = np.loadtxt(self.out_dir / f"{name}.csv", delimiter=",", skiprows=1,
                              ndmin=2)
        except ValueError as exc:
            return f"csv unreadable: {exc}"
        if data.shape != (s.sim.step_count + 1, 7):
            return f"csv shape {data.shape}"
        plant = scenario.effective_plant(s)
        if energy_residual(plant, data[:, 1:5], data[:, 5]) > ENERGY_TOL:
            return "energy balance violated"
        reference = float(data[-1, 6])
        if analyze_text != _analyze_text(data[:, 0], data[:, 3], reference):
            return "analyze output disagrees with recomputed metrics"
        row = report_rows.get(name)
        if row is None:
            return "report.csv row missing"
        want = reference_metrics(data[:, 0], data[:, 3], reference)
        got = [float(v) for v in row.split(",")[2:]]
        if not all(close(g, w, 1e-5) for g, w in zip(got, want)):
            return "report.csv row disagrees with recomputed metrics"
        return ""


# ------------------------------------------------ care-design

def criterion2_draws(rng: np.random.RandomState, count: int) -> list:
    """Random (A, b, r) with n in 2..6, drawn as acceptance criterion 2 does."""
    draws = []
    for _ in range(count):
        n = int(rng.randint(2, 7))
        a = rng.randn(n, n)
        b = rng.randn(n, 1)
        r = float(rng.uniform(0.5, 2.0))
        draws.append((a, b, r))
    return draws


class CareDesign:
    """LQR synthesis on both plant linearizations, then random CARE solves.

    Draws that the benchmark's PBH test finds unstabilizable must be
    refused; they are not counted as attempted operations. A refusal of a
    stabilizable draw is a failed operation. The PBH test runs in
    ``check``, outside set-up and every timed region.
    """

    name = "care-design"
    tracer = None

    def __init__(self, seed: int, size: Size, workdir: Path):
        plant = PlantParams()
        self.weights = classic.LqrWeights()
        self.linearizations = [linearize_at(plant, 0.0), linearize_at(plant, math.pi)]
        panel = criterion2_draws(np.random.RandomState(CARE_PANEL_SEED), size.care_panel)
        probes = criterion2_draws(np.random.RandomState(derive_seed(seed, "care")),
                                  size.care_probes)
        self.panel = [self._problem(*d) for d in panel]
        self.probes = [self._problem(*d) for d in probes]
        self._passes = []

    @staticmethod
    def _problem(a, b, r):
        n = a.shape[0]
        return (StateSpace(a=a, b=b, c=np.eye(n), d=np.zeros((n, 1))),
                classic.LqrWeights(q=np.eye(n), r=r))

    def _solve(self, problems) -> tuple:
        windows = []
        results = []
        for i, (ss, weights) in enumerate(problems):
            if self.tracer is not None:
                self.tracer.op_id = f"pass-{len(self._passes)}/solve-{i}"
            start = time.perf_counter_ns()
            try:
                out = classic.solve_care(ss, weights)
            except Exception as exc:  # refusals are judged against the PBH class
                out = exc
            windows.append([(start, time.perf_counter_ns())])
            results.append(out)
        return windows, results

    def run_pass(self) -> PassResult:
        windows = []
        designs = []
        start_all = time.perf_counter_ns()
        for i, ss in enumerate(self.linearizations):
            if self.tracer is not None:
                self.tracer.op_id = f"pass-{len(self._passes)}/design-{i}"
            start = time.perf_counter_ns()
            try:
                out = classic.lqr_synthesize(ss, self.weights, tracked_output_index=2)
            except Exception as exc:
                out = exc
            windows.append([(start, time.perf_counter_ns())])
            designs.append(out)
        panel_windows, panel = self._solve(self.panel)
        wall = (time.perf_counter_ns() - start_all) * 1e-9
        self._passes.append((designs, panel))
        return PassResult(wall, windows + panel_windows, 0)

    def check(self) -> Check:
        c = Check()
        try:
            import scipy.linalg as sla
        except ImportError:
            sla = None
            c.notes.append("scipy not importable: oracle comparison skipped")
        oracle = {}

        def judge(prob, judged_stabilizable, out):
            """'' when ``out`` is right for ``prob``; None for an expected refusal."""
            ss, weights = prob
            if isinstance(out, Exception):
                if not judged_stabilizable and isinstance(out, ValueError):
                    return None
                return f"{type(out).__name__} on a stabilizable draw: {out}"
            if not judged_stabilizable:
                return "solved a draw the PBH test finds unstabilizable"
            res = care_residual(ss.a, ss.b, weights.q, weights.r, out)
            if not res <= 1e-8:
                return f"residual {res:.2e} > 1e-8"
            ref = self._oracle(ss, weights, sla, oracle, c)
            if ref is not None:
                err = float(np.linalg.norm(out - ref)) / max(1.0, float(np.linalg.norm(ref)))
                if not err <= 1e-6:
                    return f"differs from scipy by {err:.2e} (relative)"
            return ""

        panel_classes = [stabilizable(ss.a, ss.b) for ss, _ in self.panel]
        for p, (designs, panel) in enumerate(self._passes):
            for ss, design in zip(self.linearizations, designs):
                c.attempted += 1
                problem = self._judge_design(ss, design, sla, oracle, c)
                if problem:
                    c.fail(f"pass {p} plant design: {problem}",
                           refusal=isinstance(design, Exception))
            for i, (prob, out) in enumerate(zip(self.panel, panel)):
                problem = judge(prob, panel_classes[i], out)
                if problem is None:
                    continue
                c.attempted += 1
                if not problem and p > 0 and not np.array_equal(out, self._passes[0][1][i]):
                    problem = "differs from pass 0"
                if problem:
                    c.fail(f"pass {p} panel draw {i}: {problem}",
                           refusal=isinstance(out, Exception))
        _, probe_out = self._solve(self.probes)
        for i, (prob, out) in enumerate(zip(self.probes, probe_out)):
            problem = judge(prob, stabilizable(prob[0].a, prob[0].b), out)
            if problem is None:
                continue
            c.attempted += 1
            if problem:
                c.fail(f"seeded draw {i}: {problem}", refusal=isinstance(out, Exception))
        return c

    @staticmethod
    def _oracle(ss, weights, sla, cache, c):
        """scipy's stabilizing solution, computed once per system; None without it."""
        if sla is None:
            return None
        key = id(ss)
        if key not in cache:
            try:
                cache[key] = sla.solve_continuous_are(ss.a, ss.b, weights.q,
                                                      np.array([[weights.r]]))
            except (np.linalg.LinAlgError, ValueError) as exc:
                c.notes.append(f"scipy oracle failed on a draw: {exc}")
                cache[key] = None
        return cache[key]

    def _judge_design(self, ss, design, sla, cache, c) -> str:
        if isinstance(design, Exception):
            return f"{type(design).__name__}: {design}"
        k = design.k_gain
        poles = np.linalg.eigvals(ss.a - ss.b @ k[None, :])
        if not float(np.max(poles.real)) < 0.0:
            return "closed loop is not Hurwitz"
        ref = self._oracle(ss, self.weights, sla, cache, c)
        if ref is not None:
            k_ref = (ss.b.T @ ref).ravel() / self.weights.r
            err = float(np.linalg.norm(k - k_ref)) / max(1.0, float(np.linalg.norm(k_ref)))
            if not err <= 1e-6:
                return f"gain differs from scipy by {err:.2e} (relative)"
        return ""


BUILDERS = {"study-matrix": StudyMatrix, "care-design": CareDesign}
