"""Fixed-step closed-loop simulation: RK4, step references, seeded disturbances.

The loop contract per step k:

1. read the reference r_k,
2. ask the controller for a force,
3. add the disturbance push, drawn before the loop in step order (one draw
   per step inside its time window; the generator is not advanced outside it;
   a window that holds no step time is refused),
4. clamp to the force limit when one is set,
5. log, then advance the plant one RK4 step: one ``rk4_step`` call, which
   runs the plant field's fused step.

``SimConfig`` holds one field per ``[sim]`` config key, plus the disturbance.
The reference is a step: 0 before ``reference_step_time_s``,
``reference_amplitude`` at and after. The step comes no later than the
last controller step, at ``(step_count - 1) * dt_s``, so some step sees it.

Everything is deterministic given the config, so a rerun reproduces the
trajectory byte for byte.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .plant import PlantParams, State, make_derivative
from .rng import SplitMix64

# f(state, force) -> the four state rates. ``state`` is any 4-sequence (RK4's
# inner stages are plain tuples): f unpacks or indexes it, never reads State fields.
Derivative = Callable[[tuple, float], tuple]

CSV_HEADER = "t,theta,theta_dot,x,x_dot,u,ref"

# Largest run length SimConfig admits: 1000 s at the default 1 ms step. It
# bounds the memory a run takes; the longest built-in run is 120,000 steps.
MAX_STEPS = 1_000_000

# SplitMix64 keeps 64 bits of a seed, so one outside [0, 2**64) would alias
SEED_LIMIT = 1 << 64

# The formatter holds about 250 bytes of temporaries per value, so a chunk
# of 512 rows stays a small share of a long file's text; larger chunks
# wrote the built-in CSVs no faster.
_CSV_CHUNK_ROWS = 512

# State from a 4-tuple without the Python-level namedtuple constructor
_state = functools.partial(tuple.__new__, State)


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive input disturbance, active on [start_s, end_s] inclusive.

    ``uniform_noise`` draws from [-amplitude_N, +amplitude_N] each step.
    """

    kind: str = "none"
    amplitude_N: float = 0.0
    start_s: float = 0.0
    end_s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "uniform_noise"):
            raise ValueError(f"kind must be 'none' or 'uniform_noise', got {self.kind!r}")
        if not (math.isfinite(self.amplitude_N) and self.amplitude_N >= 0.0):
            raise ValueError(f"amplitude_N must be >= 0, got {self.amplitude_N!r}")
        # a NaN bound names no window: searchsorted places it after every step time
        for name in ("start_s", "end_s"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        if self.start_s > self.end_s:
            raise ValueError(f"end_s must be >= start_s, got an empty window "
                             f"[{self.start_s}, {self.end_s}]")

    def steps(self, n: int, dt_s: float) -> range:
        """The k < n whose step time k * dt_s lies in the window, by binary search."""
        def step_time(k):
            return k * dt_s
        return range(bisect.bisect_left(range(n), self.start_s, key=step_time),
                     bisect.bisect_right(range(n), self.end_s, key=step_time))


@dataclass(frozen=True)
class SimConfig:
    dt_s: float = 1e-3
    duration_s: float = 40.0
    seed: int = 12345
    force_limit_N: Optional[float] = None
    reference_amplitude: float = 0.3
    reference_step_time_s: float = 0.0
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)

    def __post_init__(self):
        if not math.isfinite(self.reference_amplitude):
            raise ValueError(f"reference_amplitude must be finite, "
                             f"got {self.reference_amplitude!r}")
        if not (math.isfinite(self.reference_step_time_s) and self.reference_step_time_s >= 0.0):
            raise ValueError(f"reference_step_time_s must be >= 0, "
                             f"got {self.reference_step_time_s!r}")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ValueError(f"dt_s must be positive, got {self.dt_s!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s >= self.dt_s):
            raise ValueError(
                f"duration_s must be at least one step, got {self.duration_s!r}")
        steps = self.duration_s / self.dt_s
        if steps > MAX_STEPS:
            raise ValueError(f"duration_s / dt_s = {steps:.6g} steps exceeds the "
                             f"bound of {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"duration_s = {self.duration_s} is not an integer number of "
                f"dt_s = {self.dt_s} steps")
        # run_closed_loop asks the controller at t = k dt for k < step_count
        last_step_s = (self.step_count - 1) * self.dt_s
        if self.reference_step_time_s > last_step_s:
            raise ValueError(f"reference_step_time_s must be at most {last_step_s!r}, the "
                             f"time of the last controller step, got "
                             f"{self.reference_step_time_s!r}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")
        if self.force_limit_N is not None and not (
                math.isfinite(self.force_limit_N) and self.force_limit_N > 0.0):
            raise ValueError(f"force_limit_N must be positive, got {self.force_limit_N!r}")
        d = self.disturbance
        if d.kind != "none" and not d.steps(self.step_count, self.dt_s):
            raise ValueError(f"start_s = {d.start_s!r} and end_s = {d.end_s!r} hold no "
                             f"controller step time k * dt_s, k < {self.step_count}; the "
                             f"last is {last_step_s!r}")

    @property
    def step_count(self) -> int:
        return int(round(self.duration_s / self.dt_s))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled closed-loop run; row k is the state at t = k dt.

    ``inputs_N`` holds the total applied force (controller plus disturbance,
    after clamping); the final row repeats the last applied value so all
    columns share one length.
    """

    times_s: np.ndarray
    states: np.ndarray
    inputs_N: np.ndarray
    references: np.ndarray

    def _csv_chunks(self):
        # Each value is its "%.15g" text. One chunk's floats, temporaries and
        # text live at a time. The formatter is imported here, on first use, so
        # importing cartpend, or a process that writes no CSV, neither compiles
        # it nor builds its tables.
        from ._g15 import format_rows

        yield CSV_HEADER + "\n"
        columns = (self.times_s, self.states, self.inputs_N, self.references)
        for start in range(0, len(self.times_s), _CSV_CHUNK_ROWS):
            yield format_rows(np.column_stack([c[start:start + _CSV_CHUNK_ROWS]
                                               for c in columns]))

    def write_csv(self, path) -> None:
        """Write the CSV as UTF-8 chunk by chunk; ``path`` never holds a truncated run."""
        write_atomic(path, self._csv_chunks())

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        """Parse a UTF-8 CSV file line by line, never holding its whole text; a
        leading byte-order mark is dropped."""
        with open(path, encoding="utf-8-sig") as fh:
            return cls._parse_csv(fh)

    @classmethod
    def _parse_csv(cls, lines) -> "Trajectory":
        # ``lines`` is a text file object: lines end at \n, \r\n or \r
        header = next((ln for ln in lines if not ln.isspace()), "")
        if header.lstrip().removesuffix("\n") != CSV_HEADER:
            raise ValueError("unrecognized trajectory csv header")
        # loadtxt only warns on an empty body and takes any uniform column
        # count, so both are checked here. It raises on ragged rows and on an
        # empty or non-numeric field, "1_0" included, which float() accepts.
        rows = _text_lines(lines)
        first = next(rows, None)
        if first is None:
            raise ValueError("trajectory csv has no data rows")
        data = np.loadtxt(itertools.chain((first,), rows), delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != 7:
            raise ValueError("trajectory csv must have 7 columns")
        # loadtxt also takes nan and inf, which a run never writes
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            raise ValueError(f"trajectory csv data row {int(finite.argmin()) + 1} "
                             f"has a non-finite value")
        # a run's times increase row by row; settling is read off this column
        rising = np.diff(data[:, 0]) > 0.0
        if not rising.all():
            raise ValueError(f"trajectory csv data row {int(rising.argmin()) + 2} "
                             f"has a time t not after the row before")
        return cls(times_s=data[:, 0], states=data[:, 1:5], inputs_N=data[:, 5],
                   references=data[:, 6])


def write_atomic(path, chunks) -> None:
    """Write text ``chunks`` as UTF-8 to ``path``, which ends up whole or untouched.

    The chunks go to ``<path>.<pid>.tmp`` in the same directory, which is
    renamed onto ``path`` after the last one; on any exception it is removed.
    """
    partial = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _text_lines(lines):
    """The non-blank lines; a whitespace-only line may only be followed by blank ones."""
    spaced = False
    for ln in lines:
        if ln.isspace():
            spaced = spaced or ln != "\n"
        elif spaced:
            raise ValueError("trajectory csv has a whitespace-only line between rows")
        else:
            yield ln


class SimulationFault(RuntimeError):
    """Non-finite force or state; carries the finite prefix of the run.

    ``what`` says what went non-finite at ``step_index``: ``force non-finite``,
    ``<name> non-finite`` for the first non-finite state entry (``theta``,
    ``theta_dot``, ``x``, ``x_dot``), or the exception the RK4 step raised.
    """

    def __init__(self, step_index: int, trajectory: Trajectory, what: str):
        super().__init__(f"simulation diverged at step {step_index}: {what}")
        self.step_index = step_index
        self.trajectory = trajectory
        self.what = what


def rk4_step(f: Derivative, state: State, u: float, dt_s: float) -> State:
    """One classical Runge-Kutta step with the input held constant.

    Stages are evaluated at ``s + h k`` (h = dt/2) and ``s + dt k``; the
    result is ``s + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, summed left to right.
    The inner stages reach ``f`` as plain tuples; the result is a State.

    A field that carries ``f.rk4(state, u, dt_s)``, as the plant field of
    ``make_derivative`` does, is stepped by it: the same stages with the
    field inline, bit for bit. Any other field takes the body below.
    """
    fused = getattr(f, "rk4", None)
    if fused is not None:
        return _state(fused(state, u, dt_s))
    th, thd, x, xd = state
    h = 0.5 * dt_s
    a1, a2, a3, a4 = f(state, u)
    b1, b2, b3, b4 = f((th + h * a1, thd + h * a2, x + h * a3, xd + h * a4), u)
    c1, c2, c3, c4 = f((th + h * b1, thd + h * b2, x + h * b3, xd + h * b4), u)
    d1, d2, d3, d4 = f((th + dt_s * c1, thd + dt_s * c2, x + dt_s * c3, xd + dt_s * c4), u)
    w = dt_s / 6.0
    return _state((th + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                   thd + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                   x + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
                   xd + w * (a4 + 2.0 * b4 + 2.0 * c4 + d4)))


def run_closed_loop(params: PlantParams, controller, config: SimConfig,
                    initial_state: State = State(0.0, 0.0, 0.0, 0.0)) -> Trajectory:
    """Simulate one controller against the nonlinear plant.

    ``controller`` needs a ``step(reference, state, dt_s) -> force`` method.
    This loop is the one place that checks finiteness: a non-finite
    ``initial_state`` raises ValueError before the controller is asked, and
    SimulationFault (with the finite prefix attached) is raised the moment
    the force or the next state stops being finite.
    """
    if not all(map(math.isfinite, initial_state)):
        raise ValueError(f"non-finite initial state {tuple(initial_state)}")
    n = config.step_count
    dt = config.dt_s
    times = np.arange(n + 1) * dt
    refs = np.where(times >= config.reference_step_time_s, config.reference_amplitude, 0.0)
    log = array("d", initial_state)
    forces = array("d")

    disturbance = config.disturbance
    if disturbance.kind == "none":
        pushes = itertools.repeat(0.0)
    else:
        # the window [start_s, end_s] is one contiguous run of steps
        pushes = array("d", [0.0]) * n
        rng = SplitMix64(config.seed)
        for k in disturbance.steps(n, dt):
            pushes[k] = disturbance.amplitude_N * (2.0 * rng.uniform() - 1.0)
    f = make_derivative(params)
    control = controller.step
    lim = config.force_limit_N
    isfinite = math.isfinite
    s = initial_state

    def fault(k, what):
        # a force fault logged no force for step k, so it reads 0
        inputs = np.zeros(k + 1)
        inputs[:len(forces)] = forces
        return SimulationFault(k, Trajectory(
            times_s=times[:k + 1].copy(), states=np.array(log).reshape(k + 1, 4),
            inputs_N=inputs, references=refs[:k + 1].copy()), what)

    # The loop checks every force and state itself, so numpy's overflow and
    # invalid-value warnings (an LQR gain product on a huge state) are muted.
    with np.errstate(over="ignore", invalid="ignore"):
        # memoryview yields refs' entries as Python floats, without a copy. Outside
        # the window the push is 0.0, and + 0.0 still turns a -0.0 force into 0.0.
        for k, r, push in zip(range(n), memoryview(refs), pushes):
            u = control(r, s, dt) + push
            if lim is not None:
                u = lim if u > lim else (-lim if u < -lim else u)
            if not isfinite(u):
                raise fault(k, "force non-finite")
            forces.append(u)
            try:
                s = rk4_step(f, s, u, dt)
            except (ValueError, OverflowError, FloatingPointError,
                    ZeroDivisionError) as exc:
                raise fault(k, f"RK4 step raised {type(exc).__name__}: {exc}") from None
            th, thd, x, xd = s
            # a finite sum means four finite values; an overflowing one is rechecked
            if not isfinite(th + thd + x + xd) and not all(map(isfinite, s)):
                # named as the CSV columns name the state
                name = next(n for n, v in zip(CSV_HEADER.split(",")[1:5], s) if not isfinite(v))
                raise fault(k, f"{name} non-finite")
            log.extend(s)

    forces.append(forces[-1])
    return Trajectory(times_s=times, states=np.frombuffer(log).reshape(n + 1, 4),
                      inputs_N=np.frombuffer(forces), references=refs)
