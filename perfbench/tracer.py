"""Spans and counters recorded from outside the program.

The tracer replaces public functions of ``cartpend`` modules with timing
wrappers. Each wrapped call is a span; a span's self time is its duration
minus the time its wrapped children took. Statistics are aggregated per
span name in memory; a bounded sample of raw spans (name, operation id,
start, end, parent) is kept for the trace file written when the run ends.

A patch target that no longer exists, or a wrapped function the program no
longer calls (for example one inlined into its caller), simply records no
calls. Its layer is then reported as not observed, and its time stays with
the caller that now does the work.
"""
from __future__ import annotations

import importlib
import time

_SPAN_SAMPLE = 200  # raw spans kept per name

# span name -> (module, attribute) patched with a timing wrapper
_SPANS = {
    "plant.derivative": [("cartpend.sim", "nonlinear_derivative")],
    "sim.rk4": [("cartpend.sim", "rk4_step")],
    "sim.loop": [("cartpend.scenario", "run_closed_loop")],
    "classic.pid_step": [("cartpend.classic", "pid_step")],
    "fuzzy.infer": [("cartpend.hybrid", "fuzzy_infer")],
    "scenario.parse": [("cartpend.scenario", "parse_scenario"),
                       ("cartpend.cli", "parse_scenario")],
    "metrics.score": [("cartpend.metrics", "compute_metrics"),
                      ("cartpend.cli", "settling_time"),
                      ("cartpend.cli", "overshoot_pct"),
                      ("cartpend.cli", "steady_state_error")],
}

CONTROLLER_KINDS = ("pid-position", "pid-simultaneous", "lqr", "hybrid",
                    "hybrid-simultaneous")


class Tracer:
    """Per-name span statistics plus plain counters, for one process."""

    def __init__(self):
        self.stats = {}      # name -> [calls, total_ns, self_ns]
        self.counters = {}   # name -> int
        self.spans = []      # sampled raw spans
        self.op_id = None    # the workload's current operation; shared by its spans
        self._stack = []     # open spans: [name, child_ns]
        self._sampled = {}
        self._undo = []
        self.missing = []    # patch targets that do not exist

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(args, result)`` may count."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if self._sampled.get(name, 0) < _SPAN_SAMPLE:
                    self._sampled[name] = self._sampled.get(name, 0) + 1
                    self.spans.append((name, self.op_id, start, end,
                                       stack[-1][0] if stack else None))
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """Return ``fn`` wrapped in a call counter without a span."""
        counters = self.counters
        counters.setdefault(name, 0)

        def counted_call(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted_call.__wrapped__ = fn
        return counted_call

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _target(self, module_name: str, attr: str):
        module = importlib.import_module(module_name)
        if attr not in module.__dict__:
            self.missing.append(f"{module_name}.{attr}")
            return None
        return module

    def install(self) -> None:
        """Patch every layer boundary; ``uninstall`` restores the originals."""
        for name, targets in _SPANS.items():
            self.stats.setdefault(name, [0, 0, 0])
            for module_name, attr in targets:
                module = self._target(module_name, attr)
                if module is not None:
                    self._patch(module, attr, self.wrap(name, getattr(module, attr)))

        module = self._target("cartpend.hybrid", "reference_model_step")
        if module is not None:
            self._patch(module, "reference_model_step",
                        self.counted("hybrid.reference_model.calls",
                                     module.reference_model_step))

        module = self._target("cartpend.classic", "solve_care")
        if module is not None:
            self._patch(module, "solve_care", self._care_wrapper(module.solve_care))

        self._install_methods()
        self._install_controller_proxy()

    def _care_wrapper(self, fn):
        traced = self.wrap("classic.care", fn)
        self.counters.setdefault("classic.care.rejected", 0)

        def solve_care(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except Exception:
                self.count("classic.care.rejected")
                raise

        return solve_care

    def _install_methods(self) -> None:
        import cartpend.hybrid as hybrid
        import cartpend.rng as rng
        import cartpend.sim as sim

        if "step" in hybrid.HybridChannel.__dict__:
            self.counters.setdefault("hybrid.clamp_events", 0)
            channel_step = self.wrap("hybrid.channel", hybrid.HybridChannel.step)

            def step(channel, *args, **kwargs):
                before = len(channel.clamp_events)
                u = channel_step(channel, *args, **kwargs)
                self.counters["hybrid.clamp_events"] += len(channel.clamp_events) - before
                return u

            self._patch(hybrid.HybridChannel, "step", step)
        else:
            self.missing.append("cartpend.hybrid.HybridChannel.step")

        if "uniform" in rng.SplitMix64.__dict__:
            self._patch(rng.SplitMix64, "uniform",
                        self.counted("rng.draws", rng.SplitMix64.uniform))
        else:
            self.missing.append("cartpend.rng.SplitMix64.uniform")

        def csv_written(args, text):
            self.count("sim.csv_write.bytes", len(text))
            self.count("sim.csv_write.rows", max(text.count("\n") - 1, 0))

        def csv_read(args, result):
            self.count("sim.csv_read.bytes", len(args[1]))

        traj = sim.Trajectory
        if "to_csv_text" in traj.__dict__:
            self._patch(traj, "to_csv_text",
                        self.wrap("sim.csv_write", traj.to_csv_text, csv_written))
        else:
            self.missing.append("cartpend.sim.Trajectory.to_csv_text")
        if isinstance(traj.__dict__.get("from_csv_text"), classmethod):
            reader = traj.__dict__["from_csv_text"].__func__
            self._patch(traj, "from_csv_text",
                        classmethod(self.wrap("sim.csv_read", reader, csv_read)))
        else:
            self.missing.append("cartpend.sim.Trajectory.from_csv_text")

    def _install_controller_proxy(self) -> None:
        module = self._target("cartpend.scenario", "build_controller")
        if module is None:
            return
        build = self.wrap("scenario.build", module.build_controller)
        tracer = self

        def build_controller(s, *args, **kwargs):
            return _TracedController(build(s, *args, **kwargs),
                                     f"controller.{s.controller_kind}.step", tracer)

        self._patch(module, "build_controller", build_controller)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ reading

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] * 1e-9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] * 1e-9

    def span_records(self) -> list:
        return [{"name": n, "op": op, "start_ns": s, "end_ns": e, "parent": p}
                for n, op, s, e, p in self.spans]


class _TracedController:
    """Controller proxy whose ``step`` is a span; everything else passes through."""

    def __init__(self, inner, span_name: str, tracer: Tracer):
        self._inner = inner
        self.step = tracer.wrap(span_name, inner.step)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def layer_metrics(tracer: Tracer, passes: int) -> tuple:
    """Per-layer metrics per traced pass, and the names nothing observed.

    Returns ``(metrics, not_observed)`` where ``metrics`` maps name to
    ``(value, unit)``. A layer whose boundary saw no call reports 0 and is
    listed in ``not_observed``.
    """
    out = {}
    not_observed = []

    def span(name, *parts):
        if tracer.calls(name) == 0:
            not_observed.extend(f"{name}.{p}" for p in parts)
        values = {"calls": (tracer.calls(name), "count"),
                  "s": (tracer.total_s(name), "s"),
                  "self_s": (tracer.self_s(name), "s")}
        for part in parts:
            value, unit = values[part]
            out[f"{name}.{part}"] = (value / passes, unit)

    def counter(name, unit, observed):
        if not observed:
            not_observed.append(name)
        out[name] = (tracer.counters.get(name, 0) / passes, unit)

    span("plant.derivative", "calls", "self_s")
    span("sim.rk4", "calls", "self_s")
    span("sim.loop", "self_s")
    counter("rng.draws", "count", tracer.counters.get("rng.draws", 0) > 0)
    span("classic.pid_step", "calls", "self_s")
    for kind in CONTROLLER_KINDS:
        span(f"controller.{kind}.step", "calls", "s", "self_s")
    span("hybrid.channel", "calls", "self_s")
    counter("hybrid.reference_model.calls", "count",
            tracer.counters.get("hybrid.reference_model.calls", 0) > 0)
    span("fuzzy.infer", "calls", "self_s")
    counter("hybrid.clamp_events", "count", tracer.calls("hybrid.channel") > 0)
    span("sim.csv_write", "s")
    counter("sim.csv_write.bytes", "bytes", tracer.calls("sim.csv_write") > 0)
    counter("sim.csv_write.rows", "count", tracer.calls("sim.csv_write") > 0)
    span("sim.csv_read", "s")
    counter("sim.csv_read.bytes", "bytes", tracer.calls("sim.csv_read") > 0)
    span("classic.care", "calls", "s")
    counter("classic.care.rejected", "count", tracer.calls("classic.care") > 0)
    span("scenario.parse", "s")
    span("scenario.build", "s")
    span("metrics.score", "s")
    return out, not_observed
