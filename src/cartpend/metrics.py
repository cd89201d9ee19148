"""Step-response quality measures and report rows.

Settling uses a two percent band around the reference (absolute when the
reference is zero) and reports the first time after which the signal never
leaves the band again. Overshoot is the peak excursion past the reference
in percent of the reference magnitude; for a zero reference it is the
excursion past the initial magnitude, so a regulated state that only decays
scores zero. Steady-state error averages the reference minus the signal
over the final tail of the record. ``score_trajectory`` picks what a run
is judged on: the cart position against the last logged reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import Trajectory

REPORT_CSV_HEADER = "controller,scenario,settling_s,overshoot_pct,sse"
SETTLING_BAND = 0.02


def settling_time(times_s, values, reference: float,
                  band_fraction: float = SETTLING_BAND) -> float:
    """Time after which |value - reference| stays inside the band.

    The band is ``band_fraction * |reference|``, or ``band_fraction`` as an
    absolute width when the reference is zero. Returns ``0.0`` when the
    signal never leaves the band and ``inf`` when the final sample is still
    outside.
    """
    times_s = np.asarray(times_s, dtype=float)
    values = np.asarray(values, dtype=float)
    if times_s.shape != values.shape or times_s.ndim != 1 or times_s.size == 0:
        raise ValueError("times and values must be equal-length 1-D arrays")
    if not (0.0 < band_fraction < 1.0):
        raise ValueError(f"band_fraction must be in (0, 1), got {band_fraction!r}")
    band = band_fraction * abs(reference) if reference != 0.0 else band_fraction
    outside = np.abs(values - reference) > band
    if outside[-1]:
        return math.inf
    if not outside.any():
        return 0.0
    last_out = int(np.flatnonzero(outside)[-1])
    return float(times_s[last_out + 1])


def overshoot_pct(values, reference: float) -> float:
    """Peak excursion past the reference, percent of reference magnitude.

    For a zero reference the baseline is the initial magnitude, so the
    number measures whether the transient ever grew beyond where it
    started; an all-zero record scores zero.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if reference > 0.0:
        excess = float(np.max(values)) - reference
    elif reference < 0.0:
        excess = reference - float(np.min(values))
    else:
        baseline = abs(float(values[0]))
        if baseline == 0.0:
            return 0.0
        return max(0.0, 100.0 * (float(np.max(np.abs(values))) - baseline) / baseline)
    return max(0.0, 100.0 * excess / abs(reference))


def steady_state_error(values, reference: float, tail_fraction: float = 0.1) -> float:
    """Mean of (reference - value) over the trailing fraction of the record."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction!r}")
    tail = max(1, int(round(tail_fraction * values.size)))
    return float(np.mean(reference - values[-tail:]))


@dataclass(frozen=True)
class Metrics:
    settled: bool
    settling_time_s: float
    overshoot_pct: float
    steady_state_error: float
    reference: float


def compute_metrics(times_s, values, reference: float,
                    band_fraction: float = SETTLING_BAND) -> Metrics:
    s = settling_time(times_s, values, reference, band_fraction)
    return Metrics(settled=math.isfinite(s), settling_time_s=s,
                   overshoot_pct=overshoot_pct(values, reference),
                   steady_state_error=steady_state_error(values, reference),
                   reference=reference)


def score_trajectory(traj: Trajectory, reference: float | None = None,
                     band_fraction: float = SETTLING_BAND) -> Metrics:
    """Metrics of the cart position, against the last logged reference by default."""
    if reference is None:
        reference = float(traj.references[-1])
    return compute_metrics(traj.times_s, traj.states[:, 2], reference, band_fraction)


def report_text(scenario: str, controller: str, m: Metrics) -> str:
    """One scenario's entry in ``report.txt``: a heading line and a metrics line."""
    settle = f"{m.settling_time_s:.4g} s" if m.settled else "not settled"
    return (f"scenario {scenario}\n"
            f"  {controller}: settling {settle}, overshoot {m.overshoot_pct:.4g}%, "
            f"sse {m.steady_state_error:.4g}\n")


def report_csv_row(scenario: str, controller: str, m: Metrics) -> str:
    """One line of ``report.csv`` under ``REPORT_CSV_HEADER``."""
    return (f"{controller},{scenario},{m.settling_time_s:.6g},"
            f"{m.overshoot_pct:.6g},{m.steady_state_error:.6g}\n")
