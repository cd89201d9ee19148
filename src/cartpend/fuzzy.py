"""Two-input Mamdani-style inference on ladder term sets, singleton centers.

Each input's terms form a ladder over strictly ascending peaks: term k
grades 1 at its peak and falls linearly to 0 at the neighbouring peaks, and
the two end terms hold 1 beyond the outer peaks. Adjacent grades sum to 1
(a Ruspini partition), so at most two neighbouring terms grade any input
above zero and inference visits at most 2x2 rules. Rule strength is the min
of the two grades, defuzzification is the weighted center average. The
standard system has seven terms per input with peaks every 1/3 on [-1, 1]
and the anti-diagonal rule table ``clamp(i + j - 3, 0, 6)``, which makes
the control surface odd.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Tuple


def fuzzify(peaks: Tuple[float, ...], v: float) -> Tuple[int, float, float]:
    """Lower active term k of ``v`` on a ladder, and the grades of terms k, k + 1.

    Between peaks a = peaks[k] and b = peaks[k + 1] the grades are
    (b - v) / (b - a) and (v - a) / (b - a). Below the first peak, or on or
    beyond the last, the end term grades 1. Every other term grades 0.
    ``v`` must not be NaN.
    """
    k = bisect_right(peaks, v) - 1
    if k < 0:
        return 0, 1.0, 0.0
    last = len(peaks) - 1
    if k == last:
        return last - 1, 0.0, 1.0
    a = peaks[k]
    b = peaks[k + 1]
    return k, (b - v) / (b - a), (v - a) / (b - a)


STANDARD_PEAKS = tuple((k - 3) / 3.0 for k in range(7))


def ladder_rule_table(n: int) -> Tuple[Tuple[int, ...], ...]:
    half = (n - 1) // 2
    return tuple(tuple(min(max(i + j - half, 0), n - 1) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class FuzzySystem:
    """Ladder peaks per input, output centers, rule table and scales.

    ``rule_table[i][j]`` indexes ``output_centers`` for input-1 term i and
    input-2 term j. Peaks and centers are validated once and stored as
    float tuples. The defaults are the standard seven-term system.
    """
    input1_peaks: Tuple[float, ...] = STANDARD_PEAKS
    input2_peaks: Tuple[float, ...] = STANDARD_PEAKS
    output_centers: Tuple[float, ...] = STANDARD_PEAKS
    rule_table: Tuple[Tuple[int, ...], ...] = ladder_rule_table(7)
    input1_scale: float = 1.0
    input2_scale: float = 1.0
    output_scale: float = 1.0

    def __post_init__(self):
        for name in ("input1_peaks", "input2_peaks"):
            peaks = tuple(float(p) for p in getattr(self, name))
            # finite positive gaps imply finite peaks and keep every grade's
            # denominator finite, so some rule always fires
            if len(peaks) < 3 or not all(0.0 < b - a < math.inf
                                         for a, b in zip(peaks, peaks[1:])):
                raise ValueError(f"{name} must be 3 or more finite values ascending "
                                 f"by finite steps, got {peaks}")
            object.__setattr__(self, name, peaks)
        centers = tuple(float(c) for c in self.output_centers)
        if not all(math.isfinite(c) for c in centers):
            raise ValueError(f"output_centers must be finite, got {centers}")
        object.__setattr__(self, "output_centers", centers)
        n1, n2 = len(self.input1_peaks), len(self.input2_peaks)
        if len(self.rule_table) != n1 or any(len(row) != n2 for row in self.rule_table):
            raise ValueError("rule table shape must match the peak counts")
        nc = len(self.output_centers)
        for i, row in enumerate(self.rule_table):
            for idx in row:
                if not (0 <= idx < nc):
                    raise ValueError(f"rule_table[{i}] must be indices of the {nc} "
                                     f"output centers, got {idx}")
        for name in ("input1_scale", "input2_scale", "output_scale"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")


def fuzzy_infer(system: FuzzySystem, input1: float, input2: float) -> float:
    """Scaled inputs in, center-average output out.

    The input scales multiply the raw inputs before grading; the output
    scale multiplies the defuzzified average. A NaN input gives NaN, so a
    closed loop faults at that step.
    """
    v1 = input1 * system.input1_scale
    v2 = input2 * system.input2_scale
    if v1 != v1 or v2 != v2:
        return math.nan
    k1, lo1, hi1 = fuzzify(system.input1_peaks, v1)
    k2, lo2, hi2 = fuzzify(system.input2_peaks, v2)
    centers = system.output_centers
    num = 0.0
    den = 0.0
    # the nonzero grades in ascending term order, i then j, as a full table
    # walk would visit them; written out, so a call builds no pair tuples
    if lo1 != 0.0:
        row = system.rule_table[k1]
        w = lo1 if lo1 < lo2 else lo2
        if w != 0.0:
            num += w * centers[row[k2]]
            den += w
        w = lo1 if lo1 < hi2 else hi2
        if w != 0.0:
            num += w * centers[row[k2 + 1]]
            den += w
    if hi1 != 0.0:
        row = system.rule_table[k1 + 1]
        w = hi1 if hi1 < lo2 else lo2
        if w != 0.0:
            num += w * centers[row[k2]]
            den += w
        w = hi1 if hi1 < hi2 else hi2
        if w != 0.0:
            num += w * centers[row[k2 + 1]]
            den += w
    return system.output_scale * num / den
