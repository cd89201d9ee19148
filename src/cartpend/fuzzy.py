"""Two-input Mamdani-style inference with singleton centers.

Seven terms per input on a normalized universe: triangular interiors with
peaks every 1/3, trapezoidal shoulders saturating beyond +/-1. Rule strength
is the min of the two memberships, defuzzification is the weighted center
average. The standard rule table is the usual anti-diagonal ladder
``clamp(i + j - 3, 0, 6)``, which makes the control surface odd.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class MembershipFunction:
    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if self.kind == "triangular":
            if len(self.params) != 3:
                raise ValueError("triangular takes (foot, peak, foot)")
            a, b, c = self.params
            if not (a < b < c):
                raise ValueError(f"triangular breakpoints must ascend, got {self.params}")
        elif self.kind == "trapezoidal":
            if len(self.params) != 4:
                raise ValueError("trapezoidal takes (foot, shoulder, shoulder, foot)")
            a, b, c, d = self.params
            if not (a <= b <= c <= d):
                raise ValueError(f"trapezoidal breakpoints must ascend, got {self.params}")
        else:
            raise ValueError(f"unknown membership kind {self.kind!r}")


def fuzzify(term: MembershipFunction, v: float) -> float:
    """Membership grade of ``v`` in one term."""
    if term.kind == "triangular":
        a, b, c = term.params
        if v <= a or v >= c:
            return 0.0
        if v <= b:
            return (v - a) / (b - a)
        return (c - v) / (c - b)
    a, b, c, d = term.params
    if v < a or v > d:
        return 0.0
    if b <= v <= c:
        return 1.0
    if v < b:
        return (v - a) / (b - a)
    return (d - v) / (d - c)


@dataclass(frozen=True)
class FuzzySystem:
    input1_terms: Tuple[MembershipFunction, ...]
    input2_terms: Tuple[MembershipFunction, ...]
    output_centers: Tuple[float, ...]
    rule_table: Tuple[Tuple[int, ...], ...]
    input1_scale: float = 1.0
    input2_scale: float = 1.0
    output_scale: float = 1.0

    def __post_init__(self):
        n1, n2 = len(self.input1_terms), len(self.input2_terms)
        if len(self.rule_table) != n1 or any(len(row) != n2 for row in self.rule_table):
            raise ValueError("rule table shape must match the term counts")
        nc = len(self.output_centers)
        for row in self.rule_table:
            for idx in row:
                if not (0 <= idx < nc):
                    raise ValueError(f"rule index {idx} outside the output centers")
        for name in ("input1_scale", "input2_scale", "output_scale"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v!r}")


def term_ladder(peaks) -> Tuple[MembershipFunction, ...]:
    """Seven-ish term set over ascending peaks: shoulders outside, triangles inside."""
    peaks = [float(p) for p in peaks]
    if len(peaks) < 3 or any(a >= b for a, b in zip(peaks, peaks[1:])):
        raise ValueError(f"peaks must strictly ascend, got {peaks}")
    terms = [MembershipFunction("trapezoidal", (-math.inf, -math.inf, peaks[0], peaks[1]))]
    for k in range(1, len(peaks) - 1):
        terms.append(MembershipFunction("triangular", (peaks[k - 1], peaks[k], peaks[k + 1])))
    terms.append(MembershipFunction("trapezoidal", (peaks[-2], peaks[-1], math.inf, math.inf)))
    return tuple(terms)


STANDARD_PEAKS = tuple((k - 3) / 3.0 for k in range(7))


def ladder_rule_table(n: int) -> Tuple[Tuple[int, ...], ...]:
    half = (n - 1) // 2
    return tuple(tuple(min(max(i + j - half, 0), n - 1) for j in range(n)) for i in range(n))


def standard_fuzzy_system(input1_scale: float = 1.0, input2_scale: float = 1.0,
                          output_scale: float = 1.0) -> FuzzySystem:
    """The seven-term odd-symmetric system used by the hybrid channels."""
    terms = term_ladder(STANDARD_PEAKS)
    return FuzzySystem(
        input1_terms=terms,
        input2_terms=terms,
        output_centers=STANDARD_PEAKS,
        rule_table=ladder_rule_table(7),
        input1_scale=input1_scale,
        input2_scale=input2_scale,
        output_scale=output_scale,
    )


def fuzzy_infer(system: FuzzySystem, input1: float, input2: float) -> float:
    """Scaled inputs in, center-average output out.

    The input scales multiply the raw inputs before fuzzification; the
    output scale multiplies the defuzzified average. An all-zero rule
    activation (impossible with shoulder terms) returns 0.
    """
    v1 = input1 * system.input1_scale
    v2 = input2 * system.input2_scale
    m1 = [fuzzify(t, v1) for t in system.input1_terms]
    m2 = [fuzzify(t, v2) for t in system.input2_terms]
    num = 0.0
    den = 0.0
    for i, w1 in enumerate(m1):
        if w1 == 0.0:
            continue
        row = system.rule_table[i]
        for j, w2 in enumerate(m2):
            w = w1 if w1 < w2 else w2
            if w == 0.0:
                continue
            num += w * system.output_centers[row[j]]
            den += w
    if den == 0.0:
        return 0.0
    return system.output_scale * num / den
