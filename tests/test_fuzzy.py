"""Fuzzy engine vs the general membership engine and a 49-rule oracle, symmetry,
coverage, smoothness."""
import math
import random

import pytest

from cartpend.fuzzy import (
    STANDARD_PEAKS,
    FuzzySystem,
    fuzzify,
    fuzzy_infer,
    ladder_rule_table,
)

PEAKS = [(k - 3) / 3.0 for k in range(7)]


def _oracle_membership(v, k):
    # independent piecewise formulation: shoulders saturate, flanks have slope 3
    p = PEAKS[k]
    if k == 0:
        if v <= p:
            return 1.0
        return max(0.0, 1.0 - 3.0 * (v - p))
    if k == 6:
        if v >= p:
            return 1.0
        return max(0.0, 1.0 - 3.0 * (p - v))
    return max(0.0, 1.0 - 3.0 * abs(v - p))


def _oracle_infer(in1, in2, s1, s2, out):
    v1, v2 = in1 * s1, in2 * s2
    num = den = 0.0
    for i in range(7):
        for j in range(7):
            w = min(_oracle_membership(v1, i), _oracle_membership(v2, j))
            z = PEAKS[min(max(i + j - 3, 0), 6)]
            num += w * z
            den += w
    return out * num / den


# ---- the general engine the ladder replaced, kept as the bit-level reference ----

class MembershipFunction:
    """A triangular (foot, peak, foot) or trapezoidal (foot, shoulder, shoulder,
    foot) term."""

    def __init__(self, kind, params):
        self.kind = kind
        self.params = tuple(float(v) for v in params)


def _reference_fuzzify(term, v):
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


def term_ladder(peaks):
    """Shoulders outside, triangles inside."""
    terms = [MembershipFunction("trapezoidal", (-math.inf, -math.inf, peaks[0], peaks[1]))]
    for k in range(1, len(peaks) - 1):
        terms.append(MembershipFunction("triangular", (peaks[k - 1], peaks[k], peaks[k + 1])))
    terms.append(MembershipFunction("trapezoidal", (peaks[-2], peaks[-1], math.inf, math.inf)))
    return terms


def _reference_engine(system):
    """General ``fuzzy_infer`` on ``system``: grade every term, walk the whole table."""
    terms1 = term_ladder(system.input1_peaks)
    terms2 = term_ladder(system.input2_peaks)

    def infer(input1, input2):
        v1 = input1 * system.input1_scale
        v2 = input2 * system.input2_scale
        m1 = [_reference_fuzzify(t, v1) for t in terms1]
        m2 = [_reference_fuzzify(t, v2) for t in terms2]
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

    return infer


def _grade(peaks, v, term):
    """Grade of one term at ``v``, from the ladder's two active grades."""
    k, lo, hi = fuzzify(peaks, v)
    return {k: lo, k + 1: hi}.get(term, 0.0)


def _random_peaks(rnd, n):
    while True:
        peaks = sorted(rnd.uniform(-3.0, 3.0) for _ in range(n))
        if all(a < b for a, b in zip(peaks, peaks[1:])):
            return tuple(peaks)


# the custom input-1 shape of test_scenario.test_custom_fuzzy_shape_is_configurable
CUSTOM_PEAKS = (-2.0, -1.2, -0.5, 0.0, 0.5, 1.2, 2.0)


def test_fuzzify_triangular():
    # the interior term of a three-peak ladder is the triangle (-1, 0, 1)
    tri = (-1.0, 0.0, 1.0)
    assert _grade(tri, 0.0, 1) == 1.0
    assert _grade(tri, 0.5, 1) == pytest.approx(0.5, abs=1e-15)
    assert _grade(tri, -0.25, 1) == pytest.approx(0.75, abs=1e-15)
    assert _grade(tri, 2.0, 1) == 0.0
    assert _grade(tri, -1.0, 1) == 0.0


def test_fuzzify_trapezoidal_shoulder():
    right = (0.25, 0.5, 0.75)  # last term: shoulder (0.5, 0.75, inf, inf)
    assert _grade(right, 2.0, 2) == 1.0
    assert _grade(right, 0.75, 2) == 1.0
    assert _grade(right, 0.625, 2) == pytest.approx(0.5, abs=1e-15)
    assert _grade(right, 0.4, 2) == 0.0
    left = (-1.0, -2.0 / 3.0, -1.0 / 3.0)  # first term: shoulder (-inf, -inf, -1, -2/3)
    assert _grade(left, -5.0, 0) == 1.0
    assert _grade(left, -1.0, 0) == 1.0
    assert _grade(left, -2.0 / 3.0, 0) == 0.0


def test_membership_validation():
    bad = [("input1_peaks", (1.0, 0.0, -1.0)),
           ("input1_peaks", (0.0, 1.0, 1.0)),
           ("input2_peaks", (0.0, 1.0)),
           ("input1_peaks", (-1.0, math.nan, 1.0)),
           ("input2_peaks", (-math.inf, 0.0, 1.0)),
           ("input2_peaks", (-1.0, 0.0, math.inf)),
           ("input1_peaks", (-1e308, 1e308, 1.5e308)),  # a gap overflows
           ("output_centers", (-1.0, math.nan, 1.0)),
           ("output_centers", (-1.0, 0.0, math.inf))]
    for field, value in bad:
        shape = dict(input1_peaks=(-1.0, 0.0, 1.0), input2_peaks=(-1.0, 0.0, 1.0),
                     output_centers=(-1.0, 0.0, 1.0))
        shape[field] = value
        n1, n2 = len(shape["input1_peaks"]), len(shape["input2_peaks"])
        with pytest.raises(ValueError, match=field):
            FuzzySystem(**shape, rule_table=tuple((0,) * n2 for _ in range(n1)))


def test_peaks_and_centers_are_stored_as_float_tuples():
    sysd = FuzzySystem([-1, 0, 1], [-2, 0, 2], [-1, 0, 1], ladder_rule_table(3))
    assert sysd.input1_peaks == (-1.0, 0.0, 1.0) and sysd.input2_peaks == (-2.0, 0.0, 2.0)
    assert all(type(v) is float for v in sysd.input1_peaks + sysd.output_centers)


def test_nan_input_gives_nan_in_either_argument():
    sysd = FuzzySystem()
    assert math.isnan(fuzzy_infer(sysd, math.nan, 0.1))
    assert math.isnan(fuzzy_infer(sysd, 0.1, math.nan))


def _equivalence_systems():
    rnd = random.Random(6)
    shapes = [(STANDARD_PEAKS, STANDARD_PEAKS, STANDARD_PEAKS, ladder_rule_table(7)),
              (CUSTOM_PEAKS, STANDARD_PEAKS, STANDARD_PEAKS, ladder_rule_table(7))]
    for _ in range(20):
        n1, n2, nc = rnd.randint(3, 9), rnd.randint(3, 9), rnd.randint(1, 9)
        shapes.append((_random_peaks(rnd, n1), _random_peaks(rnd, n2),
                       tuple(rnd.uniform(-5.0, 5.0) for _ in range(nc)),
                       tuple(tuple(rnd.randrange(nc) for _ in range(n2)) for _ in range(n1))))
    for p1, p2, centers, table in shapes:
        for scales in ((1.0, 1.0, 1.0), (0.8, 1.7, 4.0), (2.0, 0.5, 12.0)):
            yield FuzzySystem(p1, p2, centers, table, *scales)


def test_ladder_matches_reference_engine_bit_for_bit():
    """Same bits as the general engine, sign of zero included, on 200,000+ inputs."""
    rnd = random.Random(1969)
    specials = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324)
    checked = 0
    for sysd in _equivalence_systems():
        s1, s2 = sysd.input1_scale, sysd.input2_scale
        edge1 = specials + tuple(p / s1 for p in sysd.input1_peaks)
        edge2 = specials + tuple(p / s2 for p in sysd.input2_peaks)
        lo1, hi1 = sysd.input1_peaks[0] - 1.0, sysd.input1_peaks[-1] + 1.0
        lo2, hi2 = sysd.input2_peaks[0] - 1.0, sysd.input2_peaks[-1] + 1.0
        pairs = [(a, b) for a in edge1 for b in edge2]
        for _ in range(1100):
            a, b = rnd.uniform(lo1, hi1) / s1, rnd.uniform(lo2, hi2) / s2
            pairs += [(a, b), (a, rnd.choice(edge2)), (rnd.choice(edge1), b)]
        reference = _reference_engine(sysd)
        for a, b in pairs:
            got, want = fuzzy_infer(sysd, a, b), reference(a, b)
            assert got.hex() == want.hex(), (sysd, a, b, got, want)
        checked += len(pairs)
    assert checked >= 200_000


def test_rule_table_structure():
    sysd = FuzzySystem()
    rt = sysd.rule_table
    assert len(rt) == 7 and all(len(row) == 7 for row in rt)
    # odd symmetry: centers of rule(i,j) and rule(6-i,6-j) cancel
    for i in range(7):
        for j in range(7):
            assert rt[i][j] + rt[6 - i][6 - j] == 6
    assert rt[3][3] == 3  # zero center
    assert rt[6][6] == 6 and rt[0][0] == 0  # corners


def test_zero_in_zero_out():
    sysd = FuzzySystem()
    assert fuzzy_infer(sysd, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_oracle_equivalence_1000_random_inputs():
    sysd = FuzzySystem(input1_scale=0.8, input2_scale=1.7, output_scale=4.0)
    rnd = random.Random(42)
    for _ in range(1000):
        a = rnd.uniform(-2.5, 2.5)
        b = rnd.uniform(-2.5, 2.5)
        assert abs(fuzzy_infer(sysd, a, b) - _oracle_infer(a, b, 0.8, 1.7, 4.0)) <= 1e-12


def test_odd_symmetry():
    sysd = FuzzySystem(output_scale=7.5)
    rnd = random.Random(3)
    for _ in range(1000):
        a = rnd.uniform(-2.0, 2.0)
        b = rnd.uniform(-2.0, 2.0)
        assert abs(fuzzy_infer(sysd, a, b) + fuzzy_infer(sysd, -a, -b)) <= 1e-12


def test_output_bounded_by_max_center():
    sysd = FuzzySystem(input1_scale=2.0, input2_scale=0.5, output_scale=12.0)
    bound = 12.0 * max(abs(c) for c in sysd.output_centers)
    rnd = random.Random(11)
    for _ in range(500):
        u = fuzzy_infer(sysd, rnd.uniform(-50, 50), rnd.uniform(-50, 50))
        assert abs(u) <= bound + 1e-12


def test_coverage_on_dense_grid():
    rnd = random.Random(5)
    grids = [(STANDARD_PEAKS, -1.0, 1.0)]
    for _ in range(20):
        peaks = _random_peaks(rnd, rnd.randint(3, 9))
        grids.append((peaks, peaks[0] - 1.0, peaks[-1] + 1.0))
    for peaks, lo, hi in grids:
        for i in range(201):
            v = lo + (hi - lo) * i / 200
            k, w_lo, w_hi = fuzzify(peaks, v)
            # the two active grades are a partition of unity, so a rule always fires
            assert 0 <= k < len(peaks) - 1
            assert 0.0 <= w_lo <= 1.0 and 0.0 <= w_hi <= 1.0
            assert abs(w_lo + w_hi - 1.0) <= 1e-12


def test_saturated_corner_returns_pb_center():
    sysd = FuzzySystem(output_scale=9.0)
    assert fuzzy_infer(sysd, 10.0, 10.0) == pytest.approx(9.0 * PEAKS[6], abs=1e-12)
    assert fuzzy_infer(sysd, -10.0, -10.0) == pytest.approx(9.0 * PEAKS[0], abs=1e-12)


def test_lipschitz_no_jumps():
    sysd = FuzzySystem()
    h = 0.005
    prev = None
    for i in range(-300, 301):
        u = fuzzy_infer(sysd, i * h, 0.37)
        if prev is not None:
            assert abs(u - prev) <= 10.0 * h
        prev = u
    prev = None
    for i in range(-300, 301):
        u = fuzzy_infer(sysd, -0.61, i * h)
        if prev is not None:
            assert abs(u - prev) <= 10.0 * h
        prev = u


def test_scales_must_be_positive():
    with pytest.raises(ValueError):
        FuzzySystem(input1_scale=0.0)
    with pytest.raises(ValueError):
        FuzzySystem(output_scale=-2.0)


def test_defaults_are_the_standard_seven_term_system():
    assert FuzzySystem() == FuzzySystem(STANDARD_PEAKS, STANDARD_PEAKS, STANDARD_PEAKS,
                                        ladder_rule_table(7))
    assert FuzzySystem().input1_peaks == tuple(PEAKS)


def test_bad_rule_index_names_its_row():
    table = list(ladder_rule_table(7))
    table[2] = (0, 1, 2, 3, 4, 5, 9)
    with pytest.raises(ValueError, match=r"^rule_table\[2\] must be indices of the 7 "
                                         r"output centers, got 9$"):
        FuzzySystem(rule_table=tuple(table))
