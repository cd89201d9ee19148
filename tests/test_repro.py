"""The claims table of ``cartpend.repro``: each predicate at its bounds.

Each row is judged on values on its inclusive bound and just past it, so
that a bound cannot move, or lose its inclusivity, without a test failing.
"""
import dataclasses
import math

import pytest

from cartpend import repro


@pytest.mark.parametrize("claim_id, measured, holds", [
    ("6a", (1.0, 0.8, 0.69), True),  # settling pid, lqr, hybrid
    ("6a", (1.0, 0.8, 0.39), True),
    ("6a", (1.0, 0.8, 0.70), False),
    ("6a", (1.0, 0.8, 0.38), False),
    ("6a", (1.0, 1.2, 0.5), False),  # lqr after pid
    ("6b", (1e-3, -1e-3, 0.0), True),  # sse pid, lqr, hybrid
    ("6b", (0.0, 1.1e-3, 0.0), False),
    ("6b", (0.0, 0.0, -1.1e-3), False),
    ("6c", (1.0, 2.0, 1.1), True),  # hybrid nominal; lqr, hybrid at +20% cart mass
    ("6c", (1.0, 2.0, 1.11), False),
    ("6c", (1.0, 1.05, 1.1), False),  # lqr before hybrid
    ("6d", ((3.0, 0.309, 0.01), (3.0, 0.291, -0.01), (2.0, 0.3, 0.0)), True),
    ("6d", ((3.0, 0.3, 0.0), (1.9, 0.3, 0.0), (2.0, 0.3, 0.0)), False),  # lqr fastest
    ("6d", ((3.0, 0.311, 0.0), (3.0, 0.3, 0.0), (2.0, 0.3, 0.0)), False),
    ("6d", ((3.0, 0.3, 0.0), (3.0, 0.3, 0.0101), (2.0, 0.3, 0.0)), False),
    ("6d", ((math.inf, 0.3, 0.0), (3.0, 0.3, 0.0), (2.0, 0.3, 0.0)), False),
])
def test_a_claim_fails_just_past_its_bound(claim_id, measured, holds):
    assert repro.CLAIMS[claim_id].check(measured)[0] == holds


def test_the_6d_x_bound_is_inclusive():
    # no float x lies exactly 0.01 from 0.3, so a bound with an exact edge shows it
    claim = dataclasses.replace(repro.CLAIMS["6d"], bound=(0.5, 0.25, 0.01))
    assert claim.check(((3.0, 0.75, 0.0), (3.0, 0.25, 0.0), (2.0, 0.5, 0.0)))[0]
