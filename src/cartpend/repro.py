"""Side-by-side comparison against published reference values.

The built-in scenario matrix mirrors a published cart-pendulum controller
study. This module reruns the headline cases and prints the published
number next to the one this implementation measures. Orderings are the
claim being checked; exact values depend on tuning details the published
tables do not disclose, so differences are reported, not hidden. Whether
each claim holds is decided once, by its row of ``CLAIMS``, for both
``cartpend repro`` and the acceptance tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import score_trajectory
from .scenario import build_controller, builtin_scenarios, run_scenario

PUBLISHED_GAIN = (2.0960, -1.2221, 12.3828, 12.7813)

# (scenario name, metric, row label, published value or None)
_ROWS = (
    ("cart-position-pid-nominal", "settling",
     "cart step: pid settling [s]", 11.5323),
    ("cart-position-lqr-nominal", "settling",
     "cart step: lqr settling [s]", 11.1301),
    ("cart-position-hybrid-nominal", "settling",
     "cart step: hybrid settling [s]", 6.1772),
    ("cart-position-pid-nominal", "sse",
     "cart step: pid steady-state error [m]", 0.0),
    ("cart-position-lqr-nominal", "sse",
     "cart step: lqr steady-state error [m]", 0.0319),
    ("cart-position-hybrid-nominal", "sse",
     "cart step: hybrid steady-state error [m]", 0.0),
    ("cart-position-pid-parameter-variation", "settling",
     "cart step, +20% cart mass: pid settling [s]", None),
    ("cart-position-lqr-parameter-variation", "settling",
     "cart step, +20% cart mass: lqr settling [s]", 99.6906),
    ("cart-position-hybrid-parameter-variation", "settling",
     "cart step, +20% cart mass: hybrid settling [s]", 6.1687),
    ("simultaneous-pid-nominal", "settling",
     "simultaneous: pid settling [s]", 8.7765),
    ("simultaneous-lqr-nominal", "settling",
     "simultaneous: lqr settling [s]", 11.5004),
    ("simultaneous-hybrid-nominal", "settling",
     "simultaneous: hybrid settling [s]", 7.7567),
    ("simultaneous-lqr-nominal", "sse",
     "simultaneous: lqr steady-state error [m]", 0.0094),
)
_PUBLISHED = {(name, metric): value for name, metric, _, value in _ROWS}


def observe(traj) -> dict:
    """What a table row or a claim reads from one run, by measure name."""
    m = score_trajectory(traj)
    theta, _, x, _ = traj.states[-1]
    return {"settling": m.settling_time_s, "sse": m.steady_state_error,
            "final": (m.settling_time_s, float(x), float(theta))}


@dataclass(frozen=True)
class Claim:
    """One published claim: the built-in runs it reads, the ``observe``
    measure it takes from each, and its predicate ``holds(measured,
    published, bound)``, given one value per scenario (published ``None``
    where the study gives none)."""

    id: str
    scenarios: tuple
    measure: str
    bound: object
    holds: object

    def check(self, measured) -> tuple:
        """Whether the claim holds for ``measured``, and the values it read."""
        measured = tuple(measured)
        published = tuple(_PUBLISHED.get((name, self.measure)) for name in self.scenarios)
        values = ", ".join(f"{name} {_fmt(v, '.4g')} (published {_fmt(p)})"
                           for name, v, p in zip(self.scenarios, measured, published))
        return (self.holds(measured, published, self.bound),
                f"{self.measure} {values}; bound {self.bound}")

    def verdict(self, observed) -> tuple:
        """``check`` on ``observed(name)``, the ``observe`` of each scenario's run."""
        return self.check(observed(name)[self.measure] for name in self.scenarios)


def _ranks(values) -> list:
    """Indices of ``values`` from smallest to largest; ties keep their order."""
    return sorted(range(len(values)), key=values.__getitem__)


CLAIMS = {claim.id: claim for claim in (
    # settling order as published, and hybrid/pid settling inside the band
    Claim("6a", ("cart-position-pid-nominal", "cart-position-lqr-nominal",
                 "cart-position-hybrid-nominal"), "settling", (0.39, 0.69),
          lambda s, published, band: (_ranks(s) == _ranks(published)
                                      and band[0] <= s[2] / s[0] <= band[1])),
    # every |sse| under disturbance within the bound
    Claim("6b", ("cart-position-pid-disturbance", "cart-position-lqr-disturbance",
                 "cart-position-hybrid-disturbance"), "sse", 1e-3,
          lambda sse, published, bound: all(abs(v) <= bound for v in sse)),
    # hybrid settling at +20% cart mass at most bound x nominal, and before lqr's
    Claim("6c", ("cart-position-hybrid-nominal", "cart-position-lqr-parameter-variation",
                 "cart-position-hybrid-parameter-variation"), "settling", 1.1,
          lambda s, published, bound: (s[2] / s[0] <= bound
                                       and _ranks(s[1:]) == _ranks(published[1:]))),
    # hybrid settles first; each run settles at |x - x_ref| <= x_tol, |theta| <= theta_tol
    Claim("6d", ("simultaneous-pid-nominal", "simultaneous-lqr-nominal",
                 "simultaneous-hybrid-nominal"), "final", (0.3, 0.01, 0.01),
          lambda finals, published, bound: _ranks([s for s, _, _ in finals])[0] == 2 and all(
              math.isfinite(s) and abs(x - bound[0]) <= bound[1] and abs(theta) <= bound[2]
              for s, x, theta in finals)),
)}


def _fmt(v, spec=".4f") -> str:
    if v is None:
        return "n/a"
    if isinstance(v, tuple):
        return "(" + ", ".join(_fmt(c, spec) for c in v) + ")"
    if not math.isfinite(v):
        return "not settled"
    return f"{v:{spec}}"


def run_comparison(progress=None) -> tuple:
    """Run the comparison scenarios, each once; return the published-vs-observed
    report with one verdict line per claim, and whether every claim holds.

    ``progress`` is called with each scenario name before it runs, for the
    CLI to show liveness during the sweep.
    """
    catalog = builtin_scenarios()
    observations = {}

    def observed(name):
        if name not in observations:
            if progress is not None:
                progress(name)
            observations[name] = observe(run_scenario(catalog[name]))
        return observations[name]

    rows = [(label, published, observed(name)[metric])
            for name, metric, label, published in _ROWS]
    pid = observed("cart-position-pid-nominal")["settling"]
    hyb = observed("cart-position-hybrid-nominal")["settling"]
    ratio = (100.0 * hyb / pid
             if math.isfinite(hyb) and math.isfinite(pid) and pid > 0.0 else math.inf)
    rows.append(("cart step: hybrid/pid settling ratio [%]", 54.0, ratio))
    verdicts = [claim.verdict(observed) for claim in CLAIMS.values()]
    # the cart study's LQR: hanging, default weights
    gain = build_controller(catalog["cart-position-lqr-nominal"]).k_gain

    width = max(len(label) for label, _, _ in rows) + 2
    out = [f"{'quantity':<{width}}{'published':>14}{'this run':>14}"]
    for label, published, observed_value in rows:
        out.append(f"{label:<{width}}{_fmt(published):>14}{_fmt(observed_value):>14}")
    out.append("")
    out.extend(f"claim {claim.id} {'PASS' if holds else 'FAIL'}: {detail}"
               for claim, (holds, detail) in zip(CLAIMS.values(), verdicts))
    out.append("")
    out.append("state feedback gain at the default weights (hanging design):")
    out.append("  published: [" + ", ".join(f"{v:.4f}" for v in PUBLISHED_GAIN) + "]")
    out.append("  this run:  [" + ", ".join(f"{v:.4f}" for v in gain) + "]")
    out.append("")
    out.append("orderings are the reproduction target; absolute values depend on")
    out.append("tuning constants the published tables do not disclose.")
    return "\n".join(out) + "\n", all(holds for holds, _ in verdicts)
