"""Side-by-side comparison against published reference values.

The built-in scenario matrix mirrors a published cart-pendulum controller
study. This module reruns the headline cases and prints the published
number next to the one this implementation measures. Orderings are the
claim being checked; exact values depend on tuning details the published
tables do not disclose, so differences are reported, not hidden.
"""
from __future__ import annotations

import math

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


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if not math.isfinite(v):
        return "not settled"
    return f"{v:.4f}"


def run_comparison(progress=None) -> str:
    """Run the comparison scenarios and format the published-vs-observed report.

    ``progress`` is called with each scenario name before it runs, for the
    CLI to show liveness during the sweep.
    """
    catalog = builtin_scenarios()
    scores = {}
    rows = []
    for scenario_name, metric, label, published in _ROWS:
        if scenario_name not in scores:
            if progress is not None:
                progress(scenario_name)
            scores[scenario_name] = score_trajectory(run_scenario(catalog[scenario_name]))
        m = scores[scenario_name]
        observed = m.settling_time_s if metric == "settling" else m.steady_state_error
        rows.append((label, published, observed))

    pid = scores["cart-position-pid-nominal"].settling_time_s
    hyb = scores["cart-position-hybrid-nominal"].settling_time_s
    ratio = (100.0 * hyb / pid
             if math.isfinite(hyb) and math.isfinite(pid) and pid > 0.0 else math.inf)
    rows.append(("cart step: hybrid/pid settling ratio [%]", 54.0, ratio))
    # the cart study's LQR: hanging, default weights
    gain = build_controller(catalog["cart-position-lqr-nominal"]).k_gain

    width = max(len(label) for label, _, _ in rows) + 2
    out = [f"{'quantity':<{width}}{'published':>14}{'this run':>14}"]
    for label, published, observed in rows:
        out.append(f"{label:<{width}}{_fmt(published):>14}{_fmt(observed):>14}")
    out.append("")
    out.append("state feedback gain at the default weights (hanging design):")
    out.append("  published: [" + ", ".join(f"{v:.4f}" for v in PUBLISHED_GAIN) + "]")
    out.append("  this run:  [" + ", ".join(f"{v:.4f}" for v in gain) + "]")
    out.append("")
    out.append("orderings are the reproduction target; absolute values depend on")
    out.append("tuning constants the published tables do not disclose.")
    return "\n".join(out) + "\n"
