"""Workload definitions and the correctness gate of the refinement-study bench.

A workload is a fixed list of refinement studies (``RunConfig`` keyword
sets).  None of them takes random input; the workload seed only shuffles
the order of studies within a repeat.  An *operation* is one study level.

Each study also names the acceptance-suite check its final orders must
pass, with that criterion's tolerance:

* ``("order", expected, tol)``: |final observed order - expected| <= tol;
* ``("monotone",)``: errors strictly decrease level by level
  (``test_coarse_timestep_variant``, which pins no order at dt0 = 1.0);
* ``("approach",)``: the last three orders increase and the final one
  exceeds 0.55 (``test_structured_mesh_rates``, the p = 0 rates);
* ``None``: the suite pins no order or trend for this study, so only the
  per-level reference check applies.
"""

from __future__ import annotations

import math

# Relative tolerance of a level's L2 error against the reference recorded at
# the commit that defined this benchmark.  The linear solves stop at a
# relative residual of 1e-10; rerunning every study with the SuperLU direct
# solver (residual ~1e-14) moved no level's error by more than 4.1e-9
# relative (tp5/p = 4 convection-diffusion, finest level).  Any solver that
# meets the same residual contract lands in the same ball around the exact
# discrete solution, so 1e-6 leaves a margin of ~250x for legitimate solver
# changes while still catching any change to the discretization, which
# moves errors at the 1e-3 level or more.
ERROR_RTOL = 1e-6

# Residual contract of every linear solve (ROADMAP aim 3, criteria 4 and 11).
MAX_RESIDUAL = 1e-10

WORKLOADS = {
    "cd_gmres": {
        "why": (
            "convection-diffusion with GMRES + ILU(2); ILU apply dominates, "
            "two- and three-derivative blocks, source on the step path"
        ),
        "no_fallbacks": True,
        "studies": [
            (
                dict(problem="convection_diffusion", p=2, method="tp3", dt0=0.5, levels=5),
                ("order", 3.0, 0.4),  # criterion 4
            ),
            (
                dict(problem="convection_diffusion", p=4, method="tp5", dt0=0.5, levels=4),
                ("order", 5.0, 0.4),  # criterion 4
            ),
        ],
    },
    "conv_p5": {
        "why": (
            "convection at p = 5 over all three method families; few GMRES "
            "iterations per solve, so assembly and ILU factorization dominate"
        ),
        "no_fallbacks": True,
        "studies": [
            (
                dict(problem="convection", p=5, method="mdrk6", dt0=1.0, levels=4),
                ("monotone",),  # test_coarse_timestep_variant
            ),
            (
                dict(problem="convection", p=5, method="gl6", dt0=1.0, levels=4),
                None,  # baseline of test_coarse_timestep_variant, not order-pinned
            ),
            (
                dict(problem="convection", p=5, method="tp6", dt0=0.25, levels=4),
                ("order", 6.0, 0.5),  # criterion 2 tolerance for tp6
            ),
        ],
    },
    "direct_deep": {
        "why": (
            "SuperLU direct solves on deep meshes (8192 elements); ILU and "
            "GMRES idle, the no-change control for preconditioner work"
        ),
        "no_fallbacks": False,
        "studies": [
            (
                dict(problem="convection", p=0, method="tp3", dt0=0.25, levels=7, solver="direct"),
                ("approach",),  # test_structured_mesh_rates
            ),
            (
                dict(
                    problem="convection_diffusion", p=4, method="mdrk6", dt0=0.5, levels=4,
                    solver="direct",
                ),
                ("order", 5.0, 0.4),  # criterion 4
            ),
        ],
    },
}


def study_key(kwargs: dict) -> str:
    """Stable identifier of a study, used as the reference-file key."""
    return "{problem}/{method}/p{p}/dt{dt0:g}/{solver}".format(**{"solver": "gmres", **kwargs})


def check_orders(check, report) -> str:
    """Empty string if the study's final orders pass ``check``, else the reason."""
    if check is None:
        return ""
    orders = [r.observed_order for r in report.rows[1:]]
    if any(o is None for o in orders):
        return "an observed order is missing"
    if check[0] == "order":
        _, expected, tol = check
        final = orders[-1]
        if abs(final - expected) > tol:
            return f"final order {final:.3f} outside {expected:g} +- {tol:g}"
    elif check[0] == "monotone":
        errs = report.errors
        if not all(b < a for a, b in zip(errs, errs[1:])):
            return "errors do not decrease monotonically"
    elif check[0] == "approach":
        if not (orders[-1] > orders[-2] > orders[-3] and orders[-1] > 0.55):
            return "last three orders do not increase towards 1"
    else:
        raise ValueError(f"unknown order check {check!r}")
    return ""


def gate_study(report, reference_errors, check, no_fallbacks, full_study) -> list:
    """Check every level of one study; returns one failure reason ('' = pass) per level.

    ``reference_errors`` lists the recorded L2 error per level.  The order
    check runs only on a full study (``full_study``) and is charged to its
    finest level.
    """
    reasons = []
    for level, row in enumerate(report.rows):
        stats = report.solver_stats[level]
        err = row.l2_error
        why = []
        if row.note:
            why.append(row.note)
        if not math.isfinite(err):
            why.append("non-finite error")
        elif level >= len(reference_errors):
            why.append("no reference error for this level")
        else:
            ref = reference_errors[level]
            if abs(err - ref) > ERROR_RTOL * abs(ref):
                why.append(f"error {err:.17g} differs from reference {ref:.17g}")
        worst = max((s.residual for s in stats), default=0.0)
        if not worst <= MAX_RESIDUAL:
            why.append(f"residual {worst:.3e} above {MAX_RESIDUAL:g}")
        if no_fallbacks and any(s.fallback_used for s in stats):
            why.append("direct fallback used")
        reasons.append("; ".join(why))
    if full_study and reasons:
        order_reason = check_orders(check, report)
        if order_reason:
            reasons[-1] = "; ".join(r for r in (reasons[-1], order_reason) if r)
    return reasons
