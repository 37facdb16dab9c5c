"""In-memory span tracer for the refinement-study bench.

Spans are recorded from the benchmark's own files: ``Tracer.install``
replaces public callables of the ``mddg`` package, at the name the caller
looks them up by, with timing wrappers, and ``uninstall`` restores them.
A span record is ``[name, start, end, parent, study, level, attrs]``:
``parent`` is the index of the enclosing span (-1 at top level),
``study``/``level`` identify the study and refinement level that was
running, and ``attrs`` holds counts read from the call's arguments or
result (GMRES iterations, residuals, system size).  Self time is a span's
duration minus the durations of its direct children.

Nothing here imports numpy, so importing this module does not load the
BLAS before the benchmark has fixed its thread settings.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "study", "level", "attrs")


def _solve_attrs(args, result):
    stats = result[1]
    return {"residual": stats.residual, "fallback": stats.fallback_used}


def _gmres_attrs(args, result):
    return {"iters": result[1].iterations}


def _prepare_attrs(args, result):
    return {"nnz": args[1].nnz}


def wrap_points(mddg):
    """(owner, attribute, span name, attrs hook, starts a level) per wrapped callable.

    Functions are wrapped in the module that calls them, e.g.
    ``mddg.harness.assemble`` rather than ``mddg.operator.assemble``, because
    a caller resolves a module-level name through its own globals.
    """
    h, t, s, o, b = mddg.harness, mddg.timeint, mddg.sparse, mddg.operator, mddg.basis
    return [
        (h, "mesh_hierarchy", "mesh.build", None, False),
        (h, "assemble", "operator.assemble", None, True),
        (h, "project_l2", "operator.fields", None, False),
        (h, "l2_error", "operator.fields", None, False),
        (h, "integrate", "timeint.integrate", None, False),
        (b.BasisSet, "eval", "basis.eval", None, False),
        (b.BasisSet, "grad", "basis.eval", None, False),
        (o.DgOperator, "source_vector", "operator.source", None, False),
        (t, "make_workspace", "timeint.workspace", None, False),
        (t.TwoPointWorkspace, "step", "timeint.step", None, False),
        (t.MdrkWorkspace, "step", "timeint.step", None, False),
        (s.LinearSolver, "prepare", "sparse.prepare", _prepare_attrs, False),
        (s, "ilu_factor", "sparse.ilu_factor", None, False),
        (s.PreparedSystem, "solve", "sparse.solve", _solve_attrs, False),
        (s, "gmres_solve", "sparse.gmres", _gmres_attrs, False),
        (s.IluFactors, "apply", "sparse.ilu_apply", None, False),
        (s.CsrMatrix, "matvec", "sparse.matvec", None, False),
    ]


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.study = None
        self.level = None

    def begin_study(self, study_id):
        """Tag the following spans with ``study_id``; levels restart."""
        self.study = study_id
        self.level = None

    def _wrap(self, fn, name, attrs_hook, starts_level):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_level:
                self.level = 0 if self.level is None else self.level + 1
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.study, self.level, None]
            spans.append(record)
            stack.append(idx)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if attrs_hook is not None:
                record[6] = attrs_hook(args, result)
            return result

        return traced

    def install(self, mddg):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook, starts_level in wrap_points(mddg):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, hook, starts_level))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = self.spans[:]
        self.spans.clear()
        return out


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def percentile(sorted_values, pct):
    """Linear-interpolation percentile of an ascending list (numpy's default)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values):
    """(percentile, value) of the highest of p99.9/p99/p90/p50 with >= 10 samples beyond it.

    Returns (0, 0.0) when fewer than 20 samples exist.
    """
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(ordered) * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(ordered, pct)
    return 0.0, 0.0


def _timing_metrics(prefix, median_name, durations_s):
    """Median, tail (value and percentile) and sample count of durations, in ms."""
    pct, value = tail(durations_s)
    return {
        median_name: percentile(sorted(durations_s), 50.0) * 1e3,
        f"{prefix}_tail": value * 1e3,
        f"{prefix}_tail_pct": pct,
        f"{prefix}_n": len(durations_s),
    }


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass whose studies took ``wall_s`` in total."""
    own = self_times(spans)
    total, selft, calls = {}, {}, {}
    for s, o in zip(spans, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        selft[name] = selft.get(name, 0.0) + o
        calls[name] = calls.get(name, 0) + 1

    finest = {}
    for s in spans:
        if s[5] is not None:
            finest[s[4]] = max(finest.get(s[4], 0), s[5])

    def at_finest(name):
        return [s[2] - s[1] for s in spans if s[0] == name and s[5] == finest.get(s[4])]

    solves = [s[6] for s in spans if s[0] == "sparse.solve" and s[6] is not None]
    gmres_iters = sum(s[6]["iters"] for s in spans if s[0] == "sparse.gmres")
    fallbacks = sum(1 for a in solves if a["fallback"])
    nnz = [s[6]["nnz"] for s in spans if s[0] == "sparse.prepare" and s[5] == finest.get(s[4])]
    accounted = sum(own)

    m = {
        "mesh.build_s": total.get("mesh.build", 0.0),
        "basis.eval_s": total.get("basis.eval", 0.0),
        "basis.eval_calls": calls.get("basis.eval", 0),
        "operator.assemble_s": total.get("operator.assemble", 0.0),
        "operator.source_s": total.get("operator.source", 0.0),
        "operator.fields_s": total.get("operator.fields", 0.0),
        "timeint.integrate_self_s": selft.get("timeint.integrate", 0.0),
        "timeint.workspace_s": total.get("timeint.workspace", 0.0),
        "timeint.block_build_s": selft.get("timeint.workspace", 0.0),
        "timeint.step_s": total.get("timeint.step", 0.0),
        "timeint.step_self_s": selft.get("timeint.step", 0.0),
        "timeint.steps": calls.get("timeint.step", 0),
    }
    m.update(_timing_metrics("timeint.step_ms", "timeint.step_ms_p50", at_finest("timeint.step")))
    m.update({
        "sparse.prepare_s": total.get("sparse.prepare", 0.0),
        "sparse.ilu_factor_s": total.get("sparse.ilu_factor", 0.0),
        "sparse.ilu_apply_s": total.get("sparse.ilu_apply", 0.0),
        "sparse.ilu_apply_calls": calls.get("sparse.ilu_apply", 0),
    })
    m.update(_timing_metrics("sparse.ilu_apply_ms", "sparse.ilu_apply_ms", at_finest("sparse.ilu_apply")))
    m.update({
        "sparse.gmres_s": total.get("sparse.gmres", 0.0),
        "sparse.gmres_self_s": selft.get("sparse.gmres", 0.0),
        "sparse.gmres_iters": gmres_iters,
        "sparse.iters_per_solve": gmres_iters / calls["sparse.gmres"] if calls.get("sparse.gmres") else 0.0,
        "sparse.direct_s": selft.get("sparse.solve", 0.0),
        "sparse.matvec_s": total.get("sparse.matvec", 0.0),
        "sparse.matvec_calls": calls.get("sparse.matvec", 0),
        "sparse.solves": calls.get("sparse.solve", 0),
        "sparse.fallbacks": fallbacks,
        "sparse.fallback_share": fallbacks / len(solves) if solves else 0.0,
        "sparse.max_residual": max((a["residual"] for a in solves), default=0.0),
        "sparse.system_nnz": max(nnz, default=0),
        "harness.unaccounted_s": wall_s - accounted,
        "trace.wall_s": wall_s,
        "trace.coverage": 100.0 * accounted / wall_s if wall_s > 0 else 0.0,
        "trace.spans": len(spans),
    })
    return m, {name: selft[name] for name in sorted(selft)}
