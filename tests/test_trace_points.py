"""The refinement-study bench's tracer (``bench/spans.py``) patches mddg callables
in place; every callable it names must exist where it patches it, and every
result field it reads must exist on what the callable returns."""

import importlib.util
import pathlib
import sys

import pytest

import mddg
from mddg.harness import RunConfig, run_convergence
from mddg.sparse import LinearSolver
from mddg.timeint import MdrkWorkspace

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    """``bench/spans.py``, loaded without writing bytecode into bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_is_an_own_attribute(spans):
    # Tracer.install replaces owner.__dict__[attr]; moving or deleting a wrapped
    # callable would otherwise break only the traced bench run
    points = spans.wrap_points(mddg)
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in points if attr not in owner.__dict__]
    assert missing == []


def test_traced_study_records_every_solver_attr(spans, monkeypatch):
    # the attrs hooks read SolveStats fields and the system's nnz; a field that
    # went missing would otherwise break only the traced bench run.  Each workspace's
    # system is prepared again by a GMRES-kind solver, so the diffusion solves run
    # GMRES rather than the Fourier-symbol solve and its span is recorded
    init = MdrkWorkspace.__init__

    def gmres_workspace(self, *args):
        init(self, *args)
        self.prepared = LinearSolver().prepare(self.system)

    monkeypatch.setattr(MdrkWorkspace, "__init__", gmres_workspace)
    tracer = spans.Tracer()
    tracer.install(mddg)
    try:
        report = run_convergence(RunConfig(problem="convection_diffusion", p=1, levels=2))
    finally:
        tracer.uninstall()
    assert not report.failures
    records = tracer.take()
    for name in ("sparse.solve", "sparse.gmres", "sparse.prepare"):
        attrs = [r[6] for r in records if r[0] == name]
        assert attrs and None not in attrs, name
    metrics, _ = spans.layer_metrics(records, wall_s=1.0)
    assert metrics["sparse.gmres_iters"] > 0
    assert metrics["sparse.fallbacks"] == 0
    assert 0 < metrics["sparse.max_residual"] <= 1e-10
