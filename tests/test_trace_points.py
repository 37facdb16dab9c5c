"""The refinement-study bench's tracer (``bench/spans.py``) patches mddg callables
in place; every callable it names must exist where it patches it, and every
result field it reads must exist on what the callable returns.  Its correctness
gate (``bench/workloads.py``) reads a study report's fields the same way."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import mddg
import mddg.sparse
import mddg.timeint
from mddg.basis import make_basis
from mddg.harness import RunConfig, make_problem, mesh_hierarchy, method_registry, run_convergence
from mddg.operator import assemble

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name, monkeypatch):
    """``bench/<name>.py``, loaded without writing bytecode into bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def spans(monkeypatch):
    return load_bench_module("spans", monkeypatch)


@pytest.fixture
def workloads(monkeypatch):
    return load_bench_module("workloads", monkeypatch)


def test_every_wrap_point_is_an_own_attribute(spans):
    # Tracer.install replaces owner.__dict__[attr]; moving or deleting a wrapped
    # callable would otherwise break only the traced bench run
    points = spans.wrap_points(mddg)
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in points if attr not in owner.__dict__]
    assert missing == []


def test_traced_physical_step_records_every_solver_attr(spans):
    # the attrs hooks read SolveStats fields and the system's nnz; a field that went
    # missing would otherwise break only the traced bench run.  A study marches in
    # frequency space and reaches neither hook, so a physical step drives them
    tracer = spans.Tracer()
    tracer.install(mddg)
    try:
        report = run_convergence(RunConfig(problem="convection_diffusion", p=1, levels=2))
        study = tracer.take()
        op = assemble(mesh_hierarchy(2)[1], make_basis(1), make_problem("convection_diffusion"), 20.0)
        mddg.timeint.MdrkWorkspace(op, method_registry()["tp4"].tableau, 0.25).step(np.ones(op.n_dof), 0.0)
    finally:
        tracer.uninstall()
    assert not report.failures
    assert not [r for r in study if r[0] in ("sparse.solve", "sparse.prepare", "timeint.step")]
    records = tracer.take()
    for name in ("sparse.solve", "sparse.prepare"):
        attrs = [r[6] for r in records if r[0] == name]
        assert attrs and None not in attrs, name
    metrics, _ = spans.layer_metrics(records, wall_s=1.0)
    assert metrics["sparse.gmres_iters"] == 0
    assert metrics["sparse.fallbacks"] == 0
    assert 0 < metrics["sparse.max_residual"] <= 1e-10


def test_retired_wrap_points_prepare_directly_or_raise():
    # LinearSolver().prepare is PreparedSystem, so the traced prepare sees the real system;
    # the GMRES and ILUTP names are placeholders that no solve reaches
    system = mddg.sparse.CsrMatrix(np.diag([2.0, 4.0]))
    prepared = mddg.sparse.LinearSolver().prepare(system)
    assert isinstance(prepared, mddg.sparse.PreparedSystem) and prepared.A is system
    for retired in (mddg.sparse.gmres_solve, mddg.sparse.ilu_factor, mddg.sparse.IluFactors().apply):
        with pytest.raises(NotImplementedError):
            retired(system, np.ones(2))


@pytest.mark.parametrize(
    "config",
    [dict(problem="convection_diffusion", p=1), dict(problem="convection", p=0)],
    ids=["cd-p1", "convection-p0"],
)
def test_bench_gate_passes_a_real_study(workloads, config):
    # the bench's end-to-end gate (--trace 0) reads every level's errors, notes and
    # SolveStats, with fallbacks forbidden as on cd_gmres and conv_p5; measured against
    # its own errors a sound two-level study passes every level
    report = run_convergence(RunConfig(levels=2, **config))
    assert not report.failures
    reasons = workloads.gate_study(report, report.errors, None, no_fallbacks=True, full_study=True)
    assert reasons == ["", ""]
