import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import mddg.sparse
from mddg.basis import make_basis
from mddg.harness import default_eta, make_problem, mesh_hierarchy, method_registry
from mddg.operator import assemble, project_l2
from mddg.sparse import (
    ILU_DROP_TOL,
    ILU_FILL_FACTOR,
    CsrMatrix,
    FourierFactor,
    KroneckerSystem,
    LinearSolver,
    SolverFailure,
    StencilOperator,
    gmres_solve,
    ilu_factor,
)
from mddg.timeint import as_tableau, integrate, make_workspace, mdrk_step

from conftest import applied, run_fresh


def random_csr(n, density, seed, diag_boost=0.0):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(n, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, True)
    D = np.where(mask, D, 0.0)
    D += diag_boost * np.eye(n)
    return CsrMatrix(D), D


def triplets(rows, cols, vals, shape):
    """``CsrMatrix.from_blocks`` with 1 x 1 blocks: the coordinate-triplet builder."""
    return CsrMatrix.from_blocks(rows, cols, np.reshape(vals, (-1, 1, 1)), shape)


class TestCsrMatrix:
    def test_duplicates_summed(self):
        A = triplets([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
        assert A.nnz == 2
        assert A.toarray()[0, 1] == 5.0

    def test_rows_sorted_by_column(self):
        A = triplets([0, 0, 0], [2, 0, 1], [1.0, 2.0, 3.0], (1, 3))
        assert list(A.indices) == [0, 1, 2]

    @pytest.mark.parametrize(
        "row, col", [(0, 5), (2, 0), (-1, 0)], ids=["column", "row-past-end", "row-negative"]
    )
    def test_out_of_bounds_rejected(self, row, col):
        with pytest.raises(ValueError, match="index out of bounds"):
            triplets([row], [col], [1.0], (2, 2))

    def test_empty_input(self):
        A = triplets([], [], [], (3, 4))
        assert A.shape == (3, 4) and A.nnz == 0
        assert np.array_equal(A.indptr, np.zeros(4))
        assert not A.toarray().any()

    def test_blocks_summed_in_place(self):
        # 2 x 3 blocks on a 3 x 2 block grid, two of them on the same block
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(4, 2, 3))
        brows, bcols = [2, 0, 2, 1], [1, 0, 1, 0]
        D = np.zeros((6, 6))
        for r, c, b in zip(brows, bcols, blocks):
            D[2 * r : 2 * r + 2, 3 * c : 3 * c + 3] += b
        A = CsrMatrix.from_blocks(brows, bcols, blocks, (6, 6))
        assert np.array_equal(A.toarray(), D)
        assert A.nnz == 3 * 6
        assert all(np.all(np.diff(A.indices[a:b]) > 0) for a, b in zip(A.indptr[:-1], A.indptr[1:]))

    def test_int32_index_arrays(self):
        # the builder, a stencil's tiled CSR, and the p = 0 operator and its block system's Z
        # keep scipy's int32 index arrays
        A = triplets([3, 0, 0, 2], [1, 2, 2, 0], [0.1, 0.2, 0.3, 0.4], (4, 4))
        op = assemble(mesh_hierarchy(2)[1], make_basis(2), make_problem("convection_diffusion"), 20.0)
        op0 = assemble(mesh_hierarchy(2)[1], make_basis(0), make_problem("convection"), 20.0)
        ws = make_workspace(op0, method_registry()["mdrk6"], 0.1)
        for M in (A, op.matrix.tocsr(), op0.matrix, ws.system.Z):
            assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32

    @pytest.mark.parametrize("p", [0, 1])
    def test_operator_is_scipy_sparse_and_system_is_kronecker(self, p):
        # a p = 0 operator is its stencil's CSR, a p >= 1 one the stencil itself; the block
        # system keeps the operator itself, not a copy, and dt C
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem("convection"), 20.0)
        ws = make_workspace(op, method_registry()["tp3"], 0.1)
        assert isinstance(op.stencil, StencilOperator)
        if p:
            assert op.matrix is op.stencil and not sp.issparse(op.matrix)
        else:
            assert sp.issparse(op.matrix) and op.matrix.format == "csr"
            assert isinstance(op.matrix, CsrMatrix)
        assert isinstance(ws.system, KroneckerSystem) and ws.system.Z is op.matrix
        assert np.array_equal(ws.system.C, 0.1 * ws.tableau.coupling)
        assembled_system(ws)

    def test_deterministic_construction(self):
        args = ([3, 0, 0, 2], [1, 2, 2, 0], [0.1, 0.2, 0.3, 0.4], (4, 4))
        A = triplets(*args)
        B = triplets(*args)
        assert np.array_equal(A.data, B.data)
        assert np.array_equal(A.indices, B.indices)
        assert np.array_equal(A.indptr, B.indptr)


def assembled_system(ws):
    """The dense I - C (x) dt A of a workspace, checked against its system's products."""
    C = ws.tableau.coupling
    K = np.eye(len(C) * ws.n) - np.kron(C, ws.dt * ws.op.matrix.tocsr().toarray())
    assert np.max(np.abs(applied(ws.system) - K)) <= 1e-15 * np.max(np.abs(K))
    return K


def identity(n):
    return CsrMatrix(sp.identity(n, format="csr"))


def direct_solve(A, b):
    return LinearSolver(kind="direct").prepare(A).solve(b)[0]


def starve_gmres(monkeypatch, maxit, restart):
    """Stop GMRES after ``maxit`` iterations, under an ILUTP that drops every entry below
    a tenth of its column: the default ILUTP is all but an exact LU of the small test
    systems, which GMRES then solves to 1e-10 in one iteration."""
    monkeypatch.setattr(mddg.sparse, "ILU_DROP_TOL", 0.1)
    monkeypatch.setattr(mddg.sparse, "GMRES_MAXIT", maxit)
    monkeypatch.setattr(mddg.sparse, "GMRES_RESTART", restart)


def count_lu_solves(monkeypatch, first_error=0.0):
    """Count SuperLU ``solve`` calls; the first result is scaled by 1 + first_error."""
    calls = []
    splu = scipy.sparse.linalg.splu

    class CountingLU:
        def __init__(self, A, **kwargs):
            self.lu = splu(A, **kwargs)

        def solve(self, b):
            calls.append(b)
            x = self.lu.solve(b)
            return x * (1.0 + first_error) if len(calls) == 1 else x

    monkeypatch.setattr(scipy.sparse.linalg, "splu", CountingLU)
    return calls


class TestSpmv:
    # sparse matrix-vector products through CsrMatrix.matvec
    def test_identity(self):
        A = identity(7)
        x = np.arange(7.0)
        assert np.array_equal(A.matvec(x), x)

    def test_zero_vector(self):
        A, _ = random_csr(6, 0.5, seed=0)
        assert np.array_equal(A.matvec(np.zeros(6)), np.zeros(6))

    def test_against_dense_oracle(self):
        A, D = random_csr(5, 0.6, seed=1)
        x = np.random.default_rng(2).normal(size=5)
        assert np.max(np.abs(A.matvec(x) - D @ x)) < 1e-14

    def test_dimension_mismatch(self):
        A = identity(3)
        with pytest.raises(ValueError):
            A.matvec(np.ones(4))


@pytest.mark.parametrize(
    "p, method, dt",
    [
        (4, "tp5", 0.25),  # block size 15
        (5, "mdrk6", 0.5),  # block size 21
    ],
)
def test_ilutp_on_dg_block_system(p, method, dt):
    # the implicit block system of one convection-diffusion step on mesh level 1 (8 elements)
    # preconditioned blockwise through the tableau's eigenvectors, so apply works in
    # complex arithmetic and must still hand GMRES a fresh real vector
    prob = make_problem("convection_diffusion")
    op = assemble(mesh_hierarchy(2)[1], make_basis(p), prob, default_eta(p))
    tableau = as_tableau(method_registry()[method])
    ws = make_workspace(op, tableau, dt)
    A = ws.system
    D = assembled_system(ws)
    b = np.random.default_rng(21).normal(size=A.shape[0])

    prep = LinearSolver().prepare(A)
    x, stats = prep.solve(b)
    assert stats.converged and not stats.fallback_used
    assert np.linalg.norm(b - D @ x) <= 1e-10 * np.linalg.norm(b)
    _, plain = gmres_solve(A, b, maxit=20 * A.shape[0])
    assert stats.iterations < plain.iterations

    f = prep.ilu
    assert f.V is not None and np.iscomplexobj(f.V)
    b_before = b.copy()
    y = f.apply(b)
    assert np.array_equal(b, b_before)
    assert y.dtype == np.float64 and y.shape == b.shape and y is not b
    assert np.array_equal(f.apply(b), y)


class TestGmres:
    def test_identity_converges_immediately(self):
        A = identity(9)
        b = np.arange(1.0, 10.0)
        x, stats = gmres_solve(A, b, rtol=1e-12)
        assert stats.converged
        assert stats.iterations <= 1
        assert np.max(np.abs(x - b)) < 1e-12

    def test_spd_3x3_known_inverse(self):
        D = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        A = CsrMatrix(D)
        b = np.array([1.0, 2.0, 3.0])
        x, stats = gmres_solve(A, b, rtol=1e-12)
        assert stats.converged
        assert np.max(np.abs(x - np.linalg.solve(D, b))) < 1e-10

    def test_zero_rhs(self):
        A = identity(4)
        x, stats = gmres_solve(A, np.zeros(4))
        assert stats.converged
        assert np.array_equal(x, np.zeros(4))

    def test_preconditioned_convergence(self):
        A, D = random_csr(60, 0.1, seed=8, diag_boost=10.0)
        f = ilu_factor(A)
        b = np.random.default_rng(9).normal(size=60)
        x, stats = gmres_solve(A, b, precond=f, rtol=1e-11)
        assert stats.converged
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) <= 1e-11

    def test_residual_history_monotone_within_cycle(self):
        A, _ = random_csr(40, 0.2, seed=10, diag_boost=3.0)
        b = np.random.default_rng(11).normal(size=40)
        _, stats = gmres_solve(A, b, rtol=1e-12, restart=40)
        hist = np.array(stats.residual_history)
        assert np.all(np.diff(hist) <= 1e-14)

    def test_maxit_reports_failure(self):
        A, _ = random_csr(50, 0.3, seed=12, diag_boost=0.5)
        b = np.ones(50)
        _, stats = gmres_solve(A, b, rtol=1e-14, restart=5, maxit=6)
        assert not stats.converged
        assert stats.iterations == 6

    def test_huge_restart_sized_by_system(self):
        # the Arnoldi arrays hold at most n + 1 vectors, whatever the restart
        A, D = random_csr(10, 0.3, seed=14, diag_boost=10.0)
        b = np.ones(10)
        x, stats = gmres_solve(A, b, rtol=1e-12, restart=10**6)
        assert stats.converged
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) <= 1e-12

    def test_invalid_rtol(self):
        # an rtol of 1 or more would return the initial guess as converged
        for rtol in (0.0, 1.0, 2.0, float("nan")):
            with pytest.raises(ValueError, match="rtol"):
                gmres_solve(identity(2), np.ones(2), rtol=rtol)

    @pytest.mark.parametrize(
        "name, value", [("restart", 0), ("restart", -3), ("maxit", 0), ("maxit", -1)]
    )
    def test_invalid_limit_rejected(self, name, value):
        # refused before any product: restart 0 used to return unconverged after no
        # iterations, a negative restart leaked numpy's error and maxit -1 did nothing
        class Untouchable:
            def __getattr__(self, attr):
                raise AssertionError(f"the system was used: {attr}")

        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            gmres_solve(Untouchable(), np.ones(2), **{name: value})

    @pytest.mark.parametrize("name", ["b", "x0"])
    def test_wrong_length_rejected(self, name):
        args = {"b": np.ones(3), "x0": np.zeros(3), name: np.ones(4)}
        with pytest.raises(ValueError, match=f"{name} must have length 3, got shape \\(4,\\)"):
            gmres_solve(identity(3), args["b"], x0=args["x0"])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["b", "x0"])
    def test_non_finite_rejected(self, name, value):
        # refused before any work, not left to fail inside the least-squares solve
        args = {"b": np.ones(3), "x0": np.zeros(3)}
        args[name][1] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            gmres_solve(identity(3), args["b"], x0=args["x0"])

    @pytest.mark.parametrize(
        "D, b, residual",
        [
            ([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], 1.0),
            ([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0], 1.0),
            ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], np.sqrt(0.5)),
        ],
    )
    def test_singular_operator_ends_unconverged(self, D, b, residual):
        # A z_j = 0 makes a Hessenberg column vanish; the least-squares solve
        # still gives a finite iterate, whose true residual is reported
        D, b = np.array(D), np.array(b)
        x, stats = gmres_solve(CsrMatrix(D), b)
        assert not stats.converged
        assert np.all(np.isfinite(x))
        assert stats.residual == pytest.approx(residual, rel=1e-12)
        true_res = np.linalg.norm(b - D @ x) / np.linalg.norm(b)
        assert stats.residual == pytest.approx(true_res, rel=1e-12)

    def test_determinism(self):
        A, _ = random_csr(30, 0.3, seed=13, diag_boost=4.0)
        f = ilu_factor(A)
        b = np.linspace(-1, 1, 30)
        x1, s1 = gmres_solve(A, b, precond=f, rtol=1e-12)
        x2, s2 = gmres_solve(A, b, precond=f, rtol=1e-12)
        assert np.array_equal(x1, x2)
        assert s1.iterations == s2.iterations


class CountingPrecond:
    """A preconditioner that counts its applies."""

    def __init__(self, apply):
        self._apply = apply
        self.calls = 0

    def apply(self, v):
        self.calls += 1
        return self._apply(v)


class TestGmresKeptVectors:
    @pytest.mark.parametrize("restart", [60, 2])
    def test_one_apply_per_iteration(self, restart):
        # a cycle ends with x += Z y from the kept M^-1 v_j, not with one more apply
        A, D = random_csr(60, 0.1, seed=8, diag_boost=10.0)
        M = CountingPrecond(lambda v: v / A.diagonal())
        b = np.random.default_rng(9).normal(size=60)
        x, stats = gmres_solve(A, b, precond=M, rtol=1e-11, restart=restart)
        assert stats.converged
        assert (stats.iterations > restart) == (restart == 2)  # one cycle, or several
        assert M.calls == stats.iterations
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) <= 1e-11

    def test_one_apply_per_iteration_with_ilutp(self):
        A, _ = random_csr(40, 0.4, seed=19, diag_boost=0.8)
        M = CountingPrecond(ilu_factor(A).apply)
        _, stats = gmres_solve(A, np.ones(40), precond=M, rtol=1e-16, restart=2, maxit=5)
        assert stats.iterations == 5
        assert M.calls == 5

    @pytest.mark.parametrize("maxit", [1, 4, 12])
    def test_maxit_mid_cycle_updates_from_kept_vectors(self, maxit):
        # stopped after maxit of 60 iterations, x is the minimum-residual iterate of
        # the preconditioned Krylov space and the reported residual is the true one
        A, D = random_csr(50, 0.3, seed=12, diag_boost=3.0)
        M = CountingPrecond(lambda v: v / A.diagonal())
        b = np.random.default_rng(21).normal(size=50)
        x, stats = gmres_solve(A, b, precond=M, rtol=1e-14, restart=60, maxit=maxit)
        assert (stats.iterations, stats.converged, M.calls) == (maxit, False, maxit)
        AM = D / A.diagonal()  # A M^-1
        K = [b]
        for _ in range(maxit - 1):
            K.append(AM @ K[-1])
        Q, _ = np.linalg.qr(np.array(K).T)
        y = np.linalg.lstsq(AM @ Q, b, rcond=None)[0]
        x_ref = (Q @ y) / A.diagonal()
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        true_res = np.linalg.norm(b - D @ x) / np.linalg.norm(b)
        assert stats.residual == pytest.approx(true_res, rel=1e-12)
        assert stats.residual == pytest.approx(stats.residual_history[-1], rel=1e-8)

    def test_lucky_breakdown_reads_only_set_rows(self, monkeypatch):
        # A v_0 = v_0 exactly, so the first Arnoldi step breaks down; a NaN-filled
        # np.empty shows any read of a basis row the solve never set
        monkeypatch.setattr(np, "empty", lambda shape, *a, **k: np.full(shape, np.nan, *a, **k))
        b = np.ones(4)
        x, stats = gmres_solve(identity(4), b)
        assert stats.converged
        assert stats.iterations == 1
        assert np.array_equal(x, b)


class TestDirect:
    def test_identity(self):
        A = identity(5)
        b = np.arange(5.0)
        assert np.max(np.abs(direct_solve(A, b) - b)) == 0.0

    def test_permutation(self):
        P = np.eye(5)[[3, 0, 4, 1, 2]]
        A = CsrMatrix(P)
        b = np.arange(5.0)
        x = direct_solve(A, b)
        assert np.max(np.abs(P @ x - b)) < 1e-14

    def test_random_50x50_vs_dense(self):
        A, D = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x = direct_solve(A, b)
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) < 1e-10

    def test_singular_reported(self):
        # SuperLU's "exactly singular" RuntimeError surfaces as SolverFailure, both
        # for the direct kind and for the GMRES fallback after an ILU zero pivot
        A = CsrMatrix(sp.diags([1.0, 0.0, 2.0]))
        for kind in ("direct", "gmres"):
            with pytest.raises(SolverFailure, match="singular"):
                LinearSolver(kind=kind).prepare(A).solve(np.ones(3))

    def test_accurate_solve_is_not_refined(self, monkeypatch):
        calls = count_lu_solves(monkeypatch)
        A, D = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x, stats = LinearSolver(kind="direct").prepare(A).solve(b)
        assert len(calls) == 1
        assert stats.converged and stats.residual <= 1e-12
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) == pytest.approx(stats.residual)

    def test_inaccurate_solve_is_refined_once(self, monkeypatch):
        calls = count_lu_solves(monkeypatch, first_error=1e-8)
        A, D = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x, stats = LinearSolver(kind="direct").prepare(A).solve(b)
        assert len(calls) == 2
        assert stats.converged and stats.residual <= 1e-12
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) <= 1e-12

def record_lu_shapes(monkeypatch, name="splu", record=lambda A, kwargs: A.shape):
    """Record the shape (or ``record(A, kwargs)``) of every matrix SuperLU factors
    completely (or incompletely)."""
    shapes = []
    factor = getattr(scipy.sparse.linalg, name)

    def recording(A, **kwargs):
        shapes.append(record(A, kwargs))
        return factor(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, name, recording)
    return shapes


def through_symbol(prepared):
    """Whether every block of ``prepared``'s complete factor is a ``FourierFactor``."""
    return all(isinstance(f, FourierFactor) for _, f, _ in prepared._direct.factors)


class TestDecoupledDirect:
    # a block system I - C (x) Z is factored as one n x n LU per real eigenvalue
    # and per conjugate pair of C, never as one sMn x sMn LU
    @pytest.mark.parametrize(
        "problem, p",
        [
            pytest.param("convection", 2, id="convection"),
            pytest.param("convection_diffusion", 2, id="convection_diffusion"),
            pytest.param("convection", 0, id="convection-p0"),
        ],
    )
    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_workspace_solve_matches_dense(self, problem, p, method, monkeypatch):
        # a workspace at p >= 1 solves through the Fourier symbol, with no SuperLU call,
        # and at p = 0 by SuperLU; the direct kind's SuperLU factors the same system, on
        # the stencil's CSR, block by block
        shapes = record_lu_shapes(monkeypatch)
        ilu_shapes = record_lu_shapes(monkeypatch, "spilu")
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem(problem), default_eta(p))
        ws = make_workspace(op, method_registry()[method], 0.25)
        K = assembled_system(ws)
        b = np.random.default_rng(22).normal(size=K.shape[0])
        x_dense = np.linalg.solve(K, b)
        n = op.n_dof
        lam = np.linalg.eigvals(as_tableau(method_registry()[method]).coupling)
        blocks = [(n, n)] * int(np.sum(lam.imag >= 0))
        assert shapes == (blocks if p == 0 else []) and ilu_shapes == []
        assert through_symbol(ws.prepared) == (p >= 1)
        csr_system = KroneckerSystem(ws.system.C, ws.system.Z.tocsr())
        for prepared in (ws.prepared, LinearSolver(kind="direct").prepare(csr_system)):
            x, stats = prepared.solve(b)
            assert stats.converged and stats.residual <= 1e-12
            assert np.linalg.norm(b - K @ x) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
        assert shapes == blocks * (2 if p == 0 else 1) and ilu_shapes == []

    def test_gmres_fallback_factors_blocks(self, monkeypatch):
        # the preconditioner and the fallback both factor only n x n blocks, one per
        # eigenvalue with nonnegative imaginary part; prepared for GMRES this system (on the
        # stencil's CSR, so that the fallback is SuperLU's) needs 4 GMRES iterations, so
        # maxit = 1 forces the fallback
        monkeypatch.setattr(mddg.sparse, "GMRES_MAXIT", 1)
        monkeypatch.setattr(mddg.sparse, "GMRES_RESTART", 1)
        shapes = record_lu_shapes(monkeypatch)
        ilu_shapes = record_lu_shapes(monkeypatch, "spilu")
        prob = make_problem("convection_diffusion")
        op = assemble(mesh_hierarchy(3)[2], make_basis(2), prob, default_eta(2))
        ws = make_workspace(op, method_registry()["mdrk6"], 0.25)
        prepared = LinearSolver().prepare(KroneckerSystem(ws.system.C, op.matrix.tocsr()))
        blocks = [(op.n_dof, op.n_dof)] * 2
        assert prepared.ilu is not None and shapes == [] and ilu_shapes == blocks
        b = np.random.default_rng(23).normal(size=ws.system.shape[0])
        x, stats = prepared.solve(b)
        assert stats.fallback_reason == "gmres_not_converged" and stats.residual <= 1e-12
        assert shapes == blocks

    @pytest.mark.parametrize(
        "C",
        [
            [[0.3, 0.2], [-0.25, 0.1]],  # one conjugate pair
            [[0.4, 0.1, 0.0], [1.0, 0.2, 0.0], [0.3, 0.0, 0.25]],  # three real eigenvalues
            # one real eigenvalue and one pair (tp5; tp6 and gl6 alike), and two pairs (mdrk6)
            as_tableau(method_registry()["tp5"]).coupling,
            as_tableau(method_registry()["mdrk6"]).coupling,
        ],
    )
    def test_kron_system_vs_dense(self, C, monkeypatch):
        # the direct factor and the GMRES preconditioner split the same blocks: a real n x n
        # one per real eigenvalue, a complex one per conjugate pair
        C = np.array(C)
        Z, _ = random_csr(30, 0.3, seed=24, diag_boost=-3.0)
        K = np.eye(len(C) * 30) - np.kron(C, Z.toarray())
        b = np.random.default_rng(25).normal(size=len(K))
        lam = np.linalg.eigvals(C)
        blocks = sorted([(30, 30, "f" if z.imag == 0 else "c") for z in lam if z.imag >= 0])
        system = KroneckerSystem(C, Z)
        assert np.max(np.abs(applied(system) - K)) <= 1e-15 * np.max(np.abs(K))
        for kind, name, rtol in (("direct", "splu", 1e-12), ("gmres", "spilu", 1e-10)):
            shapes = record_lu_shapes(monkeypatch, name, lambda A, kwargs: (*A.shape, A.dtype.kind))
            solver = LinearSolver(kind=kind)
            x, stats = solver.prepare(system).solve(b)
            assert stats.residual <= rtol and not stats.fallback_used
            assert np.linalg.norm(b - K @ x) <= rtol * np.linalg.norm(b)
            assert sorted(shapes) == blocks

    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_kron_system_without_eigenbasis_rejected(self, kind, monkeypatch):
        # a defective C has a singular V, so its blocks cannot be decoupled; no factor is built
        shapes = record_lu_shapes(monkeypatch, "splu" if kind == "direct" else "spilu")
        Z, _ = random_csr(30, 0.3, seed=24, diag_boost=-3.0)
        system = KroneckerSystem(np.array([[0.25, 0.0], [0.5, 0.25]]), Z)
        with pytest.raises(ValueError, match=r"cond\(V\) = .* > COUPLING_COND_MAX = 10000"):
            LinearSolver(kind=kind).prepare(system)
        assert shapes == []

    def test_plain_matrix_is_one_lu_of_itself(self, monkeypatch):
        shapes = record_lu_shapes(monkeypatch)
        A, _ = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x = direct_solve(A, b)
        assert shapes == [(50, 50)]
        assert np.array_equal(x, scipy.sparse.linalg.splu(sp.csc_matrix(A)).solve(b))


class TestBlockPreconditioner:
    # the GMRES preconditioner of I - C (x) Z is one n x n ILUTP of I - lambda Z per
    # real eigenvalue and per conjugate pair of C, applied through C's eigenvectors; a
    # workspace solves p = 0 convection by each block's complete LU instead and every
    # p >= 1 operator through its Fourier symbol, so the ILUTP is reached by preparing
    # its system
    @pytest.mark.parametrize(
        "problem, p, factor",
        [
            pytest.param("convection", 2, None, id="convection"),
            pytest.param("convection", 0, "splu", id="convection-p0"),
            pytest.param("convection_diffusion", 2, None, id="convection_diffusion"),
            pytest.param("convection_diffusion", 2, "spilu", id="convection_diffusion-ilutp"),
        ],
    )
    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_workspace_preconditioner_is_blockwise(self, problem, p, factor, method, monkeypatch):
        lu_shapes = record_lu_shapes(monkeypatch)
        ilu_shapes = record_lu_shapes(monkeypatch, "spilu")
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem(problem), default_eta(p))
        ws = make_workspace(op, method_registry()[method], 0.25)
        prepared = LinearSolver().prepare(ws.system) if factor == "spilu" else ws.prepared
        n = op.n_dof
        lam = np.linalg.eigvals(as_tableau(method_registry()[method]).coupling)
        blocks = [(n, n)] * int(np.sum(lam.imag >= 0))
        assert lu_shapes == (blocks if factor == "splu" else [])
        assert ilu_shapes == (blocks if factor == "spilu" else [])
        K = assembled_system(ws)
        b = np.random.default_rng(26).normal(size=K.shape[0])
        x, stats = prepared.solve(b)
        assert stats.converged and not stats.fallback_used
        assert np.linalg.norm(b - K @ x) <= 1e-10 * np.linalg.norm(b)

    def test_convection_integrate_takes_one_iteration_per_solve(self):
        # every convection step is one direct solve of the complete block LU
        prob = make_problem("convection")
        mesh, basis = mesh_hierarchy(3)[2], make_basis(2)
        op = assemble(mesh, basis, prob, default_eta(2))
        stats = []
        w0 = project_l2(mesh, basis, prob.initial)
        integrate(op, method_registry()["tp6"], w0, 0.0, 1.0, 0.0625, stats_out=stats)
        assert len(stats) == 16
        assert all(s.iterations == 1 and not s.fallback_used for s in stats)
        assert max(s.residual for s in stats) <= 1e-10

    @staticmethod
    def check_solves_directly(problem, monkeypatch, p=2):
        """An mdrk6 workspace on ``problem`` at degree ``p`` factors each stored block
        completely, once (by SuperLU at p = 0, through the Fourier symbol from p = 1 on),
        and solves by those factors alone: no ILUTP, no Krylov iteration."""
        def refuse(*args, **kwargs):
            raise AssertionError(f"GMRES or ILUTP ran on a {problem} workspace")

        monkeypatch.setattr(mddg.sparse, "gmres_solve", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "spilu", refuse)
        shapes = record_lu_shapes(monkeypatch)
        op = assemble(mesh_hierarchy(3)[2], make_basis(p), make_problem(problem), 20.0)
        ws = make_workspace(op, method_registry()["mdrk6"], 0.25)
        assert ws.prepared.ilu is None
        rng = np.random.default_rng(31)
        for _ in range(3):
            b = rng.normal(size=ws.system.shape[0])
            x, stats = ws.prepared.solve(b)
            assert stats.iterations == 1 and stats.fallback_reason == ""
            assert stats.residual <= 1e-12
            assert np.linalg.norm(b - ws.system.matvec(x)) <= 1e-12 * np.linalg.norm(b)
        lam = np.linalg.eigvals(as_tableau(method_registry()["mdrk6"]).coupling)
        lu_blocks = int(np.sum(lam.imag >= 0)) if p == 0 else 0
        assert shapes == [(op.n_dof, op.n_dof)] * lu_blocks
        assert through_symbol(ws.prepared) == (p >= 1)

    def test_convection_workspace_solves_directly(self, monkeypatch):
        self.check_solves_directly("convection", monkeypatch)

    def test_p0_convection_workspace_solves_directly(self, monkeypatch):
        self.check_solves_directly("convection", monkeypatch, p=0)

    def test_diffusion_workspace_solves_directly(self, monkeypatch):
        self.check_solves_directly("convection_diffusion", monkeypatch)

    def test_diffusion_system_prepared_for_gmres_iterates(self, monkeypatch):
        # prepared by a GMRES-kind solver, the same diffusion system keeps ILUTP + GMRES
        shapes = record_lu_shapes(monkeypatch)
        ilu_shapes = record_lu_shapes(monkeypatch, "spilu")
        op = assemble(mesh_hierarchy(3)[2], make_basis(2), make_problem("convection_diffusion"), 20.0)
        ws = make_workspace(op, method_registry()["mdrk6"], 0.25)
        prepared = LinearSolver().prepare(ws.system)
        lam = np.linalg.eigvals(as_tableau(method_registry()["mdrk6"]).coupling)
        assert prepared.ilu is not None
        assert ilu_shapes == [(op.n_dof, op.n_dof)] * int(np.sum(lam.imag >= 0))
        b = np.random.default_rng(31).normal(size=ws.system.shape[0])
        x, stats = prepared.solve(b)
        assert stats.converged and stats.iterations > 1 and not stats.fallback_used
        assert np.linalg.norm(b - ws.system.matvec(x)) <= 1e-10 * np.linalg.norm(b)
        assert shapes == []

    def test_singular_complete_factor_is_a_solver_failure(self, monkeypatch):
        # the complete LU is the p = 0 convection solve itself, so there is nothing to fall
        # back to: SuperLU is not asked again
        calls = []

        def singular(A, **kwargs):
            calls.append(A.shape)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        op = assemble(mesh_hierarchy(2)[1], make_basis(0), make_problem("convection"), 20.0)
        with pytest.raises(SolverFailure, match="direct LU failed: Factor is exactly singular"):
            make_workspace(op, method_registry()["tp5"], 0.25)
        assert calls == [(op.n_dof, op.n_dof)]

    def test_singular_symbol_is_a_solver_failure(self, monkeypatch):
        # the symbol's inverse is the p >= 1 convection solve itself: a singular frequency
        # block fails the workspace, and SuperLU is never asked
        calls = record_lu_shapes(monkeypatch)
        op = assemble(mesh_hierarchy(2)[1], make_basis(2), make_problem("convection"), 20.0)
        inv = np.linalg.inv

        def singular(M):
            if M.ndim == 4:  # the frequency blocks, not C's eigenvector matrix
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SolverFailure, match="direct LU failed: Singular matrix"):
            make_workspace(op, method_registry()["tp3"], 0.25)
        assert calls == []

    def test_plain_matrix_is_one_ilutp_of_itself(self, monkeypatch):
        shapes = record_lu_shapes(monkeypatch, "spilu")
        A, _ = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        f = ilu_factor(A)
        assert shapes == [(50, 50)] and f.V is None
        ref = scipy.sparse.linalg.spilu(
            sp.csc_matrix(A), drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR
        )
        assert np.array_equal(f.apply(b), ref.solve(b))
        assert f.nnz == ref.L.nnz + ref.U.nnz

    def test_nnz_sums_block_factors(self):
        C = np.array([[0.4, 0.1, 0.0], [1.0, 0.2, 0.0], [0.3, 0.0, 0.25]])  # three real eigenvalues
        Z, _ = random_csr(40, 0.2, seed=27, diag_boost=-3.0)
        f = ilu_factor(KroneckerSystem(C, Z))
        expected = 0
        for lam in np.linalg.eigvals(C):
            B = sp.csc_matrix(sp.identity(40) - lam.real * Z)
            g = scipy.sparse.linalg.spilu(B, drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR)
            expected += g.L.nnz + g.U.nnz
        assert f.nnz == expected > 0

    @pytest.mark.parametrize("operator", ["csr", "stencil"])
    def test_failed_block_ilutp_takes_direct_fallback(self, operator, monkeypatch):
        # SuperLU's RuntimeError from a block's incomplete factor routes to the direct
        # fallback: SuperLU's LU of each block of a CSR system, a stencil system's symbol
        def singular(A, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "spilu", singular)
        op = assemble(mesh_hierarchy(2)[1], make_basis(2), make_problem("convection_diffusion"), 20.0)
        ws = make_workspace(op, method_registry()["tp5"], 0.25)
        shapes = record_lu_shapes(monkeypatch)
        Z = op.matrix.tocsr() if operator == "csr" else op.matrix
        prepared = LinearSolver().prepare(KroneckerSystem(ws.system.C, Z))
        assert prepared.ilu is None
        b = np.random.default_rng(28).normal(size=ws.system.shape[0])
        x, stats = prepared.solve(b)
        assert stats.fallback_reason == "ilu_failed" and stats.fallback_used
        assert stats.converged and stats.residual <= 1e-10
        lam = np.linalg.eigvals(as_tableau(method_registry()["tp5"]).coupling)
        blocks = int(np.sum(lam.imag >= 0)) if operator == "csr" else 0
        assert shapes == [(op.n_dof, op.n_dof)] * blocks
        assert through_symbol(prepared) == (operator == "stencil")


def record_orderings(monkeypatch):
    """Record the column ordering SuperLU's complete LU is asked for, per block."""
    return record_lu_shapes(monkeypatch, record=lambda A, kwargs: kwargs.get("permc_spec"))


class TestOrdering:
    # every complete LU orders its columns by COLAMD, which keeps an upwind convection
    # block near its own fill
    @pytest.mark.parametrize("problem, permc", [("convection", "COLAMD")])
    @pytest.mark.parametrize("route", ["workspace", "direct", "fallback"])
    def test_ordering_follows_pattern(self, problem, permc, route, monkeypatch):
        # the workspace (which takes SuperLU's LU only at p = 0), the direct kind and the
        # fallback of a starved GMRES on a CSR system all get it
        specs = record_orderings(monkeypatch)
        p = 0 if route == "workspace" else 2
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem(problem), default_eta(p))
        ws = make_workspace(op, method_registry()["mdrk6"], 0.25)
        prepared = ws.prepared
        if route != "workspace":
            specs.clear()
            if route == "fallback":
                starve_gmres(monkeypatch, maxit=1, restart=1)
            system = KroneckerSystem(ws.system.C, op.matrix.tocsr())
            prepared = LinearSolver(kind="direct" if route == "direct" else "gmres").prepare(system)
        x, stats = prepared.solve(np.random.default_rng(33).normal(size=ws.system.shape[0]))
        assert stats.converged and stats.residual <= 1e-12
        assert stats.fallback_reason == ("gmres_not_converged" if route == "fallback" else "")
        assert specs == [permc] * 2  # mdrk6 stores one real and one complex block

    def test_plain_matrix_ordering(self, monkeypatch):
        specs = record_orderings(monkeypatch)
        tridiagonal = CsrMatrix(sp.diags([[-1.0] * 9, [4.0] * 10, [-2.0] * 9], [-1, 0, 1]))
        for A in (tridiagonal, random_csr(30, 0.2, seed=32, diag_boost=8.0)[0]):
            direct_solve(A, np.ones(A.shape[0]))
        assert specs == ["COLAMD", "COLAMD"]


class TestFourierSymbol:
    # a p >= 1 workspace solves each block I - lambda Z through Z's Fourier symbol
    @pytest.mark.parametrize(
        "problem, degrees", [("convection", range(0, 6)), ("convection_diffusion", range(1, 6))]
    )
    def test_symbol_product_matches_matvec(self, problem, degrees):
        # the FFT product reproduces the operator's own one (the CSR at p = 0) on grids of
        # N = 1 to 32 cells
        rng = np.random.default_rng(34)
        for p in degrees:
            for level, mesh in enumerate(mesh_hierarchy(6)):
                op = assemble(mesh, make_basis(p), make_problem(problem), default_eta(p))
                S = op.stencil.symbol()
                N = 2**level
                x = rng.normal(size=op.n_dof)
                X = np.fft.fft2(x.reshape(N, N, -1), axes=(0, 1))
                y = np.fft.ifft2((S @ X[..., None])[..., 0], axes=(0, 1)).ravel()
                expected = op.matrix.matvec(x)
                assert np.abs(y.imag).max() <= 1e-13 * np.linalg.norm(expected), (p, level)
                assert np.linalg.norm(y.real - expected) <= 1e-13 * np.linalg.norm(expected), (
                    p, level,
                )

    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_kind_routes_and_stencil_picks_the_factor(self, kind, monkeypatch):
        # the kind decides whether GMRES runs; on a stencil, the complete factor, asked
        # for or the fallback of a starved GMRES, is the symbol's and SuperLU's LU never runs
        starve_gmres(monkeypatch, maxit=1, restart=1)
        lus = record_lu_shapes(monkeypatch)
        mesh = mesh_hierarchy(2)[1]
        op = assemble(mesh, make_basis(2), make_problem("convection_diffusion"), default_eta(2))
        ws = make_workspace(op, method_registry()["mdrk6"], 0.25)
        prepared = LinearSolver(kind=kind).prepare(ws.system)
        assert (prepared.ilu is None) == (kind == "direct")
        x, stats = prepared.solve(np.random.default_rng(33).normal(size=ws.system.shape[0]))
        assert stats.converged and stats.residual <= 1e-12
        assert stats.fallback_reason == ("" if kind == "direct" else "gmres_not_converged")
        assert lus == []
        assert through_symbol(prepared)

    def test_plain_matrix_solved_through_its_symbol(self, monkeypatch):
        # a plain stencil is one block: its own symbol is inverted, not I - lambda S
        lus = record_lu_shapes(monkeypatch)
        mesh = mesh_hierarchy(3)[2]
        Z = assemble(mesh, make_basis(1), make_problem("convection_diffusion"), default_eta(1)).matrix
        K = -0.25 * Z.K
        K[1, 1] += np.eye(K.shape[-1])
        stored = Z.stored.copy()
        stored[1, 1, [0, 1], [0, 1]] = True
        B = StencilOperator(K, stored, Z.N)
        prepared = LinearSolver(kind="direct").prepare(B)
        b = np.random.default_rng(36).normal(size=Z.shape[0])
        x, stats = prepared.solve(b)
        assert stats.converged and stats.residual <= 1e-12 and lus == []
        dense = np.eye(Z.shape[0]) - 0.25 * Z.tocsr().toarray()
        assert np.array_equal(B.tocsr().toarray(), dense)
        assert np.linalg.norm(x - np.linalg.solve(dense, b)) <= 1e-12 * np.linalg.norm(x)

    @staticmethod
    def wrong_symbol(monkeypatch, scale):
        """Make every symbol one frequency block off: the k = (0, 1) block times ``scale``."""
        symbol = StencilOperator.symbol

        def perturbed(self):
            S = symbol(self)
            S[0, 1] *= scale
            return S

        monkeypatch.setattr(StencilOperator, "symbol", perturbed)

    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_symbol_that_is_not_the_operators_fails(self, kind, monkeypatch):
        # the residual is taken against the stencil's own product, not through the symbol,
        # so a factor from a wrong symbol must be refused, whether it is the workspace's
        # own factor or a starved GMRES's fallback
        self.wrong_symbol(monkeypatch, 1.5)
        mesh = mesh_hierarchy(3)[2]
        op = assemble(mesh, make_basis(2), make_problem("convection_diffusion"), default_eta(2))
        ws = make_workspace(op, method_registry()["tp3"], 0.25)
        prepared = ws.prepared
        assert prepared.ilu is None
        if kind == "gmres":
            starve_gmres(monkeypatch, maxit=1, restart=1)
            prepared = LinearSolver().prepare(ws.system)
            assert prepared.ilu is not None
        b = np.random.default_rng(35).normal(size=ws.system.shape[0])
        with pytest.raises(SolverFailure, match="direct solve did not converge") as err:
            prepared.solve(b)
        assert err.value.stats.residual > 1e-10 and prepared.history == [err.value.stats]
        assert err.value.stats.fallback_reason == ("" if kind == "direct" else "gmres_not_converged")

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_convection_symbol_that_is_not_the_operators_fails(self, p, monkeypatch):
        # the same guard on a convection workspace, which takes the symbol from p = 1 on
        self.wrong_symbol(monkeypatch, 10.0)
        mesh = mesh_hierarchy(3)[2]
        op = assemble(mesh, make_basis(p), make_problem("convection"), default_eta(p))
        ws = make_workspace(op, method_registry()["tp3"], 0.25)
        assert through_symbol(ws.prepared)
        b = np.random.default_rng(37).normal(size=ws.system.shape[0])
        with pytest.raises(SolverFailure, match="direct solve did not converge") as err:
            ws.prepared.solve(b)
        assert err.value.stats.residual > 1e-10 and ws.prepared.history == [err.value.stats]


SUPERLU_MODULES = ("scipy.sparse.linalg", "scipy.linalg")


def loaded_after(code, modules=SUPERLU_MODULES):
    """The modules of ``modules`` loaded once ``code`` ran in a fresh interpreter."""
    shown = f"print('loaded:', *[m for m in {modules!r} if m in sys.modules])"
    return run_fresh(f"import sys\n{code}\n{shown}").splitlines()[-1].split()[1:]


def study_level(problem, p):
    return (
        "from mddg.harness import RunConfig, mesh_hierarchy, run_level\n"
        f"cfg = RunConfig(problem={problem!r}, p={p}, method='tp3', dt0=0.5)\n"
        "assert run_level(cfg, mesh_hierarchy(2)[1], 1, []) < 1\n"
    )


SYMBOL_LEVELS = study_level("convection_diffusion", 1) + study_level("convection", 2)


class TestSuperLULoadedOnFirstUse:
    # scipy.sparse.linalg, and scipy.linalg with it, is imported by the first SuperLU
    # factor, so a process whose every step goes through the Fourier symbol never loads it;
    # scipy.sparse itself is imported by the first CSR matrix, which only p = 0 builds
    def test_import_and_registry_leave_it_out(self):
        code = "import mddg.harness\nmddg.harness.method_registry()"
        assert loaded_after(code) == []

    def test_symbol_study_levels_leave_it_out(self):
        assert loaded_after(SYMBOL_LEVELS) == []

    def test_p0_convection_level_loads_it(self):
        assert "scipy.sparse.linalg" in loaded_after(study_level("convection", 0))

    def test_import_and_registry_leave_scipy_out(self):
        code = "import mddg.harness\nmddg.harness.method_registry()"
        assert loaded_after(code, ("scipy",)) == []

    def test_schemes_command_leaves_scipy_out(self):
        code = "from mddg.cli import main\nassert main(['schemes']) == 0"
        assert loaded_after(code, ("scipy",)) == []

    def test_symbol_study_levels_leave_scipy_out(self):
        assert loaded_after(SYMBOL_LEVELS, ("scipy", "scipy.sparse")) == []

    def test_p0_convection_level_loads_scipy_sparse(self):
        code = study_level("convection", 0)
        assert loaded_after(code, ("scipy.sparse",)) == ["scipy.sparse"]

    def test_csr_matrix_is_built_on_first_use(self):
        # from-imports and the class's own matvec (which bench tracing wraps) still work
        code = (
            "import mddg.sparse\nassert 'scipy' not in sys.modules\n"
            "from mddg.sparse import CsrMatrix\nassert CsrMatrix is mddg.sparse.CsrMatrix\n"
            "assert 'matvec' in CsrMatrix.__dict__ and 'from_blocks' in CsrMatrix.__dict__"
        )
        assert loaded_after(code, ("scipy.sparse",)) == ["scipy.sparse"]


class TestKroneckerSystem:
    # I - C (x) Z applied one block row at a time and never assembled, for every
    # built-in method and both solver kinds
    @pytest.mark.parametrize("problem", ["convection", "convection_diffusion"])
    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_builtin_methods_never_assemble_the_block_system(self, problem, method, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an sMn x sMn block matrix was assembled")

        monkeypatch.setattr(sp, "bmat", refuse)
        monkeypatch.setattr(sp, "kron", refuse)
        op = assemble(mesh_hierarchy(2)[1], make_basis(2), make_problem(problem), default_eta(2))
        w = np.random.default_rng(29).normal(size=op.n_dof)
        assert np.all(np.isfinite(mdrk_step(op, method_registry()[method], w, 0.0, 0.25)))
        system = make_workspace(op, method_registry()[method], 0.25).system
        for solver in (LinearSolver(), LinearSolver(kind="direct")):
            x, stats = solver.prepare(system).solve(np.tile(w, len(system.C)))
            assert stats.converged and np.all(np.isfinite(x))

    def test_nnz_counts_stored_entries(self):
        C = np.array([[0.3, 0.0], [1.0, 0.0]])
        Z, _ = random_csr(20, 0.2, seed=30)
        system = KroneckerSystem(C, Z)
        assert system.shape == (40, 40)
        assert system.nnz == Z.nnz + 2


class TestLinearSolver:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LinearSolver(kind="magic")

    def test_gmres_prepared_solve(self):
        A, D = random_csr(40, 0.2, seed=18, diag_boost=6.0)
        prep = LinearSolver().prepare(A)
        b = np.ones(40)
        x, stats = prep.solve(b)
        assert stats.converged
        assert not stats.fallback_used and stats.fallback_reason == ""
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_fallback_engages_and_sticks(self, monkeypatch):
        # starve GMRES so the direct fallback must take over
        starve_gmres(monkeypatch, maxit=2, restart=2)
        A, D = random_csr(40, 0.4, seed=19, diag_boost=0.8)
        prep = LinearSolver().prepare(A)
        b = np.ones(40)
        x, stats = prep.solve(b)
        assert stats.fallback_used and stats.fallback_reason == "gmres_not_converged"
        assert stats.converged
        x2, stats2 = prep.solve(2 * b)
        assert stats2.fallback_used and stats2.fallback_reason == "sticky"
        assert stats2.iterations == 1  # straight to the factorization

    def test_singular_ilu_without_fallback(self, monkeypatch):
        # SuperLU's RuntimeError from the incomplete factorization sends the system to its
        # complete LU, which is singular as well, so the prepare ends in SolverFailure
        A = CsrMatrix(sp.diags([1.0, 0.0, 2.0]))
        with pytest.raises(SolverFailure, match="singular"):
            LinearSolver().prepare(A)

    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_unconverged_direct_solve_raises(self, kind, monkeypatch):
        # a direct solve that misses the residual contract is a SolverFailure, whether it
        # was asked for or is the fallback of a starved GMRES
        class NanLU:
            def __init__(self, A, **kwargs):
                pass

            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", NanLU)
        starve_gmres(monkeypatch, maxit=2, restart=2)
        A, _ = random_csr(40, 0.4, seed=19, diag_boost=0.8)
        prep = LinearSolver(kind=kind).prepare(A)
        with pytest.raises(SolverFailure, match="direct solve did not converge") as err:
            prep.solve(np.ones(40))
        assert not err.value.stats.converged and prep.history == [err.value.stats]

    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_non_finite_rhs_rejected(self, kind):
        # one behaviour for both kinds, before any solve; the direct kind used to report
        # the NaN ||b|| as an unconverged solve with residual 0
        prep = LinearSolver(kind=kind).prepare(CsrMatrix(sp.diags([2.0, 3.0, 4.0])))
        with pytest.raises(ValueError, match="^b must be finite$"):
            prep.solve(np.array([1.0, np.nan, 1.0]))
        assert prep.history == []

    @pytest.mark.parametrize("coupled", [False, True], ids=["plain", "kronecker"])
    @pytest.mark.parametrize("kind", ["direct", "gmres"])
    def test_wrong_rhs_shape_rejected(self, kind, coupled):
        # one check for both kinds, before any solve; the direct kind used to solve a
        # column b as if it were a vector, and to leak SuperLU's or numpy's error for a
        # wrong length
        A = CsrMatrix(sp.diags([2.0, 3.0, 4.0]))
        if coupled:
            A = KroneckerSystem(np.array([[0.3, 0.2], [-0.25, 0.1]]), A)
        n = A.shape[0]
        prep = LinearSolver(kind=kind).prepare(A)
        for shape in ((n, 1), (n - 1,)):
            with pytest.raises(ValueError) as err:
                prep.solve(np.ones(shape))
            assert str(err.value) == f"b must have length {n}, got shape {shape}"
        assert prep.history == []

    def test_failure_without_fallback(self, monkeypatch):
        # the raw GMRES failure under a coarse ILUTP (starve_gmres's drop tolerance),
        # its iterations counted across a restart
        monkeypatch.setattr(mddg.sparse, "ILU_DROP_TOL", 0.1)
        A, _ = random_csr(50, 0.3, seed=12, diag_boost=0.5)
        _, stats = gmres_solve(A, np.ones(50), precond=ilu_factor(A), restart=5, maxit=6)
        assert not stats.converged
        assert stats.iterations == 6
