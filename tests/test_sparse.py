import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from mddg.basis import make_basis
from mddg.harness import default_eta, make_problem, mesh_hierarchy, method_registry
from mddg.operator import assemble, project_l2
from mddg.sparse import (
    COUPLING_COND_MAX,
    BlockFactors,
    CsrMatrix,
    KroneckerSystem,
    PreparedSystem,
    SolverFailure,
    StencilOperator,
)
from mddg.timeint import MdrkWorkspace, as_tableau, integrate, make_workspace, mdrk_step

from conftest import applied, run_fresh


def physical_workspace(op, method, dt):
    """The ``MdrkWorkspace`` of ``method``: the physical block system, which ``make_workspace``
    builds only for an operator without a grid (it marches a grid operator in frequency
    space)."""
    return MdrkWorkspace(op, as_tableau(method), dt)


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
        # the builder and the tiled CSR of a p = 2 and a p = 0 stencil keep scipy's int32
        # index arrays
        A = triplets([3, 0, 0, 2], [1, 2, 2, 0], [0.1, 0.2, 0.3, 0.4], (4, 4))
        op = assemble(mesh_hierarchy(2)[1], make_basis(2), make_problem("convection_diffusion"), 20.0)
        op0 = assemble(mesh_hierarchy(2)[1], make_basis(0), make_problem("convection"), 20.0)
        for M in (A, op.matrix.tocsr(), op0.matrix.tocsr()):
            assert M.indices.dtype == np.int32 and M.indptr.dtype == np.int32

    @pytest.mark.parametrize("p", [0, 1])
    def test_operator_is_its_stencil_and_system_is_kronecker(self, p):
        # every operator, p = 0 included, is its stencil, no CSR; the physical block system
        # keeps the operator itself, not a copy, and dt C
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem("convection"), 20.0)
        ws = physical_workspace(op, method_registry()["tp3"], 0.1)
        assert isinstance(op.stencil, StencilOperator)
        assert op.matrix is op.stencil and not sp.issparse(op.matrix)
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
    return PreparedSystem(A).solve(b)[0]


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
        # SuperLU's "exactly singular" RuntimeError surfaces as SolverFailure
        A = CsrMatrix(sp.diags([1.0, 0.0, 2.0]))
        with pytest.raises(SolverFailure, match="singular"):
            PreparedSystem(A).solve(np.ones(3))

    def test_accurate_solve_is_not_refined(self, monkeypatch):
        calls = count_lu_solves(monkeypatch)
        A, D = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x, stats = PreparedSystem(A).solve(b)
        assert len(calls) == 1
        assert stats.converged and stats.residual <= 1e-12
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) == pytest.approx(stats.residual)

    def test_inaccurate_solve_is_refined_once(self, monkeypatch):
        calls = count_lu_solves(monkeypatch, first_error=1e-8)
        A, D = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x, stats = PreparedSystem(A).solve(b)
        assert len(calls) == 2
        assert stats.converged and stats.residual <= 1e-12
        assert np.linalg.norm(D @ x - b) / np.linalg.norm(b) <= 1e-12


def record_lu_shapes(monkeypatch, record=lambda A, kwargs: A.shape):
    """Record the shape (or ``record(A, kwargs)``) of every matrix SuperLU factors."""
    shapes = []
    splu = scipy.sparse.linalg.splu

    def recording(A, **kwargs):
        shapes.append(record(A, kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    return shapes


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
        # a physical workspace on the stencil factors its blocks by SuperLU on the tiled CSR,
        # p = 0 included, and so does the same system with the CSR as its Z; the first takes
        # its residual against the stencil's product, the second against the CSR's
        shapes = record_lu_shapes(monkeypatch)
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem(problem), default_eta(p))
        ws = physical_workspace(op, method_registry()[method], 0.25)
        K = assembled_system(ws)
        b = np.random.default_rng(22).normal(size=K.shape[0])
        x_dense = np.linalg.solve(K, b)
        n = op.n_dof
        lam = np.linalg.eigvals(as_tableau(method_registry()[method]).coupling)
        blocks = [(n, n)] * int(np.sum(lam.imag >= 0))
        assert shapes == blocks
        csr_system = KroneckerSystem(ws.system.C, ws.system.Z.tocsr())
        for prepared in (ws.prepared, PreparedSystem(csr_system)):
            x, stats = prepared.solve(b)
            assert stats.converged and stats.residual <= 1e-12
            assert np.linalg.norm(b - K @ x) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(x - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
        assert shapes == blocks * 2

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
        # the factor splits into a real n x n block per real eigenvalue and a complex one
        # per conjugate pair
        C = np.array(C)
        Z, _ = random_csr(30, 0.3, seed=24, diag_boost=-3.0)
        K = np.eye(len(C) * 30) - np.kron(C, Z.toarray())
        b = np.random.default_rng(25).normal(size=len(K))
        lam = np.linalg.eigvals(C)
        blocks = sorted([(30, 30, "f" if z.imag == 0 else "c") for z in lam if z.imag >= 0])
        system = KroneckerSystem(C, Z)
        assert np.max(np.abs(applied(system) - K)) <= 1e-15 * np.max(np.abs(K))
        shapes = record_lu_shapes(monkeypatch, lambda A, kwargs: (*A.shape, A.dtype.kind))
        x, stats = PreparedSystem(system).solve(b)
        assert stats.residual <= 1e-12
        assert np.linalg.norm(b - K @ x) <= 1e-12 * np.linalg.norm(b)
        assert sorted(shapes) == blocks

    def test_kron_system_without_eigenbasis_rejected(self, monkeypatch):
        # a defective C has a singular V, so its blocks cannot be decoupled; no factor is built
        shapes = record_lu_shapes(monkeypatch)
        Z, _ = random_csr(30, 0.3, seed=24, diag_boost=-3.0)
        system = KroneckerSystem(np.array([[0.25, 0.0], [0.5, 0.25]]), Z)
        with pytest.raises(ValueError, match=r"cond\(V\) = .* > COUPLING_COND_MAX = 10000"):
            PreparedSystem(system)
        assert shapes == []

    def test_plain_matrix_is_one_lu_of_itself(self, monkeypatch):
        shapes = record_lu_shapes(monkeypatch)
        A, _ = random_csr(50, 0.3, seed=14, diag_boost=8.0)
        b = np.random.default_rng(15).normal(size=50)
        x = direct_solve(A, b)
        assert shapes == [(50, 50)]
        assert np.array_equal(x, scipy.sparse.linalg.splu(sp.csc_matrix(A)).solve(b))


class IdentityFactor:
    """A block factor that solves nothing: its ``solve`` returns its argument."""

    @staticmethod
    def solve(w):
        return w


class TestBlockFactors:
    # each built-in coupling C = V diag(lambda) V^-1 splits I - C (x) Z into one block per
    # real eigenvalue and per conjugate pair, reached through C's eigenvectors in real
    # arithmetic
    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_builtin_coupling_asks_one_block_per_real_eigenvalue_and_pair(self, method):
        # V is within COUPLING_COND_MAX; a real eigenvalue's block gets a real lambda, so its
        # factor stays real, and a pair's the member with Im lambda > 0; every Re lambda > 0,
        # so I - lambda Z is invertible for a Z whose eigenvalues have Re <= 0
        C = as_tableau(method_registry()[method]).coupling
        lam = np.linalg.eigvals(C)
        asked = []
        Z, _ = random_csr(5, 0.5, seed=40)
        f = BlockFactors(KroneckerSystem(C, Z), lambda l: asked.append(l) or IdentityFactor())
        assert np.linalg.cond(f.V) <= COUPLING_COND_MAX
        assert len(asked) == int(np.sum(lam.imag >= 0)) == len(f.factors)
        assert sum(paired for _, _, paired in f.factors) == int(np.sum(lam.imag > 0))
        for l in asked:
            assert np.isrealobj(l) or l.imag > 0
            assert l.real > 0 and np.min(np.abs(lam - l)) <= 1e-14
        assert len(np.unique(np.round(lam, 12))) == len(lam)

    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_real_transforms_invert_each_other(self, method):
        # with every block the identity, T Q b = Re(V V^-1 b) = b: the real rows of Q and the
        # doubled columns of T carry each conjugate pair exactly
        C = as_tableau(method_registry()[method]).coupling
        Z, _ = random_csr(7, 0.5, seed=41)
        f = BlockFactors(KroneckerSystem(C, Z), lambda l: IdentityFactor())
        assert np.isrealobj(f.Q) and np.isrealobj(f.T)
        assert np.max(np.abs(f.T @ f.Q - np.eye(len(C)))) <= 1e-13
        b = np.random.default_rng(42).normal(size=7 * len(C))
        x = f.solve(b)
        assert x.dtype == np.float64 and np.linalg.norm(x - b) <= 1e-13 * np.linalg.norm(b)


class TestWorkspaceFactor:
    # a study level marches in frequency space (``FrequencyStep``): its per-dt checks, not a
    # solve per step, are held to the residual contract; a physical workspace factors each
    # stored block of its system once, completely, by SuperLU
    def test_convection_integrate_records_the_per_dt_checks(self, no_physical_solves):
        # 16 convection steps of one dt make no solve: the step map's resolvents and the
        # symbol's product against the stencil's are checked once, held to the contract
        prob = make_problem("convection")
        mesh, basis = mesh_hierarchy(3)[2], make_basis(2)
        op = assemble(mesh, basis, prob, default_eta(2))
        stats = []
        w0 = project_l2(mesh, basis, prob.initial)
        integrate(op, method_registry()["tp6"], w0, 0.0, 1.0, 0.0625, stats_out=stats)
        assert len(stats) == 2
        assert all(s.converged for s in stats)
        assert max(s.residual for s in stats) <= 1e-10

    @staticmethod
    def check_solves_directly(problem, monkeypatch, p=2):
        """A physical mdrk6 workspace on ``problem`` at degree ``p`` factors each stored block
        completely, once, by SuperLU (p = 0 included), and solves every right-hand side by
        those factors to a residual <= 1e-12."""
        shapes = record_lu_shapes(monkeypatch)
        op = assemble(mesh_hierarchy(3)[2], make_basis(p), make_problem(problem), 20.0)
        ws = physical_workspace(op, method_registry()["mdrk6"], 0.25)
        rng = np.random.default_rng(31)
        for _ in range(3):
            b = rng.normal(size=ws.system.shape[0])
            x, stats = ws.prepared.solve(b)
            assert stats.converged and stats.residual <= 1e-12
            assert np.linalg.norm(b - ws.system.matvec(x)) <= 1e-12 * np.linalg.norm(b)
        lam = np.linalg.eigvals(ws.tableau.coupling)
        assert shapes == [(op.n_dof, op.n_dof)] * int(np.sum(lam.imag >= 0))

    def test_convection_workspace_solves_directly(self, monkeypatch):
        self.check_solves_directly("convection", monkeypatch)

    def test_p0_convection_workspace_solves_directly(self, monkeypatch):
        self.check_solves_directly("convection", monkeypatch, p=0)

    def test_diffusion_workspace_solves_directly(self, monkeypatch):
        self.check_solves_directly("convection_diffusion", monkeypatch)

    @pytest.mark.parametrize(
        "problem, p", [("convection", 0), ("convection_diffusion", 1)], ids=["convection-p0", "cd-p1"]
    )
    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_integrate_with_a_shortened_step_records_each_workspaces_checks(
        self, problem, p, method, no_physical_solves
    ):
        # three steps of dt = 0.3 by one workspace and the last one of 0.1 by its own, with no
        # solve: each workspace's step map and source-mode responses (two modes for
        # convection-diffusion, none for convection) are checked once, the symbol once on the
        # initial state, all held to the contract, and every check recorded
        prob = make_problem(problem)
        mesh, basis = mesh_hierarchy(2)[1], make_basis(p)
        op = assemble(mesh, basis, prob, default_eta(p))
        stats = []
        w0 = project_l2(mesh, basis, prob.initial)
        w = integrate(op, method_registry()[method], w0, 0.0, 1.0, 0.3, stats_out=stats)
        assert len(stats) == 2 * (1 + len(op.source_modes)) + 1 and np.all(np.isfinite(w))
        assert all(s.converged and s.residual <= 1e-10 for s in stats)

    @pytest.mark.parametrize("p", [0, 2])
    def test_singular_frequency_block_is_a_solver_failure(self, p, monkeypatch):
        # the resolvents are the march's only factors: a singular frequency block fails the
        # workspace, and SuperLU is never asked
        calls = record_lu_shapes(monkeypatch)
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem("convection"), 20.0)
        inv = np.linalg.inv

        def singular(M):
            if M.ndim == 3:  # the frequency blocks, not C's eigenvector matrix
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(SolverFailure, match="frequency block solve failed: Singular matrix"):
            make_workspace(op, method_registry()["tp5"], 0.25)
        assert calls == []

    def test_singular_block_factor_is_a_solver_failure(self, monkeypatch):
        # a physical workspace on a grid operator factors its blocks by SuperLU: an exactly
        # singular block fails the workspace when it is built
        def singular(A, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        op = assemble(mesh_hierarchy(2)[1], make_basis(2), make_problem("convection"), 20.0)
        with pytest.raises(SolverFailure, match="^direct LU failed: Factor is exactly singular$"):
            physical_workspace(op, method_registry()["tp3"], 0.25)


def record_orderings(monkeypatch):
    """Record the column ordering SuperLU's complete LU is asked for, per block."""
    return record_lu_shapes(monkeypatch, record=lambda A, kwargs: kwargs.get("permc_spec"))


class TestOrdering:
    # every complete LU orders its columns by COLAMD, which keeps an upwind convection
    # block near its own fill
    @pytest.mark.parametrize("problem, permc", [("convection", "COLAMD")])
    @pytest.mark.parametrize("route", ["workspace", "csr_system"])
    def test_ordering_follows_pattern(self, problem, permc, route, monkeypatch):
        # the physical workspace on a p = 0 ("workspace") or a p = 2 stencil gets it, and so
        # does a system prepared on the stencil's CSR
        specs = record_orderings(monkeypatch)
        p = 0 if route == "workspace" else 2
        op = assemble(mesh_hierarchy(2)[1], make_basis(p), make_problem(problem), default_eta(p))
        ws = physical_workspace(op, method_registry()["mdrk6"], 0.25)
        assert specs == [permc] * 2  # mdrk6 stores two complex blocks, one per conjugate pair
        prepared = PreparedSystem(KroneckerSystem(ws.system.C, op.matrix.tocsr()))
        x, stats = prepared.solve(np.random.default_rng(33).normal(size=ws.system.shape[0]))
        assert stats.converged and stats.residual <= 1e-12
        assert specs == [permc] * 4

    def test_plain_matrix_ordering(self, monkeypatch):
        specs = record_orderings(monkeypatch)
        tridiagonal = CsrMatrix(sp.diags([[-1.0] * 9, [4.0] * 10, [-2.0] * 9], [-1, 0, 1]))
        for A in (tridiagonal, random_csr(30, 0.2, seed=32, diag_boost=8.0)[0]):
            direct_solve(A, np.ones(A.shape[0]))
        assert specs == ["COLAMD", "COLAMD"]


class TestFourierSymbol:
    # the march takes every step through the stencil's symbol on the rfft2 half spectrum
    @pytest.mark.parametrize(
        "problem, degrees", [("convection", range(0, 6)), ("convection_diffusion", range(1, 6))]
    )
    def test_symbol_product_matches_matvec(self, problem, degrees):
        # the half-spectrum product reproduces the stencil's own one on grids of N = 1 to 32
        # cells
        rng = np.random.default_rng(34)
        for p in degrees:
            for level, mesh in enumerate(mesh_hierarchy(6)):
                op = assemble(mesh, make_basis(p), make_problem(problem), default_eta(p))
                S = op.stencil.symbol()
                N = 2**level
                assert S.shape[:2] == (N, N // 2 + 1)
                x = rng.normal(size=op.n_dof)
                X = np.fft.rfft2(x.reshape(N, N, -1), axes=(0, 1))
                y = np.fft.irfft2((S @ X[..., None])[..., 0], s=(N, N), axes=(0, 1)).ravel()
                expected = op.matrix.matvec(x)
                assert np.linalg.norm(y - expected) <= 1e-13 * np.linalg.norm(expected), (p, level)

    @pytest.mark.parametrize("problem", ["convection", "convection_diffusion"])
    def test_diagonal_blocks_are_frequency_free(self, problem):
        # every edge of the grid joins a lower and an upper triangle, so no block off the
        # centre couples a shape to itself, and the symbol's diagonal blocks are K_0's,
        # bitwise, at every frequency: the two-colour resolvents rest on this
        for p in range(problem == "convection_diffusion", 6):
            for level, mesh in enumerate(mesh_hierarchy(4)):
                op = assemble(mesh, make_basis(p), make_problem(problem), default_eta(p))
                stencil, nm = op.stencil, op.basis.n_modes
                off_centre = stencil.stored.copy()
                off_centre[1, 1] = False
                assert not off_centre[:, :, [0, 1], [0, 1]].any(), (p, level)
                assert off_centre[:, :, [0, 1], [1, 0]].any(), (p, level)
                S = stencil.symbol()
                for s in (0, 1):
                    shape = slice(s * nm, (s + 1) * nm)
                    D, K0 = S[..., shape, shape], stencil.K[1, 1, shape, shape]
                    assert np.array_equal(D, np.broadcast_to(K0, D.shape)), (p, level)

    def test_plain_stencil_is_one_lu_of_its_csr(self, monkeypatch):
        # a plain stencil is one block: SuperLU factors its tiled CSR, not I - lambda S, and
        # the residual is taken against the stencil's own product
        lus = record_lu_shapes(monkeypatch)
        mesh = mesh_hierarchy(3)[2]
        Z = assemble(mesh, make_basis(1), make_problem("convection_diffusion"), default_eta(1)).matrix
        K = -0.25 * Z.K
        K[1, 1] += np.eye(K.shape[-1])
        stored = Z.stored.copy()
        stored[1, 1, [0, 1], [0, 1]] = True
        B = StencilOperator(K, stored, Z.N)
        prepared = PreparedSystem(B)
        b = np.random.default_rng(36).normal(size=Z.shape[0])
        x, stats = prepared.solve(b)
        assert stats.converged and stats.residual <= 1e-12 and lus == [Z.shape]
        dense = np.eye(Z.shape[0]) - 0.25 * Z.tocsr().toarray()
        assert np.array_equal(B.tocsr().toarray(), dense)
        assert np.linalg.norm(x - np.linalg.solve(dense, b)) <= 1e-12 * np.linalg.norm(x)


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
    # factor, and scipy.sparse itself by the first CSR matrix; a study marches in frequency
    # space at every p, so it loads neither
    def test_import_and_registry_leave_it_out(self):
        code = "import mddg.harness\nmddg.harness.method_registry()"
        assert loaded_after(code) == []

    def test_symbol_study_levels_leave_it_out(self):
        assert loaded_after(SYMBOL_LEVELS) == []

    def test_p0_convection_level_leaves_it_out(self):
        assert loaded_after(study_level("convection", 0)) == []

    def test_import_and_registry_leave_scipy_out(self):
        code = "import mddg.harness\nmddg.harness.method_registry()"
        assert loaded_after(code, ("scipy",)) == []

    def test_schemes_command_leaves_scipy_out(self):
        code = "from mddg.cli import main\nassert main(['schemes']) == 0"
        assert loaded_after(code, ("scipy",)) == []

    def test_symbol_study_levels_leave_scipy_out(self):
        assert loaded_after(SYMBOL_LEVELS, ("scipy", "scipy.sparse")) == []

    def test_p0_convection_level_leaves_scipy_sparse_out(self):
        code = study_level("convection", 0)
        assert loaded_after(code, ("scipy", "scipy.sparse")) == []

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
    # built-in method
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
        system = physical_workspace(op, method_registry()[method], 0.25).system
        x, stats = PreparedSystem(system).solve(np.tile(w, len(system.C)))
        assert stats.converged and np.all(np.isfinite(x))

    def test_nnz_counts_stored_entries(self):
        C = np.array([[0.3, 0.0], [1.0, 0.0]])
        Z, _ = random_csr(20, 0.2, seed=30)
        system = KroneckerSystem(C, Z)
        assert system.shape == (40, 40)
        assert system.nnz == Z.nnz + 2


# a plain CSR matrix, I - C (x) Z with a CSR Z, and I - C (x) Z with a stencil Z
ROUTES = ["plain", "kronecker", "stencil"]


def route_system(route):
    """A system ``PreparedSystem`` factors by the given route, and its dense matrix; tp5's
    coupling, one real eigenvalue and one pair, gives the Kronecker systems a real and a
    complex block."""
    if route == "plain":
        return random_csr(40, 0.3, seed=14, diag_boost=8.0)
    C = as_tableau(method_registry()["tp5"]).coupling
    if route == "kronecker":
        Z, D = random_csr(20, 0.3, seed=24, diag_boost=-3.0)
        return KroneckerSystem(C, Z), np.eye(len(C) * 20) - np.kron(C, D)
    op = assemble(mesh_hierarchy(2)[1], make_basis(1), make_problem("convection_diffusion"), default_eta(1))
    ws = physical_workspace(op, method_registry()["tp5"], 0.25)
    return ws.system, assembled_system(ws)


class TestPreparedSystem:
    def test_unconverged_direct_solve_raises(self, monkeypatch):
        # a solve that misses the residual contract is a SolverFailure
        class NanLU:
            def __init__(self, A, **kwargs):
                pass

            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", NanLU)
        A, _ = random_csr(40, 0.4, seed=19, diag_boost=0.8)
        prep = PreparedSystem(A)
        with pytest.raises(SolverFailure, match="direct solve did not converge") as err:
            prep.solve(np.ones(40))
        assert not err.value.stats.converged and prep.history == [err.value.stats]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("coupled", [False, True], ids=["plain", "kronecker"])
    def test_non_finite_rhs_rejected(self, coupled, value):
        # refused before any solve; a NaN ||b|| used to be reported as an unconverged
        # solve with residual 0
        A = CsrMatrix(sp.diags([2.0, 3.0, 4.0]))
        if coupled:
            A = KroneckerSystem(np.array([[0.3, 0.2], [-0.25, 0.1]]), A)
        prep = PreparedSystem(A)
        b = np.ones(A.shape[0])
        b[1] = value
        with pytest.raises(ValueError, match="^b must be finite$"):
            prep.solve(b)
        assert prep.history == []

    @pytest.mark.parametrize("coupled", [False, True], ids=["plain", "kronecker"])
    def test_wrong_rhs_shape_rejected(self, coupled):
        # refused before any solve; a column b used to be solved as if it were a vector,
        # and a wrong length to leak SuperLU's or numpy's error
        A = CsrMatrix(sp.diags([2.0, 3.0, 4.0]))
        if coupled:
            A = KroneckerSystem(np.array([[0.3, 0.2], [-0.25, 0.1]]), A)
        n = A.shape[0]
        prep = PreparedSystem(A)
        for shape in ((n, 1), (n - 1,)):
            with pytest.raises(ValueError) as err:
                prep.solve(np.ones(shape))
            assert str(err.value) == f"b must have length {n}, got shape {shape}"
        assert prep.history == []

    def test_spd_3x3_known_inverse(self):
        D = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        b = np.array([1.0, 2.0, 3.0])
        x, stats = PreparedSystem(CsrMatrix(D)).solve(b)
        assert stats.converged and stats.residual <= 1e-12
        assert np.max(np.abs(x - np.linalg.solve(D, b))) < 1e-14

    @pytest.mark.parametrize(
        "D",
        [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        ids=["nilpotent", "zero", "rank-one"],
    )
    def test_singular_operator_is_a_solver_failure(self, D):
        # an exactly singular matrix has no complete factor: refused when it is prepared,
        # before any right-hand side is seen
        with pytest.raises(SolverFailure, match="^direct LU failed: .*singular"):
            PreparedSystem(CsrMatrix(np.array(D)))

    @pytest.mark.parametrize("route", ROUTES)
    def test_zero_rhs(self, route):
        # ||b|| = 0 is an exact solve with residual 0, not a division by zero
        A, _ = route_system(route)
        x, stats = PreparedSystem(A).solve(np.zeros(A.shape[0]))
        assert np.array_equal(x, np.zeros(A.shape[0]))
        assert stats.converged and stats.residual == 0.0

    @pytest.mark.parametrize("route", ROUTES)
    def test_determinism(self, route):
        # two factors of one system, and two solves by one factor, agree bit for bit
        A, _ = route_system(route)
        b = np.linspace(-1.0, 1.0, A.shape[0])
        prep = PreparedSystem(A)
        x1, s1 = prep.solve(b)
        x2, s2 = prep.solve(b)
        x3, s3 = PreparedSystem(A).solve(b)
        assert np.array_equal(x1, x2) and np.array_equal(x1, x3)
        assert s1 == s2 == s3

    @pytest.mark.parametrize("route", ROUTES)
    def test_solve_returns_a_fresh_real_vector(self, route):
        # b is left as it was, and x is a new real vector of b's shape, however many of the
        # blocks it passed through are complex; its residual is its true one
        A, K = route_system(route)
        b = np.random.default_rng(43).normal(size=A.shape[0])
        b_before = b.copy()
        x, stats = PreparedSystem(A).solve(b)
        assert np.array_equal(b, b_before)
        assert x.dtype == np.float64 and x.shape == b.shape and x is not b
        assert np.linalg.norm(b - K @ x) <= 1e-12 * np.linalg.norm(b)
        assert stats.converged and stats.residual <= 1e-12

    def test_history_records_every_solve(self):
        # one SolveStats per right-hand side, in order, each the one its solve returned
        A, _ = route_system("plain")
        prep = PreparedSystem(A)
        rng = np.random.default_rng(44)
        returned = [prep.solve(rng.normal(size=A.shape[0]))[1] for _ in range(3)]
        assert len(prep.history) == 3
        assert all(h is s for h, s in zip(prep.history, returned))

