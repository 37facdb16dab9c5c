"""Sparse kernels and linear solvers.

Matrices are scipy CSR arrays with rows sorted by column.  ``CsrMatrix``
subclasses scipy's CSR array only to fix the summation order of assembly
and to give the solvers one matrix-vector product, ``matvec``.
A system I - C (x) Z with a small dense C is a ``KroneckerSystem``: it is
applied one block row at a time, never assembled, and factored as one
n x n block I - lambda Z per real eigenvalue and per conjugate pair of C,
through C's eigenvectors (``BlockFactors``; Butcher, *On the
implementation of implicit Runge-Kutta methods*, BIT 16, 1976).

A ``PreparedSystem`` holds one of two such factors.  SuperLU's complete
LU is solved directly, refined once when its residual is above
``REFINE_ABOVE``: for ``solver = direct``, for an operator with no
diffusion, whose upwind LU stays near the block's own fill (see
``MdrkWorkspace``), and as the fallback when the ILUTP cannot be built or
GMRES does not converge.  GMRES, restarted and right-preconditioned so
that its residuals are true ones, runs only on SuperLU's threshold
incomplete LU (ILUTP, ``ilu_factor``), as a complete factor leaves it
nothing to iterate, and keeps each preconditioned Krylov vector (Saad,
*A flexible inner-outer preconditioned GMRES algorithm*, SISC 14, 1993).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

FALLBACK_MAX_N = 50000  # largest system the automatic direct fallback accepts
ILU_DROP_TOL = 1e-4  # ILUTP drops entries below this size relative to their column
ILU_FILL_FACTOR = 10  # ILUTP keeps at most this multiple of the matrix's nonzeros
REFINE_ABOVE = 1e-12  # a direct solve refines once when its relative residual exceeds this
COUPLING_COND_MAX = 1e4  # largest cond(V) of C = V diag(lambda) V^-1 that I - C (x) Z accepts
SOLVER_KINDS = ("gmres", "direct")


class SolverFailure(RuntimeError):
    """Linear solve did not produce a solution within the requested tolerance."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class CsrMatrix(scipy.sparse.csr_array):
    """scipy CSR array with a deterministic block builder and one product.

    The subclass exists for two reasons.  ``from_blocks`` stably sorts one
    key per dense block, sums duplicate blocks left to right and expands them
    through scipy's BSR-to-CSR conversion, so the assembled operator is
    bitwise reproducible however its blocks were emitted; 1 x 1 blocks make
    it a triplet builder.  ``matvec`` is the one matrix-vector product the
    solvers call, so counting or timing products means wrapping this one
    method.
    """

    @classmethod
    def from_blocks(cls, rows, cols, blocks, shape):
        """Sum (n, R, C) ``blocks`` at block (rows, cols) of a ``shape`` matrix, in a fixed order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=float)
        grid = (shape[0] // blocks.shape[1], shape[1] // blocks.shape[2])
        for name, idx, size in (("block row", rows, grid[0]), ("block column", cols, grid[1])):
            if len(idx) and (idx.min() < 0 or idx.max() >= size):
                raise ValueError(f"{name} index out of bounds")
        keys = rows * grid[1] + cols
        order = np.argsort(keys, kind="stable")
        keys, blocks = keys[order], blocks[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        blocks, keys = np.add.reduceat(blocks, starts, axis=0), keys[starts]
        index_dtype = np.int32 if max(blocks.size, shape[1]) < 2**31 else np.int64
        indptr = np.searchsorted(keys, np.arange(grid[0] + 1) * grid[1])
        bsr = (blocks, (keys % grid[1]).astype(index_dtype), indptr.astype(index_dtype))
        return cls(scipy.sparse.bsr_array(bsr, shape=shape).tocsr())

    def matvec(self, x):
        return self @ x


class KroneckerSystem:
    """The block system I - C (x) Z, applied without assembling it.

    C is a small dense sM x sM matrix and Z an n x n ``CsrMatrix``.  The
    product reshapes x to (sM, n) and returns X - C (Z X), one ``Z.matvec``
    per block row, so the system holds no more than C and Z themselves.
    ``nnz`` counts those stored entries: the nonzeros of Z plus those of C.
    """

    def __init__(self, C, Z):
        self.C = np.asarray(C, dtype=float)
        self.Z = Z
        N = len(self.C) * Z.shape[0]
        self.shape = (N, N)

    @property
    def nnz(self) -> int:
        return self.Z.nnz + int(np.count_nonzero(self.C))

    def matvec(self, x):
        X = np.asarray(x).reshape(len(self.C), -1)
        ZX = np.array([self.Z.matvec(row) for row in X])
        return (X - self.C @ ZX).ravel()


def _decouple(A):
    """V, V^-1 and the blocks (k, block k, paired) that factor A block by block.

    For A = I - C (x) Z (a ``KroneckerSystem``) with C = V diag(lambda) V^-1,
    A^-1 = (V (x) I) (I - diag(lambda) (x) Z)^-1 (V^-1 (x) I), so block k is
    I - lambda_k Z: real for a real eigenvalue, complex for the member k of a
    conjugate pair with positive imaginary part, whose partner block is its
    complex conjugate (``paired`` marks it).  A plain matrix is the 1 x 1
    case: V is None and the one block is A.  A C whose V is too
    ill-conditioned to transform with (a repeated eigenvalue makes it
    singular; no built-in tableau has one) raises ValueError.
    """
    if not isinstance(A, KroneckerSystem):
        return None, None, [(0, A, False)]
    C, Z = A.C, A.Z
    lam, V = np.linalg.eig(C)
    cond = np.linalg.cond(V)
    if cond > COUPLING_COND_MAX:
        raise ValueError(
            f"cannot factor I - C (x) Z block by block: C's eigenvector matrix has "
            f"cond(V) = {cond:.3g} > COUPLING_COND_MAX = {COUPLING_COND_MAX:g}"
        )
    I = scipy.sparse.identity(Z.shape[0], format="csr")
    # numpy returns a conjugate pair adjacently, positive imaginary part first
    return V, np.linalg.inv(V), (
        (k, I - (lam[k] if lam[k].imag else lam[k].real) * Z, lam[k].imag > 0)
        for k in range(len(lam))
        if lam[k].imag >= 0
    )


class BlockFactors:
    """Factors of A = I - C (x) Z stored per block (see ``_decouple``).

    ``factor`` turns one CSC block into an object with a ``solve`` method
    (SuperLU's ``splu`` or ``spilu``); ``solve`` maps b through V^-1, solves
    each stored block, fills a pair's partner by ``conj`` and maps back with
    V.  For a plain matrix it is the one factor's own solve.
    """

    def __init__(self, A, factor):
        self.V, self.Vinv, blocks = _decouple(A)
        self.factors = [
            (k, factor(scipy.sparse.csc_matrix(B)), paired) for k, B, paired in blocks
        ]

    @property
    def nnz(self) -> int:
        """Nonzeros of L plus U, summed over the stored blocks."""
        return sum(f.L.nnz + f.U.nnz for _, f, _ in self.factors)

    def solve(self, b: np.ndarray) -> np.ndarray:
        V = self.V
        if V is None:
            return self.factors[0][1].solve(b)
        W = self.Vinv @ b.reshape(len(V), -1)
        Y = np.empty_like(W)
        for k, f, paired in self.factors:
            if paired:
                Y[k] = f.solve(W[k])
                Y[k + 1] = Y[k].conj()
            else:
                Y[k] = f.solve(W[k].real)
        return (V @ Y).real.ravel()


class IluFactors(BlockFactors):
    """GMRES preconditioner: ILUTP factors P_r B P_c ~ L U of each block B, from SuperLU.

    Each block B of A (see ``_decouple``) is factored with entries smaller
    than ``ILU_DROP_TOL`` relative to their column dropped, at most
    ``ILU_FILL_FACTOR`` times the nonzeros of B kept, rows pivoted by
    threshold partial pivoting and columns ordered by COLAMD (Saad,
    *Iterative Methods for Sparse Linear Systems*, ch. 10; Li & Shao, ACM
    TOMS 37, 2011).  ``nnz`` is the preconditioner's fill.
    """

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Solve the factored system; returns a new real vector."""
        return self.solve(np.asarray(v, dtype=float))


def ilu_factor(A) -> IluFactors:
    """ILUTP preconditioner of a square matrix, blockwise for a ``KroneckerSystem``.

    Raises SuperLU's ``RuntimeError`` when a pivot column of a factor is
    exactly zero.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError("ILU requires a square matrix")
    return IluFactors(
        A,
        lambda B: scipy.sparse.linalg.spilu(B, drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR),
    )


@dataclass
class SolveStats:
    """Outcome of one linear solve."""

    iterations: int
    residual: float
    converged: bool
    wall_time: float
    fallback_reason: str = ""  # why the direct fallback ran (see PreparedSystem); "" if it did not
    residual_history: tuple = ()

    @property
    def fallback_used(self) -> bool:
        return bool(self.fallback_reason)


def _check_gmres_settings(rtol, restart, maxit):
    """Reject a GMRES tolerance outside (0, 1) or a restart or iteration limit below 1."""
    if not 0 < rtol < 1:  # also rejects nan
        raise ValueError(f"rtol must lie in (0, 1), got {rtol!r}")
    for name, value in (("restart", restart), ("maxit", maxit)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass
class LinearSolver:
    """Solver configuration: restarted GMRES with an ILUTP preconditioner, or direct LU.

    GMRES defaults to relative tolerance 1e-10 on the whole system,
    right-preconditioned by ``ilu_factor`` (SuperLU's ILUTP, one per block
    of a coupled system; the paper uses ILU(2) of the whole system).
    ``direct`` solves with SuperLU's complete LU of each block.  With
    ``fallback``, GMRES hands a system it cannot precondition or solve to
    the complete LU (see PreparedSystem).
    """

    kind: str = "gmres"
    rtol: float = 1e-10
    restart: int = 60
    maxit: int = 5000
    fallback: bool = True

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")
        _check_gmres_settings(self.rtol, self.restart, self.maxit)

    def prepare(self, A) -> PreparedSystem:
        """Factorize ``A``, a ``CsrMatrix`` or a ``KroneckerSystem`` (see PreparedSystem)."""
        return PreparedSystem(A, self)


def gmres_solve(
    A, b, precond=None, rtol=LinearSolver.rtol, restart=LinearSolver.restart,
    maxit=LinearSolver.maxit, x0=None,
):
    """Right-preconditioned restarted GMRES.

    Returns (x, SolveStats).  The reported residual is the true relative
    residual ||b - Ax|| / ||b||; within each restart cycle the Arnoldi
    least-squares residual is non-increasing by construction.  Each
    iteration applies the preconditioner once and keeps z_j = M^-1 v_j, so
    a cycle ends with x += Z y instead of one more apply to V y (the storage
    of flexible GMRES: Saad, *A flexible inner-outer preconditioned GMRES
    algorithm*, SISC 14, 1993).  That costs n floats per iteration taken;
    without a preconditioner Z is V itself.  The bases are allocated once
    per solve and left uninitialised, so only the rows a solve reaches are
    written.
    """
    _check_gmres_settings(rtol, restart, maxit)
    t0 = time.perf_counter()
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    for name, v in (("b", b), ("x0", x)):
        if v.shape != (n,):
            raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, True, time.perf_counter() - t0)
    m = min(restart, n)  # the Krylov dimension cannot exceed n
    V = np.empty((m + 1, n))
    Z = V if precond is None else np.empty((m, n))
    history = []
    total = 0
    converged = False
    while True:
        r = b - A.matvec(x)
        beta = np.linalg.norm(r)
        relres = beta / bnorm
        if relres <= rtol:
            converged = True
            break
        if total >= maxit:
            break
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        j_used = 0
        breakdown = False
        for j in range(m):
            if total >= maxit:
                break
            if precond is not None:
                Z[j] = precond.apply(V[j])
            w = A.matvec(Z[j])
            total += 1
            for i in range(j + 1):  # modified Gram-Schmidt
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            hnext = np.linalg.norm(w)
            H[j + 1, j] = hnext
            if hnext > 1e-300:
                V[j + 1] = w / hnext
            else:
                breakdown = True
            for i in range(j):
                hi, hi1 = H[i, j], H[i + 1, j]
                H[i, j] = cs[i] * hi + sn[i] * hi1
                H[i + 1, j] = -sn[i] * hi + cs[i] * hi1
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j_used = j + 1
            history.append(abs(g[j + 1]) / bnorm)
            if abs(g[j + 1]) / bnorm <= rtol or breakdown:
                break
        if j_used:
            y = scipy.linalg.solve_triangular(H[:j_used, :j_used], g[:j_used])
            x += Z[:j_used].T @ y
        else:
            break
        if breakdown:
            r = b - A.matvec(x)
            relres = np.linalg.norm(r) / bnorm
            converged = relres <= rtol
            break
    stats = SolveStats(
        iterations=total,
        residual=float(relres),
        converged=bool(converged),
        wall_time=time.perf_counter() - t0,
        residual_history=tuple(history),
    )
    return x, stats


class PreparedSystem:
    """A factorized linear system ready for repeated right-hand sides.

    A GMRES-kind solver gets the ILUTP preconditioner ``ilu`` and solves by
    GMRES; a direct-kind solver gets the complete LU and solves by it alone.
    Either applies A itself for its residual, that of the whole system.

    A GMRES-kind system falls back to the complete LU, for this and every
    later solve, when its ILUTP cannot be built or a GMRES solve does not
    converge: non-convergence is a property of the matrix, not of the
    right-hand side.  The fallback needs ``solver.fallback`` and at most
    ``FALLBACK_MAX_N`` unknowns; without them the solve raises
    ``SolverFailure``.  ``SolveStats.fallback_reason`` of a solve that fell
    back is ``"ilu_failed"`` (no preconditioner could be built),
    ``"gmres_not_converged"`` (this solve's GMRES gave up) or ``"sticky"``
    (an earlier solve's GMRES gave up).
    """

    def __init__(self, A, solver):
        self.A = A
        self.solver = solver
        self.ilu = None
        self._direct = None
        self._direct_reason = ""  # why a GMRES-kind solve now goes direct
        self.history = []
        if solver.kind == "direct":
            self._factorize_direct()
            return
        try:
            self.ilu = ilu_factor(A)
        except RuntimeError as exc:  # SuperLU signals a singular factor this way
            self._fall_back("ilu_failed", f"incomplete LU failed: {exc}")

    def _factorize_direct(self):
        try:
            self._direct = BlockFactors(self.A, scipy.sparse.linalg.splu)
        except RuntimeError as exc:  # SuperLU signals an exactly singular matrix this way
            raise SolverFailure(f"direct LU failed: {exc}") from exc

    def _fall_back(self, reason, message, stats=None):
        """Go direct for this and later solves (``reason``), or record ``stats`` and raise."""
        n = self.A.shape[0]
        if self.solver.fallback and n <= FALLBACK_MAX_N:
            self._factorize_direct()
            self._direct_reason = reason
            return
        if stats is not None:
            self.history.append(stats)
        if self.solver.fallback:
            message += f"; direct fallback refused: n = {n} > FALLBACK_MAX_N = {FALLBACK_MAX_N}"
        raise SolverFailure(message, stats=stats)

    def _solve_direct(self, b, fallback_reason):
        t0 = time.perf_counter()
        x = self._direct.solve(b)
        r = b - self.A.matvec(x)
        bnorm = np.linalg.norm(b)
        if np.linalg.norm(r) > REFINE_ABOVE * bnorm:  # one refinement pass
            x = x + self._direct.solve(r)
            r = b - self.A.matvec(x)
        rel = np.linalg.norm(r) / bnorm if bnorm > 0 else 0.0
        stats = SolveStats(
            iterations=1,
            residual=float(rel),
            converged=bool(np.all(np.isfinite(x)) and rel <= max(self.solver.rtol, LinearSolver.rtol)),
            wall_time=time.perf_counter() - t0,
            fallback_reason=fallback_reason,
        )
        return x, stats

    def solve(self, b, x0=None):
        """Solve A x = b; returns (x, SolveStats).  ``x0`` seeds GMRES only."""
        s = self.solver
        reason = self._direct_reason
        if self._direct is None:
            x, stats = gmres_solve(
                self.A, b, precond=self.ilu, rtol=s.rtol, restart=s.restart, maxit=s.maxit, x0=x0
            )
            if stats.converged:
                self.history.append(stats)
                return x, stats
            self._fall_back(
                "sticky",
                f"GMRES did not converge: residual {stats.residual:.3e} "
                f"after {stats.iterations} iterations",
                stats,
            )
            reason = "gmres_not_converged"
        x, stats = self._solve_direct(b, reason)
        self.history.append(stats)
        if not stats.converged:
            raise SolverFailure(f"direct solve did not converge: residual {stats.residual:.3e}", stats)
        return x, stats
