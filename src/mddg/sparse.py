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
diffusion, whose upwind LU stays near the block's own fill, for one with
diffusion and at most ``COMPLETE_LU_MAX_NNZ`` nonzeros (see
``MdrkWorkspace``), and as the fallback when the ILUTP cannot be built or
GMRES does not converge.  Its columns are ordered by minimum degree on
B + B^T (SuperLU's ``MMD_AT_PLUS_A``: George and Liu, *The evolution of
the minimum degree ordering algorithm*, SIAM Review 31, 1989) when the
pattern of Z is symmetric, as the interior-penalty terms make it, which
cuts the fill 2-2.5x against COLAMD; an upwind convection Z keeps COLAMD,
which gives the same fill there and faster solves.  GMRES, restarted and
right-preconditioned so that its residuals are true ones, runs only on
SuperLU's threshold incomplete LU (ILUTP, ``ilu_factor``), as a complete
factor leaves it nothing to iterate.  It orthogonalises by classical
Gram-Schmidt run twice (CGS2), solves its small least-squares problem
with LAPACK and keeps each preconditioned Krylov vector (Saad, *A
flexible inner-outer preconditioned GMRES algorithm*, SISC 14, 1993).
Its tolerance, restart length and iteration limit are the constants
``GMRES_RTOL``, ``GMRES_RESTART`` and ``GMRES_MAXIT``, not settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

GMRES_RTOL = 1e-10  # relative residual every GMRES solve must reach
GMRES_RESTART = 60  # Krylov vectors GMRES keeps before it restarts
GMRES_MAXIT = 5000  # GMRES iterations a solve may take before it falls back
FALLBACK_MAX_N = 50000  # largest system the automatic direct fallback accepts
# largest diffusion operator Z (nonzeros) whose blocks are solved by their complete LU
# rather than by ILUTP + GMRES (see MdrkWorkspace).  The mesh family fixes the sizes:
# p1-p5 reach 74k, 74k, 51k, 115k, 56k nonzeros at levels 5, 4, 3, 3, 2 and 4x that one
# level deeper.  One run_level per side (ILUTP + GMRES -> complete LU, tp3 / tp5 / mdrk6,
# 2-core host): every operator up to 115k wins (p4 level 3: 0.14 -> 0.09, 0.23 -> 0.11,
# 0.23 -> 0.12 s; p1 level 5: 1.28 -> 0.34, 0.91 -> 0.47, 1.06 -> 0.61 s), while p3 level
# 4 (205k) loses (0.49-0.56 -> 0.52-0.68, 0.72 -> 0.79, 0.85 -> 0.91 s) and so does
# p1 level 6 (295k, tp3: 5.0-5.6 -> 5.8-7.4 s, 142 -> 222 MB)
COMPLETE_LU_MAX_NNZ = 150_000
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


def _pattern_symmetric(Z) -> bool:
    """Whether Z's stored pattern, explicit zeros included, equals that of its transpose."""
    Z = scipy.sparse.csr_array(Z)
    P = scipy.sparse.csr_array((np.ones(Z.nnz, np.int8), Z.indices, Z.indptr), shape=Z.shape)
    P.sum_duplicates()
    T = P.T.tocsr()
    return np.array_equal(P.indptr, T.indptr) and np.array_equal(P.indices, T.indices)


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
    fallback_reason: str = ""  # why the direct fallback ran (see PreparedSystem); "" if it did not
    residual_history: tuple = ()

    @property
    def fallback_used(self) -> bool:
        return bool(self.fallback_reason)


@dataclass
class LinearSolver:
    """Solver kind: restarted GMRES with an ILUTP preconditioner, or direct LU.

    GMRES solves to ``GMRES_RTOL`` on the whole system, restarted every
    ``GMRES_RESTART`` iterations, right-preconditioned by ``ilu_factor``
    (SuperLU's ILUTP, one per block of a coupled system; the paper uses
    ILU(2) of the whole system), and hands a system it cannot precondition
    or solve within ``GMRES_MAXIT`` iterations to the complete LU (see
    PreparedSystem).  ``direct`` solves with SuperLU's complete LU of each
    block.  ``MdrkWorkspace`` solves convection, and diffusion up to
    ``COMPLETE_LU_MAX_NNZ`` nonzeros, directly whatever the kind, so GMRES
    runs only above that cap.
    """

    kind: str = "gmres"

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")

    def prepare(self, A) -> PreparedSystem:
        """Factorize ``A``, a ``CsrMatrix`` or a ``KroneckerSystem`` (see PreparedSystem)."""
        return PreparedSystem(A, self)


def gmres_solve(
    A, b, precond=None, rtol=GMRES_RTOL, restart=GMRES_RESTART, maxit=GMRES_MAXIT, x0=None
):
    """Right-preconditioned restarted GMRES.

    Returns (x, SolveStats).  The reported residual is the true relative
    residual ||b - Ax|| / ||b||.  Each Arnoldi column is orthogonalised by
    classical Gram-Schmidt run twice (CGS2: Giraud, Langou and Rozloznik,
    Comput. Math. Appl. 50, 2005), and each iteration solves the Hessenberg
    least-squares problem min ||g - H y|| with LAPACK's ``lstsq``; its
    residual over ||b|| is the history entry and the convergence test, and
    stays finite for a singular operator.  Each iteration applies the
    preconditioner once and keeps z_j = M^-1 v_j, so a cycle ends with
    x += Z y instead of one more apply to V y (flexible GMRES storage: Saad,
    SISC 14, 1993).  That costs n floats per iteration taken; without a
    preconditioner Z is V itself.  The bases are allocated once per solve
    and left uninitialised, so only the rows a solve reaches are written.
    """
    if not 0 < rtol < 1:  # also rejects nan
        raise ValueError(f"rtol must lie in (0, 1), got {rtol!r}")
    for name, value in (("restart", restart), ("maxit", maxit)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    n = A.shape[0]
    b = np.asarray(b, dtype=float)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    for name, v in (("b", b), ("x0", x)):
        if v.shape != (n,):
            raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, True)
    m = min(restart, n)  # the Krylov dimension cannot exceed n
    V = np.empty((m + 1, n))
    Z = V if precond is None else np.empty((m, n))
    history = []
    total = 0
    while True:
        r = b - A.matvec(x)
        beta = np.linalg.norm(r)
        relres = beta / bnorm
        if relres <= rtol or total >= maxit:
            break
        H = np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        for j in range(m):
            if precond is not None:
                Z[j] = precond.apply(V[j])
            w = A.matvec(Z[j])
            total += 1
            for _ in range(2):  # CGS2
                h = V[: j + 1] @ w
                H[: j + 1, j] += h
                w -= h @ V[: j + 1]
            H[j + 1, j] = hnext = np.linalg.norm(w)
            k = j + 1
            y = np.linalg.lstsq(H[: k + 1, :k], g[: k + 1], rcond=None)[0]
            history.append(np.linalg.norm(g[: k + 1] - H[: k + 1, :k] @ y) / bnorm)
            breakdown = not hnext > 1e-300
            if history[-1] <= rtol or breakdown or total >= maxit:
                break
            V[k] = w / hnext
        x += Z[:k].T @ y
        if breakdown:
            relres = np.linalg.norm(b - A.matvec(x)) / bnorm
            break
    return x, SolveStats(
        iterations=total,
        residual=float(relres),
        converged=bool(relres <= rtol),
        residual_history=tuple(history),
    )


class PreparedSystem:
    """A factorized linear system ready for repeated right-hand sides.

    A GMRES-kind solver gets the ILUTP preconditioner ``ilu`` and solves by
    GMRES; a direct-kind solver gets the complete LU and solves by it alone.
    Either applies A itself for its residual, that of the whole system.

    A GMRES-kind system falls back to the complete LU, for this and every
    later solve, when its ILUTP cannot be built or a GMRES solve does not
    converge: non-convergence is a property of the matrix, not of the
    right-hand side.  The fallback takes at most ``FALLBACK_MAX_N``
    unknowns; above that the solve raises ``SolverFailure``.
    ``SolveStats.fallback_reason`` of a solve that fell back is
    ``"ilu_failed"`` (no preconditioner could be built),
    ``"gmres_not_converged"`` (this solve's GMRES gave up) or ``"sticky"``
    (an earlier solve's GMRES gave up).
    """

    def __init__(self, A, solver):
        self.A = A
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
        # minimum degree on B + B^T for a symmetric pattern (tested on Z: forming
        # B = I - lambda Z drops Z's stored zeros), COLAMD otherwise
        Z = self.A.Z if isinstance(self.A, KroneckerSystem) else self.A
        permc = "MMD_AT_PLUS_A" if _pattern_symmetric(Z) else "COLAMD"
        try:
            self._direct = BlockFactors(
                self.A, lambda B: scipy.sparse.linalg.splu(B, permc_spec=permc)
            )
        except RuntimeError as exc:  # SuperLU signals an exactly singular matrix this way
            raise SolverFailure(f"direct LU failed: {exc}") from exc

    def _fall_back(self, reason, message, stats=None):
        """Go direct for this and later solves (``reason``), or record ``stats`` and raise."""
        n = self.A.shape[0]
        if n <= FALLBACK_MAX_N:
            self._factorize_direct()
            self._direct_reason = reason
            return
        if stats is not None:
            self.history.append(stats)
        message += f"; direct fallback refused: n = {n} > FALLBACK_MAX_N = {FALLBACK_MAX_N}"
        raise SolverFailure(message, stats=stats)

    def _solve_direct(self, b, fallback_reason):
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
            converged=bool(np.all(np.isfinite(x)) and rel <= GMRES_RTOL),
            fallback_reason=fallback_reason,
        )
        return x, stats

    def solve(self, b, x0=None):
        """Solve A x = b; returns (x, SolveStats).  ``x0`` seeds GMRES only.

        A ``b`` of the wrong shape or with a non-finite entry raises
        ValueError whatever the solver's kind.
        """
        b = np.asarray(b, dtype=float)
        n = self.A.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have length {n}, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        reason = self._direct_reason
        if self._direct is None:
            x, stats = gmres_solve(
                self.A, b, precond=self.ilu, rtol=GMRES_RTOL, restart=GMRES_RESTART,
                maxit=GMRES_MAXIT, x0=x0,
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
