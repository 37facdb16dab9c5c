"""Operators and linear solvers.

A DG operator of degree p >= 1 is a ``StencilOperator``: on the periodic
grid with constant coefficients it is block circulant, so it is kept as
its few stencil blocks, applied on the grid, and split by a 2-D FFT over
the cells into one dense block per frequency (``symbol``).  Any other
matrix is a ``CsrMatrix``, a scipy CSR array subclassed to fix the
summation order of assembly and to give the solvers one product,
``matvec``; it is built when first asked for, so only a process that
needs a CSR matrix loads ``scipy.sparse``.  A system I - C (x) Z with a
small dense C is a ``KroneckerSystem``: it is applied one block row at a
time, never assembled, and factored as one n x n block I - lambda Z per
real eigenvalue and per conjugate pair of C, through C's eigenvectors
(``BlockFactors``; Butcher, *On the implementation of implicit
Runge-Kutta methods*, BIT 16, 1976).

A ``PreparedSystem`` holds one of three such factors.  Two are solved
directly, refined once when the residual is above ``REFINE_ABOVE``: the
inverse symbol when Z is a stencil, and otherwise SuperLU's complete LU,
its columns ordered by COLAMD (p = 0 convection, whose upwind LU stays
near the block's own fill, an operator without a mesh, a plain matrix).
``scipy.sparse.linalg`` (which loads ``scipy.linalg``) is imported by the
first SuperLU factor.  GMRES, restarted and right-preconditioned so that
its residuals are true ones, runs only on a system prepared with the
GMRES kind, preconditioned by SuperLU's threshold incomplete LU (ILUTP,
``ilu_factor``), and falls back to the complete factor when the ILUTP
cannot be built or GMRES does not converge.  It orthogonalises by
classical Gram-Schmidt run twice (CGS2), solves its small least-squares
problem with LAPACK and keeps each preconditioned Krylov vector (Saad,
*A flexible inner-outer preconditioned GMRES algorithm*, SISC 14, 1993).
Its tolerance, restart length and iteration limit are the constants
``GMRES_RTOL``, ``GMRES_RESTART`` and ``GMRES_MAXIT``, not settings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

GMRES_RTOL = 1e-10  # relative residual every GMRES solve must reach
GMRES_RESTART = 60  # Krylov vectors GMRES keeps before it restarts
GMRES_MAXIT = 5000  # GMRES iterations a solve may take before it falls back
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


@functools.cache
def _csr_matrix_class():
    import scipy.sparse

    class CsrMatrix(scipy.sparse.csr_array):
        """scipy CSR array with a deterministic block builder and one product.

        ``from_blocks`` stably sorts one key per dense block, sums duplicate blocks left to
        right and expands them through scipy's BSR-to-CSR conversion, so the matrix is
        bitwise reproducible however its blocks were emitted; 1 x 1 blocks make it a
        triplet builder.  ``matvec`` is the one product the solvers call, so counting or
        timing products means wrapping this one method.
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

    CsrMatrix.__qualname__ = "CsrMatrix"
    return CsrMatrix


def __getattr__(name):  # CsrMatrix, and with it scipy.sparse, loads on first use
    if name == "CsrMatrix":
        return _csr_matrix_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class StencilOperator:
    """A block-circulant operator on the periodic N x N grid of cells, kept as its stencil.

    Element e is shape e % 2 of cell e // 2 = iy N + ix (``mddg.mesh``), so a vector is an
    (N, N, 2 nm) array [iy, ix, shape * nm + mode] by reshape alone.  ``K[dy + 1, dx + 1]``
    (2 nm x 2 nm) couples each cell c to cell c + d, d in {-1, 0, 1}^2 not reduced mod N,
    and ``stored[dy + 1, dx + 1, s, t]`` marks the nm x nm blocks (test shape s, trial
    shape t) that its CSR stores.
    """

    def __init__(self, K, stored, N):
        self.K, self.stored, self.N = K, stored, N
        self.shape = (N * N * K.shape[-1],) * 2

    @property
    def nnz(self) -> int:
        """Stored entries of ``tocsr()``; offsets equal mod N (N <= 2) share their blocks."""
        keys = np.argwhere(self.stored)
        keys[:, :2] = (keys[:, :2] - 1) % self.N
        return len(np.unique(keys, axis=0)) * self.N**2 * (self.K.shape[-1] // 2) ** 2

    @functools.cached_property
    def _buffers(self):
        """matvec's wrap-filled copy, row by row, and the cell each row copies; its
        products; and per stored offset d, the copy's rows shifted by d and K_d^T."""
        N, nb = self.N, self.K.shape[-1]
        wrap, rows = np.arange(-1, N + 1) % N, N * (N + 2) - 2  # first grid cell to last
        padded, y = np.empty(((N + 2) ** 2, nb)), np.empty((N, N + 2, nb))
        terms = [
            (padded[(1 + dy) * (N + 2) + 1 + dx :][:rows], np.ascontiguousarray(self.K[dy + 1, dx + 1].T))
            for dy, dx in np.argwhere(self.stored.any(axis=(2, 3))) - 1
        ]
        return (wrap[:, None] * N + wrap).ravel(), padded, y, y.reshape(-1, nb)[:rows], terms

    def matvec(self, x):
        """y(c) = sum_d K_d x(c + d) for a real x, on a wrap-filled (N + 2, N + 2, 2 nm) copy.

        Row by row, a shift by d is one contiguous slice of the copy, so each stored offset
        is one product over N (N + 2) - 2 rows, the 2 N - 2 between grid rows computed and
        dropped.  The copy and the products reuse the operator's buffers.
        """
        cells, padded, y, out, terms = self._buffers
        np.take(x.reshape(len(y) ** 2, -1), cells, axis=0, out=padded)
        np.matmul(*terms[0], out=out)
        for shifted, KT in terms[1:]:
            out += shifted @ KT
        return y[:, : len(y)].flatten()

    def symbol(self):
        """S(k) = sum_d K_d exp(2 pi i k.d / N), (N, N, 2 nm, 2 nm): N^2 times the ``ifft2``
        of the K_d summed by d mod N (Davis, *Circulant Matrices*, 1979; Hemker, Hoffmann
        and van Raalte, SISC 25, 2003)."""
        N, nb, d = self.N, self.K.shape[-1], np.arange(-1, 2) % self.N
        K = np.zeros((N, N, nb, nb))
        np.add.at(K, (d[:, None], d[None, :]), self.K)
        return N * N * np.fft.ifft2(K, axes=(0, 1))

    def tocsr(self):
        """The ``CsrMatrix`` of the stencil tiled over the grid, cell by cell."""
        N, nm = self.N, self.K.shape[-1] // 2
        dy, dx, s, t = np.nonzero(self.stored)
        blocks = self.K[dy, dx].reshape(-1, 2, nm, 2, nm)[np.arange(len(s)), s, :, t, :]
        iy, ix = np.divmod(np.arange(N * N)[:, None], N)
        rows = 2 * (iy * N + ix) + s
        cols = 2 * ((iy + dy - 1) % N * N + (ix + dx - 1) % N) + t
        tiled = np.broadcast_to(blocks, (N * N,) + blocks.shape).reshape(-1, nm, nm)
        return _csr_matrix_class().from_blocks(rows.ravel(), cols.ravel(), tiled, self.shape)


class KroneckerSystem:
    """The block system I - C (x) Z, applied without assembling it.

    C is a small dense sM x sM matrix and Z an n x n operator.  The
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
    """V, V^-1 and the eigenvalues (k, lambda_k, paired) whose blocks factor A.

    For A = I - C (x) Z (a ``KroneckerSystem``) with C = V diag(lambda) V^-1,
    A^-1 = (V (x) I) (I - diag(lambda) (x) Z)^-1 (V^-1 (x) I), so block k is
    I - lambda_k Z: real for a real eigenvalue, complex for the member k of a
    conjugate pair with positive imaginary part, whose partner block is its
    complex conjugate (``paired`` marks it).  A plain matrix is the 1 x 1
    case: V is None and lambda None marks the one block, A itself.  A C
    whose V is too ill-conditioned to transform with (a repeated eigenvalue
    makes it singular; no built-in tableau has one) raises ValueError.
    """
    if not isinstance(A, KroneckerSystem):
        return None, None, [(0, None, False)]
    lam, V = np.linalg.eig(A.C)
    cond = np.linalg.cond(V)
    if cond > COUPLING_COND_MAX:
        raise ValueError(
            f"cannot factor I - C (x) Z block by block: C's eigenvector matrix has "
            f"cond(V) = {cond:.3g} > COUPLING_COND_MAX = {COUPLING_COND_MAX:g}"
        )
    # numpy returns a conjugate pair adjacently, positive imaginary part first
    return V, np.linalg.inv(V), [
        (k, lam[k] if lam[k].imag else lam[k].real, lam[k].imag > 0)
        for k in range(len(lam))
        if lam[k].imag >= 0
    ]


def _sparse_block(A, lam):
    """The CSC block I - lam Z of A, or A itself for lam None (see ``_decouple``); a
    ``StencilOperator`` is tiled over its grid first."""
    import scipy.sparse

    Z = (A if lam is None else A.Z).tocsr()
    B = Z if lam is None else scipy.sparse.identity(Z.shape[0], format="csr") - lam * Z
    return scipy.sparse.csc_matrix(B)


class FourierFactor:
    """inv(I - lambda S(k)) of the block I - lambda Z (inv(S(k)) for lambda None), S = Z.symbol().

    A solve reshapes w to the (N, N, 2 nm) grid, runs ``fft2`` over the cells, multiplies each
    frequency by its inverse and transforms back; a real vector, as a real lambda's block gets,
    comes back real.
    """

    def __init__(self, S, lam):
        self.inverse = np.linalg.inv(S if lam is None else np.eye(S.shape[-1]) - lam * S)

    def solve(self, w):
        N, _, nb, _ = self.inverse.shape
        X = np.fft.fft2(w.reshape(N, N, nb), axes=(0, 1))
        Y = np.fft.ifft2((self.inverse @ X[..., None])[..., 0], axes=(0, 1))
        return (Y.real if np.isrealobj(w) else Y).ravel()


class BlockFactors:
    """Factors of A = I - C (x) Z stored per block (see ``_decouple``).

    ``factor`` turns one eigenvalue lambda into an object with a ``solve``
    method for the block I - lambda Z (SuperLU's factor of ``_sparse_block``
    or a ``FourierFactor``); ``solve`` maps b through V^-1, solves each stored
    block and maps back with V into one real array.  For a plain matrix it
    is the one factor's own solve.
    """

    def __init__(self, A, factor):
        self.V, self.Vinv, blocks = _decouple(A)
        self.factors = [(k, factor(lam), paired) for k, lam, paired in blocks]
        V = self.V
        if V is not None:
            # Re(V Y) = T [y_k; Re y_k, Im y_k per pair], as a pair's partner is its conjugate
            pair = np.array([k for k, _, paired in self.factors if paired], dtype=int)
            self.T = V.real.copy()
            self.T[:, pair], self.T[:, pair + 1] = 2 * V[:, pair].real, -2 * V[:, pair].imag

    @property
    def nnz(self) -> int:
        """Nonzeros of L plus U, summed over the stored blocks (SuperLU factors only)."""
        return sum(f.L.nnz + f.U.nnz for _, f, _ in self.factors)

    def solve(self, b: np.ndarray) -> np.ndarray:
        V = self.V
        if V is None:
            return self.factors[0][1].solve(b)
        W = self.Vinv @ b.reshape(len(V), -1)
        R = np.empty(W.shape)
        for k, f, paired in self.factors:
            if paired:
                y = f.solve(W[k])
                R[k], R[k + 1] = y.real, y.imag
            else:
                R[k] = f.solve(W[k].real)
        return (self.T @ R).ravel()


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
    import scipy.sparse.linalg

    return IluFactors(
        A,
        lambda lam: scipy.sparse.linalg.spilu(
            _sparse_block(A, lam), drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR
        ),
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
    """Solver kind: restarted GMRES with an ILUTP preconditioner, or a direct solve.

    GMRES solves to ``GMRES_RTOL`` on the whole system, restarted every
    ``GMRES_RESTART`` iterations, right-preconditioned by ``ilu_factor``
    (SuperLU's ILUTP, one per block of a coupled system; the paper uses
    ILU(2) of the whole system), and hands a system it cannot precondition
    or solve within ``GMRES_MAXIT`` iterations to the complete factor (see
    PreparedSystem).  ``direct`` solves with the complete factor alone.
    Every ``MdrkWorkspace`` prepares its step system with the direct kind,
    so GMRES runs only on systems prepared outside a workspace.
    """

    kind: str = "gmres"

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}")

    def prepare(self, A) -> PreparedSystem:
        """Factorize ``A``: a ``CsrMatrix``, a ``StencilOperator`` or a ``KroneckerSystem`` of
        either (see PreparedSystem)."""
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
    GMRES; a direct-kind solver gets the complete factor and solves by it
    alone.  The complete factor is the Fourier-symbol one when Z (A itself
    or the Z of a ``KroneckerSystem``) is a ``StencilOperator``, and
    SuperLU's LU otherwise.  Each applies A itself for its residual.

    A GMRES-kind system falls back to the complete factor, for this and every
    later solve, when its ILUTP cannot be built or a GMRES solve does not
    converge: non-convergence is a property of the matrix, not of the
    right-hand side.  The fallback builds the same complete factor as the
    direct kind, at any size.  ``SolveStats.fallback_reason`` of a solve
    that fell back is ``"ilu_failed"`` (no preconditioner could be built),
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
        except RuntimeError:  # SuperLU signals a singular factor this way
            self._fall_back("ilu_failed")

    def _factorize_direct(self):
        try:
            Z = self.A.Z if isinstance(self.A, KroneckerSystem) else self.A
            if isinstance(Z, StencilOperator):
                S = Z.symbol()
                self._direct = BlockFactors(self.A, lambda lam: FourierFactor(S, lam))
                return
            import scipy.sparse.linalg

            self._direct = BlockFactors(
                self.A,
                lambda lam: scipy.sparse.linalg.splu(_sparse_block(self.A, lam), permc_spec="COLAMD"),
            )
        except (RuntimeError, np.linalg.LinAlgError) as exc:  # an exactly singular factor
            raise SolverFailure(f"direct LU failed: {exc}") from exc

    def _fall_back(self, reason):
        """Go direct for this and every later solve, which record ``reason``."""
        self._factorize_direct()
        self._direct_reason = reason

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

    def solve(self, b):
        """Solve A x = b; returns (x, SolveStats).

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
                self.A, b, precond=self.ilu, rtol=GMRES_RTOL, restart=GMRES_RESTART, maxit=GMRES_MAXIT
            )
            if stats.converged:
                self.history.append(stats)
                return x, stats
            self._fall_back("sticky")
            reason = "gmres_not_converged"
        x, stats = self._solve_direct(b, reason)
        self.history.append(stats)
        if not stats.converged:
            raise SolverFailure(f"direct solve did not converge: residual {stats.residual:.3e}", stats)
        return x, stats
