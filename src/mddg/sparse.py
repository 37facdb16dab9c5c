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

A ``PreparedSystem`` builds the complete factor of a system once and
solves with it, refined once when the residual is above ``REFINE_ABOVE``:
the inverse symbol when Z is a stencil, and otherwise SuperLU's complete
LU, its columns ordered by COLAMD (p = 0 convection, whose upwind LU stays
near the block's own fill, an operator without a mesh, a plain matrix).
``scipy.sparse.linalg`` (which loads ``scipy.linalg``) is imported by the
first SuperLU factor.  Every solve is held to ``RESIDUAL_RTOL`` against A
itself.  The paper's GMRES with an ILU(2) preconditioner has no
counterpart here: every system is solved by its complete factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

RESIDUAL_RTOL = 1e-10  # relative residual every solve must reach
REFINE_ABOVE = 1e-12  # a solve refines once when its relative residual exceeds this
COUPLING_COND_MAX = 1e4  # largest cond(V) of C = V diag(lambda) V^-1 that I - C (x) Z accepts


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
        ZX = np.empty(X.shape)
        for k, row in enumerate(X):
            ZX[k] = self.Z.matvec(row)
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
    or a ``FourierFactor``); ``solve`` maps b through the V^-1 rows of the
    stored blocks, solves each and maps back with V into one real array.
    For a plain matrix it is the one factor's own solve.
    """

    def __init__(self, A, factor):
        self.V, Vinv, blocks = _decouple(A)
        self.factors = [(k, factor(lam), paired) for k, lam, paired in blocks]
        V = self.V
        if V is not None:
            pair = np.array([k for k, _, paired in self.factors if paired], dtype=int)
            # Q b = [w_k; Re w_k, Im w_k per pair] for w = V^-1 b; a real eigenvalue's row is real
            self.Q = Vinv.real.copy()
            self.Q[pair + 1] = Vinv[pair].imag
            # Re(V Y) = T [y_k; Re y_k, Im y_k per pair], as a pair's partner is its conjugate
            self.T = V.real.copy()
            self.T[:, pair], self.T[:, pair + 1] = 2 * V[:, pair].real, -2 * V[:, pair].imag

    def solve(self, b: np.ndarray) -> np.ndarray:
        V = self.V
        if V is None:
            return self.factors[0][1].solve(b)
        W = self.Q @ b.reshape(len(V), -1)
        R = np.empty(W.shape)
        for k, f, paired in self.factors:
            if paired:
                y = f.solve(W[k] + 1j * W[k + 1])
                R[k], R[k + 1] = y.real, y.imag
            else:
                R[k] = f.solve(W[k])
        return (self.T @ R).ravel()


@dataclass
class SolveStats:
    """Outcome of one linear solve."""

    residual: float
    converged: bool
    fallback_used = False  # read by the bench's gate; no solve falls back


class PreparedSystem:
    """A linear system factored completely, ready for repeated right-hand sides.

    The factor is the Fourier-symbol one when Z (A itself or the Z of a
    ``KroneckerSystem``) is a ``StencilOperator``, and SuperLU's COLAMD-ordered LU
    otherwise; an exactly singular factor raises SolverFailure.  A solve takes its
    residual against A itself, refines once when that is above ``REFINE_ABOVE``, and
    raises SolverFailure when it misses ``RESIDUAL_RTOL``.
    """

    def __init__(self, A):
        self.A = A
        self.history = []
        Z = A.Z if isinstance(A, KroneckerSystem) else A
        try:
            if isinstance(Z, StencilOperator):
                S = Z.symbol()
                self.factor = BlockFactors(A, lambda lam: FourierFactor(S, lam))
            else:
                import scipy.sparse.linalg

                self.factor = BlockFactors(
                    A, lambda lam: scipy.sparse.linalg.splu(_sparse_block(A, lam), permc_spec="COLAMD")
                )
        except (RuntimeError, np.linalg.LinAlgError) as exc:  # an exactly singular factor
            raise SolverFailure(f"direct LU failed: {exc}") from exc

    def solve(self, b):
        """Solve A x = b; returns (x, SolveStats).

        A ``b`` of the wrong shape or with a non-finite entry raises ValueError before
        any solve.
        """
        b = np.asarray(b, dtype=float)
        n = self.A.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have length {n}, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        x = self.factor.solve(b)
        r = b - self.A.matvec(x)
        bnorm = np.linalg.norm(b)
        if np.linalg.norm(r) > REFINE_ABOVE * bnorm:  # one refinement pass
            x = x + self.factor.solve(r)
            r = b - self.A.matvec(x)
        rel = np.linalg.norm(r) / bnorm if bnorm > 0 else 0.0
        converged = bool(np.all(np.isfinite(x)) and rel <= RESIDUAL_RTOL)
        stats = SolveStats(residual=float(rel), converged=converged)
        self.history.append(stats)
        if not stats.converged:
            raise SolverFailure(f"direct solve did not converge: residual {stats.residual:.3e}", stats)
        return x, stats


# Names the bench's tracer (bench/spans.py) wraps in place, kept until it stops wrapping
# them: ``LinearSolver().prepare(A)`` is ``PreparedSystem(A)``, and ``gmres_solve``,
# ``ilu_factor`` and ``IluFactors.apply`` only raise, as no solve iterates.
class LinearSolver:
    def prepare(self, A) -> PreparedSystem:
        return PreparedSystem(A)


def gmres_solve(*args, **kwargs):
    raise NotImplementedError("no Krylov solver: PreparedSystem solves by the complete factor")


class IluFactors:
    apply = gmres_solve


ilu_factor = gmres_solve
