"""Sparse kernels and linear solvers.

Storage is compressed-row with rows sorted by column; matrices assembled
from DG operators carry a block size (the per-element mode count) and the
ILU factorization exploits it: fill levels are computed on the graph of the
stored (structural) blocks and the numeric phase works on dense blocks.
With block size 1 this is the ordinary scalar ILU(k).  The factors are
applied by two compiled SuperLU triangular solves; there is no level
schedule.  GMRES is restarted and right-preconditioned, so reported
residuals are true residuals of the original system.  A sparse direct LU
(SuperLU) serves as the fallback when GMRES fails to converge.
"""

from __future__ import annotations

import mmap
import time
from bisect import insort
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

FALLBACK_MAX_N = 50000  # largest system the automatic direct fallback accepts
PIVOT_COND_MAX = 1e14  # largest 1-norm condition number of an accepted ILU pivot block


class SolverFailure(RuntimeError):
    """Linear solve did not produce a solution within the requested tolerance."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class IluZeroPivot(RuntimeError):
    """A (near-)zero pivot block was encountered during ILU factorization."""


class CsrMatrix:
    """Square or rectangular CSR matrix with deterministic construction.

    ``block_size`` is structural metadata: rows and columns are grouped in
    aligned dense blocks of that size (1 for plain scalar matrices).  Index
    arrays are int32 whenever nnz and the column count allow it, so the
    scipy view of ``to_scipy`` shares them.
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data, block_size=1):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.data = np.asarray(data, dtype=float)
        index_dtype = np.int32 if max(len(self.data), self.n_cols) < 2**31 else np.int64
        self.indptr = np.asarray(indptr, dtype=index_dtype)
        self.indices = np.asarray(indices, dtype=index_dtype)
        if block_size < 1 or self.n_rows % block_size or self.n_cols % block_size:
            raise ValueError("block_size must divide the matrix dimensions")
        self.block_size = int(block_size)
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column index out of bounds")
        self._scipy = None

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return len(self.data)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape, block_size=1):
        """Build from coordinate triplets; duplicates are summed in a fixed order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        order = np.lexsort((cols, rows))  # stable: insertion order breaks ties
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            new = np.empty(len(rows), dtype=bool)
            new[0] = True
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(shape[0], shape[1], indptr, cols, vals, block_size=block_size)

    @classmethod
    def from_scipy(cls, mat, block_size=1):
        mat = scipy.sparse.csr_matrix(mat)
        mat.sort_indices()
        mat.sum_duplicates()
        return cls(mat.shape[0], mat.shape[1], mat.indptr, mat.indices, mat.data, block_size)

    @classmethod
    def identity(cls, n, block_size=1):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n), block_size)

    def to_scipy(self):
        if self._scipy is None:
            self._scipy = scipy.sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape
            )
        return self._scipy

    def matvec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_cols,):
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        return self.to_scipy() @ x

    def toarray(self):
        return self.to_scipy().toarray()


def _block_structure(A: CsrMatrix):
    """Block-CSR view (indptr, indices, dense blocks) at A.block_size."""
    b = A.block_size
    bsr = scipy.sparse.bsr_matrix(A.to_scipy(), blocksize=(b, b))
    bsr.sort_indices()
    return bsr.indptr, bsr.indices, np.asarray(bsr.data, dtype=float)


def _symbolic_ilu(indptr, indices, nb, level):
    """Level-of-fill pattern on the block graph.

    Returns per-row sorted column lists of the kept (level <= k) pattern.
    """
    kept_cols = []
    kept_levels = []
    for i in range(nb):
        levels = {int(j): 0 for j in indices[indptr[i] : indptr[i + 1]]}
        levels.setdefault(i, 0)  # structural diagonal, required for the pivot
        cols = sorted(levels)
        pos = 0
        while pos < len(cols) and cols[pos] < i:
            k = cols[pos]
            pos += 1
            lev_ik = levels[k]
            if lev_ik > level:
                continue
            kcols = kept_cols[k]
            klevs = kept_levels[k]
            for j, lev_kj in zip(kcols, klevs):
                if j <= k:
                    continue
                cand = lev_ik + lev_kj + 1
                if j in levels:
                    if cand < levels[j]:
                        levels[j] = cand
                elif cand <= level:
                    levels[j] = cand
                    if j < i:
                        insort(cols, j, lo=pos)
                    else:
                        insort(cols, j)
        kept = [c for c in cols if levels[c] <= level]
        kept_cols.append(kept)
        kept_levels.append([levels[c] for c in kept])
    return kept_cols


def _mapped_zeros(size, dtype):
    """Zeroed array in its own anonymous mapping, whose pages return to the OS when it is
    dropped (a large freed malloc array can stay in the heap, where the SuperLU factors
    built next cannot reuse it, raising peak memory)."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * dtype.itemsize), dtype=dtype, count=size)


def _block_rows(cols_per_row, b):
    """Zeroed storage for block rows, already in scalar CSR order: block row i with m_i
    blocks is a (b, m_i, b) array ``rows[i]`` (block t is ``rows[i][:, t]``), so the flat
    ``data`` is the value array of the scalar CSR matrix.  Returns (data, rows)."""
    sizes = [len(cols) * b * b for cols in cols_per_row]
    ends = np.cumsum(sizes)
    data = _mapped_zeros(int(ends[-1]), float)
    return data, [data[e - size : e].reshape(b, -1, b) for size, e in zip(sizes, ends)]


def _unit_triangular_solver(data, cols_per_row, b):
    """SuperLU object whose ``solve(v, trans="T")`` applies T^{-1}, T unit triangular.

    T is stored by ``_block_rows`` with dense blocks, so SuperLU finds one-block-wide
    supernodes.  T's scalar CSR arrays serve as the CSC arrays of T^T, so the values
    are not copied.  With natural ordering and a zero pivot threshold every pivot is
    T's unit diagonal: SuperLU factors T^T as itself, without fill, and solves by
    compiled triangular sweeps.
    """
    n = len(cols_per_row) * b
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.repeat([len(cols) * b for cols in cols_per_row], b), out=indptr[1:])
    indices = _mapped_zeros(int(indptr[-1]), np.int32)
    offsets = np.arange(b)
    for cols, s, e in zip(cols_per_row, indptr[:-1:b], indptr[b::b]):
        indices[s:e].reshape(b, -1)[:] = np.add.outer(np.asarray(cols) * b, offsets).ravel()
    t_transposed = scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))
    return scipy.sparse.linalg.splu(t_transposed, permc_spec="NATURAL", diag_pivot_thresh=0.0)


def _triangle(lu) -> scipy.sparse.csr_matrix:
    """The unit triangular T of ``_unit_triangular_solver``, rebuilt from its factors."""
    n = lu.shape[0]
    pr = scipy.sparse.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))), shape=(n, n))
    pc = scipy.sparse.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)), shape=(n, n))
    return (pr.T @ (lu.L @ lu.U) @ pc.T).T.tocsr()


class IluFactors:
    """Incomplete block LU factors L D Ũ on the level-k fill pattern.

    L is unit block-lower, D holds the pivot blocks and Ũ = D^{-1} U is
    unit block-upper.  Each triangle is kept as a SuperLU object of its
    scalar transpose, so M^{-1} v = Ũ^{-1} (D^{-1} (L^{-1} v)) is two
    compiled triangular solves around one batched block product; there is
    no level schedule.
    """

    def __init__(self, block_size, level, lower, upper, d, d_inv):
        self.n = lower.shape[0]
        self.block_size = block_size
        self.level = level
        self._lower = lower
        self._upper = upper
        self._d = d
        self._d_inv = d_inv

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Solve L U x = v."""
        y = self._lower.solve(np.asarray(v, dtype=float), trans="T")
        z = np.matmul(self._d_inv, y.reshape(-1, self.block_size, 1))
        return self._upper.solve(z.ravel(), trans="T")

    @property
    def lower(self) -> CsrMatrix:
        """Unit lower-triangular factor as a scalar CSR matrix."""
        return CsrMatrix.from_scipy(_triangle(self._lower))

    @property
    def upper(self) -> CsrMatrix:
        """Upper-triangular factor U = D Ũ as a scalar CSR matrix."""
        return CsrMatrix.from_scipy(scipy.sparse.block_diag(self._d) @ _triangle(self._upper))


def _numeric_ilu(A: CsrMatrix, level: int):
    """Block ILU(level) of A: (data, block columns per row) of L and of Ũ = D^{-1} U
    in ``_block_rows`` storage with identity diagonal blocks, then D and D^{-1}."""
    b = A.block_size
    nb = A.n_rows // b
    indptr, indices, data = _block_structure(A)
    pattern = _symbolic_ilu(indptr, indices, nb, level)

    # block row i of L holds the pattern up to and including i, row i of U from i on
    diag = [cols.index(i) for i, cols in enumerate(pattern)]
    l_cols = [cols[: d + 1] for cols, d in zip(pattern, diag)]
    u_cols = [cols[d:] for cols, d in zip(pattern, diag)]
    l_data, l_rows = _block_rows(l_cols, b)
    u_data, u_rows = _block_rows(u_cols, b)
    d_inv = np.empty((nb, b, b))
    position = np.full(nb, -1)  # block column -> index in the current row, -1 outside
    u_strict = [np.array(cols[1:], dtype=np.intp) for cols in u_cols]
    for i in range(nb):
        cols, d = pattern[i], diag[i]
        position[cols] = np.arange(len(cols))
        work = np.zeros((len(cols), b, b))
        work[position[indices[indptr[i] : indptr[i + 1]]]] = data[indptr[i] : indptr[i + 1]]
        for t in range(d):
            k = cols[t]
            lik = work[t] = work[t] @ d_inv[k]
            # one batched update per pivot row; updates outside the kept pattern are dropped
            dst = position[u_strict[k]]
            src = np.flatnonzero(dst >= 0)
            if len(src):
                work[dst[src]] -= lik @ u_rows[k][:, src + 1].transpose(1, 0, 2)
        position[cols] = -1
        piv = work[d]
        try:
            inv = np.linalg.inv(piv)
        except np.linalg.LinAlgError as exc:
            raise IluZeroPivot(f"singular pivot block in row {i}") from exc
        cond = np.abs(piv).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
        if not cond <= PIVOT_COND_MAX:  # also catches inf and nan
            raise IluZeroPivot(f"near-singular pivot block in row {i} (condition {cond:.3e})")
        d_inv[i] = inv
        l_rows[i][:, :d] = work[:d].transpose(1, 0, 2)
        u_rows[i][:] = work[d:].transpose(1, 0, 2)

    d_blocks = np.array([row[:, 0] for row in u_rows])
    eye = np.eye(b)
    for i in range(nb):
        u_row = u_rows[i].reshape(b, -1)
        u_row[:, b:] = d_inv[i] @ u_row[:, b:]  # U -> D^{-1} U
        u_row[:, :b] = eye
        l_rows[i][:, -1] = eye
    return (l_data, l_cols), (u_data, u_cols), d_blocks, d_inv


def ilu_factor(A: CsrMatrix, level: int) -> IluFactors:
    """Incomplete LU of a square matrix on the level-``level`` fill pattern."""
    if A.n_rows != A.n_cols:
        raise ValueError("ILU requires a square matrix")
    if level < 0:
        raise ValueError("fill level must be non-negative")
    b = A.block_size
    (l_data, l_cols), (u_data, u_cols), d_blocks, d_inv = _numeric_ilu(A, level)
    # Ũ's values are freed before L's SuperLU factors are built, which bounds peak memory
    upper = _unit_triangular_solver(u_data, u_cols, b)
    del u_data
    lower = _unit_triangular_solver(l_data, l_cols, b)
    return IluFactors(b, level, lower, upper, d_blocks, d_inv)


@dataclass
class SolveStats:
    """Outcome of one linear solve."""

    iterations: int
    residual: float
    converged: bool
    wall_time: float
    fallback_used: bool = False
    residual_history: tuple = ()


def gmres_solve(A, b, precond=None, rtol=1e-10, restart=60, maxit=5000, x0=None):
    """Right-preconditioned restarted GMRES.

    Returns (x, SolveStats).  The reported residual is the true relative
    residual ||b - Ax|| / ||b||; within each restart cycle the Arnoldi
    least-squares residual is non-increasing by construction.
    """
    if rtol <= 0:
        raise ValueError("rtol must be positive")
    t0 = time.perf_counter()
    n = A.n_rows
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, True, time.perf_counter() - t0)
    apply_m = precond.apply if precond is not None else (lambda v: v)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
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
        V = np.zeros((restart + 1, n))
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        V[0] = r / beta
        g[0] = beta
        j_used = 0
        breakdown = False
        for j in range(restart):
            if total >= maxit:
                break
            w = A.matvec(apply_m(V[j]))
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
            x = x + apply_m(V[:j_used].T @ y)
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

    Once a GMRES solve on this system has fallen back to the direct
    factorization, later solves go direct immediately: non-convergence is a
    property of the matrix, not of the right-hand side.
    """

    def __init__(self, A, solver):
        self.A = A
        self.solver = solver
        self.ilu = None
        self._splu = None
        self._prefer_direct = False
        self.history = []
        if solver.kind == "gmres":
            try:
                self.ilu = ilu_factor(A, solver.ilu_level)
            except IluZeroPivot:
                if not solver.fallback:
                    raise
                self._prefer_direct = True
                self._factorize_direct()
        else:
            self._factorize_direct()

    def _factorize_direct(self):
        if self._splu is None:
            try:
                self._splu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(self.A.to_scipy()))
            except RuntimeError as exc:  # SuperLU signals an exactly singular matrix this way
                raise SolverFailure(f"direct LU failed: {exc}") from exc

    def _solve_direct(self, b, fallback=False):
        t0 = time.perf_counter()
        self._factorize_direct()
        x = self._splu.solve(b)
        x = x + self._splu.solve(b - self.A.matvec(x))  # one refinement pass
        res = np.linalg.norm(b - self.A.matvec(x))
        bnorm = np.linalg.norm(b)
        rel = res / bnorm if bnorm > 0 else 0.0
        stats = SolveStats(
            iterations=1,
            residual=float(rel),
            converged=bool(np.all(np.isfinite(x)) and rel <= max(self.solver.rtol, 1e-10)),
            wall_time=time.perf_counter() - t0,
            fallback_used=fallback,
        )
        return x, stats

    def solve(self, b, x0=None):
        s = self.solver
        if s.kind == "gmres" and self.ilu is not None and not self._prefer_direct:
            x, stats = gmres_solve(
                self.A, b, precond=self.ilu, rtol=s.rtol, restart=s.restart, maxit=s.maxit, x0=x0
            )
            if not stats.converged:
                if s.fallback and self.A.n_rows <= FALLBACK_MAX_N:
                    self._prefer_direct = True
                    x, stats = self._solve_direct(b, fallback=True)
                else:
                    self.history.append(stats)
                    raise SolverFailure(
                        f"GMRES did not converge: residual {stats.residual:.3e} "
                        f"after {stats.iterations} iterations",
                        stats=stats,
                    )
        else:
            x, stats = self._solve_direct(b, fallback=self._prefer_direct and s.kind == "gmres")
            if not stats.converged:
                self.history.append(stats)
                raise SolverFailure("direct solve produced non-finite solution", stats=stats)
        self.history.append(stats)
        return x, stats


@dataclass
class LinearSolver:
    """Solver configuration: restarted GMRES with block ILU(k), or direct LU.

    GMRES defaults follow the solver settings used throughout the
    experiments: relative tolerance 1e-10 with an ILU(2) preconditioner.
    On non-convergence the solve falls back to the direct factorization
    for systems up to FALLBACK_MAX_N unknowns.
    """

    kind: str = "gmres"
    rtol: float = 1e-10
    restart: int = 60
    maxit: int = 5000
    ilu_level: int = 2
    fallback: bool = True

    def __post_init__(self):
        if self.kind not in ("gmres", "direct"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if not (np.isfinite(self.rtol) and self.rtol > 0):
            raise ValueError(f"rtol must be positive and finite, got {self.rtol!r}")
        for name in ("restart", "maxit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.ilu_level < 0:
            raise ValueError(f"ilu_level must be non-negative, got {self.ilu_level!r}")

    def prepare(self, A: CsrMatrix) -> PreparedSystem:
        return PreparedSystem(A, self)
