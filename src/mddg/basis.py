"""Orthonormal modal basis on the reference triangle and quadrature rules.

The basis is the Dubiner family on the reference triangle with vertices
(0,0), (1,0), (0,1): collapsed-coordinate products of Legendre and Jacobi
polynomials, normalized so the mass matrix under exact integration is the
identity.  Triangle quadrature is a collapsed (Duffy) Gauss product rule
symmetrized over the six vertex permutations; edge quadrature is
Gauss-Legendre on [0,1].  Rules and bases are built once and shared, read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_DEGREE = 5  # highest supported polynomial order

# Collapsed coordinates are singular at the vertex (0,1); points closer to
# it than this in 1-y are evaluated at the limit a = -1.
_COLLAPSE_TOL = 1e-13


def jacobi(n: int, alpha: int, beta: int, x: np.ndarray) -> np.ndarray:
    """Jacobi polynomial P_n^(alpha, beta)(x) by the standard three-term recurrence in n."""
    prev, cur = np.ones_like(x), 0.5 * (alpha - beta + (alpha + beta + 2) * x)
    if n == 0:
        return prev
    for k in range(2, n + 1):
        s = 2 * k + alpha + beta
        a0 = 2 * k * (k + alpha + beta) * (s - 2)
        a1 = (s - 1) * (alpha**2 - beta**2)
        a2 = (s - 2) * (s - 1) * s
        a3 = 2 * (k + alpha - 1) * (k + beta - 1) * s
        prev, cur = cur, ((a1 + a2 * x) * cur - a3 * prev) / a0
    return cur


@dataclass(frozen=True)
class QuadratureRule:
    """Points and positive weights, exact for polynomials up to exactness_degree."""

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        for array in (self.points, self.weights):
            array.setflags(write=False)


class BasisSet:
    """Orthonormal modal basis of total degree p on the reference triangle.

    Modes are ordered by total degree, mode 0 being the constant sqrt(2).
    ``eval`` returns values of shape (npts, n_modes); ``grad`` returns
    reference-coordinate gradients of shape (npts, n_modes, 2).
    """

    def __init__(self, p: int):
        if not 0 <= p <= MAX_DEGREE:
            raise ValueError(f"polynomial degree {p} outside supported range [0, {MAX_DEGREE}]")
        self.p = p
        self.n_modes = (p + 1) * (p + 2) // 2
        self._mn = [(m, d - m) for d in range(p + 1) for m in range(d + 1)]
        self._norms = [math.sqrt(2 * (2 * m + 1) * (m + n + 1)) for m, n in self._mn]

    @staticmethod
    def _collapsed(pts):
        x = pts[:, 0]
        y = pts[:, 1]
        omy = 1.0 - y
        safe = np.where(omy > _COLLAPSE_TOL, omy, 1.0)
        a = np.where(omy > _COLLAPSE_TOL, 2.0 * x / safe - 1.0, -1.0)
        return a, 2.0 * y - 1.0, omy

    def eval(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a, b, omy = self._collapsed(pts)
        out = np.empty((len(pts), self.n_modes))
        for i, ((m, n), norm) in enumerate(zip(self._mn, self._norms)):
            out[:, i] = norm * jacobi(m, 0, 0, a) * omy**m * jacobi(n, 2 * m + 1, 0, b)
        return out

    def grad(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a, b, omy = self._collapsed(pts)
        out = np.empty((len(pts), self.n_modes, 2))
        for i, ((m, n), norm) in enumerate(zip(self._mn, self._norms)):
            f = jacobi(m, 0, 0, a)
            g = jacobi(n, 2 * m + 1, 0, b)
            gp = 0.0 if n == 0 else (n + 2 * m + 2) / 2.0 * jacobi(n - 1, 2 * m + 2, 1, b)
            if m == 0:
                out[:, i, 0] = 0.0
                out[:, i, 1] = norm * 2.0 * gp
            else:
                fp = (m + 1) / 2.0 * jacobi(m - 1, 1, 1, a)
                omy_m1 = omy ** (m - 1)
                out[:, i, 0] = norm * 2.0 * fp * omy_m1 * g
                out[:, i, 1] = norm * (
                    fp * (a + 1.0) * omy_m1 * g - m * omy_m1 * f * g + 2.0 * f * omy**m * gp
                )
        return out


@functools.cache
def make_basis(p: int) -> BasisSet:
    """Orthonormal modal basis of total degree p on the reference triangle, one instance per p."""
    return BasisSet(p)


def _duffy_rule(n: int):
    x, w = leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    pts = np.column_stack([(U * (1.0 - V)).ravel(), V.ravel()])
    return pts, (WU * WV * (1.0 - V)).ravel()


@functools.cache
def triangle_rule(min_degree: int) -> QuadratureRule:
    """Symmetric triangle rule exact for total degree >= min_degree.

    A Gauss product rule on the collapsed square (the Jacobian costs one
    degree in the collapsed direction, hence n = ceil((d+2)/2) points per
    direction) averaged over the six affine symmetries of the triangle.
    """
    if min_degree < 0:
        raise ValueError("quadrature degree must be non-negative")
    n = max(1, math.ceil((min_degree + 2) / 2))
    pts, w = _duffy_rule(n)
    lam = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    all_pts = []
    for perm in itertools.permutations(range(3)):
        lp = lam[:, perm]
        all_pts.append(np.column_stack([lp[:, 1], lp[:, 2]]))
    return QuadratureRule(
        points=np.vstack(all_pts),
        weights=np.tile(w / 6.0, 6),
        exactness_degree=2 * n - 2,
    )


@functools.cache
def edge_rule(min_degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0,1] exact for degree >= min_degree."""
    if min_degree < 0:
        raise ValueError("quadrature degree must be non-negative")
    n = max(1, math.ceil((min_degree + 1) / 2))
    x, w = leggauss(n)
    return QuadratureRule(
        points=0.5 * (x + 1.0),
        weights=0.5 * w,
        exactness_degree=2 * n - 1,
    )
