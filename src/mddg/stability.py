"""Stability functions and A-stability certificates.

Every scheme here has a rational stability function R(z), obtained from the
s-stage, M-derivative tableau by the determinant identity
R = det(M + 1 w^T) / det(M) with M = I - sum_m z^m a_m and w = sum_m z^m b_m,
in exact rational arithmetic when the tableau is rational.  For two-point
schemes R is also read off the coefficients directly, an independent check
of the tableau path.  A-stability is certified by dense sampling of |R|
on the imaginary axis and a left-half-plane lattice, a pole-location check,
and the z -> -infinity limit by degree comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from mddg.timeint import MdrkTableau, TwoPointScheme, as_tableau

A_STABILITY_TOL = 1e-12

# Fixed, documented sampling grids: imaginary axis |y| in [1e-3, 1e6]
# (both signs, log-spaced) and the lattice Re z in -[1e-3, 1e4] times
# Im z in {0} u +-[1e-3, 1e6].
IMAG_AXIS_POINTS = 250
LATTICE_RE_POINTS = 60
LATTICE_IM_POINTS = 60


@dataclass(frozen=True)
class RationalFunction:
    """Real-coefficient rational function, coefficients ascending in z.

    The denominator is normalized to constant term 1.  Coefficients are
    Fractions when constructed exactly, floats otherwise.
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        if self.den[0] != 1:
            raise ValueError("denominator must be normalized to constant term 1")

    @property
    def num_f(self) -> np.ndarray:
        return np.array([float(c) for c in self.num])

    @property
    def den_f(self) -> np.ndarray:
        return np.array([float(c) for c in self.den])

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.polyval(self.num_f[::-1], z) / np.polyval(self.den_f[::-1], z)

    def limit_at_minus_inf(self) -> float:
        """|R(-inf)| by degree comparison of numerator and denominator."""
        dn = len(self.num) - 1
        dd = len(self.den) - 1
        if dn < dd:
            return 0.0
        if dn > dd:
            return float("inf")
        return abs(float(self.num[-1]) / float(self.den[-1]))

    def poles(self) -> np.ndarray:
        return np.roots(self.den_f[::-1])

    def taylor(self, n: int) -> list:
        """First n+1 Taylor coefficients of R at z = 0 (exact when the
        stored coefficients are exact)."""
        out = []
        for k in range(n + 1):
            s = self.num[k] if k < len(self.num) else 0 * self.num[0]
            for j in range(1, min(k, len(self.den) - 1) + 1):
                s = s - self.den[j] * out[k - j]
            out.append(s)
        return out


def _trim(coeffs, tol=0.0):
    out = list(coeffs)
    while len(out) > 1 and abs(out[-1]) <= tol:
        out.pop()
    return tuple(out)


def stability_function_two_point(scheme: TwoPointScheme) -> RationalFunction:
    """R(z) = (1 + a1 z + a2 z^2 + a3 z^3) / (1 + b1 z + b2 z^2 + b3 z^3)."""
    num = _trim((Fraction(1),) + tuple(scheme.alpha))
    den = _trim((Fraction(1),) + tuple(scheme.beta))
    return RationalFunction(num=num, den=den)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q, sign=1):
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += sign * b
    return out


def _det(M):
    """Determinant of a square matrix of polynomials, by cofactor expansion."""
    if len(M) == 1:
        return M[0][0]
    out = [0]
    for j, entry in enumerate(M[0]):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        out = _poly_add(out, _poly_mul(entry, _det(minor)), sign=(-1) ** j)
    return out


def rational_function_mdrk(tableau: MdrkTableau) -> RationalFunction:
    """Rational stability function of an s-stage, M-derivative tableau.

    Uses R = det(M + 1 w^T) / det(M) with polynomial determinants.  Exact
    rational tableau entries (the collocation and two-point tableaux) give
    exact coefficients; otherwise the arithmetic is floating point and
    trailing near-zero coefficients are trimmed before degree comparison.
    """
    exact = tableau.a_exact is not None
    a, b = (tableau.a_exact, tableau.b_exact) if exact else (tableau.a, tableau.b)
    conv = Fraction if exact else float
    s = tableau.stages
    # entry (i, j) of M as coefficients ascending in z, and w_j likewise
    M = [
        [[conv(int(i == j))] + [-conv(a_m[i][j]) for a_m in a] for j in range(s)]
        for i in range(s)
    ]
    w = [[conv(0)] + [conv(b_m[j]) for b_m in b] for j in range(s)]
    den = _det(M)
    num = _det([[_poly_add(M[i][j], w[j]) for j in range(s)] for i in range(s)])
    if exact:
        num, den = _trim(num), _trim(den)
    else:
        scale = max(abs(float(c)) for c in list(num) + list(den))
        num = _trim([float(c) for c in num], tol=1e-9 * scale)
        den = _trim([float(c) for c in den], tol=1e-9 * scale)
    return RationalFunction(num=tuple(num), den=tuple(den))


@dataclass(frozen=True)
class StabilityReport:
    """Sampled A-stability certificate for one scheme."""

    method: str
    max_abs_imag_axis: float
    max_abs_left_half: float
    limit_at_minus_inf: float
    a_stable: bool
    min_pole_real_part: float

    CSV_HEADER = "method,max_abs_R_imag_axis,max_abs_R_left_half,limit_at_minus_inf,a_stable"

    def csv_row(self) -> str:
        return (
            f"{self.method},{self.max_abs_imag_axis:.17g},{self.max_abs_left_half:.17g},"
            f"{self.limit_at_minus_inf:.17g},{'true' if self.a_stable else 'false'}"
        )


def _scan_grids():
    ys = np.logspace(-3, 6, IMAG_AXIS_POINTS)
    imag_axis = np.concatenate([1j * ys, -1j * ys])
    res = -np.logspace(-3, 4, LATTICE_RE_POINTS)
    ims = np.logspace(-3, 6, LATTICE_IM_POINTS)
    ims = np.concatenate([[0.0], ims, -ims])
    lattice = (res[:, None] + 1j * ims[None, :]).ravel()
    return imag_axis, lattice


def a_stability_scan(method) -> StabilityReport:
    """Sample |R| on the imaginary axis and a left-half-plane lattice.

    The a_stable flag holds exactly when both sampled maxima stay within
    1 + 1e-12.  The z -> -infinity limit comes from degree comparison of
    the rational form; poles are located from the denominator roots.
    """
    tableau = as_tableau(method)
    rat = rational_function_mdrk(tableau)
    imag_axis, lattice = _scan_grids()
    vals_imag = np.abs(rat(imag_axis))
    vals_lhp = np.abs(rat(lattice))
    max_imag = float(np.nanmax(vals_imag))
    max_lhp = float(np.nanmax(vals_lhp))
    poles = rat.poles()
    return StabilityReport(
        method=tableau.label or "mdrk",
        max_abs_imag_axis=max_imag,
        max_abs_left_half=max_lhp,
        limit_at_minus_inf=rat.limit_at_minus_inf(),
        a_stable=bool(max_imag <= 1.0 + A_STABILITY_TOL and max_lhp <= 1.0 + A_STABILITY_TOL),
        min_pole_real_part=float(np.min(poles.real)) if len(poles) else float("inf"),
    )
