"""Implicit multiderivative time integrators.

Every method is an s-stage, M-derivative collocation tableau: a^(m) is the
s x s tableau of the m-th time derivative and b^(m) its update weights.
The two-point schemes prescribe k derivatives at t^n and l at t^{n+1};
their coefficients come from exact rational differentiation of the
Hermite-Birkhoff kernel t^k (t-1)^l / (k+l)!, reach order k + l, and form
the two-stage tableau c = (0, 1) with an explicit first stage and m-th
derivative row (alpha_m, -beta_m).  The other tableaux are the sixth-order
two-derivative collocation method on abscissae (0, 1/2, 1) and the
classical three-stage Gauss-Legendre method.

For the linear method-of-lines system  dw/dt = A w + b(t)  each implicit
step solves one sparse block system whose unknowns are, per implicit stage
i, the stage value y_i and its derivative-scaled auxiliaries
dt y_i', ..., dt^(M-1) y_i^(M-1), linked by  y^(m) = A y^(m-1) + b^(m-1).
Eliminating the auxiliaries would reproduce powers of A and enlarge the
stencil; the block form keeps every block as sparse as A itself.  The
system is I - C (x) dt A with the tableau's dt-independent coupling matrix
C.  It is never assembled: the solvers apply it one block row at a time
from C and A (``KroneckerSystem``) and factor it one n x n block per
eigenvalue of C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from mddg.sparse import KroneckerSystem, LinearSolver

_STEP_TOL = 1e-12  # relative tolerance for "lands exactly on t_end"


class BlowUpError(RuntimeError):
    """The time integration produced a non-finite state."""


def _to_float(rows) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in rows])


@dataclass(frozen=True)
class MdrkTableau:
    """Multiderivative Runge-Kutta tableaux a^(m), update weights b^(m).

    ``a[m-1]`` is the s x s tableau of the m-th derivative; exact rational
    copies are kept when the coefficients are rational.
    """

    stages: int
    n_derivatives: int
    c: np.ndarray
    a: tuple
    b: tuple
    label: str = ""
    a_exact: Optional[tuple] = None
    b_exact: Optional[tuple] = None

    @cached_property
    def coupling(self) -> np.ndarray:
        """The sM x sM matrix C of the implicit block system I - C (x) dt A.

        Over the s implicit stages, unknown (i, m) is dt^m y_i^(m), stage-major:
        row (i, 0) holds a^(m+1)_ij in column (j, m), and row (i, m) for m >= 1
        holds a one in column (i, m - 1).  C does not depend on dt.
        """
        S = self.implicit_stages()
        M = self.n_derivatives
        C = np.zeros((len(S) * M, len(S) * M))
        for bi, i in enumerate(S):
            for bj, j in enumerate(S):
                for m, a_m in enumerate(self.a):
                    C[bi * M, bj * M + m] = a_m[i, j]
            for m in range(1, M):
                C[bi * M + m, bi * M + m - 1] = 1.0
        return C

    def implicit_stages(self):
        """Stage indices with a nonzero tableau row (solved implicitly)."""
        out = []
        for i in range(self.stages):
            if any(np.any(a_m[i] != 0.0) for a_m in self.a):
                out.append(i)
        return out

    @property
    def stiffly_accurate(self) -> bool:
        """The update weights are the last tableau rows and the last stage is
        implicit, so y^{n+1} equals the last stage."""
        last = self.stages - 1
        return last in self.implicit_stages() and all(
            np.array_equal(b_m, a_m[last]) for a_m, b_m in zip(self.a, self.b)
        )


@dataclass(frozen=True)
class TwoPointScheme:
    """Two-point multiderivative scheme of order k + l.

    alpha weights the derivatives at t^n, beta those at t^{n+1} (entering
    with a minus sign); both are exact rationals, padded to length 3.
    """

    order: int
    k: int
    l: int
    alpha: tuple
    beta: tuple
    label: str = ""

    @property
    def n_derivatives(self) -> int:
        return max(self.k, self.l)

    @property
    def tableau(self) -> MdrkTableau:
        """The scheme as a two-stage tableau: c = (0, 1), an explicit first
        stage and m-th derivative row (alpha_m, -beta_m), stiffly accurate."""
        zero = Fraction(0)
        a = tuple(
            ((zero, zero), (al, -be))
            for al, be in zip(self.alpha[: self.n_derivatives], self.beta)
        )
        b = tuple(rows[1] for rows in a)
        return MdrkTableau(
            stages=2,
            n_derivatives=self.n_derivatives,
            c=np.array([0.0, 1.0]),
            a=tuple(_to_float(rows) for rows in a),
            b=tuple(_to_float([row])[0] for row in b),
            label=self.label or f"tp{self.order}",
            a_exact=a,
            b_exact=b,
        )


def as_tableau(method) -> MdrkTableau:
    """The tableau that builds, steps and certifies ``method``."""
    if isinstance(method, TwoPointScheme):
        return method.tableau
    if isinstance(method, MdrkTableau):
        return method
    raise TypeError(f"unknown method type {type(method)!r}")


def _poly_derivative(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:]


def _poly_eval(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def derive_two_point_coefficients(k: int, l: int) -> TwoPointScheme:
    """Coefficients of the (k, l) two-point scheme by exact differentiation
    of P(t) = t^k (t-1)^l / (k+l)!; alpha_j = P^(k+l-j)(1), beta_j = P^(k+l-j)(0).
    """
    if not (1 <= k <= 3 and 1 <= l <= 3):
        raise ValueError("derivative counts k, l must lie in 1..3")
    m = k + l
    # t^k (t-1)^l expanded: coefficient of t^(k+i) is C(l,i) (-1)^(l-i)
    coeffs = [Fraction(0)] * (m + 1)
    for i in range(l + 1):
        coeffs[k + i] = Fraction(math.comb(l, i) * (-1) ** (l - i), math.factorial(m))
    alpha = []
    beta = []
    d = coeffs
    derivs = [d]
    for _ in range(m):
        d = _poly_derivative(d)
        derivs.append(d)
    for j in range(1, 4):
        if j <= max(k, l):
            pj = derivs[m - j]
            alpha.append(_poly_eval(pj, Fraction(1)))
            beta.append(_poly_eval(pj, Fraction(0)))
        else:
            alpha.append(Fraction(0))
            beta.append(Fraction(0))
    return TwoPointScheme(
        order=m, k=k, l=l, alpha=tuple(alpha), beta=tuple(beta), label=f"tp{m}"
    )


def builtin_two_point_schemes() -> list[TwoPointScheme]:
    """The four two-point schemes of orders 3..6: (k,l) = (1,2), (2,2), (2,3), (3,3)."""
    return [derive_two_point_coefficients(k, l) for k, l in ((1, 2), (2, 2), (2, 3), (3, 3))]


def builtin_mdrk6() -> MdrkTableau:
    """Sixth-order two-derivative collocation tableau on abscissae (0, 1/2, 1).

    The update weights are the last tableau rows: the final abscissa is 1,
    so the method is stiffly accurate and y^{n+1} equals the last stage.
    """
    F = Fraction
    a1 = (
        (F(0), F(0), F(0)),
        (F(101, 480), F(8, 30), F(55, 2400)),
        (F(7, 30), F(16, 30), F(7, 30)),
    )
    a2 = (
        (F(0), F(0), F(0)),
        (F(65, 4800), F(-25, 600), F(-25, 8000)),
        (F(5, 300), F(0), F(-5, 300)),
    )
    return MdrkTableau(
        stages=3,
        n_derivatives=2,
        c=np.array([0.0, 0.5, 1.0]),
        a=(_to_float(a1), _to_float(a2)),
        b=(_to_float([a1[2]])[0], _to_float([a2[2]])[0]),
        label="mdrk6",
        a_exact=(a1, a2),
        b_exact=(a1[2], a2[2]),
    )


def builtin_gauss_legendre6() -> MdrkTableau:
    """Classical three-stage Gauss-Legendre tableau (order 6, one derivative).

    Abscissae are the Gauss nodes on [0,1]; the tableau solves the
    collocation conditions sum_j a_ij c_j^(q-1) = c_i^q / q for q = 1..3.
    """
    x, w = leggauss(3)
    c = 0.5 * (x + 1.0)
    b = 0.5 * w
    V = np.vander(c, 3, increasing=True)
    a = np.zeros((3, 3))
    for i in range(3):
        rhs = np.array([c[i] ** q / q for q in (1, 2, 3)])
        a[i] = np.linalg.solve(V.T, rhs)
    return MdrkTableau(stages=3, n_derivatives=1, c=c, a=(a,), b=(b,), label="gl6")


class MdrkWorkspace:
    """Prepared block system for repeated steps of a multiderivative tableau.

    The unknowns of implicit stage i are y_i, dt y_i', ..., dt^(M-1) y_i^(M-1),
    stage-major.  Row y_i holds delta_ij I - a_1[i,j] dt A in column y_j and
    -a_m[i,j] dt A in column dt^(m-1) y_j^(m-1); each auxiliary row reads
    u_m - dt A u_(m-1) = dt^m b^(m-1)(t_i) with u_m = dt^m y_i^(m).  The dt^m
    scaling keeps every off-diagonal block at the dt A scale, so the block
    coupling does not depend on dt.  A zero tableau row (c_i = 0) is an
    explicit stage equal to the step input, so all explicit stages share its
    derivatives w^(m) = A w^(m-1) + b^(m-1)(t).  The system is exactly
    I - C (x) dt A with C = ``tableau.coupling``; ``system`` is that product
    in Kronecker form, holding dt C and A but no sMn x sMn matrix.

    The step's dt-fixed coefficients are formed once: ``weights`` pairs each term a
    stage row adds (the explicit derivatives w^(m), with weights summed over the explicit
    stages, then the implicit stages' sources b^(m-1)(t + c_j dt)) with its dt^m-scaled
    tableau weights, which a step adds in the tableau's order into one preallocated
    (|S|, M, n) right-hand side.  An operator with empty ``source_modes`` (convection)
    has b = 0, so its steps form no source vector; one without them has a source.

    Every system is solved directly by its complete factor, which the type
    of A picks: the inverse Fourier symbol of a ``StencilOperator``
    (``assemble`` keeps every p >= 1 operator as its grid stencil), and the
    COLAMD-ordered complete LU of each block of a CSR matrix otherwise,
    that is at p = 0, whose 2 x 2 frequency blocks cost more to transform
    than the upwind LU, which keeps near the block's own fill in downwind
    order (Lesaint & Raviart 1974), and for an operator without a mesh.
    """

    def __init__(self, op, tableau: MdrkTableau, dt: float):
        self.op = op
        self.tableau = tableau
        self.dt = dt
        self.n = op.matrix.shape[0]
        self.implicit = S = tableau.implicit_stages()
        self.stiffly_accurate = tableau.stiffly_accurate
        # I - C (x) dt A = I - (dt C) (x) A: the direct blocks then need no copy of dt A
        self.system = KroneckerSystem(dt * tableau.coupling, op.matrix)
        self.prepared = LinearSolver().prepare(self.system)  # PreparedSystem, traced by the bench
        self.sourced = bool(getattr(op, "source_modes", True))
        M = tableau.n_derivatives
        explicit = [j for j in range(tableau.stages) if j not in S]
        self.n_explicit = ne = M if explicit else 0  # the explicit derivatives w^(m) a step forms
        self.powers = dt ** np.arange(1, M + 1)  # dt^m, m = 1..M
        a = np.array(tableau.a) * self.powers[:, None, None]  # (M, s, s): dt^m a^(m)
        # rows w^(m), m = 1..M, then b^(m)(t + c_j dt), m = 0..M-1, of each implicit stage j
        self.terms = np.empty((ne + (len(S) * M if self.sourced else 0), self.n))
        weights = a[:ne, S][:, :, explicit].sum(axis=2).T  # (|S|, ne)
        if self.sourced:  # and (|S|, |S| M) for the sources
            weights = np.hstack([weights, a[:, S][:, :, S].transpose(1, 2, 0).reshape(len(S), -1)])
        self.weights = [(k, column[:, None]) for k, column in enumerate(weights.T) if column.any()]
        self.update = np.array(tableau.b)[:ne, explicit].sum(axis=1) * self.powers[:ne]
        self.rhs = np.zeros((len(S), M, self.n))

    def step(self, w: np.ndarray, t: float) -> np.ndarray:
        op, tab, dt, n, S = self.op, self.tableau, self.dt, self.n, self.implicit
        M, A, terms, rhs = tab.n_derivatives, op.matrix, self.terms, self.rhs
        for m in range(self.n_explicit):  # one A w for all explicit stages
            terms[m] = A.matvec(terms[m - 1] if m else w)
            if self.sourced:
                terms[m] += op.source_vector(t, m)
        if self.sourced:
            src = terms[self.n_explicit :].reshape(len(S), M, n)
            for bi, i in enumerate(S):
                for m in range(M):
                    src[bi, m] = op.source_vector(t + tab.c[i] * dt, m)
            np.multiply(self.powers[: M - 1, None], src[:, : M - 1], out=rhs[:, 1:])  # rows (i, m >= 1)
        rhs[:, 0] = w
        for k, weight in self.weights:  # in the tableau's (stage, derivative) order
            rhs[:, 0] += weight * terms[k]
        if not np.all(np.isfinite(rhs)):
            raise BlowUpError(f"non-finite right-hand side in the step from t = {t:.6g}")
        x = self.prepared.solve(rhs.ravel())[0].reshape(len(S), M, n)
        if self.stiffly_accurate:
            return x[-1, 0]
        out = w.copy()
        for m, weight in enumerate(self.update):
            out += weight * terms[m]
        for bi, i in enumerate(S):
            for m, b_m in enumerate(tab.b[: M - 1], start=1):
                out += b_m[i] * x[bi, m]
            if tab.b[-1][i]:  # dt^M y_i^(M) = dt A x[i, M-1] + dt^M b^(M-1)(t_i)
                top = dt * A.matvec(x[bi, M - 1])
                if self.sourced:
                    top += self.powers[-1] * src[bi, M - 1]
                out += tab.b[-1][i] * top
        return out


class TwoPointWorkspace(MdrkWorkspace):
    """A name kept for bench/spans.py, which wraps ``step`` through this class's own __dict__."""

    step = MdrkWorkspace.step


def make_workspace(op, method, dt: float) -> MdrkWorkspace:
    return MdrkWorkspace(op, as_tableau(method), dt)


def _check_times(dt, *times):
    if not all(math.isfinite(v) for v in (dt, *times)):
        raise ValueError("dt and the times must be finite")
    if dt <= 0:
        raise ValueError("dt must be positive")


def mdrk_step(op, method, w, t, dt):
    """One implicit step of a tableau or a two-point scheme."""
    _check_times(dt, t)
    return make_workspace(op, method, dt).step(np.asarray(w, float), t)


def integrate(
    op,
    method,
    w0,
    t0: float,
    t_end: float,
    dt: float,
    *,
    stats_out: Optional[list] = None,
):
    """March from t0 to t_end; the final step is shortened to land on t_end.

    The block system is factorized once and reused for every full step; a
    non-finite state aborts with BlowUpError.  Per-step solver statistics
    are appended to ``stats_out`` when given.
    """
    _check_times(dt, t0, t_end)
    if t_end < t0:
        raise ValueError("t_end must not precede t0")
    w = np.asarray(w0, dtype=float).copy()
    if t_end == t0:
        return w
    span = t_end - t0
    if not math.isfinite(span / dt):
        raise ValueError("the span from t0 to t_end holds too many steps of dt")
    n_full = int(math.floor(span / dt * (1.0 + 1e-14)))
    remainder = span - n_full * dt
    if n_full and remainder <= _STEP_TOL * dt:  # never drop the only step
        remainder = 0.0
    ws = make_workspace(op, method, dt) if n_full else None
    ws_last = None
    try:
        t = t0
        for i in range(n_full):
            w = ws.step(w, t)
            t = t + dt  # the next step starts at this step's own end time
            if not np.all(np.isfinite(w)):
                raise BlowUpError(f"non-finite state after step {i + 1} (t = {t:.6g})")
        if remainder > 0.0:
            ws_last = make_workspace(op, method, remainder)
            w = ws_last.step(w, t)
            if not np.all(np.isfinite(w)):
                raise BlowUpError(f"non-finite state in final shortened step (t = {t_end:.6g})")
    finally:
        if stats_out is not None:
            if ws is not None:
                stats_out.extend(ws.prepared.history)
            if ws_last is not None:
                stats_out.extend(ws_last.prepared.history)
    return w
