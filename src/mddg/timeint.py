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
eigenvalue of C (``MdrkWorkspace``, for an operator given as a plain
matrix).

A DG operator is block circulant on the periodic grid and every method
here is linear with constant coefficients, so its steps are marched in
frequency space instead (``FrequencyStep``): per grid frequency k, one
step is w(k) <- R(dt S(k)) w(k) plus the step's response to each
exponential source mode, both formed once per dt, so a study level makes
no solve per step.  Each resolvent (I - lambda_j dt S(k))^-1 is formed by
two-colour elimination of the element shapes (``two_colour_resolvent``):
one inverse of shape 0's frequency-free diagonal block per eigenvalue and
one half-size Schur complement inverse per frequency (at p = 5, level 3:
1.7 against 3.2 ms per eigenvalue for the full 42 x 42 inverses, one
thread, 2-core host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from mddg.sparse import (
    RESIDUAL_RTOL,
    KroneckerSystem,
    LinearSolver,
    SolverFailure,
    SolveStats,
    coupling_eigen,
)

_STEP_TOL = 1e-12  # relative tolerance for "lands exactly on t_end"
MATMUL_MIN_BLOCK = 4  # narrowest frequency block a FrequencyStep applies by batched matmul


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

    @cached_property
    def eigen(self) -> tuple:
        """(lambda, V, V^-1) of ``coupling`` = V diag(lambda) V^-1 (``sparse.coupling_eigen``)."""
        return coupling_eigen(self.coupling)

    @cached_property
    def step_factors(self) -> tuple:
        """(lead, zeta): the stability function in factored form,
        R(z) = lead prod_j (z - zeta_j) (1 - lambda_j z)^-1, lambda_j = ``eigen[0][j]``.

        det(I - z C) is R's denominator, so its poles are the 1 / lambda_j; the zeta_j are
        the roots of R's numerator (``stability.rational_function_mdrk``) and lead its
        leading coefficient.  Each zero is paired with the pole nearest its mirror image
        -conj(zeta), so each factor's modulus on the imaginary axis stays near 1 / |lambda_j|
        (equal to it for an exact mirror pair) and no partial product of E grows or decays
        far from E itself; a pole left over is a factor (1 - lambda_j z)^-1 alone, its
        zeta_j None.
        """
        from mddg.stability import rational_function_mdrk  # stability imports this module

        num = rational_function_mdrk(self).num_f
        poles = 1 / self.eigen[0]
        zeta = [None] * len(poles)
        for root in np.roots(num[::-1]):
            free = [j for j, z in enumerate(zeta) if z is None]
            zeta[min(free, key=lambda j: abs(poles[j] + np.conj(root)))] = root
        return num[-1], zeta

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

    @cached_property
    def tableau(self) -> MdrkTableau:
        """The scheme as a two-stage tableau: c = (0, 1), an explicit first
        stage and m-th derivative row (alpha_m, -beta_m), stiffly accurate.  Built once
        per scheme, so its ``coupling``, ``eigen`` and ``step_factors`` are too."""
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


def _squares(v):
    """The squared Frobenius norm of each matrix (the last two axes) of a complex array,
    summed from its real and imaginary parts without a temporary."""
    return np.einsum("...ij,...ij->...", v.real, v.real) + np.einsum("...ij,...ij->...", v.imag, v.imag)


def two_colour_resolvent(S, c):
    """X = (I - c S(k))^-1 at every frequency of S, (F, 2 nm, 2 nm), by eliminating shape 0.

    On the diagonal-split grid every edge joins a lower and an upper triangle, so no stencil
    block off the centre couples a shape to itself and the symbol's diagonal blocks D0, D1
    are the same at every frequency (``StencilOperator.symbol``).  With U(k), L(k) its
    shape-coupling blocks, A = I - c D0 is inverted once, here at the first frequency, and
    only the Schur complement Sigma(k) = I - c D1 - c^2 L(k) A^-1 U(k) per frequency; then,
    with P = c A^-1 U and Q = c L A^-1 (Saad, *Iterative Methods for Sparse Linear Systems*,
    2003, Sect. 3.3),

        X = [[A^-1 + P Sigma^-1 Q, P Sigma^-1], [Sigma^-1 Q, Sigma^-1]].

    Six nm x nm products and nm x nm inverses in place of one 2 nm x 2 nm inverse.  A
    symbol whose D0 varies with k gets a wrong X there, which its residual shows.
    """
    nm = S.shape[-1] // 2
    diagonal = (..., *np.diag_indices(nm))
    A = S[0, :nm, :nm] * -c
    A[diagonal] += 1.0
    A_inv = np.linalg.inv(A)
    P = A_inv @ S[:, :nm, nm:]
    P *= c
    sigma = S[:, nm:, :nm] @ P
    sigma += S[:, nm:, nm:]
    sigma *= -c
    sigma[diagonal] += 1.0
    sigma_inv = np.linalg.inv(sigma)
    del sigma
    Q = S[:, nm:, :nm] @ A_inv
    Q *= c
    X = np.empty(S.shape, dtype=complex)
    X[:, nm:, nm:] = sigma_inv
    np.matmul(P, sigma_inv, out=X[:, :nm, nm:])
    np.matmul(sigma_inv, Q, out=X[:, nm:, :nm])
    np.matmul(X[:, :nm, nm:], Q, out=X[:, :nm, :nm])
    X[:, :nm, :nm] += A_inv
    return X


class _StepCoefficients:
    """The dt-fixed coefficients of one step of ``tableau``, shared by both workspaces.

    ``weights`` pairs each term a stage row adds (the explicit derivatives w^(m), with weights
    summed over the explicit stages, then, when ``sourced``, the implicit stages' sources
    b^(m-1)(t + c_j dt)) with its dt^m-scaled tableau weights, one per implicit stage, in the
    tableau's (stage, derivative) order; ``update`` weighs the explicit derivatives in a step
    that is not stiffly accurate.  Only the first ``n_explicit`` derivatives are formed: up to
    the last one that a weight or an update entry reads (tp3's a^(2) and tp5's a^(3) are zero
    in the explicit column, so their last ``A w`` would feed nothing).
    """

    def __init__(self, tableau: MdrkTableau, dt: float, sourced: bool):
        self.tableau = tableau
        self.dt = dt
        self.sourced = sourced
        self.implicit = S = tableau.implicit_stages()
        self.stiffly_accurate = tableau.stiffly_accurate
        M = tableau.n_derivatives
        explicit = [j for j in range(tableau.stages) if j not in S]
        self.powers = dt ** np.arange(1, M + 1)  # dt^m, m = 1..M
        a = np.array(tableau.a) * self.powers[:, None, None]  # (M, s, s): dt^m a^(m)
        derivs = a[:, S][:, :, explicit].sum(axis=2).T  # (|S|, M): the weights of w^(m)
        update = np.array(tableau.b)[:, explicit].sum(axis=1) * self.powers
        read = np.flatnonzero(derivs.any(axis=0) | (update.astype(bool) & (not self.stiffly_accurate)))
        self.n_explicit = ne = int(read[-1]) + 1 if len(read) else 0
        weights = derivs[:, :ne]
        if sourced:  # and (|S|, |S| M) for the sources
            weights = np.hstack([weights, a[:, S][:, :, S].transpose(1, 2, 0).reshape(len(S), -1)])
        self.weights = [(k, column[:, None]) for k, column in enumerate(weights.T) if column.any()]
        self.update = update[:ne]


class MdrkWorkspace(_StepCoefficients):
    """Prepared block system for repeated steps of a multiderivative tableau, in physical space.

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

    A step adds the terms of ``weights`` in the tableau's order into one preallocated
    (|S|, M, n) right-hand side.  An operator with empty ``source_modes`` (convection)
    has b = 0, so its steps form no source vector; one without them has a source,
    ``source_vector(t, m)``, which may be any function of t.

    Every system is solved directly by its complete factor (``PreparedSystem``), each
    solve held to the residual contract.  ``integrate`` steps this way only an operator
    without a grid ``stencil`` (a plain ``matrix``, as the tests' linear ODEs have); a grid
    operator marches through ``FrequencyStep``.
    """

    def __init__(self, op, tableau: MdrkTableau, dt: float):
        super().__init__(tableau, dt, bool(getattr(op, "source_modes", True)))
        self.op = op
        self.n = op.matrix.shape[0]
        # I - C (x) dt A = I - (dt C) (x) A: the direct blocks then need no copy of dt A
        self.system = KroneckerSystem(dt * tableau.coupling, op.matrix)
        self.prepared = LinearSolver().prepare(self.system)  # PreparedSystem, traced by the bench
        S, M = self.implicit, tableau.n_derivatives
        # rows w^(m), m = 1..n_explicit, then b^(m)(t + c_j dt), m = 0..M-1, of each implicit stage j
        self.terms = np.empty((self.n_explicit + (len(S) * M if self.sourced else 0), self.n))
        self.rhs = np.zeros((len(S), M, self.n))

    @property
    def history(self) -> list:
        """The ``SolveStats`` of every step's solve."""
        return self.prepared.history

    def forward(self, w):
        """The state ``advance`` steps: the physical vector itself."""
        return w

    backward = forward

    def advance(self, w, t):
        return self.step(w, t)

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


class FrequencyStep(_StepCoefficients):
    """One step of dt on a grid operator, as a map on the ``rfft2`` half spectrum of the state.

    The operator is block circulant (its ``stencil``, ``mddg.sparse.StencilOperator``), every
    method here is linear with constant coefficients, and every source is a sum of exponential
    modes Re(e^(mu t) P).  So at each grid frequency k a step is

        w(k) <- E(k) w(k) + sum over modes of Re(e^(mu t)) g_re(k) - Im(e^(mu t)) g_im(k),

    where E(k) = R(Z), Z = dt S(k), is the stability function at the symbol S(k) and g_re,
    g_im are the step's responses, from w = 0, to the sources Re(e^(mu s) P) and
    Im(e^(mu s) P) of one step from s = 0 (Davis, *Circulant Matrices*, 1979; Hemker,
    Hoffmann and van Raalte, SISC 25, 2003).  The state is real and so is the step, so the
    half spectrum carries it.

    Both are formed once per dt, frequency by frequency, from the resolvent (I - lambda_j Z)^-1
    of each eigenvalue lambda_j of C, inverted through a half-size Schur complement
    (``two_colour_resolvent``; an mdrk6 build at p = 5, level 3 takes 13 ms, against 22 ms
    with the full inverses, one thread, 2-core host).  E is R in factored form
    (``tableau.step_factors``), lead prod_j (Z - zeta_j)(I - lambda_j Z)^-1, whose factors are each
    (1 / lambda_j - zeta_j)(I - lambda_j Z)^-1 - I / lambda_j and bounded; forming E through
    powers of Z instead would lose digits to cancellation where |Z| is large.  A response
    is the step itself taken from w = 0: its right-hand side from the source columns, its
    block system (I - C (x) Z) X = rhs solved through C's eigenvectors (``tableau.eigen``) and
    the same resolvents, then read out by the stiffly accurate last
    stage or the update weights.

    ``history`` holds one ``SolveStats`` for E, the largest relative residual over the
    frequencies of the resolvents' equations, each against its block I - lambda_j Z, and one
    per source mode, the largest of its block systems', taken against I - dt C (x) S(k)
    itself; ``forward`` adds the check that the symbol's product equals the stencil's on the
    state it transforms and on every source column, so a wrong symbol is caught at any
    frequency that the state or a source occupies.  Each is held to ``RESIDUAL_RTOL``: a miss,
    NaN included, is a SolverFailure.
    """

    def __init__(self, op, tableau: MdrkTableau, dt: float):
        super().__init__(tableau, dt, bool(op.source_modes))
        self.stencil = stencil = op.stencil
        N, nb = stencil.N, stencil.K.shape[-1]
        self.grid = (N, N, nb)
        self.symbol = S = stencil.symbol().reshape(-1, nb, nb)
        self.history = []
        # per source mode (mu, P), the columns Re(e^(mu s) P) and Im(e^(mu s) P), whose
        # b^(m)(s) is Re(kappa) X - Im(kappa) Y with kappa = mu^m e^(mu s); each column is kept
        # with its spectrum for ``forward``'s check of the symbol
        self.sources = [(v, self.transform(v)) for _, P in op.source_modes for v in (P.real, P.imag)]
        mu = np.repeat([rate for rate, _ in op.source_modes], 2).astype(complex)
        if self.sources:
            X = np.stack([x for _, x in self.sources], axis=-1)
            Y = (X.reshape(*X.shape[:-1], -1, 2)[..., ::-1] * [1, -1]).reshape(X.shape)  # (Im, -Re)
            self.E, G, residuals = self._respond(S, mu, X, Y)
        else:
            self.E, residual = self._step_map(S)
            residuals = [residual]
        self.responses = [(mu[q], G[..., q], G[..., q + 1]) for q in range(0, len(mu), 2)]
        # a batched matmul costs about as much per frequency as a narrow block's whole
        # product, so blocks narrower than MATMUL_MIN_BLOCK are applied column by column
        self.columns = np.ascontiguousarray(self.E.transpose(2, 0, 1)) if nb < MATMUL_MIN_BLOCK else None
        self._check(residuals[0], "step map resolvent")
        for rel in residuals[1:]:
            self._check(rel, "source response block solve")

    def transform(self, v):
        """The (F, nb) half spectrum of a real grid vector."""
        return np.fft.rfft2(np.reshape(v, self.grid), axes=(0, 1)).reshape(-1, self.grid[2])

    def _check(self, residual, what):
        stats = SolveStats(residual=float(residual), converged=bool(residual <= RESIDUAL_RTOL))
        self.history.append(stats)
        if not stats.converged:
            message = f"{what}: relative residual {stats.residual:.3e} above {RESIDUAL_RTOL:g}"
            raise SolverFailure(message, stats)

    def _step_map(self, S, Y=None):
        """E = R(Z) = lead prod_j (Z - zeta_j)(I - lambda_j Z)^-1 at the frequencies of S,
        Z = dt S, and the largest relative residual ||I - (I - lambda_j Z) X_j|| / ||I|| of
        the resolvents X_j there (``two_colour_resolvent``), taken as X_j - lambda_j Z X_j
        - I.  Each factor is taken as (1 / lambda_j - zeta_j) X_j - I / lambda_j (X_j alone
        for a pole without a zero).  Row j of ``Y`` (F, sM, nb, R), when given, is
        multiplied by X_j in place, and every X_j is dropped once used."""
        lead, zetas = self.tableau.step_factors
        nb = S.shape[-1]
        diagonal = (slice(None), *np.diag_indices(nb))
        E, worst = None, 0.0
        for j, (lam, zeta) in enumerate(zip(self.tableau.eigen[0], zetas)):
            c = lam * self.dt
            try:
                inverse = two_colour_resolvent(S, c)
            except np.linalg.LinAlgError as exc:
                raise SolverFailure(f"frequency block solve failed: {exc}") from exc
            check = S @ inverse
            check *= -c
            check += inverse
            check[diagonal] -= 1.0
            worst = np.maximum(worst, np.sqrt(_squares(check).max() / nb))  # a NaN stays NaN
            del check
            if Y is not None:
                Y[:, j] = inverse @ Y[:, j]
            if zeta is not None:
                inverse *= 1 / lam - zeta
                inverse[diagonal] -= 1 / lam
            E = inverse if E is None else E @ inverse
        return lead * E, worst

    def _respond(self, S, mu, X, Y):
        """E at the frequencies of S (``_step_map``), and one step there from w = 0 under
        each source column, (F, nb, R), with the largest relative residuals: E's, then per
        source mode that of its block systems, taken against I - dt C (x) S itself."""
        tab, dt, imp, ne = self.tableau, self.dt, self.implicit, self.n_explicit
        M, (_, V, Vinv) = tab.n_derivatives, tab.eigen

        def source(s, m):  # b^(m)(s) of every column
            kappa = mu**m * np.exp(mu * s)
            return X * kappa.real - Y * kappa.imag

        terms = []
        for m in range(ne):  # the explicit derivatives w^(m), from w = 0
            terms.append(source(0.0, m) + (S @ terms[-1] if terms else 0.0))
        terms += [source(tab.c[i] * dt, m) for i in imp for m in range(M)]
        src = np.stack(terms[ne:], axis=1).reshape((len(S), len(imp), M) + X.shape[1:])
        rhs = np.zeros(src.shape, dtype=complex)
        rhs[:, :, 1:] = self.powers[: M - 1, None, None] * src[:, :, : M - 1]
        for k, weight in self.weights:
            rhs[:, :, 0] += weight[:, :, None] * terms[k][:, None]
        # (I - C (x) Z) x = rhs through C = V diag(lambda) V^-1: block j is I - lambda_j Z
        rhs = rhs.reshape(len(S), -1, *X.shape[1:])  # (F, sM, nb, R)
        x = np.einsum("ab,fbnr->fanr", Vinv, rhs)
        E, worst = self._step_map(S, x)
        x = np.einsum("ab,fbnr->fanr", V, x)
        residual = rhs - x + np.einsum("ab,fbnr->fanr", dt * tab.coupling, S[:, None] @ x)
        pairs = np.arange(0, len(mu), 2)  # each mode's two columns
        res2, rhs2 = (np.add.reduceat(_squares(v.swapaxes(1, 3)), pairs, axis=1) for v in (residual, rhs))
        # a zero column's residual is 0 when it is solved exactly and inf otherwise; a NaN stays NaN
        rel = np.sqrt(np.divide(res2, rhs2, out=np.where(res2 > 0, np.inf, res2), where=rhs2 > 0)).max(axis=0)
        x = x.reshape(src.shape)
        if self.stiffly_accurate:
            return E, x[:, -1, 0], np.r_[worst, rel]
        out = np.zeros(X.shape, dtype=complex)
        for m, weight in enumerate(self.update):
            out += weight * terms[m]
        for bi, i in enumerate(imp):
            for m, b_m in enumerate(tab.b[: M - 1], start=1):
                out += b_m[i] * x[:, bi, m]
            if tab.b[-1][i]:  # dt^M y_i^(M) = dt S x[i, M-1] + dt^M b^(M-1)(t_i)
                out += tab.b[-1][i] * (dt * (S @ x[:, bi, M - 1]) + self.powers[-1] * src[:, bi, M - 1])
        return E, out, np.r_[worst, rel]

    def forward(self, w):
        """The half spectrum of the real state w, after checking that the symbol's product
        equals the stencil's on w and on every source column, each relative to
        max_k ||S(k)||_F ||v(k)||: the largest of these is one check."""
        w = np.asarray(w, dtype=float)
        if not np.all(np.isfinite(w)):
            raise BlowUpError("non-finite state entering the march")
        x = self.transform(w)
        norm = np.sqrt(_squares(self.symbol).max())
        worst = 0.0
        for v, spectrum in [(w, x), *self.sources]:
            product = (self.symbol @ spectrum[..., None])[..., 0]
            r = np.linalg.norm(self.transform(self.stencil.matvec(v)) - product)
            scale = norm * np.linalg.norm(spectrum)
            worst = np.maximum(worst, r / scale if scale > 0 else (np.inf if r else 0.0))
        self._check(worst, "symbol against the stencil's product")
        return x

    def backward(self, x):
        """The real state of a half spectrum."""
        N, _, nb = self.grid
        return np.fft.irfft2(x.reshape(N, -1, nb), s=(N, N), axes=(0, 1)).ravel()

    def advance(self, x, t):
        """The half spectrum one step of dt from t on."""
        if self.columns is None:
            y = (self.E @ x[..., None])[..., 0]
        else:
            y = self.columns[0] * x[:, :1]
            for j in range(1, len(self.columns)):
                y += self.columns[j] * x[:, j : j + 1]
        for rate, g_re, g_im in self.responses:
            a = np.exp(rate * t)
            y += a.real * g_re
            if a.imag:
                y -= a.imag * g_im
        return y

    def step(self, w, t):
        return self.backward(self.advance(self.forward(w), t))


class TwoPointWorkspace(MdrkWorkspace):
    """A name kept for bench/spans.py, which wraps ``step`` through this class's own __dict__."""

    step = MdrkWorkspace.step


def make_workspace(op, method, dt: float):
    """The step of ``method`` with dt on ``op``: a ``FrequencyStep`` for an operator with a
    grid ``stencil``, an ``MdrkWorkspace`` otherwise."""
    tableau = as_tableau(method)
    if getattr(op, "stencil", None) is not None:
        return FrequencyStep(op, tableau, dt)
    return MdrkWorkspace(op, tableau, dt)


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

    One workspace (``make_workspace``) serves every full step and its own one the
    shortened step; a grid operator's state is transformed once, marched in frequency
    space and transformed back.  A non-finite state aborts with BlowUpError.  Each
    workspace's ``SolveStats`` (a physical workspace's one per step, a
    ``FrequencyStep``'s per-dt checks) are appended to ``stats_out`` when given, and so
    is the failed check of a workspace that a SolverFailure stopped being built.
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
    workspaces, refused = [], []
    try:
        t, x = t0, None
        for h, count in ((dt, n_full), (remainder, int(remainder > 0))):
            if not count:
                continue
            try:
                ws = make_workspace(op, method, h)
            except SolverFailure as exc:  # a workspace that fails its own checks is never built
                refused = [exc.stats] if exc.stats is not None else []
                raise
            workspaces.append(ws)
            x = ws.forward(w) if x is None else x
            with np.errstate(over="ignore", invalid="ignore"):  # reported as a blow-up below
                for _ in range(count):
                    x = ws.advance(x, t)
                    t = t + h  # the next step starts at this step's own end time
                    if not np.all(np.isfinite(x)):
                        raise BlowUpError(f"non-finite state after the step to t = {t:.6g}")
        w = workspaces[0].backward(x)
    finally:
        if stats_out is not None:
            for ws in workspaces:
                stats_out.extend(ws.history)
            stats_out.extend(refused)
    return w
