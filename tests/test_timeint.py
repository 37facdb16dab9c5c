import math
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from mddg.basis import make_basis
from mddg.harness import (
    RunConfig,
    default_eta,
    make_problem,
    method_registry,
    problem_convection,
    problem_convection_diffusion,
    run_level,
)
from mddg.mesh import TriangularMesh
from mddg.operator import DgOperator, assemble, project_l2
from mddg.sparse import SolverFailure, StencilOperator
from mddg.stability import rational_function_mdrk
from mddg.timeint import (
    BlowUpError,
    FrequencyStep,
    MdrkWorkspace,
    as_tableau,
    builtin_gauss_legendre6,
    builtin_mdrk6,
    builtin_two_point_schemes,
    derive_two_point_coefficients,
    integrate,
    make_workspace,
    mdrk_step,
    two_colour_resolvent,
)

from conftest import LinearOde, applied


def loop_step(ws, w, t, source):
    """``ws.step(w, t)`` as a loop over stages and derivatives that forms and scales every term
    on its own, with the source b^(m)(t) = ``source(t, m)``: the reference for the step's
    precomputed weights."""
    tab, dt, n, S, A = ws.tableau, ws.dt, ws.n, ws.implicit, ws.op.matrix
    M = tab.n_derivatives
    deriv = [w]  # the explicit stages' derivatives of the step input
    for m in range(1, M + 1 if len(S) < tab.stages else 1):
        deriv.append(A.matvec(deriv[-1]) + source(t, m - 1))
    scaled = [dt**m * v for m, v in enumerate(deriv)]
    src = {i: [dt**m * source(t + tab.c[i] * dt, m - 1) for m in range(1, M + 1)] for i in S}
    rhs = []
    for i in S:
        r = w.copy()
        for j in range(tab.stages):
            for m, a_m in enumerate(tab.a, start=1):
                r += a_m[i, j] * (src[j][m - 1] if j in src else scaled[m])
        rhs += [r, *src[i][: M - 1]]
    x = ws.prepared.solve(np.concatenate(rhs))[0].reshape(len(S), M, n)
    if ws.stiffly_accurate:
        return x[-1, 0]
    out = w.copy()
    for i in range(tab.stages):
        for m, b_m in enumerate(tab.b, start=1):
            if i not in src:
                v = scaled[m]
            elif m < M:
                v = x[S.index(i), m]
            else:
                v = dt * A.matvec(x[S.index(i), M - 1]) + src[i][M - 1]
            out += b_m[i] * v
    return out


class TestTwoPointCoefficients:
    def test_order5_table_row(self):
        s = derive_two_point_coefficients(2, 3)
        assert s.alpha == (F(2, 5), F(1, 20), F(0))
        assert s.beta == (F(-3, 5), F(3, 20), F(-1, 60))
        assert s.order == 5

    def test_order6_table_row(self):
        s = derive_two_point_coefficients(3, 3)
        assert s.alpha == (F(1, 2), F(1, 10), F(1, 120))
        assert s.beta == (F(-1, 2), F(1, 10), F(-1, 120))

    def test_order3_derived(self):
        s = derive_two_point_coefficients(1, 2)
        assert s.alpha == (F(1, 3), F(0), F(0))
        assert s.beta == (F(-2, 3), F(1, 6), F(0))

    def test_order4_derived(self):
        s = derive_two_point_coefficients(2, 2)
        assert s.alpha == (F(1, 2), F(1, 12), F(0))
        assert s.beta == (F(-1, 2), F(1, 12), F(0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            derive_two_point_coefficients(0, 2)
        with pytest.raises(ValueError):
            derive_two_point_coefficients(2, 4)

    def test_builtin_set(self):
        schemes = builtin_two_point_schemes()
        assert [s.order for s in schemes] == [3, 4, 5, 6]
        assert [s.label for s in schemes] == ["tp3", "tp4", "tp5", "tp6"]
        # orders 3 and 4 need two derivatives only
        assert [s.n_derivatives for s in schemes] == [2, 2, 3, 3]
        for s in schemes[:2]:
            assert s.alpha[2] == 0 and s.beta[2] == 0

    def test_consistency_alpha1_minus_beta1(self):
        for s in builtin_two_point_schemes():
            assert s.alpha[0] - s.beta[0] == 1


class TestMdrkTableaux:
    def test_mdrk6_rows(self):
        tab = builtin_mdrk6()
        assert tab.a_exact[0][2] == (F(7, 30), F(16, 30), F(7, 30))
        assert tab.a_exact[1][1] == (F(65, 4800), F(-25, 600), F(-25, 8000))
        assert tab.a_exact[1][2] == (F(5, 300), F(0), F(-5, 300))

    def test_mdrk6_row_sums_match_abscissae(self):
        tab = builtin_mdrk6()
        sums = [sum(row, F(0)) for row in tab.a_exact[0]]
        assert sums == [F(0), F(1, 2), F(1)]

    def test_mdrk6_update_weights(self):
        tab = builtin_mdrk6()
        assert sum(tab.b_exact[0], F(0)) == 1
        assert sum(tab.b_exact[1], F(0)) == 0

    def test_mdrk6_matches_hermite_birkhoff_construction(self):
        # independent oracle: integrate the quintic two-derivative Hermite
        # interpolation basis on nodes (0, 1/2, 1) with exact rationals
        nodes = [F(0), F(1, 2), F(1)]

        def solve_exact(rows, rhs):
            n = len(rows)
            aug = [list(r) + [b] for r, b in zip(rows, rhs)]
            for col in range(n):
                piv = next(r for r in range(col, n) if aug[r][col] != 0)
                aug[col], aug[piv] = aug[piv], aug[col]
                pv = aug[col][col]
                aug[col] = [x / pv for x in aug[col]]
                for r in range(n):
                    if r != col and aug[r][col] != 0:
                        f = aug[r][col]
                        aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
            return [aug[r][n] for r in range(n)]

        rows = [[t**i for i in range(6)] for t in nodes]
        rows += [[F(0)] + [F(i) * t ** (i - 1) for i in range(1, 6)] for t in nodes]

        def integral(coeffs, upper):
            return sum(c / (i + 1) * upper ** (i + 1) for i, c in enumerate(coeffs))

        a1 = [[None] * 3 for _ in range(3)]
        a2 = [[None] * 3 for _ in range(3)]
        for j in range(3):
            h = solve_exact(rows, [F(int(i == j)) for i in range(3)] + [F(0)] * 3)
            k = solve_exact(rows, [F(0)] * 3 + [F(int(i == j)) for i in range(3)])
            for i, ci in enumerate(nodes):
                a1[i][j] = integral(h, ci)
                a2[i][j] = integral(k, ci)
        tab = builtin_mdrk6()
        assert tuple(tuple(r) for r in a1) == tab.a_exact[0]
        assert tuple(tuple(r) for r in a2) == tab.a_exact[1]

    def test_gauss_legendre_nodes_and_weights(self):
        tab = builtin_gauss_legendre6()
        s15 = math.sqrt(15.0)
        assert np.allclose(tab.c, [0.5 - s15 / 10, 0.5, 0.5 + s15 / 10], atol=1e-15)
        assert np.allclose(tab.b[0], [5 / 18, 4 / 9, 5 / 18], atol=1e-15)
        assert abs(tab.b[0].sum() - 1.0) < 1e-15

    def test_gauss_legendre_tableau_closed_form(self):
        tab = builtin_gauss_legendre6()
        s15 = math.sqrt(15.0)
        a_exact = np.array(
            [
                [5 / 36, 2 / 9 - s15 / 15, 5 / 36 - s15 / 30],
                [5 / 36 + s15 / 24, 2 / 9, 5 / 36 - s15 / 24],
                [5 / 36 + s15 / 30, 2 / 9 + s15 / 15, 5 / 36],
            ]
        )
        assert np.allclose(tab.a[0], a_exact, atol=1e-14)

    def test_implicit_stage_detection(self):
        assert builtin_mdrk6().implicit_stages() == [1, 2]
        assert builtin_gauss_legendre6().implicit_stages() == [0, 1, 2]

    def test_stiffly_accurate(self):
        assert builtin_mdrk6().stiffly_accurate
        assert not builtin_gauss_legendre6().stiffly_accurate
        assert all(s.tableau.stiffly_accurate for s in builtin_two_point_schemes())

    @pytest.mark.parametrize("scheme", builtin_two_point_schemes(), ids=lambda s: s.label)
    def test_two_point_tableau(self, scheme):
        tab = scheme.tableau
        M = scheme.n_derivatives
        assert (tab.stages, tab.n_derivatives, tab.label) == (2, M, scheme.label)
        assert list(tab.c) == [0.0, 1.0]
        assert tab.a_exact == tuple(
            ((0, 0), (scheme.alpha[m], -scheme.beta[m])) for m in range(M)
        )
        assert tab.b_exact == tuple(rows[1] for rows in tab.a_exact)
        assert tab.implicit_stages() == [1]
        for a_m, a_exact in zip(tab.a, tab.a_exact):
            assert np.array_equal(a_m, [[float(x) for x in row] for row in a_exact])


class TestScalarSteps:
    def test_zero_operator_identity(self, scalar_op):
        op = scalar_op(0.0)
        w = np.array([1.7])
        for scheme in builtin_two_point_schemes():
            assert mdrk_step(op, scheme, w, 0.0, 0.5) == pytest.approx(1.7)
        assert mdrk_step(op, builtin_mdrk6(), w, 0.0, 0.5) == pytest.approx(1.7)
        assert mdrk_step(op, builtin_gauss_legendre6(), w, 0.0, 0.5) == pytest.approx(1.7)

    def test_two_point_step_matches_stability_function(self, scalar_op):
        from mddg.stability import stability_function_two_point

        lam, dt = -0.8, 0.37
        op = scalar_op(lam)
        for scheme in builtin_two_point_schemes():
            w1 = mdrk_step(op, scheme, np.array([1.0]), 0.0, dt)
            R = stability_function_two_point(scheme)
            assert abs(w1[0] - R(lam * dt).real) < 1e-13

    def test_order6_rational_form(self, scalar_op):
        lam, dt = -0.9, 0.21
        z = lam * dt
        w1 = mdrk_step(scalar_op(lam), builtin_two_point_schemes()[3], np.array([1.0]), 0.0, dt)
        expected = (1 + z / 2 + z**2 / 10 + z**3 / 120) / (1 - z / 2 + z**2 / 10 - z**3 / 120)
        assert abs(w1[0] - expected) < 1e-14

    def test_mdrk6_exponential_accuracy(self, scalar_op):
        w1 = mdrk_step(scalar_op(-1.0), builtin_mdrk6(), np.array([1.0]), 0.0, 0.1)
        assert abs(w1[0] - math.exp(-0.1)) < 1e-11

    def test_gl6_agrees_with_mdrk6(self, scalar_op):
        op = scalar_op(-1.0)
        w_m = mdrk_step(op, builtin_mdrk6(), np.array([1.0]), 0.0, 0.1)
        w_g = mdrk_step(op, builtin_gauss_legendre6(), np.array([1.0]), 0.0, 0.1)
        assert abs(w_m[0] - w_g[0]) < 1e-10


class TestPolynomialExactness:
    # a scheme of order q integrates dy/dt = b(t), polynomial of degree q-1,
    # exactly in one step (A = 0)
    @pytest.mark.parametrize("scheme_idx", [0, 1, 2, 3])
    def test_two_point(self, scheme_idx):
        scheme = builtin_two_point_schemes()[scheme_idx]
        q = scheme.order
        coeffs = np.arange(1.0, q + 1.0)

        def b(t):
            return np.array([np.polyval(coeffs, t)])

        def b1(t):
            return np.array([np.polyval(np.polyder(coeffs), t)])

        def b2(t):
            return np.array([np.polyval(np.polyder(coeffs, 2), t)])

        op = LinearOde([[0.0]], source=b, source_t=b1, source_tt=b2)
        dt = 0.7
        w1 = mdrk_step(op, scheme, np.array([0.3]), 0.1, dt)
        anti = np.polyint(coeffs)
        exact = 0.3 + np.polyval(anti, 0.1 + dt) - np.polyval(anti, 0.1)
        assert abs(w1[0] - exact) < 1e-12

    @pytest.mark.parametrize("make", [builtin_mdrk6, builtin_gauss_legendre6])
    def test_mdrk(self, make):
        tab = make()
        coeffs = np.array([0.5, -2.0, 1.0, 3.0, -1.0, 2.0])  # degree 5

        def b(t):
            return np.array([np.polyval(coeffs, t)])

        def b1(t):
            return np.array([np.polyval(np.polyder(coeffs), t)])

        op = LinearOde([[0.0]], source=b, source_t=b1)
        dt = 0.6
        w1 = mdrk_step(op, tab, np.array([-0.2]), 0.2, dt)
        anti = np.polyint(coeffs)
        exact = -0.2 + np.polyval(anti, 0.2 + dt) - np.polyval(anti, 0.2)
        assert abs(w1[0] - exact) < 1e-12


class TestOdeOrders:
    def methods(self):
        tp = builtin_two_point_schemes()
        return [(tp[0], 3), (tp[1], 4), (tp[2], 5), (tp[3], 6),
                (builtin_mdrk6(), 6), (builtin_gauss_legendre6(), 6)]

    def test_order_on_rotating_decay(self, rotation_op):
        # dy/dt = (-1 + 2i) y as a real 2x2 block; halving dt scales the
        # error by 2^order
        A = np.array([[-1.0, -2.0], [2.0, -1.0]])
        y0 = np.array([1.0, 0.3])
        T = 1.0
        exact = scipy.linalg.expm(A * T) @ y0
        for method, order in self.methods():
            errs = []
            for n in (8, 16):
                w = integrate(rotation_op, method, y0, 0.0, T, T / n)
                errs.append(np.linalg.norm(w - exact))
            slope = math.log2(errs[0] / errs[1])
            assert errs[0] < 1e-3
            assert abs(slope - order) <= 0.1 * order, (getattr(method, "label", "?"), slope)


class TestIntegrate:
    def test_zero_span_returns_copy(self, scalar_op):
        op = scalar_op(-1.0)
        w0 = np.array([2.0])
        w = integrate(op, builtin_two_point_schemes()[0], w0, 0.5, 0.5, 0.1)
        assert w[0] == 2.0
        w[0] = 0.0
        assert w0[0] == 2.0

    def test_exact_step_count(self, scalar_op):
        op = scalar_op(-1.0)
        stats = []
        integrate(op, builtin_two_point_schemes()[0], np.array([1.0]), 0.0, 1.0, 0.25,
                  stats_out=stats)
        assert len(stats) == 4

    def test_shortened_final_step(self, scalar_op):
        op = scalar_op(-1.0)
        stats = []
        w = integrate(op, builtin_two_point_schemes()[3], np.array([1.0]), 0.0, 1.0, 0.4,
                      stats_out=stats)
        assert len(stats) == 3  # 0.4 + 0.4 + 0.2
        assert abs(w[0] - math.exp(-1.0)) < 1e-7

    @pytest.mark.parametrize("dt", [2.0, 1e12, 1e13])
    def test_step_longer_than_span_takes_one_shortened_step(self, scalar_op, dt):
        # the only step is never dropped, however far dt overshoots the span
        op, w0 = scalar_op(-1.0), np.array([1.0])
        for method in (builtin_two_point_schemes()[0], builtin_mdrk6()):
            stats = []
            w = integrate(op, method, w0, 0.0, 1.0, dt, stats_out=stats)
            assert len(stats) == 1
            assert np.array_equal(w, mdrk_step(op, method, w0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "dt, t_end",
        [(-0.1, 1.0), (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)],
        ids=["dt-negative", "dt-zero", "dt-inf", "dt-nan", "t_end-inf", "t_end-nan"],
    )
    def test_invalid_dt(self, scalar_op, dt, t_end):
        op, w0 = scalar_op(-1.0), np.array([1.0])
        with pytest.raises(ValueError):
            integrate(op, builtin_mdrk6(), w0, 0.0, t_end, dt)
        with pytest.raises(ValueError):
            mdrk_step(op, builtin_mdrk6(), w0, t_end - 1.0, dt)

    @pytest.mark.parametrize("t0, t_end, dt", [(0.0, 1.0, 5e-324), (-1e308, 1e308, 1.0)])
    def test_overflowing_step_count(self, scalar_op, t0, t_end, dt):
        with pytest.raises(ValueError):
            integrate(scalar_op(-1.0), builtin_mdrk6(), np.array([1.0]), t0, t_end, dt)

    @pytest.mark.parametrize(
        "method", [builtin_two_point_schemes()[0], builtin_mdrk6()], ids=["tp3", "mdrk6"]
    )
    def test_non_finite_right_hand_side_is_a_blow_up(self, method):
        # a source that turns infinite after t = 0.3 makes the right-hand side of the step
        # from t = 0.25 non-finite: a BlowUpError, as a non-finite state is, and no solve
        op = LinearOde([[-1.0]], source=lambda t: np.inf if t > 0.3 else 0.0)
        stats = []
        with pytest.raises(BlowUpError, match="non-finite right-hand side in the step from t = 0.25"):
            integrate(op, method, np.array([1.0]), 0.0, 1.0, 0.25, stats_out=stats)
        assert len(stats) == 1

    def test_default_solves_by_the_complete_factor(self, rotation_op, monkeypatch):
        # with no arguments beyond the times every step is one solve of the complete
        # factor, also for an operator that carries no problem: SuperLU's LU of each
        # n x n block of the CSR system, held to the residual contract
        shapes = []
        splu = scipy.sparse.linalg.splu

        def recording(A, **kwargs):
            shapes.append(A.shape)
            return splu(A, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
        y0 = np.array([1.0, 0.3])
        for method in builtin_two_point_schemes() + [builtin_mdrk6(), builtin_gauss_legendre6()]:
            stats = []
            integrate(rotation_op, method, y0, 0.0, 1.0, 0.3, stats_out=stats)
            assert len(stats) == 4  # 0.3 + 0.3 + 0.3 + 0.1
            assert all(s.converged and s.residual <= 1e-10 for s in stats)
        assert shapes and set(shapes) == {(2, 2)}

    def test_positional_solver_rejected(self, scalar_op):
        # the step solver is not an argument, and stats_out is keyword-only, so a stale
        # positional solver fails at the call rather than as a stats list deep inside
        with pytest.raises(TypeError):
            integrate(scalar_op(-1.0), builtin_mdrk6(), np.array([1.0]), 0.0, 1.0, 0.25, "direct")

    def test_dissipative_norm_bound(self):
        # convection problem: upwind DG + A-stable scheme never grows the norm
        mesh = TriangularMesh(0)
        basis = make_basis(1)
        prob = problem_convection()
        op = assemble(mesh, basis, prob, eta=20.0)
        w0 = project_l2(mesh, basis, prob.initial)
        for method in (builtin_two_point_schemes()[1], builtin_mdrk6()):
            w = integrate(op, method, w0, 0.0, 1.0, 0.25)
            assert np.linalg.norm(w) <= np.linalg.norm(w0) + 1e-8


class TestBlockEquivalence:
    # the sparse block step reproduces the dense formulation in powers of A
    @pytest.mark.parametrize("scheme_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("problem_fn", [problem_convection, problem_convection_diffusion])
    def test_two_point_vs_dense(self, scheme_idx, problem_fn):
        mesh = TriangularMesh(0)
        basis = make_basis(1)
        prob = problem_fn()
        op = assemble(mesh, basis, prob, eta=20.0)
        scheme = builtin_two_point_schemes()[scheme_idx]
        A = op.matrix.tocsr().toarray()
        n = op.n_dof
        rng = np.random.default_rng(33)
        w = rng.normal(size=n)
        t, dt = 0.3, 0.2
        wb = mdrk_step(op, scheme, w, t, dt)
        al, be = np.array(scheme.alpha, float), np.array(scheme.beta, float)
        b = lambda tt, d=0: op.source_vector(tt, d)
        A2, A3 = A @ A, A @ A @ A
        t1 = t + dt
        lhs = np.eye(n) + dt * be[0] * A + dt**2 * be[1] * A2 + dt**3 * be[2] * A3
        rhs = (np.eye(n) + dt * al[0] * A + dt**2 * al[1] * A2 + dt**3 * al[2] * A3) @ w
        rhs += dt * al[0] * b(t) + dt**2 * al[1] * (A @ b(t) + b(t, 1))
        rhs += dt**3 * al[2] * (A2 @ b(t) + A @ b(t, 1) + b(t, 2))
        rhs -= dt * be[0] * b(t1) + dt**2 * be[1] * (A @ b(t1) + b(t1, 1))
        rhs -= dt**3 * be[2] * (A2 @ b(t1) + A @ b(t1, 1) + b(t1, 2))
        wd = np.linalg.solve(lhs, rhs)
        assert np.linalg.norm(wb - wd) / np.linalg.norm(wd) < 1e-8

    @pytest.mark.parametrize("make", [builtin_mdrk6, builtin_gauss_legendre6])
    @pytest.mark.parametrize("problem_fn", [problem_convection, problem_convection_diffusion])
    def test_mdrk_vs_dense_stage_solve(self, make, problem_fn):
        # dense collocation stage equations in powers of A, with the source:
        # Y_i = w + sum_j sum_m dt^m a_m[i,j] Y_j^(m),  Y^(1) = A Y + b,  Y^(2) = A^2 Y + A b + b'
        mesh = TriangularMesh(0)
        basis = make_basis(1)
        op = assemble(mesh, basis, problem_fn(), eta=20.0)
        tab = make()
        A = op.matrix.tocsr().toarray()
        n, s = op.n_dof, tab.stages
        w = np.random.default_rng(35).normal(size=n)
        t, dt = 0.3, 0.2
        powers = [np.eye(n), A, A @ A]
        srcs = []
        for c in tab.c:
            b0, b1 = op.source_vector(t + c * dt, 0), op.source_vector(t + c * dt, 1)
            srcs.append([None, b0, A @ b0 + b1])
        lhs = np.zeros((s * n, s * n))
        rhs = np.tile(w, s)
        for i in range(s):
            lhs[i * n : (i + 1) * n, i * n : (i + 1) * n] += np.eye(n)
            for j in range(s):
                for m, a_m in enumerate(tab.a, start=1):
                    lhs[i * n : (i + 1) * n, j * n : (j + 1) * n] -= dt**m * a_m[i, j] * powers[m]
                    rhs[i * n : (i + 1) * n] += dt**m * a_m[i, j] * srcs[j][m]
        Y = np.linalg.solve(lhs, rhs).reshape(s, n)
        wd = w.copy()
        for i in range(s):
            for m, b_m in enumerate(tab.b, start=1):
                wd += dt**m * b_m[i] * (powers[m] @ Y[i] + srcs[i][m])
        wb = mdrk_step(op, tab, w, t, dt)
        assert np.linalg.norm(wb - wd) / np.linalg.norm(wd) < 1e-8

    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_sourceless_step_forms_no_source(self, method, monkeypatch):
        # convection has no source modes, so a step builds no source vector, and its state
        # is the loop reference's with zero sources
        mesh, basis, prob = TriangularMesh(3), make_basis(0), problem_convection()
        op = assemble(mesh, basis, prob, eta=20.0)
        w = project_l2(mesh, basis, prob.initial)
        ws = MdrkWorkspace(op, as_tableau(method_registry()[method]), 0.05)
        expected = loop_step(ws, w, 0.3, lambda t, m: np.zeros(ws.n))

        def refuse(*args):
            raise AssertionError("a step without source modes formed a source vector")

        monkeypatch.setattr(DgOperator, "source_vector", refuse)
        got = ws.step(w, 0.3)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
        assert np.array_equal(ws.step(w, 0.3), got)  # the reused buffers carry nothing over

    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_sourced_step_matches_loop_reference(self, method):
        # the precomputed weights give the loop reference's state with the source on; gl6's
        # update adds dt A Y_i far larger than y^{n+1} (dt ||A|| ~ 40 here), so the order of
        # that sum shows at about 1e-14
        mesh, basis, prob = TriangularMesh(2), make_basis(1), problem_convection_diffusion()
        op = assemble(mesh, basis, prob, eta=20.0)
        w = project_l2(mesh, basis, prob.initial)
        ws = MdrkWorkspace(op, as_tableau(method_registry()[method]), 0.05)
        expected = loop_step(ws, w, 0.3, op.source_vector)
        got = ws.step(w, 0.3)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("scheme", builtin_two_point_schemes(), ids=lambda s: s.label)
    def test_two_point_system_is_explicit_block_form(self, scheme):
        # [[I + b1 Z, b2 Z(, b3 Z)], [-Z, I(, 0)](, [0, -Z, I])] with Z = dt A
        mesh = TriangularMesh(0)
        op = assemble(mesh, make_basis(1), problem_convection_diffusion(), eta=20.0)
        dt = 0.2
        Z = dt * op.matrix.tocsr().toarray()
        I = np.eye(op.n_dof)
        O = np.zeros_like(I)
        al, be = np.array(scheme.alpha, float), np.array(scheme.beta, float)
        assert al[0] - be[0] == 1.0
        top = [I + be[0] * Z, be[1] * Z, be[2] * Z]
        if scheme.n_derivatives == 2:
            expected = np.block([top[:2], [-Z, I]])
        else:
            expected = np.block([top, [-Z, I, O], [O, -Z, I]])
        ws = MdrkWorkspace(op, as_tableau(scheme), dt)
        assert np.max(np.abs(applied(ws.system) - expected)) <= 1e-15 * np.max(np.abs(expected))
        w = np.random.default_rng(36).normal(size=op.n_dof)
        w_mdrk = MdrkWorkspace(op, scheme.tableau, dt).step(w, 0.1)
        assert np.array_equal(ws.step(w, 0.1), w_mdrk)
        # the march takes the scheme and its tableau alike too
        w_march = make_workspace(op, scheme.tableau, dt).step(w, 0.1)
        assert np.array_equal(make_workspace(op, scheme, dt).step(w, 0.1), w_march)

    @pytest.mark.parametrize(
        "method",
        builtin_two_point_schemes() + [builtin_mdrk6(), builtin_gauss_legendre6()],
        ids=lambda m: m.label,
    )
    def test_system_is_identity_minus_coupling_kron_dt_a(self, method):
        # the block system is exactly I - C (x) Z with Z = dt A and the tableau's C
        mesh = TriangularMesh(0)
        op = assemble(mesh, make_basis(1), problem_convection_diffusion(), eta=20.0)
        dt = 0.2
        ws = MdrkWorkspace(op, as_tableau(method), dt)
        C = as_tableau(method).coupling
        K = np.eye(len(C) * op.n_dof) - np.kron(C, dt * op.matrix.tocsr().toarray())
        assert np.max(np.abs(applied(ws.system) - K)) <= 1e-15 * np.max(np.abs(K))

    def test_mdrk_update_equals_last_stage(self, scalar_op):
        # stiffly accurate tableau: the Eq-style update equals stage 3 of
        # the dense stage solve
        tab = builtin_mdrk6()
        lam, dt = -2.3, 0.4
        z = lam * dt
        a1, a2 = tab.a
        M = np.eye(3) - z * a1 - z * z * a2
        Y = np.linalg.solve(M, np.ones(3))
        update = 1.0 + (z * tab.b[0] + z * z * tab.b[1]) @ Y
        assert abs(update - Y[2]) < 1e-13
        w1 = mdrk_step(scalar_op(lam), tab, np.array([1.0]), 0.0, dt)
        assert abs(w1[0] - update) < 1e-13

    def test_mdrk_step_deterministic(self):
        mesh = TriangularMesh(0)
        basis = make_basis(1)
        op = assemble(mesh, basis, problem_convection_diffusion(), eta=20.0)
        tab = builtin_mdrk6()
        w = np.random.default_rng(34).normal(size=op.n_dof)
        w1 = MdrkWorkspace(op, tab, 0.125).step(w, 0.0)
        w2 = MdrkWorkspace(op, tab, 0.125).step(w, 0.0)
        assert np.array_equal(w1, w2)


def grid_problem(problem, p, level):
    """(op, w0) of ``problem`` at degree p on the level-``level`` grid, default penalty."""
    mesh, basis, prob = TriangularMesh(level), make_basis(p), make_problem(problem)
    return assemble(mesh, basis, prob, default_eta(p)), project_l2(mesh, basis, prob.initial)


def perturb_symbol(monkeypatch, scale, diagonal=False):
    """Make every symbol one frequency block off at k = (1, 1), which the initial state and the
    convection-diffusion sources occupy: its shape-coupling blocks times ``scale``, or with
    ``diagonal`` its diagonal blocks, which the resolvents take as the same at every k."""
    symbol = StencilOperator.symbol

    def perturbed(self):
        S = symbol(self)
        nm = S.shape[-1] // 2
        for s in (0, 1):
            t = s if diagonal else 1 - s
            S[1, 1, s * nm : (s + 1) * nm, t * nm : (t + 1) * nm] *= scale
        return S

    monkeypatch.setattr(StencilOperator, "symbol", perturbed)


def record_inv_shapes(monkeypatch):
    """Record the shape of every matrix, or stack of matrices, that ``np.linalg.inv`` inverts."""
    shapes = []
    inv = np.linalg.inv

    def recording(M):
        shapes.append(np.shape(M))
        return inv(M)

    monkeypatch.setattr(np.linalg, "inv", recording)
    return shapes


class TestFrequencyMarch:
    # a grid operator's study marches in frequency space: one step map and one response per
    # source mode per dt, no solve per step (convection-diffusion starts at p = 1, as
    # interior-penalty diffusion needs)
    @pytest.mark.parametrize(
        "problem, p",
        [("convection", 0), ("convection", 1), ("convection", 3),
         ("convection_diffusion", 1), ("convection_diffusion", 3)],
    )
    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_march_matches_the_physical_stepper(self, problem, p, method):
        # levels 0-3 with dt = 0.3 / 2^level, so the last step is shortened: the marched state
        # is the physical stepper's to 1e-12 relative, above a floor of 1e-15 of the initial
        # state (at p = 0, level 1 the state decays to 3e-4 of it, and the two differ there by
        # 4e-16 of it, which is 1.3e-12 of the final state: each step's own rounding)
        tableau = as_tableau(method_registry()[method])
        for level in range(4):
            op, w0 = grid_problem(problem, p, level)
            dt = 0.3 / 2**level
            n = int(1.0 / dt)
            w = integrate(op, method_registry()[method], w0, 0.0, 1.0, dt)
            ref, ws = w0.copy(), MdrkWorkspace(op, tableau, dt)
            for i in range(n):
                ref = ws.step(ref, i * dt)
            ref = MdrkWorkspace(op, tableau, 1.0 - n * dt).step(ref, n * dt)
            assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref) + 1e-15 * np.linalg.norm(w0), level

    def test_study_makes_no_per_step_solve(self, no_physical_solves):
        op, w0 = grid_problem("convection_diffusion", 2, 2)
        stats = []
        w = integrate(op, builtin_mdrk6(), w0, 0.0, 1.0, 0.3, stats_out=stats)
        # the step map and two source modes per workspace (dt = 0.3 and the last 0.1), and
        # one symbol check
        assert len(stats) == 7 and all(s.converged and s.residual <= 1e-10 for s in stats)
        assert np.all(np.isfinite(w))

    @pytest.mark.parametrize("method", sorted(method_registry()))
    def test_step_factors_are_the_stability_function(self, method):
        # lead prod_j (z - zeta_j) / (1 - lambda_j z) is R(z), near 0 and far out in the
        # left half-plane, and each zero's factor keeps a modulus within a factor 2 of
        # 1 / |lambda_j| on the imaginary axis (the mirror pairing; 0.87-1.58 measured)
        tableau = as_tableau(method_registry()[method])
        lead, zetas = tableau.step_factors
        lam = tableau.eigen[0]
        R = rational_function_mdrk(tableau)
        z = np.array([-1e-3, -0.5 + 2j, -3.0, -40.0 - 7j, -1e4j, -1e5])
        factors = [(1 if zeta is None else z - zeta) / (1 - l * z) for l, zeta in zip(lam, zetas)]
        assert np.allclose(lead * np.prod(factors, axis=0), R(z), rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(lead * np.prod(factors, axis=0))) <= 1.0 + 1e-12
        assert sum(zeta is not None for zeta in zetas) == len(R.num) - 1
        y = 1j * np.r_[0.0, np.logspace(-3, 5, 200)]
        for l, zeta in zip(lam, zetas):
            if zeta is not None:
                modulus = np.abs(l * (y - zeta) / (1 - l * y))
                assert 0.5 <= modulus.min() and modulus.max() <= 2.0

    def test_non_finite_marched_state_is_a_blow_up(self, monkeypatch):
        # a step map that overflows the state two steps in is a BlowUpError, after its checks
        step_map = FrequencyStep._step_map

        def huge(self, S, Y=None):
            E, worst = step_map(self, S, Y)
            return 1e200 * E, worst

        monkeypatch.setattr(FrequencyStep, "_step_map", huge)
        op, w0 = grid_problem("convection", 1, 2)
        stats = []
        with pytest.raises(BlowUpError, match=r"non-finite state after the step to t = 0\.5"):
            integrate(op, builtin_two_point_schemes()[0], w0, 0.0, 1.0, 0.25, stats_out=stats)
        assert len(stats) == 2 and all(s.converged for s in stats)

    def test_non_finite_initial_state_is_a_blow_up(self):
        op, w0 = grid_problem("convection", 1, 1)
        w0[3] = np.nan
        with pytest.raises(BlowUpError, match="non-finite state entering the march"):
            integrate(op, builtin_mdrk6(), w0, 0.0, 1.0, 0.25)

    @pytest.mark.parametrize(
        "problem, p, scale",
        [("convection_diffusion", 2, 1.5)] + [("convection", p, 10.0) for p in (0, 1, 2, 5)],
    )
    def test_symbol_that_is_not_the_stencils_fails(self, problem, p, scale, monkeypatch):
        # the march takes every step through the symbol, so it is checked against the
        # stencil's own product on the initial state: the shape-coupling blocks off at one
        # frequency, k = (1, 1), which the initial sine product occupies, are a SolverFailure,
        # recorded
        perturb_symbol(monkeypatch, scale)
        op, w0 = grid_problem(problem, p, 2)
        stats = []
        with pytest.raises(SolverFailure, match="symbol against the stencil's product") as err:
            integrate(op, method_registry()["tp3"], w0, 0.0, 1.0, 0.25, stats_out=stats)
        assert err.value.stats.residual > 1e-10 and stats[-1] is err.value.stats
        assert all(s.converged for s in stats[:-1])

    def test_symbol_is_checked_on_the_source_columns(self, monkeypatch):
        # from w0 = 0 the sources alone drive the state, and the responses' residuals are
        # taken through the symbol, so the symbol's check on the source columns is what
        # refuses a symbol one block off at a frequency the sources occupy
        perturb_symbol(monkeypatch, 1.5)
        op, w0 = grid_problem("convection_diffusion", 2, 2)
        stats = []
        with pytest.raises(SolverFailure, match="symbol against the stencil's product") as err:
            integrate(op, method_registry()["tp3"], np.zeros_like(w0), 0.0, 1.0, 0.25, stats_out=stats)
        assert err.value.stats.residual > 1e-10 and stats[-1] is err.value.stats
        assert len(stats) == 4 and all(s.converged for s in stats[:-1])

    @pytest.mark.parametrize(
        "problem, p", [("convection", 0), ("convection", 5), ("convection_diffusion", 2)]
    )
    def test_diagonal_block_that_varies_with_k_fails_the_resolvents(self, problem, p, monkeypatch):
        # the resolvents invert shape 0's diagonal block once, for every frequency: a symbol
        # whose diagonal blocks are off at k = (1, 1) gets wrong resolvents there, and their
        # residual, the first check, refuses it and is recorded
        perturb_symbol(monkeypatch, 1.5, diagonal=True)
        op, w0 = grid_problem(problem, p, 2)
        stats = []
        with pytest.raises(SolverFailure, match="^step map resolvent: relative residual") as err:
            integrate(op, method_registry()["tp3"], w0, 0.0, 1.0, 0.25, stats_out=stats)
        assert err.value.stats.residual > 1e-10 and len(stats) == 1 and stats[-1] is err.value.stats

    @pytest.mark.parametrize("problem", ["convection", "convection_diffusion"])
    def test_two_colour_resolvent_is_the_full_inverse(self, problem):
        # eliminating shape 0 gives the inverse of the whole block I - lambda_j dt S(k), at
        # every frequency, for every eigenvalue of every built-in method; the two differ by
        # about eps cond(I - lambda_j dt S(k)) (up to about 3e-13 at dt = 4, CD p = 5, where
        # the block's condition number reaches 1.1e4)
        for p in range(problem == "convection_diffusion", 6):
            op, _ = grid_problem(problem, p, 2)
            nb = op.stencil.K.shape[-1]
            S = op.stencil.symbol().reshape(-1, nb, nb)
            for method in method_registry().values():
                for lam in as_tableau(method).eigen[0]:
                    c = lam * 0.25
                    expected = np.linalg.inv(np.eye(nb) - c * S)
                    got = two_colour_resolvent(S, c)
                    assert got.shape == expected.shape
                    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected), (p, lam)

    @pytest.mark.parametrize("method", ["gl6", "mdrk6", "tp6"])
    def test_step_map_inverts_only_half_size_blocks(self, method, monkeypatch):
        # at p = 5 (nb = 42) every inverse the build takes is nm x nm: shape 0's diagonal
        # block once per eigenvalue and the Schur complements, never a 42 x 42 block (the
        # source responses reuse the same resolvents)
        tableau = as_tableau(method_registry()[method])
        tableau.eigen, tableau.step_factors  # C's eigenvectors are inverted once per tableau
        op, _ = grid_problem("convection_diffusion", 5, 2)
        shapes = record_inv_shapes(monkeypatch)
        ws = FrequencyStep(op, tableau, 0.25)
        nm, F = op.basis.n_modes, op.stencil.N * (op.stencil.N // 2 + 1)
        assert nm == 21 and ws.E.shape == (F, 2 * nm, 2 * nm)
        assert shapes == [(nm, nm), (F, nm, nm)] * len(tableau.eigen[0])

    @pytest.mark.parametrize("problem, checks", [("convection", 2), ("convection_diffusion", 4)])
    def test_study_level_inverts_no_full_block(self, problem, checks, monkeypatch):
        # a whole p = 5 study level, assembly and checks included, inverts no 42 x 42 block,
        # and still records its checks: the step map's, one per source mode and the symbol's
        shapes = record_inv_shapes(monkeypatch)
        stats = []
        cfg = RunConfig(problem=problem, p=5, method="mdrk6", dt0=1.0)
        assert run_level(cfg, TriangularMesh(2), 2, stats) < 1e-2
        assert (21, 21) in {s[-2:] for s in shapes} and (42, 42) not in {s[-2:] for s in shapes}
        assert len(stats) == checks and all(s.converged and s.residual <= 1e-10 for s in stats)

    def test_nan_resolvent_is_a_recorded_solver_failure(self, monkeypatch):
        # a NaN residual misses the contract (it is not dropped as smaller than every
        # other), and the check of a workspace refused while it is built reaches stats_out
        op, w0 = grid_problem("convection", 1, 2)
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: np.full_like(M, np.nan) if M.ndim == 3 else inv(M))
        stats = []
        with pytest.raises(SolverFailure, match="^step map resolvent: relative residual nan") as err:
            integrate(op, builtin_mdrk6(), w0, 0.0, 1.0, 0.25, stats_out=stats)
        assert stats == [err.value.stats] and stats[0] is err.value.stats

    def test_nan_source_response_is_a_solver_failure(self, monkeypatch):
        # block solves that turn a source's right-hand side into NaN are refused, not taken
        # for an exact zero column; the step map's check, made first, passed
        step_map = FrequencyStep._step_map

        def nan_solves(self, S, Y=None):
            E, worst = step_map(self, S, Y)
            Y[...] = np.nan
            return E, worst

        monkeypatch.setattr(FrequencyStep, "_step_map", nan_solves)
        op, w0 = grid_problem("convection_diffusion", 1, 2)
        stats = []
        with pytest.raises(SolverFailure, match="^source response block solve: relative residual nan") as err:
            integrate(op, builtin_mdrk6(), w0, 0.0, 1.0, 0.25, stats_out=stats)
        assert stats[-1] is err.value.stats


class TestExplicitDerivatives:
    # a physical step forms only the explicit derivatives w^(m) that some weight reads:
    # tp3's a^(2) and tp5's a^(3) are zero in the explicit column, and gl6 has no explicit stage
    @pytest.mark.parametrize(
        "method, formed", [("tp3", 1), ("tp4", 2), ("tp5", 2), ("tp6", 3), ("mdrk6", 2), ("gl6", 0)]
    )
    def test_only_read_derivatives_are_formed(self, method, formed):
        op = LinearOde(
            [[-1.0, -2.0], [2.0, -1.0]],
            source=lambda t: [np.sin(t), 1.0],
            source_t=lambda t: [np.cos(t), 0.0],
            source_tt=lambda t: [-np.sin(t), 0.0],
        )
        ws = MdrkWorkspace(op, as_tableau(method_registry()[method]), 0.2)
        expected = loop_step(ws, np.array([1.0, 0.3]), 0.1, lambda t, m: op.source_vector(t, m))
        calls, at_solve = [], []
        matvec, solve = op.matrix.matvec, ws.prepared.solve
        op.matrix.matvec = lambda x: calls.append(1) or matvec(x)
        ws.prepared.solve = lambda b: at_solve.append(len(calls)) or solve(b)
        got = ws.step(np.array([1.0, 0.3]), 0.1)
        assert at_solve == [formed] and ws.n_explicit == formed
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
