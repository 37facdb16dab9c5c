import math

import numpy as np
import pytest
from scipy.special import eval_jacobi

from mddg.basis import BasisSet, jacobi, make_basis, triangle_rule, edge_rule
from mddg.mesh import TriangularMesh

from conftest import grid_jacobians, run_fresh


def monomial_integral(m, n):
    # exact integral of x^m y^n over the reference triangle
    return math.factorial(m) * math.factorial(n) / math.factorial(m + n + 2)


def reference_eval_grad(p, pts):
    """Dubiner values (npts, nm) and reference gradients (npts, nm, 2) through
    ``scipy.special.eval_jacobi``: the oracle for ``BasisSet.eval`` and ``grad``."""
    a, b, omy = BasisSet._collapsed(pts)
    modes = [(m, d - m) for d in range(p + 1) for m in range(d + 1)]
    vals = np.empty((len(pts), len(modes)))
    grads = np.empty((len(pts), len(modes), 2))
    for i, (m, n) in enumerate(modes):
        norm = math.sqrt(2 * (2 * m + 1) * (m + n + 1))
        f, g = eval_jacobi(m, 0, 0, a), eval_jacobi(n, 2 * m + 1, 0, b)
        gp = 0.0 if n == 0 else (n + 2 * m + 2) / 2.0 * eval_jacobi(n - 1, 2 * m + 2, 1, b)
        fp = 0.0 if m == 0 else (m + 1) / 2.0 * eval_jacobi(m - 1, 1, 1, a)
        omy_m1 = omy ** max(m - 1, 0)
        vals[:, i] = norm * f * omy**m * g
        grads[:, i, 0] = norm * 2.0 * fp * omy_m1 * g
        grads[:, i, 1] = norm * (
            fp * (a + 1.0) * omy_m1 * g - m * omy_m1 * f * g + 2.0 * f * omy**m * gp
        )
    return vals, grads


class TestSharedData:
    def test_one_instance_per_argument(self):
        for p in range(6):
            assert make_basis(p) is make_basis(p)
        for deg in (0, 4, 12):
            assert triangle_rule(deg) is triangle_rule(deg)
            assert edge_rule(deg) is edge_rule(deg)

    @pytest.mark.parametrize("rule", [triangle_rule, edge_rule])
    def test_rule_arrays_are_read_only(self, rule):
        for array in (rule(6).points, rule(6).weights):
            with pytest.raises(ValueError):
                array.flat[0] = 0.5


class TestTriangleRule:
    def test_weights_sum_to_area(self):
        for deg in range(0, 15):
            rule = triangle_rule(deg)
            assert abs(rule.weights.sum() - 0.5) < 1e-14
            assert np.all(rule.weights > 0)

    def test_constant_exact(self):
        rule = triangle_rule(1)
        assert abs(rule.weights.sum() - 0.5) < 1e-15

    def test_degree4_x2y2(self):
        rule = triangle_rule(4)
        got = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
        assert abs(got - 1.0 / 180.0) < 1e-14

    @pytest.mark.parametrize("deg", [2, 6, 10, 14])
    def test_monomial_sweep(self, deg):
        rule = triangle_rule(deg)
        assert rule.exactness_degree >= deg
        for d in range(deg + 1):
            for m in range(d + 1):
                n = d - m
                got = np.sum(rule.weights * rule.points[:, 0] ** m * rule.points[:, 1] ** n)
                assert abs(got - monomial_integral(m, n)) < 1e-13

    def test_points_inside_triangle(self):
        rule = triangle_rule(8)
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(x > 0) and np.all(y > 0) and np.all(x + y < 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            triangle_rule(-1)


class TestEdgeRule:
    def test_weights_sum_to_one(self):
        for deg in range(0, 20):
            rule = edge_rule(deg)
            assert abs(rule.weights.sum() - 1.0) < 1e-14

    def test_three_point_quintic(self):
        rule = edge_rule(5)
        assert len(rule.weights) == 3
        got = np.sum(rule.weights * rule.points**5)
        assert abs(got - 1.0 / 6.0) < 1e-15

    def test_one_point_is_midpoint(self):
        rule = edge_rule(0)
        assert len(rule.weights) == 1
        assert abs(rule.points[0] - 0.5) < 1e-15
        assert abs(rule.weights[0] - 1.0) < 1e-15

    def test_two_point_symmetric(self):
        rule = edge_rule(3)
        assert len(rule.weights) == 2
        assert abs(rule.points.sum() - 1.0) < 1e-15

    def test_gauss_exactness(self):
        for deg in range(0, 16):
            rule = edge_rule(deg)
            for k in range(deg + 1):
                got = np.sum(rule.weights * rule.points**k)
                assert abs(got - 1.0 / (k + 1)) < 1e-14


class TestBasis:
    def test_p0_constant_mode(self):
        basis = make_basis(0)
        assert basis.n_modes == 1
        pts = np.array([[0.1, 0.2], [0.3, 0.3]])
        assert np.allclose(basis.eval(pts), np.sqrt(2.0))

    def test_mode_counts(self):
        for p in range(6):
            assert make_basis(p).n_modes == (p + 1) * (p + 2) // 2

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            make_basis(6)
        with pytest.raises(ValueError):
            make_basis(-1)

    def test_gram_identity_p2_degree4_rule(self):
        basis = make_basis(2)
        rule = triangle_rule(4)
        V = basis.eval(rule.points)
        G = V.T @ (V * rule.weights[:, None])
        assert np.max(np.abs(G - np.eye(6))) < 1e-12

    @pytest.mark.parametrize("p", [0, 1, 3, 5])
    def test_gram_identity(self, p):
        basis = make_basis(p)
        rule = triangle_rule(2 * p + 2)
        V = basis.eval(rule.points)
        G = V.T @ (V * rule.weights[:, None])
        assert np.max(np.abs(G - np.eye(basis.n_modes))) < 1e-12

    def test_constant_mode_gradient_zero(self):
        basis = make_basis(1)
        g = basis.grad(np.array([[0.25, 0.25], [0.1, 0.7]]))
        assert np.allclose(g[:, 0, :], 0.0)

    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_gradients_match_finite_differences(self, p):
        basis = make_basis(p)
        rng = np.random.default_rng(7)
        lam = rng.dirichlet([2.0, 2.0, 2.0], size=40)
        pts = np.column_stack([lam[:, 1], lam[:, 2]])
        h = 1e-6
        g = basis.grad(pts)
        fx = (basis.eval(pts + [h, 0]) - basis.eval(pts - [h, 0])) / (2 * h)
        fy = (basis.eval(pts + [0, h]) - basis.eval(pts - [0, h])) / (2 * h)
        assert np.max(np.abs(g[:, :, 0] - fx)) < 1e-6
        assert np.max(np.abs(g[:, :, 1] - fy)) < 1e-6

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_completeness_reproduces_polynomials(self, p):
        # random polynomial of total degree <= p is reproduced by its projection
        rng = np.random.default_rng(11)
        basis = make_basis(p)
        rule = triangle_rule(2 * p + 2)
        coeffs = {(m, d - m): rng.normal() for d in range(p + 1) for m in range(d + 1)}

        def poly(x, y):
            return sum(c * x**m * y**n for (m, n), c in coeffs.items())

        V = basis.eval(rule.points)
        f = poly(rule.points[:, 0], rule.points[:, 1])
        modal = V.T @ (rule.weights * f)
        probe = rng.dirichlet([1.5, 1.5, 1.5], size=30)
        pts = np.column_stack([probe[:, 1], probe[:, 2]])
        recon = basis.eval(pts) @ modal
        assert np.max(np.abs(recon - poly(pts[:, 0], pts[:, 1]))) < 1e-12

    @pytest.mark.parametrize("p", range(6))
    def test_matches_scipy_jacobi_oracle(self, p):
        rng = np.random.default_rng(5)
        lam = rng.dirichlet([1.0, 1.0, 1.0], size=200)
        corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0 - 1e-14], [0.5, 0.5]]
        pts = np.vstack([np.column_stack([lam[:, 1], lam[:, 2]]), corners])
        vals, grads = reference_eval_grad(p, pts)
        basis = make_basis(p)
        assert np.max(np.abs(basis.eval(pts) - vals)) <= 1e-13 * np.max(np.abs(vals))
        assert np.max(np.abs(basis.grad(pts) - grads)) <= 1e-13 * np.max(np.abs(grads))

    def test_jacobi_recurrence_matches_scipy(self):
        x = np.linspace(-1.0, 1.0, 401)
        for n in range(7):
            for alpha in range(13):
                for beta in (0, 1):
                    ref = eval_jacobi(n, alpha, beta, x)
                    assert np.max(np.abs(jacobi(n, alpha, beta, x) - ref)) <= 1e-14 * np.max(
                        np.abs(ref)
                    )

    def test_runtime_import_leaves_out_scipy_special(self):
        # the Jacobi recurrence replaces scipy.special, whose import costs every process
        code = "import sys, mddg.harness; print('scipy.special' in sys.modules)"
        assert run_fresh(code) == "False"

    def test_study_levels_leave_out_scipy_sparse(self):
        # every study level marches in frequency space, p = 0 included, so no level tiles a
        # CSR matrix or factors one by SuperLU, and scipy.sparse is never imported
        code = (
            "import sys\n"
            "from mddg.harness import RunConfig, run_level\n"
            "from mddg.mesh import TriangularMesh\n"
            "for problem, p in (('convection', 0), ('convection_diffusion', 1)):\n"
            "    stats = []\n"
            "    cfg = RunConfig(problem=problem, p=p, method='tp3', dt0=0.5)\n"
            "    assert run_level(cfg, TriangularMesh(3), 3, stats) < 1 and stats\n"
            "print('scipy.sparse' in sys.modules)"
        )
        assert run_fresh(code) == "False"

    def test_mapped_orthonormality(self):
        # scaled modes stay orthonormal under physical-element integration
        mesh = TriangularMesh(1)
        basis = make_basis(3)
        rule = triangle_rule(2 * 3 + 2)
        _, _, detJ = grid_jacobians(mesh)
        V = basis.eval(rule.points)
        for k in range(mesh.n_elements):
            phys_w = rule.weights * detJ[k]
            Vk = V / np.sqrt(detJ[k])
            G = Vk.T @ (Vk * phys_w[:, None])
            assert np.max(np.abs(G - np.eye(basis.n_modes))) < 1e-12
