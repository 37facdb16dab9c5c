import math

import numpy as np
import pytest

from mddg.basis import make_basis, triangle_rule, edge_rule
from mddg.mesh import build_base_mesh, refine_uniform


def monomial_integral(m, n):
    # exact integral of x^m y^n over the reference triangle
    return math.factorial(m) * math.factorial(n) / math.factorial(m + n + 2)


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

    def test_mapped_orthonormality(self):
        # scaled modes stay orthonormal under physical-element integration
        mesh = refine_uniform(build_base_mesh())
        basis = make_basis(3)
        rule = triangle_rule(2 * 3 + 2)
        _, J, detJ = mesh.jacobians()
        V = basis.eval(rule.points)
        for k in range(mesh.n_elements):
            phys_w = rule.weights * detJ[k]
            Vk = V / np.sqrt(detJ[k])
            G = Vk.T @ (Vk * phys_w[:, None])
            assert np.max(np.abs(G - np.eye(basis.n_modes))) < 1e-12
