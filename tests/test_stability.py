import math
from fractions import Fraction as F

import numpy as np
import pytest

from mddg.stability import (
    RationalFunction,
    a_stability_scan,
    rational_function_mdrk,
    stability_function_two_point,
)
from mddg.timeint import (
    as_tableau,
    builtin_gauss_legendre6,
    builtin_mdrk6,
    builtin_two_point_schemes,
    mdrk_step,
)

TP = builtin_two_point_schemes()
MDRK6 = builtin_mdrk6()
GL6 = builtin_gauss_legendre6()


def stability_function_mdrk(tableau, z):
    """Float oracle for R(z) of a multiderivative RK tableau, by the stage solve.

    Accepts scalars or arrays of z; a singular stage matrix at a sample
    point yields NaN there.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    zf = z.ravel()
    s = tableau.stages
    M = np.broadcast_to(np.eye(s, dtype=complex), (len(zf), s, s)).copy()
    w = np.zeros((len(zf), s), dtype=complex)
    for m, (a_m, b_m) in enumerate(zip(tableau.a, tableau.b), start=1):
        zm = zf**m
        M -= zm[:, None, None] * a_m[None, :, :]
        w += zm[:, None] * b_m[None, :]
    out = np.empty(len(zf), dtype=complex)
    ok = np.abs(np.linalg.det(M)) > 0
    out[~ok] = np.nan
    if np.any(ok):
        rhs = np.ones((int(ok.sum()), s, 1))
        y = np.linalg.solve(M[ok], rhs)[..., 0]
        out[ok] = 1.0 + np.einsum("ts,ts->t", w[ok], y)
    return out.reshape(shape) if shape else complex(out[0])


class TestRationalFunction:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            RationalFunction(num=(F(1),), den=(F(2), F(1)))

    def test_limit_degree_comparison(self):
        r = RationalFunction(num=(F(1), F(1, 3)), den=(F(1), F(-2, 3), F(1, 6)))
        assert r.limit_at_minus_inf() == 0.0
        r2 = RationalFunction(num=(F(1), F(1, 2)), den=(F(1), F(-1, 2)))
        assert r2.limit_at_minus_inf() == 1.0


class TestTwoPointStabilityFunctions:
    def test_tp5_is_pade_23_exactly(self):
        r = stability_function_two_point(TP[2])
        assert r.num == (F(1), F(2, 5), F(1, 20))
        assert r.den == (F(1), F(-3, 5), F(3, 20), F(-1, 60))

    def test_tp3_rational_form(self):
        r = stability_function_two_point(TP[0])
        assert r.num == (F(1), F(1, 3))
        assert r.den == (F(1), F(-2, 3), F(1, 6))

    def test_consistency_at_origin(self):
        for s in TP:
            r = stability_function_two_point(s)
            taylor = r.taylor(1)
            assert taylor[0] == 1
            assert taylor[1] == 1

    @pytest.mark.parametrize("idx,order", [(0, 3), (1, 4), (2, 5), (3, 6)])
    def test_taylor_matches_exponential_exactly(self, idx, order):
        r = stability_function_two_point(TP[idx])
        series = r.taylor(order + 1)
        for k in range(order + 1):
            assert series[k] == F(1, math.factorial(k))
        assert series[order + 1] != F(1, math.factorial(order + 1))

    def test_step_agrees_with_rational(self, scalar_op):
        lam, dt = -1.3, 0.45
        for s in TP:
            r = stability_function_two_point(s)
            w1 = mdrk_step(scalar_op(lam), s, np.array([1.0]), 0.0, dt)
            assert abs(w1[0] - r(lam * dt).real) < 1e-13

    @pytest.mark.parametrize("scheme", TP, ids=lambda s: s.label)
    def test_tableau_rational_form_is_exact(self, scheme):
        # the coefficient form is an independent oracle for the tableau's determinant path
        assert rational_function_mdrk(scheme.tableau) == stability_function_two_point(scheme)


class TestMdrkStabilityFunctions:
    def test_value_at_origin(self):
        assert stability_function_mdrk(MDRK6, 0.0) == pytest.approx(1.0)
        assert stability_function_mdrk(GL6, 0.0) == pytest.approx(1.0)

    def test_mdrk6_sixth_order_at_small_z(self):
        assert abs(stability_function_mdrk(MDRK6, -0.1) - math.exp(-0.1)) < 1e-11

    def test_gl6_unimodular_on_imaginary_axis(self):
        ys = np.logspace(-2, 3, 40)
        vals = np.abs(stability_function_mdrk(GL6, 1j * ys))
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_rational_form_matches_pointwise(self):
        # every method through its tableau, the two-point ones with three derivatives
        zs = np.array([-0.5, 0.3, 0.3 + 0.2j, 1j, -2.0 + 1.0j, -2.0 + 1.5j])
        for method in TP + [MDRK6, GL6]:
            tab = as_tableau(method)
            r = rational_function_mdrk(tab)
            gap = np.max(np.abs(r(zs) - stability_function_mdrk(tab, zs)))
            assert gap < 1e-12, (tab.label, gap)

    def test_mdrk6_rational_is_exact(self):
        r = rational_function_mdrk(MDRK6)
        assert r.num == (F(1), F(1, 2), F(13, 120), F(1, 80), F(1, 1440))
        assert r.den == (F(1), F(-1, 2), F(13, 120), F(-1, 80), F(1, 1440))

    def test_gl6_rational_is_pade33(self):
        r = rational_function_mdrk(GL6)
        expected_num = [1.0, 0.5, 0.1, 1.0 / 120.0]
        assert len(r.num) == 4 and len(r.den) == 4
        scale = r.num[0]
        got = [float(c) / scale for c in r.num]
        assert np.allclose(got, expected_num, atol=1e-12)


class TestAStabilityScan:
    @pytest.mark.parametrize("method", TP + [MDRK6, GL6], ids=lambda m: m.label)
    def test_all_methods_a_stable(self, method):
        rep = a_stability_scan(method)
        assert rep.a_stable
        assert rep.max_abs_imag_axis <= 1.0 + 1e-12
        assert rep.max_abs_left_half <= 1.0 + 1e-12

    def test_stiff_decay_flags(self):
        # subdiagonal Pade entries decay at -infinity, diagonal ones do not
        limits = {m.label: a_stability_scan(m).limit_at_minus_inf for m in TP + [MDRK6, GL6]}
        assert limits["tp3"] == 0.0
        assert limits["tp5"] == 0.0
        assert limits["tp4"] == 1.0
        assert limits["tp6"] == 1.0
        assert abs(limits["gl6"] - 1.0) < 1e-9
        assert abs(limits["mdrk6"] - 1.0) < 1e-12

    @pytest.mark.parametrize("method", TP + [MDRK6, GL6], ids=lambda m: m.label)
    def test_poles_in_right_half_plane(self, method):
        rep = a_stability_scan(method)
        assert rep.min_pole_real_part > 0.0

    @pytest.mark.parametrize("method", TP + [MDRK6, GL6], ids=lambda m: m.label)
    def test_coupling_eigenvalues_are_reciprocal_poles(self, method):
        # eliminating the auxiliaries of I - z C leaves the stage matrix of R(z), so
        # det(I - z C) = prod(1 - z lambda_k) is R's denominator: lambda_k = 1 / pole_k.
        # Distinct eigenvalues with Re > 0 make the direct solver's block
        # decoupling exact and every block I - lambda_k dt A nonsingular.
        tab = as_tableau(method)
        lam = np.linalg.eigvals(tab.coupling)
        inv_poles = 1.0 / rational_function_mdrk(tab).poles()
        assert len(lam) == len(inv_poles)
        assert np.max(np.min(np.abs(lam[:, None] - inv_poles[None, :]), axis=1)) < 1e-10
        assert np.max(np.min(np.abs(inv_poles[:, None] - lam[None, :]), axis=1)) < 1e-10
        assert np.all(lam.real > 0)
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(len(lam))
        assert gaps.min() > 1e-2

    @pytest.mark.parametrize("method", TP + [MDRK6, GL6], ids=lambda m: m.label)
    def test_half_plane_max_consistent_with_axis(self, method):
        # maximum principle: interior samples cannot beat the boundary
        rep = a_stability_scan(method)
        assert rep.max_abs_left_half <= rep.max_abs_imag_axis + 1e-10

    def test_csv_row_format(self):
        rep = a_stability_scan(TP[3])
        row = rep.csv_row()
        fields = row.split(",")
        assert fields[0] == "tp6"
        assert fields[4] == "true"
        float(fields[1]), float(fields[2]), float(fields[3])
