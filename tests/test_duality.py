"""Area products of polar-dual pairs, and central symmetrization.

The duals themselves are built here, as oracles: the area products that
`bs_product_polygon` and `bs_product_curve` compute from the primal object
alone must equal the product of the two areas.
"""

import math

import numpy as np
import pytest

from centroaffine import (
    SL2Matrix,
    SampledCurve,
    StarPolygon,
    SupportBody,
    area_form,
    bs_bound_curve,
    bs_bound_polygon,
    bs_product_curve,
    bs_product_polygon,
    central_symmetrize,
    cross_products,
    curve_from_diffeo,
    energy,
    regular_polygon,
    signed_area,
    sl2_apply,
    spectral_derivative,
)
from centroaffine.errors import InvariantViolation
from centroaffine.planar import _shifted
from centroaffine.sampling import random_diffeo, random_sl2, random_star_polygon

TWO_PI = 2.0 * math.pi


def unit_circle_curve(n=256):
    t = math.pi * np.arange(n) / n
    return SampledCurve(
        np.column_stack([np.cos(t), np.sin(t)]), math.pi, wronskian_normalized=True
    )


def _dual_vertices(poly):
    """Edge-difference dual V*_i = V_{i+1} - V_i of a star polygon."""
    v = poly.vertices
    return _shifted(v, 1) - v


def _full_cycle(half):
    return np.vstack([half, -half])


def _spectral_area(points, period):
    """Signed area oint x dy of a closed front sampled over one full period."""
    deriv = spectral_derivative(points, period, 1)
    return float(np.mean(points[:, 0] * deriv[:, 1]) * period)


def _polar_dual(curve):
    """The dual front gamma' / [gamma, gamma'] on the full period 2T."""
    pts = curve.doubled()
    deriv = spectral_derivative(pts, 2.0 * curve.period, 1)
    return deriv / area_form(pts, deriv)[:, None]


class TestDualPolygon:
    def test_pairing_normalization(self, rng):
        poly = random_star_polygon(6, rng)
        dual = _dual_vertices(poly)
        np.testing.assert_allclose(area_form(poly.vertices, dual), 1.0, atol=1e-9)

    def test_primal_area_is_n(self, rng):
        for n in (3, 5, 8):
            poly = random_star_polygon(n, rng)
            assert signed_area(poly.full_cycle) == pytest.approx(n, abs=1e-9)

    def test_dual_area_complements_energy(self, rng):
        poly = random_star_polygon(7, rng)
        dual = _dual_vertices(poly)
        want = 2 * 7 - energy(cross_products(poly))
        assert signed_area(_full_cycle(dual)) == pytest.approx(want, abs=1e-9)

    def test_product_equals_area_product(self, rng):
        poly = random_star_polygon(5, rng)
        direct = signed_area(poly.full_cycle) * signed_area(_full_cycle(_dual_vertices(poly)))
        assert bs_product_polygon(poly) == pytest.approx(direct, abs=1e-8)


class TestPolygonAreaProduct:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_regular_attains_bound(self, n):
        assert bs_product_polygon(regular_polygon(n)) == pytest.approx(
            bs_bound_polygon(n), abs=1e-10
        )

    def test_random_stay_below(self, rng):
        for n in (3, 4, 5, 6):
            bound = bs_bound_polygon(n)
            for _ in range(50):
                assert bs_product_polygon(random_star_polygon(n, rng)) <= bound + 1e-10

    def test_sl2_invariance(self, rng):
        poly = random_star_polygon(6, rng)
        moved = sl2_apply(random_sl2(rng), poly)
        assert bs_product_polygon(moved) == pytest.approx(bs_product_polygon(poly), abs=1e-9)

    def test_quadruple_product_value(self):
        # 4 n^2 sin^2(pi/8) at n = 4
        assert bs_bound_polygon(4) == pytest.approx(9.372583, abs=1e-6)


class TestPolarDualCurve:
    def test_dual_area_of_ellipse(self):
        squeeze = SL2Matrix(1.6, 0.0, 0.0, 1.0 / 1.6)
        ellipse = sl2_apply(squeeze, unit_circle_curve())
        assert _spectral_area(_polar_dual(ellipse), 2.0 * ellipse.period) == pytest.approx(
            math.pi, abs=1e-9
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_product_equals_area_product(self, seed):
        curve = curve_from_diffeo(random_diffeo(np.random.default_rng(seed)))
        period = 2.0 * curve.period
        direct = _spectral_area(curve.doubled(), period) * _spectral_area(
            _polar_dual(curve), period
        )
        assert bs_product_curve(curve) == pytest.approx(direct, abs=1e-9)


class TestCurveAreaProduct:
    def test_circle_attains_pi_squared(self):
        assert bs_product_curve(unit_circle_curve()) == pytest.approx(
            bs_bound_curve(), abs=1e-10
        )

    def test_ellipse_attains_pi_squared(self, rng):
        ellipse = sl2_apply(random_sl2(rng), unit_circle_curve())
        assert bs_product_curve(ellipse) == pytest.approx(math.pi**2, abs=1e-9)

    def test_requires_normalization_flag(self):
        t = math.pi * np.arange(256) / 256
        curve = SampledCurve(np.column_stack([np.cos(t), np.sin(t)]), math.pi)
        with pytest.raises(InvariantViolation):
            bs_product_curve(curve)


class TestCentralSymmetrize:
    def test_support_body_symmetric_fixed_point(self):
        t = TWO_PI * np.arange(256) / 256
        body = SupportBody(1.0 + 0.1 * np.cos(2 * t))
        sym = central_symmetrize(body)
        np.testing.assert_allclose(sym.values, body.values, atol=1e-14)

    def test_support_body_kills_odd_harmonics(self):
        t = TWO_PI * np.arange(256) / 256
        body = SupportBody(1.0 + 0.1 * np.cos(2 * t) + 0.05 * np.cos(3 * t))
        sym = central_symmetrize(body)
        np.testing.assert_allclose(sym.values, 1.0 + 0.1 * np.cos(2 * t), atol=1e-13)

    def test_square_is_fixed(self):
        square = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
        sym = central_symmetrize(square)
        assert sym.shape == (4, 2)
        assert signed_area(sym) == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(np.sort(np.abs(sym).ravel()), 1.0, atol=1e-12)

    def test_triangle_becomes_hexagon(self):
        tri = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
        sym = central_symmetrize(tri)
        assert sym.shape[0] == 6
        # Minkowski half-sum halves no area here: A = (A(K) + A(-K))/2 + mixed
        np.testing.assert_allclose(sym, -sym[[3, 4, 5, 0, 1, 2]], atol=1e-12)

    def test_symmetrization_keeps_width(self, rng):
        # support function in any direction averages with the opposite one
        tri = np.array([[2.0, 0.1], [-0.7, 1.4], [-0.8, -1.3]])
        sym = central_symmetrize(tri)
        for theta in rng.uniform(0.0, TWO_PI, size=12):
            u = np.array([math.cos(theta), math.sin(theta)])
            w_orig = np.max(tri @ u) + np.max(tri @ -u)
            w_sym = np.max(sym @ u) + np.max(sym @ -u)
            assert w_sym == pytest.approx(w_orig, abs=1e-9)
