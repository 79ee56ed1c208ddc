"""Core plane geometry: area form, spectral calculus, validated containers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroaffine import (
    SL2Matrix,
    SampledCurve,
    StarPolygon,
    SupportBody,
    TrigSeries,
    area_form,
    circular_shift,
    regular_polygon,
    signed_area,
    sl2_apply,
    spectral_derivative,
)
from centroaffine.errors import InvariantViolation, NotStarShaped
from centroaffine.planar import EPS_DET, resample_by_density

TWO_PI = 2.0 * math.pi

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vectors = st.tuples(coords, coords)


@given(u=vectors, v=vectors)
def test_area_form_antisymmetric(u, v):
    assert area_form(u, v) == -area_form(v, u)


@given(u=vectors, v=vectors, w=vectors, a=coords)
def test_area_form_bilinear(u, v, w, a):
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
    lhs = area_form(u, a * v + w)
    rhs = a * area_form(u, v) + area_form(u, w)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_area_form_broadcasts():
    u = np.array([[1.0, 0.0], [0.0, 2.0]])
    v = np.array([0.0, 3.0])
    np.testing.assert_allclose(area_form(u, v), [3.0, 0.0])


def test_signed_area_unit_square():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert signed_area(square) == pytest.approx(1.0)
    assert signed_area(square[::-1]) == pytest.approx(-1.0)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_spectral_derivative_matches_analytic(order):
    n = 64
    t = TWO_PI * np.arange(n) / n
    samples = np.sin(3 * t) + 0.25 * np.cos(5 * t)
    # d/dt sin(kt) cycles with period 4 in the order
    k3 = 3.0**order
    k5 = 5.0**order
    phase = order % 4
    ref3 = [np.sin(3 * t), np.cos(3 * t), -np.sin(3 * t), -np.cos(3 * t)][phase]
    ref5 = [np.cos(5 * t), -np.sin(5 * t), -np.cos(5 * t), np.sin(5 * t)][phase]
    expected = k3 * ref3 + 0.25 * k5 * ref5
    np.testing.assert_allclose(spectral_derivative(samples, TWO_PI, order), expected, atol=1e-10)


def test_spectral_derivative_period_scaling():
    n = 32
    period = 3.0
    t = period * np.arange(n) / n
    samples = np.cos(TWO_PI * t / period)
    d = spectral_derivative(samples, period)
    np.testing.assert_allclose(d, -(TWO_PI / period) * np.sin(TWO_PI * t / period), atol=1e-12)


def test_circular_shift_is_exact_on_band_limited_data():
    n = 128
    t = TWO_PI * np.arange(n) / n
    samples = np.column_stack([np.cos(2 * t), np.sin(7 * t)])
    delta = 0.4321
    shifted = circular_shift(samples, TWO_PI, delta)
    np.testing.assert_allclose(
        shifted,
        np.column_stack([np.cos(2 * (t + delta)), np.sin(7 * (t + delta))]),
        atol=1e-12,
    )


def test_trig_interp_hits_grid_points():
    n = 64
    t = TWO_PI * np.arange(n) / n
    samples = np.exp(np.cos(t))
    interp = TrigSeries.from_samples(samples, TWO_PI)
    np.testing.assert_allclose(interp.series(t), samples, atol=1e-11)


def test_trig_interp_between_grid_points():
    n = 256
    t = TWO_PI * np.arange(n) / n
    samples = np.exp(np.cos(t))
    query = np.array([0.1, 1.7, 5.5])
    interp = TrigSeries.from_samples(samples, TWO_PI)
    np.testing.assert_allclose(interp.series(query), np.exp(np.cos(query)), atol=1e-10)


def _band_limited(n, period, top, width=1, seed=0):
    """Random samples of a real trig polynomial with orders below ``top``, plus the grid."""
    rng = np.random.default_rng(seed)
    t = period * np.arange(n) / n
    m = np.arange(top)
    phases = np.multiply.outer(t, m) * (TWO_PI / period)
    a = rng.normal(size=(top, width))
    b = rng.normal(size=(top, width))
    samples = np.cos(phases) @ a + np.sin(phases) @ b
    return t, samples[:, 0] if width == 1 else samples


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_trig_series_matches_spectral_derivative_on_grid(order):
    period = 3.0
    t, samples = _band_limited(64, period, top=20)
    series = TrigSeries.from_samples(samples, period)
    expected = samples if order == 0 else spectral_derivative(samples, period, order)
    np.testing.assert_allclose(series.series(t, order), expected, atol=1e-10 * 20.0**order)


def test_trig_series_antiderivative_differentiates_back():
    period = 2.5
    n = 32
    t, samples = _band_limited(n, period, top=n // 2 + 1, seed=1)
    series = TrigSeries.from_samples(samples, period)
    # the data carries a mean and a Nyquist mode; the antiderivative drops both
    assert abs(series.coeffs[0]) > 1e-3 and abs(series.coeffs[-1]) > 1e-3
    oscillating = TrigSeries(series.orders[1:-1], series.coeffs[1:-1], period)
    query = np.random.default_rng(2).uniform(-period, 2.0 * period, size=40)
    anti = series.antiderivative()
    np.testing.assert_allclose(anti.series(query, 1), oscillating.series(query), atol=1e-12)
    # and it is the antiderivative: cos(3 w t) integrates to sin(3 w t) / (3 w)
    w = TWO_PI / period
    grid = period * np.arange(n) / n
    cosine = TrigSeries.from_samples(1.0 + np.cos(3.0 * w * grid), period).antiderivative()
    expected = np.sin(3.0 * w * query) / (3.0 * w)
    np.testing.assert_allclose(cosine.series(query), expected, atol=1e-14)


def test_trig_series_vector_coefficients():
    period = TWO_PI
    t, samples = _band_limited(64, period, top=12, width=2, seed=3)
    series = TrigSeries.from_samples(samples, period)
    assert series.coeffs.shape == (33, 2)
    query = np.linspace(-1.0, 7.0, 25)
    for order in (0, 1, 2):
        both = series.series(query, order)
        assert both.shape == (25, 2)
        for col in range(2):
            alone = TrigSeries.from_samples(samples[:, col], period).series(query, order)
            np.testing.assert_allclose(both[:, col], alone, atol=1e-12)
    second = TrigSeries.from_samples(samples[:, 1], period).antiderivative()
    np.testing.assert_allclose(
        series.antiderivative().series(query)[:, 1], second.series(query), atol=1e-12
    )


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_trig_series_sparse_orders_match_direct_sum(order):
    period = 4.0
    w = TWO_PI / period
    orders = [2, 5, 11]
    coeffs = [0.3 - 0.1j, -0.05 + 0.2j, 0.01 + 0.0j]
    query = np.random.default_rng(4).uniform(0.0, period, size=30)
    direct = sum(
        (c * (1j * m * w) ** order * np.exp(1j * m * w * query)).real
        for m, c in zip(orders, coeffs)
    )
    series = TrigSeries(orders, coeffs, period)
    np.testing.assert_allclose(series.series(query, order), direct, atol=1e-12 * 11.0**order)


def test_resample_by_density_equidistributes():
    """The returned parameters split the density integral into equal slabs."""
    n = 512
    t = TWO_PI * np.arange(n) / n
    density = 1.0 + 0.5 * np.cos(t)
    theta = resample_by_density(density, TWO_PI, 64)
    # cumulative integral of the density at theta should be linear
    cum = theta + 0.5 * np.sin(theta)
    total = TWO_PI
    np.testing.assert_allclose(np.diff(cum), total / 64, atol=1e-10)
    assert theta[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_resample_by_density_rejects_a_non_finite_density(bad):
    density = 1.0 + 0.5 * np.cos(TWO_PI * np.arange(64) / 64)
    density[7] = bad
    with pytest.raises(InvariantViolation, match="non-finite"):
        resample_by_density(density, TWO_PI, 64)


@pytest.mark.parametrize("n_out", [0, -3])
def test_resample_by_density_rejects_an_empty_output(n_out):
    with pytest.raises(InvariantViolation, match="n_out"):
        resample_by_density(np.ones(64), TWO_PI, n_out)


class TestSL2Matrix:
    def test_identity(self):
        m = SL2Matrix.identity()
        np.testing.assert_array_equal(m.array, np.eye(2))

    def test_rejects_non_unit_determinant(self):
        with pytest.raises(InvariantViolation, match="eps_det"):
            SL2Matrix(2.0, 0.0, 0.0, 1.0)

    def test_determinant_tolerance(self):
        SL2Matrix(1.0 + 0.5 * EPS_DET, 0.0, 0.0, 1.0)

    def test_from_array_roundtrip(self):
        arr = np.array([[2.0, 0.3], [1.0, 0.65]])
        arr[1, 1] = (1.0 + arr[0, 1] * arr[1, 0]) / arr[0, 0]
        m = SL2Matrix.from_array(arr)
        np.testing.assert_allclose(m.array, arr)


class TestStarPolygon:
    def test_regular_polygon_is_valid(self):
        poly = regular_polygon(7)
        assert poly.n == 7
        crosses = area_form(poly.vertices, np.roll(poly.vertices, -1, axis=0))
        # last entry pairs V_{n-1} with V_0 = -V_n
        np.testing.assert_allclose(crosses[:-1], 1.0, atol=1e-12)

    def test_rejects_bad_cross_products(self):
        poly = regular_polygon(5)
        with pytest.raises(InvariantViolation, match="eps_poly"):
            StarPolygon(1.1 * poly.vertices)

    def test_rejects_extra_winding(self):
        # 3pi/5 spacing keeps unit crosses but sweeps 3 pi in total
        angles = 3 * np.pi / 5 * np.arange(5)
        radius = (1.0 / np.sin(3 * np.pi / 5)) ** 0.5
        verts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
        with pytest.raises(NotStarShaped):
            StarPolygon(verts)

    def test_full_cycle_antipodal(self):
        poly = regular_polygon(4)
        cycle = poly.full_cycle
        assert cycle.shape == (8, 2)
        np.testing.assert_allclose(cycle[4:], -cycle[:4], atol=1e-15)

    def test_extended_indexing(self):
        poly = regular_polygon(5)
        ext = poly.extended(-2, 7)
        np.testing.assert_allclose(ext[2], poly.vertices[0])
        np.testing.assert_allclose(ext[0], -poly.vertices[3], atol=1e-15)
        np.testing.assert_allclose(ext[7 + 2], -poly.vertices[2], atol=1e-15)


class TestSampledCurve:
    def _circle(self, n=64):
        t = np.pi * np.arange(n) / n
        return SampledCurve(np.column_stack([np.cos(t), np.sin(t)]), np.pi)

    def test_grid(self):
        c = self._circle()
        assert c.grid_size == 64
        assert c.grid[1] == pytest.approx(np.pi / 64)

    def test_doubled_closes_antipodally(self):
        c = self._circle()
        full = c.doubled()
        np.testing.assert_allclose(full[64:], -full[:64], atol=1e-15)

    def test_derivative_and_shift(self):
        c = self._circle(128)
        d = c.derivative()
        t = c.grid
        np.testing.assert_allclose(d[:, 0], -np.sin(t), atol=1e-10)
        s = c.shifted(0.3)
        np.testing.assert_allclose(s[:, 1], np.sin(t + 0.3), atol=1e-10)

    def test_rejects_odd_grid(self):
        t = np.pi * np.arange(63) / 63
        with pytest.raises(InvariantViolation, match="power of two"):
            SampledCurve(np.column_stack([np.cos(t), np.sin(t)]), np.pi)


class TestSupportBody:
    def test_unit_disk_area(self):
        body = SupportBody(np.ones(256))
        assert body.area() == pytest.approx(np.pi, abs=1e-12)

    def test_area_matches_boundary_shoelace(self):
        # the inscribed polygon undershoots by O(h^2); the spectral area is exact
        t = TWO_PI * np.arange(512) / 512
        body = SupportBody(1.0 + 0.1 * np.cos(3 * t))
        coarse = signed_area(body.boundary_points())
        assert body.area() == pytest.approx(coarse, abs=5e-4)
        assert body.area() >= coarse

    def test_rejects_nonconvex(self):
        t = TWO_PI * np.arange(256) / 256
        with pytest.raises(InvariantViolation):
            SupportBody(1.0 + 0.9 * np.cos(4 * t))

    def test_curvature_density_positive(self):
        t = TWO_PI * np.arange(256) / 256
        body = SupportBody(1.0 + 0.02 * np.cos(5 * t))
        assert np.min(body.curvature_density()) > 0.0


@settings(max_examples=25)
@given(angle=st.floats(min_value=0.0, max_value=TWO_PI))
def test_sl2_rotation_preserves_polygon(angle):
    rot = SL2Matrix(math.cos(angle), -math.sin(angle), math.sin(angle), math.cos(angle))
    poly = regular_polygon(5)
    moved = sl2_apply(rot, poly)
    assert isinstance(moved, StarPolygon)
    # rotation by angle permutes nothing but keeps all cross products
    crosses = area_form(moved.vertices, np.roll(moved.vertices, -1, axis=0))
    np.testing.assert_allclose(crosses[:-1], 1.0, atol=1e-9)


def test_sl2_apply_on_raw_points_preserves_area():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    shear = SL2Matrix(1.0, 0.7, 0.0, 1.0)
    moved = sl2_apply(shear, square)
    assert signed_area(moved) == pytest.approx(1.0, abs=1e-14)
