"""Star polygon moduli: cross products, frieze recurrence, energy descent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centroaffine as ca
from centroaffine import (
    CrossProducts,
    RayConfiguration,
    StarPolygon,
    area_form,
    canonical_gauge,
    closure_residual,
    cross_products,
    energy,
    energy_lower_bound,
    even_fiber_residual,
    frieze_determinant,
    frieze_relation_residual,
    minimize_energy,
    normalize_rays,
    polygon_rays,
    project_to_unit_cross,
    reconstruct,
    regular_polygon,
)
from centroaffine.errors import (
    ClosureViolation,
    DegenerateRays,
    EvenN,
    InvariantViolation,
)
from centroaffine.polygons import (
    _constraint_derivative,
    _constraint_values,
    _energy_gradient,
    _least_norm_step,
)
from centroaffine.sampling import (
    random_ray_configuration,
    random_star_polygon,
    rng_from_seed,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9])
def test_regular_polygon_cross_products(n):
    c = cross_products(regular_polygon(n))
    np.testing.assert_allclose(c.values, 2.0 * math.cos(math.pi / n), atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 11])
def test_regular_polygon_attains_energy_bound(n):
    assert energy(regular_polygon(n)) == pytest.approx(energy_lower_bound(n), abs=1e-10)


def test_energy_accepts_polygon_or_cross_products():
    poly = regular_polygon(6)
    assert energy(poly) == energy(cross_products(poly))


def test_cross_products_reject_nonpositive():
    with pytest.raises(InvariantViolation):
        CrossProducts(np.array([1.0, -0.5, 1.0]))


class TestFrieze:
    def test_closure_residual_vanishes_on_real_polygons(self, rng):
        for n in (3, 4, 5, 6, 7, 8):
            poly = random_star_polygon(n, rng)
            res = closure_residual(cross_products(poly))
            assert np.max(np.abs(res)) < 1e-9

    def test_closure_residual_flags_fake_sequences(self):
        res = closure_residual(CrossProducts(np.array([1.5, 1.5, 1.5, 1.5, 1.5])))
        assert np.max(np.abs(res)) > 1e-2

    def test_determinant_equals_direct_cross_product(self, rng):
        poly = random_star_polygon(7, rng)
        c = cross_products(poly)
        ext = poly.extended(0, 14)
        for i in range(7):
            for j in range(i + 2, i + 8):
                want = area_form(ext[i], ext[j])
                assert frieze_determinant(c, i, j) == pytest.approx(want, abs=1e-10)

    def test_antiperiodicity_of_columns(self, rng):
        # F_{i, i+n} = 0 and F_{i, i+n+1} = -1 reproduce V_{i+n} = -V_i
        poly = random_star_polygon(5, rng)
        c = cross_products(poly)
        for i in range(5):
            assert frieze_determinant(c, i, i + 5) == pytest.approx(0.0, abs=1e-10)
            assert frieze_determinant(c, i, i + 6) == pytest.approx(-1.0, abs=1e-10)

    def test_relation_residual(self, rng):
        poly = random_star_polygon(6, rng)
        c = cross_products(poly)
        for i in range(6):
            for j in range(i + 2, i + 7):
                assert abs(frieze_relation_residual(c, i, j)) < 1e-12

    def test_needs_separated_indices(self):
        c = cross_products(regular_polygon(5))
        with pytest.raises(InvariantViolation):
            frieze_determinant(c, 2, 3)


class TestReconstruct:
    def test_roundtrip(self, rng):
        for n in (3, 4, 5, 8):
            src = random_star_polygon(n, rng)
            c = cross_products(src)
            rebuilt = reconstruct(c, -src.vertices[-1], src.vertices[0])
            np.testing.assert_allclose(rebuilt.vertices, src.vertices, atol=1e-9)

    def test_rejects_non_unimodular_seeds(self):
        c = cross_products(regular_polygon(4))
        with pytest.raises(InvariantViolation, match="eps_poly"):
            reconstruct(c, (2.0, 0.0), (0.0, 1.0))

    def test_rejects_non_closing_sequence(self):
        bad = CrossProducts(np.full(5, 1.9))
        with pytest.raises(ClosureViolation):
            reconstruct(bad, (0.0, -1.0), (1.0, 0.0))


def test_quadruple_fiber_closes_and_energy_bound():
    """n = 4 sequences (x, 2/x, x, 2/x) close; the energy is minimal at x = sqrt 2."""
    for x in (0.7, 1.0, math.sqrt(2.0), 2.3):
        c = CrossProducts(np.array([x, 2.0 / x, x, 2.0 / x]))
        assert np.max(np.abs(closure_residual(c))) < 1e-12
        assert energy(c) >= energy_lower_bound(4) - 1e-12
    best = CrossProducts(np.full(4, math.sqrt(2.0)))
    assert energy(best) == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-14)


class TestRays:
    def test_normalize_odd_rays(self, rng):
        for _ in range(5):
            angles = np.sort(rng.uniform(0.0, math.pi * 0.98, size=7))
            if np.min(np.diff(angles)) < 1e-3:
                continue
            poly = normalize_rays(RayConfiguration(angles))
            assert poly.n == 7

    def test_three_equal_rays(self):
        poly = normalize_rays(RayConfiguration(np.array([0.0, math.pi / 3, 2 * math.pi / 3])))
        c = cross_products(poly).values
        np.testing.assert_allclose(c, 1.0, atol=1e-12)

    def test_even_count_rejected(self):
        rays = RayConfiguration(math.pi / 4 * np.arange(4))
        with pytest.raises(EvenN):
            normalize_rays(rays)

    def test_degenerate_rays(self):
        angles = np.array([0.0, 1e-14, 1.0, 1.5, 2.0])
        with pytest.raises((DegenerateRays, InvariantViolation)):
            normalize_rays(RayConfiguration(angles))

    def test_even_fiber_residual_vanishes_iff_normalizable(self, rng):
        poly = random_star_polygon(6, rng)
        rays = polygon_rays(poly)
        assert abs(even_fiber_residual(rays)) < 1e-9
        skew = RayConfiguration(np.array([0.0, 0.3, 0.9, 1.1, 1.8, 2.7]))
        assert abs(even_fiber_residual(skew)) > 1e-3

    def test_polygon_rays_roundtrip(self, rng):
        poly = random_star_polygon(5, rng)
        again = normalize_rays(polygon_rays(poly))
        np.testing.assert_allclose(again.vertices, poly.vertices, atol=1e-9)

    def test_ray_configuration_validation(self):
        with pytest.raises(InvariantViolation):
            RayConfiguration(np.array([0.0, 0.5, 0.4]))
        with pytest.raises(InvariantViolation):
            RayConfiguration(np.array([0.0, 1.0, 3.5]))


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_normalized_rays_have_unit_crosses(seed):
    rng = rng_from_seed(seed)
    n = int(rng.integers(2, 6)) * 2 + 1
    angles = np.cumsum(rng.uniform(0.1, 1.0, size=n))
    angles = angles[0] + (angles - angles[0]) * (math.pi * 0.97 / (angles[-1] - angles[0] + 0.4))
    poly = normalize_rays(RayConfiguration(angles))
    nxt = np.vstack([poly.vertices[1:], -poly.vertices[:1]])
    np.testing.assert_allclose(area_form(poly.vertices, nxt), 1.0, atol=1e-9)


def test_project_to_unit_cross(rng):
    base = regular_polygon(6).vertices
    noisy = base + rng.normal(scale=0.02, size=base.shape)
    fixed = project_to_unit_cross(noisy)
    poly = StarPolygon(fixed)
    assert np.max(np.abs(fixed - noisy)) < 0.05
    assert poly.n == 6


def test_canonical_gauge_pins_frame(rng):
    poly = random_star_polygon(5, rng)
    fixed = canonical_gauge(poly)
    np.testing.assert_allclose(fixed.vertices[0], [1.0, 0.0], atol=1e-10)
    np.testing.assert_allclose(fixed.vertices[-1], [0.0, 1.0], atol=1e-10)
    # gauge fixing keeps the cross products
    np.testing.assert_allclose(
        cross_products(fixed).values, cross_products(poly).values, atol=1e-9
    )


@pytest.mark.parametrize("n", [7, 8])
def test_energy_gradient_matches_central_differences(n, rng):
    def energy_of(v):
        ext = np.vstack([-v[-1:], v, -v[:1]])
        return float(np.sum(area_form(ext[:-2], ext[2:])))

    v = random_star_polygon(n, rng).vertices.copy()
    h = 1e-5
    numeric = np.empty_like(v)
    for idx in np.ndindex(v.shape):
        up, down = v.copy(), v.copy()
        up[idx] += h
        down[idx] -= h
        numeric[idx] = (energy_of(up) - energy_of(down)) / (2.0 * h)
    np.testing.assert_allclose(_energy_gradient(v), numeric, atol=1e-7)


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_constraint_algebra_matches_central_differences(n, rng):
    v = random_star_polygon(n, rng).vertices
    h = 1e-5
    jac = np.empty((n, 2 * n))
    for k in range(2 * n):
        e = np.zeros(2 * n)
        e[k] = h
        e = e.reshape(n, 2)
        jac[:, k] = (_constraint_values(v + e) - _constraint_values(v - e)) / (2.0 * h)
    w = rng.normal(size=v.shape)
    r = rng.normal(size=n)
    np.testing.assert_allclose(_constraint_derivative(v, w), jac @ w.ravel(), atol=1e-8)
    expected = jac.T @ np.linalg.solve(jac @ jac.T, r)
    np.testing.assert_allclose(_least_norm_step(v, r).ravel(), expected, atol=1e-8)


class TestMinimizeEnergy:
    @pytest.mark.parametrize("n", [3, 5, 6, 8])
    def test_reaches_bound(self, n, rng):
        res = minimize_energy(n, random_star_polygon(n, rng, transform=False))
        assert res.converged
        assert res.value == pytest.approx(energy_lower_bound(n), abs=1e-8)
        c = cross_products(res.polygon).values
        np.testing.assert_allclose(c, 2.0 * math.cos(math.pi / n), atol=1e-5)

    def test_accepts_ray_configuration(self):
        rays = RayConfiguration(np.array([0.0, 0.5, 1.1, 1.9, 2.6]))
        res = minimize_energy(5, rays)
        assert res.converged
        assert res.value == pytest.approx(energy_lower_bound(5), abs=1e-8)
        rays = RayConfiguration(np.array([0.0, 0.4, 1.1, 1.5, 2.2, 2.7]))
        res = minimize_energy(6, rays)
        assert res.converged
        assert res.value == pytest.approx(energy_lower_bound(6), abs=1e-8)

    def test_odd_rays_above_acceptance_range(self, rng):
        res = minimize_energy(21, random_ray_configuration(21, rng))
        assert res.converged
        assert res.value == pytest.approx(energy_lower_bound(21), abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_converges_from_random_rays_at_n81(self, seed):
        res = minimize_energy(81, random_ray_configuration(81, rng_from_seed(seed)))
        assert res.converged
        assert res.value == pytest.approx(energy_lower_bound(81), abs=1e-8)

    def test_size_mismatch(self, rng):
        with pytest.raises(InvariantViolation):
            minimize_energy(6, random_star_polygon(5, rng))

    def test_result_in_canonical_gauge(self, rng):
        res = minimize_energy(5, random_star_polygon(5, rng))
        np.testing.assert_allclose(res.polygon.vertices[0], [1.0, 0.0], atol=1e-8)
