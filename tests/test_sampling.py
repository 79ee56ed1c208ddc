"""Seeded generators for polygons, diffeomorphisms, tables and loops."""

import math

import numpy as np
import pytest

from centroaffine import (
    SL2Matrix,
    StarPolygon,
    area_form,
    cross_products,
    sl2_apply,
    spectral_derivative,
)
from centroaffine.curves import DELTA_DIFFEO
from centroaffine.duality import bs_product_polygon
from centroaffine.errors import DegenerateRays, InvariantViolation, NotStarShaped
from centroaffine.planar import _shifted, _sl2_stack, _star_vertices
from centroaffine.polygons import CrossProducts, _ray_points, regular_polygon
from centroaffine.sampling import (
    _hull,
    near_regular_polygon,
    random_convex_polygon_table,
    random_diffeo,
    random_ray_configuration,
    random_sl2,
    random_star_polygon,
    random_star_polygons,
    random_support_table,
    random_unit_speed_loop,
    rng_from_seed,
)

TWO_PI = 2.0 * math.pi


def test_rng_from_seed_reproducible():
    a = rng_from_seed(7).normal(size=5)
    b = rng_from_seed(7).normal(size=5)
    np.testing.assert_array_equal(a, b)


def test_random_sl2_is_unimodular(rng):
    for _ in range(20):
        m = random_sl2(rng).array
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_random_ray_configuration_valid(rng):
    for n in (3, 5, 8):
        rays = random_ray_configuration(n, rng)
        assert rays.n == n
        assert rays.angles[-1] - rays.angles[0] < math.pi


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10])
def test_random_star_polygon_valid(n, rng):
    for _ in range(10):
        poly = random_star_polygon(n, rng)
        assert isinstance(poly, StarPolygon)
        assert poly.n == n


def test_random_star_polygon_deterministic():
    a = random_star_polygon(6, rng_from_seed(3)).vertices
    b = random_star_polygon(6, rng_from_seed(3)).vertices
    np.testing.assert_array_equal(a, b)


def test_near_regular_polygon_close_to_regular(rng):
    poly = near_regular_polygon(5, rng, scale=1e-6)
    c = cross_products(poly).values
    np.testing.assert_allclose(c, 2.0 * math.cos(math.pi / 5), atol=1e-4)


def test_random_diffeo_respects_floor(rng):
    for _ in range(20):
        d = random_diffeo(rng)
        t = TWO_PI * np.arange(2048) / 2048
        assert np.min(d.angle_map(t, order=1)) >= DELTA_DIFFEO - 1e-12


def test_random_convex_polygon_table(rng):
    for _ in range(10):
        tab = random_convex_polygon_table(rng)
        assert tab.kind == "polygon"
        v = tab.vertices
        # strict convexity, counterclockwise
        e = np.roll(v, -1, axis=0) - v
        assert np.min(area_form(e, np.roll(e, -1, axis=0))) > 0.0


class _FixedCloud:
    """Stands in for a Generator whose every normal draw is the same cloud."""

    def __init__(self, cloud):
        self.cloud = np.asarray(cloud, dtype=float)

    def normal(self, size):
        return self.cloud.copy()


class TestHull:
    def test_matches_qhull_up_to_rotation(self):
        spatial = pytest.importorskip("scipy.spatial")
        for seed in range(200):
            rng = rng_from_seed(seed)
            cloud = rng.normal(size=(3 + seed % 30, 2))
            want = spatial.ConvexHull(cloud).vertices
            got = _hull(cloud)
            assert got.shape == want.shape
            start = int(np.flatnonzero(want == got[0])[0])
            np.testing.assert_array_equal(got, np.roll(want, -start))

    def test_drops_repeated_and_edge_points(self):
        square = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
        cloud = np.array(square + square + [[1.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
        got = _hull(cloud)
        np.testing.assert_array_equal(cloud[got], np.array(square))

    def test_collinear_cloud_has_two_ends(self):
        t = np.array([0.3, -1.0, 2.0, 0.5, 2.0])
        got = _hull(np.column_stack([t, 2.0 * t + 1.0]))
        assert sorted(t[got]) == [-1.0, 2.0]

    @pytest.mark.parametrize(
        "cloud",
        [
            [[0.0, 1.0], [1.0, 3.0], [-2.0, -3.0], [0.5, 2.0]],
            [[0.5, 0.5]] * 5,
        ],
        ids=["collinear", "one-point"],
    )
    def test_degenerate_cloud_is_refused(self, cloud):
        with pytest.raises(InvariantViolation):
            random_convex_polygon_table(_FixedCloud(cloud), len(cloud))

    def test_duplicates_give_a_strictly_convex_table(self):
        tri = [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]
        cloud = tri + tri + [[1.0, 1.0], [1.5, 0.0]]
        tab = random_convex_polygon_table(_FixedCloud(cloud), len(cloud))
        np.testing.assert_array_equal(tab.vertices, np.array(tri) - 1.0)


def test_random_support_table(rng):
    for _ in range(10):
        tab = random_support_table(rng)
        assert tab.kind == "smooth"
        assert np.min(tab.support.curvature_density()) > 0.0


def test_random_unit_speed_loop(rng):
    loop = random_unit_speed_loop(rng)
    d = spectral_derivative(loop, TWO_PI)
    np.testing.assert_allclose(np.hypot(d[:, 0], d[:, 1]), 1.0, atol=1e-9)


def _reference_ray_angles(n, rng):
    """The draws and arithmetic of one ray configuration, one at a time."""
    raw = rng.uniform(0.25, 1.0, size=n)
    gaps = math.pi * raw / float(np.sum(raw))
    theta0 = rng.uniform(0.0, math.pi / 8.0)
    return theta0 + np.concatenate([[0.0], np.cumsum(gaps[:-1])])


def test_random_ray_configuration_matches_the_reference():
    rng, ref_rng = rng_from_seed(5), rng_from_seed(5)
    for n in (3, 8, 21):
        reference = _reference_ray_angles(n, ref_rng)
        assert np.array_equal(random_ray_configuration(n, rng).angles, reference)


def _reference_star_polygon(n, rng):
    """One odd-n draw with the per-polygon arithmetic of the one-at-a-time generator."""
    angles = _reference_ray_angles(n, rng)
    gaps = np.sin(np.diff(np.concatenate([angles, angles[:1] + math.pi])))
    b = -np.log(gaps)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    s = np.empty(n)
    s[0] = 0.5 * float(np.sum(signs * b))
    for i in range(n - 1):
        s[i + 1] = b[i] - s[i]
    u = np.column_stack([np.cos(angles), np.sin(angles)])
    return sl2_apply(random_sl2(rng), StarPolygon(np.exp(s)[:, None] * u))


@pytest.mark.parametrize("n", [3, 5, 9, 21, 4, 6])
def test_random_star_polygons_match_one_at_a_time(n):
    count = 40
    rng = rng_from_seed(123456)
    stack = random_star_polygons(n, count, rng)
    one_rng = rng_from_seed(123456)
    one = np.stack([random_star_polygon(n, one_rng).vertices for _ in range(count)])
    assert stack.shape == (count, n, 2)
    assert np.array_equal(stack, one)
    assert rng.random() == one_rng.random()  # the same draws were taken
    if n % 2:
        ref_rng = rng_from_seed(123456)
        ref = np.stack([_reference_star_polygon(n, ref_rng).vertices for _ in range(count)])
        assert np.array_equal(stack, ref)


def test_stacked_products_match_one_at_a_time():
    stack = random_star_polygons(9, 50, rng_from_seed(1))
    products = bs_product_polygon(stack)
    assert np.array_equal(products, [bs_product_polygon(StarPolygon(v)) for v in stack])


def test_cross_products_hold_one_polygon():
    stack = random_star_polygons(5, 3, rng_from_seed(1))
    with pytest.raises(InvariantViolation, match="flat sequence"):
        CrossProducts(area_form(_shifted(stack, -1), _shifted(stack, 1)))


def _planted(row):
    stack = random_star_polygons(5, 6, rng_from_seed(2))
    stack[3] = row
    return stack


def _star_stack(stack):
    return _star_vertices(stack, 3)


# each row breaks one StarPolygon rule: a cross product off one, a sweep of 3 pi
_OFF_MANIFOLD = 1.01 * regular_polygon(5).vertices
_TURN = 0.6 * math.pi
_NON_STAR = np.column_stack([np.cos(_TURN * np.arange(5)), np.sin(_TURN * np.arange(5))])
_NON_STAR /= math.sqrt(math.sin(_TURN))


@pytest.mark.parametrize(
    "row, error",
    [(_OFF_MANIFOLD, InvariantViolation), (_NON_STAR, NotStarShaped)],
    ids=["off-manifold", "non-star"],
)
def test_planted_row_raises_what_star_polygon_raises(row, error):
    with pytest.raises(InvariantViolation) as single:
        StarPolygon(row)
    assert single.type is error
    for check in (_star_stack, bs_product_polygon):
        with pytest.raises(InvariantViolation) as stacked:
            check(_planted(row))
        assert stacked.type is error


def test_planted_non_finite_row_is_refused():
    row = regular_polygon(5).vertices.copy()
    row[2, 0] = math.inf
    with pytest.raises(InvariantViolation, match="non-finite"):
        _star_stack(_planted(row))


def test_stacked_degenerate_rays_raise():
    angles = np.tile(np.linspace(0.0, 2.0, 5), (3, 1))
    angles[1, 2] = angles[1, 1] + 1e-14
    with pytest.raises(DegenerateRays):
        _ray_points(angles)


def _sl2_rows(count, seed):
    rng = rng_from_seed(seed)
    return np.stack([random_sl2(rng).array for _ in range(count)])


def _det_off(m):
    m[0] *= 1.0 + 1e-9  # the determinant moves by about 1e-9 > EPS_DET


def _nan_entry(m):
    m[1, 1] = math.nan


def _inf_entry(m):
    m[0, 1] = math.inf


def test_sl2_stack_passes_what_sl2_matrix_passes():
    rows = _sl2_rows(50, 4)
    assert _sl2_stack(rows) is rows


@pytest.mark.parametrize(
    "plant, match",
    [(_det_off, "eps_det"), (_nan_entry, "finite"), (_inf_entry, "finite")],
    ids=["det-off", "nan", "inf"],
)
def test_planted_sl2_row_raises_what_sl2_matrix_raises(plant, match):
    rows = _sl2_rows(6, 4)
    plant(rows[3])
    with pytest.raises(InvariantViolation) as single:
        SL2Matrix.from_array(rows[3])
    with pytest.raises(InvariantViolation, match=match) as stacked:
        _sl2_stack(rows)
    assert stacked.type is single.type


def test_batched_sl2_moves_match_random_sl2_on_many_draws():
    count = 2000
    stack = random_star_polygons(3, count, rng_from_seed(8))
    ref_rng = rng_from_seed(8)
    ref = np.stack([_reference_star_polygon(3, ref_rng).vertices for _ in range(count)])
    assert np.array_equal(stack, ref)
