"""Outer billiards: the vertex/tangency step, far-field limit and timing."""

import math
import tracemalloc

import numpy as np
import pytest

from centroaffine import (
    SupportBody,
    TrigSeries,
    absolute_time,
    area_form,
    billiard_orbit,
    far_field_curve,
    far_field_error,
    far_field_flow,
    gauge_function,
    kepler_residual,
    named_table,
    outer_billiard_step,
    polygon_table,
    signed_area,
    spectral_derivative,
    support_table,
)
from centroaffine.errors import (
    InteriorPoint,
    InvariantViolation,
    UndefinedOnSingularSet,
)
from centroaffine import billiards
from centroaffine.billiards import (
    EPS_OUTSIDE,
    EPS_SINGULAR,
    _billiard_map,
    _dist_to_polygon,
    _SmoothStepper,
)
from centroaffine.sampling import (
    random_convex_polygon_table,
    random_sl2,
    random_support_table,
)

TWO_PI = 2.0 * math.pi
SQUARE = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


class TestTables:
    def test_named_tables(self):
        assert named_table("circle").kind == "smooth"
        assert named_table("square").kind == "polygon"
        tri = named_table("triangle")
        assert tri.vertices.shape == (3, 2)
        np.testing.assert_allclose(np.hypot(*tri.vertices.T), 1.0, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(InvariantViolation):
            named_table("hexagon")

    def test_polygon_table_rejects_clockwise(self):
        with pytest.raises(InvariantViolation):
            polygon_table(SQUARE[::-1])

    def test_polygon_table_rejects_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvariantViolation):
            polygon_table(pts)

    def test_support_table_wraps_body(self):
        body = SupportBody(np.ones(256))
        tab = support_table(body)
        assert tab.kind == "smooth"
        assert tab.support.area() == pytest.approx(math.pi)


class TestStep:
    def test_circle_step_oracle(self):
        # from (2, 0) the tangency sits at angle pi/3, so F doubles it
        got = outer_billiard_step(named_table("circle"), (2.0, 0.0))
        np.testing.assert_allclose(got, [-1.0, math.sqrt(3.0)], atol=1e-9)

    def test_square_step_oracle(self):
        got = outer_billiard_step(named_table("square"), (3.0, 0.0))
        np.testing.assert_allclose(got, [-1.0, 2.0], atol=1e-12)

    def test_circle_step_preserves_radius(self, rng):
        table = named_table("circle")
        for _ in range(10):
            r = rng.uniform(1.5, 6.0)
            theta = rng.uniform(0.0, TWO_PI)
            x = r * np.array([math.cos(theta), math.sin(theta)])
            y = outer_billiard_step(table, x)
            assert np.hypot(*y) == pytest.approx(r, abs=1e-9)

    def test_interior_point_rejected(self):
        with pytest.raises(InteriorPoint):
            outer_billiard_step(named_table("square"), (0.3, -0.2))
        with pytest.raises(InteriorPoint):
            outer_billiard_step(named_table("circle"), (0.5, 0.5))

    def test_singular_direction_rejected(self):
        # (1, -3) sights straight up the right edge of the square
        with pytest.raises(UndefinedOnSingularSet):
            outer_billiard_step(named_table("square"), (1.0, -3.0))

    @pytest.mark.parametrize("offset", [1e-4, -1e-4])
    def test_far_point_off_an_edge_line_is_regular(self, offset):
        # 1e-4 off the line y = 1 the sine between the sight lines to (1, 1) and
        # (-1, 1) is about 2e-13 at x = 3e4, but the point is 1e8 ulps off the line
        table = named_table("square")
        near = np.array([1e3, 1.0 + offset])
        far = np.array([3e4, 1.0 + offset])
        pivot = 0.5 * (near + outer_billiard_step(table, near))
        np.testing.assert_array_equal(0.5 * (far + outer_billiard_step(table, far)), pivot)
        with pytest.raises(UndefinedOnSingularSet):
            outer_billiard_step(table, (3e4, 1.0))

    def test_tiny_tables_scale_their_tolerances(self):
        # F commutes with scaling, and so do its inside and singular verdicts
        s = 1e-13
        tri = named_table("triangle")
        x = np.array([3.0, 0.7])
        got = outer_billiard_step(polygon_table(s * tri.vertices), s * x)
        np.testing.assert_allclose(got, s * outer_billiard_step(tri, x), rtol=0.0, atol=1e-13 * s)
        got = outer_billiard_step(support_table(np.full(1024, s)), (2.0 * s, 0.0))
        np.testing.assert_allclose(got, [-s, math.sqrt(3.0) * s], rtol=0.0, atol=1e-9 * s)
        with pytest.raises(UndefinedOnSingularSet):
            outer_billiard_step(polygon_table(s * SQUARE), (s, -3.0 * s))
        with pytest.raises(InteriorPoint):
            outer_billiard_step(polygon_table(s * SQUARE), (0.3 * s, -0.2 * s))

    def test_step_is_involutive_reflection(self, rng):
        # F(x) reflects x in the tangency point, so the midpoint lies on the table
        table = named_table("square")
        x = np.array([2.5, 0.7])
        y = outer_billiard_step(table, x)
        mid = 0.5 * (x + y)
        assert np.max(np.abs(mid)) == pytest.approx(1.0, abs=1e-12)


def _reference_polygon_step(pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(x) by the rule that compares the sines between all n x n sight lines.

    The tangency vertex is the one whose smallest sine to the other sight
    lines is largest; that sine, scaled to the distance from x to the line
    through the vertex and its neighbour, is the singular test.
    """
    scale = max(1.0, float(np.hypot(x[0], x[1])))
    d = pts - x[None, :]
    norms = np.hypot(d[:, 0], d[:, 1])
    cross = d[:, 0][:, None] * d[:, 1][None, :] - d[:, 1][:, None] * d[:, 0][None, :]
    cross = cross / (norms[:, None] * norms[None, :])
    np.fill_diagonal(cross, np.inf)
    margins = np.min(cross, axis=1)
    best = int(np.argmax(margins))
    j = int(np.argmin(cross[best]))
    gap = pts[j] - pts[best]
    dist = margins[best] * norms[best] * norms[j] / math.hypot(gap[0], gap[1])
    if dist <= 1e-12 * scale:
        raise UndefinedOnSingularSet("two table vertices are collinear with the point")
    return 2.0 * pts[best] - x


def _ellipse_48gon() -> np.ndarray:
    t = TWO_PI * (np.arange(48) + 0.5) / 48
    c, s = math.cos(0.3), math.sin(0.3)
    return np.column_stack([1.5 * np.cos(t), 0.8 * np.sin(t)]) @ np.array([[c, s], [-s, c]])


class TestPolygonTangency:
    @pytest.mark.parametrize("table_seed", ["triangle", "square", 1, 2, 3])
    def test_edge_chain_rule_matches_sight_line_matrix(self, rng, table_seed):
        if isinstance(table_seed, str):
            table = named_table(table_seed)
        else:
            table = random_convex_polygon_table(np.random.default_rng(table_seed))
        pts = table.vertices
        edges = np.roll(pts, -1, axis=0) - pts
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        checked = 0
        for _ in range(400):
            r = math.exp(rng.uniform(math.log(1.5), math.log(1e4)))
            theta = rng.uniform(0.0, TWO_PI)
            x = r * np.array([math.cos(theta), math.sin(theta)])
            side = area_form(edges, x[None, :] - pts) / lengths
            if np.min(side) >= 0.0 or np.min(np.abs(side)) <= 1e-9 * r:
                continue
            assert np.array_equal(outer_billiard_step(table, x), _reference_polygon_step(pts, x))
            checked += 1
        assert checked >= 300

    @pytest.mark.parametrize("radius", [1e4, 1e5])
    def test_point_on_an_edge_line_far_away_is_singular(self, radius):
        # behind each edge, on its line, P_k is the tangency vertex and P_k+1
        # sits on the same sight line; the point is about 1e-12 off the line
        # by rounding, far inside the threshold 1e-12 * radius
        pts = _ellipse_48gon()
        table = polygon_table(pts)
        edges = np.roll(pts, -1, axis=0) - pts
        units = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
        for start, unit in zip(pts, units):
            with pytest.raises(UndefinedOnSingularSet):
                outer_billiard_step(table, start - radius * unit)

    def test_point_far_off_an_edge_line_is_regular(self):
        # 1e-5 off the line is 100 times the threshold 1e-12 * 1e5
        pts = _ellipse_48gon()
        table = polygon_table(pts)
        edges = np.roll(pts, -1, axis=0) - pts
        units = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
        normals = np.column_stack([-units[:, 1], units[:, 0]])
        for start, unit, normal in zip(pts, units, normals):
            for offset in (1e-5, -1e-5):
                x = start - 1e5 * unit + offset * normal
                y = outer_billiard_step(table, x)
                assert np.min(np.hypot(*(0.5 * (x + y) - pts).T)) < 1e-10


def _numpy_polygon_map(table):
    """F on a polygon table by the numpy rule that the float map replaced.

    Every edge distance is computed at once, and the end of the chain of
    edges that face x is read off them with np.roll and np.nonzero.
    """
    pts = table.vertices
    edges = np.roll(pts, -1, axis=0) - pts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    size = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))

    def step(x):
        scale = max(size, float(np.hypot(x[0], x[1])))
        side = area_form(edges, x[None, :] - pts) / lengths
        if np.min(side) > -EPS_OUTSIDE * scale:
            raise InteriorPoint("inside")
        ends = np.nonzero(np.roll(side < 0.0, 1) & (side >= 0.0))[0]
        if ends.size != 1 or min(-side[ends[0] - 1], side[ends[0]]) <= EPS_SINGULAR * scale:
            raise UndefinedOnSingularSet("collinear")
        return 2.0 * pts[ends[0]] - x

    return step


def _outcome(step, x):
    """F(x), or the class of the exception F raises at x."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return step(np.asarray(x, dtype=float))
    except (InteriorPoint, UndefinedOnSingularSet) as exc:
        return type(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), (got, want)
    else:
        assert got is want


def _random_ellipse_48gon(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = TWO_PI * (np.arange(48) + rng.uniform()) / 48
    c, s = math.cos(rng.uniform(0.0, math.pi)), math.sin(rng.uniform(0.0, math.pi))
    rot = np.array([[c, s], [-s, c]])
    return np.column_stack([rng.uniform(1.0, 2.0) * np.cos(t), rng.uniform(0.3, 1.0) * np.sin(t)]) @ rot


def _oracle_table(name):
    if name in ("triangle", "square"):
        return named_table(name)
    if name == "ellipse48":
        return polygon_table(_ellipse_48gon())
    if name == "ellipse400":
        # near a 400-gon the tangency often moves further than a walk may go
        t = TWO_PI * (np.arange(400) + 0.5) / 400
        return polygon_table(np.column_stack([1.5 * np.cos(t), 0.8 * np.sin(t)]))
    if name == "thin":
        # a turn of sine 1e-6 at (1, 0): too thin for the walk, so every step runs the full rule
        return polygon_table([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-6], [1.0, 1.0]])
    kind, seed = name.split("-")
    if kind == "ellipse":
        return polygon_table(_random_ellipse_48gon(int(seed)))
    return random_convex_polygon_table(np.random.default_rng(int(seed)))


def _far_points(rng, count, low=0.5, high=1e5):
    r = np.exp(rng.uniform(math.log(low), math.log(high), count))
    theta = rng.uniform(0.0, TWO_PI, count)
    return r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])


def _edge_line_points(pts):
    """Points on the line of each edge, behind it, and 1e-5 to either side of it."""
    edges = np.roll(pts, -1, axis=0) - pts
    units = edges / np.hypot(edges[:, 0], edges[:, 1])[:, None]
    normals = np.column_stack([-units[:, 1], units[:, 0]])
    out = []
    for radius in (1e4, 1e5):
        for offset in (0.0, 1e-5, -1e-5):
            out.extend(pts - radius * units + offset * normals)
    return np.array(out)


ORACLE_TABLES = ["triangle", "square", "ellipse48", "ellipse400", "thin", "random-1",
                 "random-2", "random-3", "random-4", "ellipse-5", "ellipse-6"]


class TestFloatPolygonMap:
    """The float map against the numpy oracle: equal arrays, or the same exception class."""

    @pytest.mark.parametrize("name", ORACLE_TABLES)
    def test_random_points_match_the_numpy_rule(self, rng, name):
        table = _oracle_table(name)
        step, oracle = _billiard_map(table), _numpy_polygon_map(table)
        for x in _far_points(rng, 600):
            _assert_same_outcome(_outcome(step, x), _outcome(oracle, x))

    @pytest.mark.parametrize("name", ORACLE_TABLES)
    def test_orbits_match_the_numpy_rule(self, rng, name):
        table = _oracle_table(name)
        step, oracle = _billiard_map(table), _numpy_polygon_map(table)
        for x in _far_points(rng, 4, low=3.0):
            orbit = billiard_orbit(table, x, 500)
            for k in range(500):
                assert np.array_equal(orbit[k + 1], oracle(orbit[k]))
            for _ in range(500):
                want = oracle(x)
                assert np.array_equal(step(x), want)
                x = want

    @pytest.mark.parametrize("name", ["square", "ellipse48", "ellipse-5"])
    def test_points_on_edge_lines_match_the_numpy_rule(self, rng, name):
        table = _oracle_table(name)
        step, oracle = _billiard_map(table), _numpy_polygon_map(table)
        probes = _edge_line_points(table.vertices)
        if name == "square":
            probes = np.vstack([probes, [[1.0, -3.0], [3e4, 1.0], [3e4, 1.0 + 1e-4], [3e4, 1.0 - 1e-4]]])
        singular = 0
        for x in rng.permutation(probes):
            want = _outcome(oracle, x)
            _assert_same_outcome(_outcome(step, x), want)
            singular += want is UndefinedOnSingularSet
        assert singular >= table.vertices.shape[0]

    def test_non_finite_points_match_the_numpy_rule(self):
        table = _oracle_table("ellipse48")
        step, oracle = _billiard_map(table), _numpy_polygon_map(table)
        inf, nan = math.inf, math.nan
        for x in ([nan, 0.0], [inf, 0.0], [0.0, -inf], [inf, inf], [1e300, 1e300], [nan, nan]):
            _assert_same_outcome(_outcome(step, x), _outcome(oracle, x))

    @pytest.mark.parametrize("name", ["triangle", "ellipse48", "random-2"])
    def test_stale_or_foreign_hints_never_change_a_step(self, rng, name):
        # the walk starts where the chain ended two calls back; seed that end
        # with every vertex in turn before each probe
        table = _oracle_table(name)
        oracle = _numpy_polygon_map(table)
        pts = table.vertices
        primers = {}
        for x in _far_points(rng, 4000, low=2.0 * float(np.max(np.hypot(*pts.T)))):
            y = _outcome(oracle, x)
            if isinstance(y, np.ndarray):
                end = int(np.argmin(np.hypot(*(0.5 * (x + y) - pts).T)))
                primers.setdefault(end, x)
        assert len(primers) == pts.shape[0]
        probes = np.vstack([_far_points(rng, 25), _edge_line_points(pts)[:: max(1, pts.shape[0] // 4)]])
        step = _billiard_map(table)
        for x in probes:
            want = _outcome(oracle, x)
            for primer in primers.values():
                step(primer)
                step(primer)
                _assert_same_outcome(_outcome(step, x), want)

    @pytest.mark.parametrize("name, radius", [("triangle", 1e3), ("ellipse48", 1e3), ("random-3", 3e2)])
    def test_far_field_error_matches_the_numpy_rule(self, monkeypatch, name, radius):
        table = _oracle_table(name)
        got = far_field_error(table, radius)
        monkeypatch.setattr(billiards, "_billiard_map", _numpy_polygon_map)
        assert far_field_error(table, radius) == got


def _reference_tangency(support: SupportBody, x: np.ndarray) -> float:
    """Tangency parameter by the rule that refines every sign change of h.

    h(t) = p(t) - <u(t), x> on the grid; each bracket where h changes sign is
    bisected 48 times, and the root kept is the one where
    lambda = <u'(t), x> - p'(t) is negative.
    """
    p = TrigSeries.from_samples(support.values, TWO_PI)
    grid = support.grid
    h = support.values - np.column_stack([np.cos(grid), np.sin(grid)]) @ x
    sign = np.where(h == 0.0, 1e-300, h)
    chosen = []
    for i in np.nonzero(sign * np.roll(sign, -1) < 0.0)[0]:
        lo, hi, flo = grid[i], grid[i] + TWO_PI / grid.size, h[i]
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            fmid = p.series(mid) - (math.cos(mid) * x[0] + math.sin(mid) * x[1])
            if (flo > 0.0) == (fmid > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        if (math.cos(t) * x[1] - math.sin(t) * x[0]) - p.series(t, 1) < 0.0:
            chosen.append(t)
    assert len(chosen) == 1
    return chosen[0]


def _extended_series(values: np.ndarray, t, order: int = 0) -> np.ndarray:
    """Trig interpolant of grid samples, or a derivative, at t in extended precision.

    The coefficients are the double ones TrigSeries.from_samples makes, so
    this is the same function; the phases e^{imt} are powers of e^{it}
    taken in np.clongdouble.
    """
    coeffs = np.fft.rfft(values) / values.shape[0]
    coeffs[1:-1] *= 2.0
    m = np.arange(coeffs.shape[0]).astype(np.longdouble)
    weighted = coeffs.astype(np.clongdouble) * (1j * m) ** order
    t = np.atleast_1d(np.asarray(t, dtype=np.longdouble))
    phases = np.ones((t.shape[0], m.shape[0]), dtype=np.clongdouble)
    phases[:, 1:] = (np.cos(t) + 1j * np.sin(t))[:, None]
    return (np.cumprod(phases, axis=1) @ weighted).real


def _extended_bisection(rise, lo, hi) -> np.ndarray:
    """Roots of rise in [lo, hi], rising through zero, by bisection in np.longdouble."""
    lo = np.asarray(lo, dtype=np.longdouble)
    hi = np.asarray(hi, dtype=np.longdouble)
    assert np.all(rise(lo) <= 0.0) and np.all(rise(hi) >= 0.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        up = rise(mid) > 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


def _smooth_table(seed):
    if seed == "circle":
        return named_table("circle")
    return random_support_table(np.random.default_rng(seed))


ULP = float(np.spacing(TWO_PI))


class TestForwardTangency:
    @pytest.mark.parametrize("table_seed", ["circle", 1, 2, 3])
    def test_grid_bracket_matches_refine_both_rule(self, rng, table_seed):
        # Newton and the bisection oracle pick the same root and agree to
        # rounding; t is an angle, so ulps are counted at the period 2 pi
        table = _smooth_table(table_seed)
        support = table.support
        stepper = _SmoothStepper(support)
        inner = 1.05 * float(np.max(support.values))
        for _ in range(12):
            r = math.exp(rng.uniform(math.log(inner), math.log(1e4)))
            theta = rng.uniform(0.0, TWO_PI)
            x = r * np.array([math.cos(theta), math.sin(theta)])
            want_t = _reference_tangency(support, x)
            assert abs(stepper.tangency(x) - want_t) <= 4 * ULP
            want = 2.0 * stepper.boundary_point(want_t) - x
            assert np.max(np.abs(outer_billiard_step(table, x) - want)) <= 1e-13 * r

    @pytest.mark.parametrize("table_seed", ["circle", 1, 2, 3])
    def test_tangency_is_the_extended_precision_root(self, rng, table_seed):
        table = _smooth_table(table_seed)
        stepper = _SmoothStepper(table.support)
        values = table.support.values
        inner = 1.05 * float(np.max(values))
        for _ in range(12):
            r = math.exp(rng.uniform(math.log(inner), math.log(1e4)))
            theta = rng.uniform(0.0, TWO_PI)
            x = (r * np.array([math.cos(theta), math.sin(theta)])).astype(np.longdouble)
            t = stepper.tangency(x.astype(float))

            def rise(s):
                return _extended_series(values, s) - (np.cos(s) * x[0] + np.sin(s) * x[1])

            root = _extended_bisection(rise, t - 1e-9, t + 1e-9)[0]
            assert abs(np.longdouble(t) - root) <= 2 * ULP

    def test_rise_in_the_bracket_that_wraps(self):
        # from x the circle's forward tangency phi + acos(1 / r) lies between the last node and 2 pi
        support = named_table("circle").support
        target = TWO_PI - 0.5 * TWO_PI / support.grid_size
        phi = target - math.acos(1.0 / 5.0)
        x = 5.0 * np.array([math.cos(phi), math.sin(phi)])
        t = _SmoothStepper(support).tangency(x)
        assert support.grid[-1] < t < TWO_PI
        assert abs(t - _reference_tangency(support, x)) <= 4 * ULP

    def test_boundary_point_keeps_the_bits_of_two_series_calls(self, rng):
        stepper = _SmoothStepper(random_support_table(rng).support)
        for t in rng.uniform(0.0, TWO_PI, 20):
            p, dp = stepper.p.series(t), stepper.p.series(t, 1)
            want = np.array([p * math.cos(t) - dp * math.sin(t), p * math.sin(t) + dp * math.cos(t)])
            assert np.array_equal(stepper.boundary_point(t), want)


class TestOrbit:
    def test_orbit_shape_and_start(self):
        orbit = billiard_orbit(named_table("square"), (2.5, 0.7), 12)
        assert orbit.shape == (13, 2)
        np.testing.assert_allclose(orbit[0], [2.5, 0.7])

    def test_square_necklace_closes(self):
        orbit = billiard_orbit(named_table("square"), (2.5, 0.7), 12)
        np.testing.assert_allclose(orbit[12], orbit[0], atol=1e-12)

    def test_circle_orbit_stays_on_circle(self):
        orbit = billiard_orbit(named_table("circle"), (3.0, 0.0), 40)
        np.testing.assert_allclose(np.hypot(*orbit.T), 3.0, atol=1e-9)


class TestFarField:
    def test_square_far_field_is_diamond(self):
        far = far_field_curve(named_table("square"))
        assert far.kind == "polygon"
        diamond = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        # same cyclic set of vertices
        got = {tuple(np.round(p, 12)) for p in far.points}
        want = {tuple(p) for p in diamond}
        assert got == want

    def test_triangle_far_field_is_affine_regular_hexagon(self):
        far = far_field_curve(named_table("triangle"))
        h = far.points
        assert h.shape == (6, 2)
        for i in range(6):
            lhs = h[(i + 1) % 6]
            rhs = h[i] - h[i - 1]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_circle_far_field_is_unit_circle(self):
        far = far_field_curve(named_table("circle"))
        np.testing.assert_allclose(np.hypot(*far.points.T), 1.0, atol=1e-12)
        assert far.farfield_area == pytest.approx(math.pi, abs=1e-12)

    def test_kepler_residual_named_and_random(self, rng):
        for name in ("circle", "square", "triangle"):
            assert kepler_residual(far_field_curve(named_table(name))) < 1e-12
        for _ in range(5):
            tab = random_convex_polygon_table(rng)
            assert kepler_residual(far_field_curve(tab)) < 1e-10
        for _ in range(5):
            tab = random_support_table(rng)
            assert kepler_residual(far_field_curve(tab)) < 1e-10

    def test_smooth_far_field_dual_area(self, rng):
        tab = random_support_table(rng)
        far = far_field_curve(tab)
        # Gamma encloses the polar dual of the symmetrized table
        shoelace = signed_area(far.points)
        assert far.farfield_area == pytest.approx(shoelace, abs=5e-4)


class TestFlow:
    def test_period_is_half_farfield_area(self, rng):
        for table in (
            named_table("circle"),
            named_table("square"),
            random_convex_polygon_table(rng),
            random_support_table(rng),
        ):
            flow = far_field_flow(table)
            far = far_field_curve(table)
            assert flow.period == pytest.approx(0.5 * far.farfield_area, abs=1e-12)

    def test_times_increase_and_close(self):
        flow = far_field_flow(named_table("triangle"))
        assert np.min(np.diff(flow.times)) > 0.0
        np.testing.assert_allclose(flow.points[-1], flow.points[0], atol=1e-12)

    def test_circle_flow_period(self):
        assert far_field_flow(named_table("circle")).period == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_square_flow_period(self):
        assert far_field_flow(named_table("square")).period == pytest.approx(1.0, abs=1e-12)


class TestAbsoluteTime:
    def test_named_values(self):
        assert absolute_time(named_table("circle")).absolute_period == pytest.approx(
            math.pi / 2, abs=1e-10
        )
        sq = absolute_time(named_table("square"))
        assert sq.absolute_period == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert sq.equals_lower and sq.equals_upper
        tri = absolute_time(named_table("triangle"))
        assert tri.absolute_period == pytest.approx(1.5, abs=1e-9)
        assert tri.equals_upper  # affine-regular hexagon bound 3 sin(pi/6)

    def test_random_tables_inside_sandwich(self, rng):
        lo, hi = math.sqrt(2.0), math.pi / 2
        for _ in range(20):
            rep = absolute_time(random_convex_polygon_table(rng))
            assert lo - 1e-9 <= rep.absolute_period <= rep.upper_bound + 1e-9
            assert rep.upper_bound <= hi + 1e-12
        for _ in range(20):
            rep = absolute_time(random_support_table(rng))
            assert lo - 1e-9 <= rep.absolute_period <= hi + 1e-9

    def test_affine_invariance(self, rng):
        tab = random_convex_polygon_table(rng)
        g = random_sl2(rng, spread=0.7)
        moved = polygon_table(tab.vertices @ g.array.T)
        assert absolute_time(moved).absolute_period == pytest.approx(
            absolute_time(tab).absolute_period, abs=1e-12
        )


class TestFarFieldError:
    def test_triangle_error_decays(self):
        tri = named_table("triangle")
        e1 = far_field_error(tri, 200.0)
        e2 = far_field_error(tri, 800.0)
        assert e2.error < 0.5 * e1.error
        # squared-map orbits go clockwise around the table
        assert e1.winding == pytest.approx(-TWO_PI, abs=0.2)

    def test_needs_positive_radius(self):
        with pytest.raises(InvariantViolation):
            far_field_error(named_table("square"), -5.0)
        with pytest.raises(InvariantViolation):
            billiards._revolution_steps(named_table("square"), 0.0)

    @pytest.mark.parametrize("name, radius", [("triangle", 300.0), ("square", 1000.0), ("circle", 100.0)])
    def test_revolution_steps_match_the_run(self, name, radius):
        # the limit flow's revolution is within the budget's 64 squared steps of the run
        table = named_table(name)
        steps = far_field_error(table, radius).steps
        revolution = billiards._revolution_steps(table, radius)
        assert abs(revolution - steps) <= 128
        # and grows linearly with the radius
        assert billiards._revolution_steps(table, 10.0 * radius) == pytest.approx(10.0 * revolution, rel=1e-12)

    def test_gauge_scaling(self):
        far = far_field_curve(named_table("circle"))
        w = np.array([0.3, 0.4])
        gauge = gauge_function(far)
        assert gauge(w)[0] == pytest.approx(0.5, abs=1e-9)
        assert gauge(2 * w)[0] == pytest.approx(1.0, abs=1e-9)


def _broadcast_dist(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance to a closed polygon from one points x edges x 2 array."""
    e = np.roll(poly, -1, axis=0) - poly
    rel = points[:, None, :] - poly[None, :, :]
    t = np.clip(np.einsum("pmd,md->pm", rel, e) / np.sum(e * e, axis=1), 0.0, 1.0)
    foot = poly[None, :, :] + t[:, :, None] * e[None, :, :]
    return np.min(np.hypot(*(points[:, None, :] - foot).transpose(2, 0, 1)), axis=1)


class TestDistToPolygon:
    def test_matches_broadcast_in_bounded_memory(self, rng):
        theta = TWO_PI * np.arange(512) / 512
        poly = 40.0 * np.column_stack([np.cos(theta), 0.6 * np.sin(theta)])
        points = rng.normal(scale=50.0, size=(2048, 2))
        want = _broadcast_dist(points, poly)
        tracemalloc.start()
        try:
            got = _dist_to_polygon(points, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        # the broadcast form needs 2048 * 512 * 2 floats (16 MB) per temporary
        assert peak < 2 * 2**20


def _random_vectors(rng, count: int) -> np.ndarray:
    theta = rng.uniform(0.0, TWO_PI, count)
    return np.exp(rng.uniform(-3.0, 3.0, count))[:, None] * np.column_stack(
        [np.cos(theta), np.sin(theta)]
    )


def _extended_support_gauge(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max_t <u(t), w> / p(t) by bisection on its derivative's numerator in np.longdouble."""
    grid = TWO_PI * np.arange(values.shape[0]) / values.shape[0]
    units = np.column_stack([np.cos(grid), np.sin(grid)])
    top = grid[np.argmax((units @ w.T) / values[:, None], axis=0)]
    w = w.astype(np.longdouble)

    def along(t):
        return np.cos(t) * w[:, 0] + np.sin(t) * w[:, 1]

    def rise(t):  # -(<u', w> p - <u, w> p')
        across = np.cos(t) * w[:, 1] - np.sin(t) * w[:, 0]
        return along(t) * _extended_series(values, t, 1) - across * _extended_series(values, t)

    spacing = TWO_PI / values.shape[0]
    t = _extended_bisection(rise, top - spacing, top + spacing)
    return along(t) / _extended_series(values, t)


def _extended_farfield_gauge(far, w: np.ndarray) -> np.ndarray:
    """max_t [gamma_bar(t), w] over the symmetrized table's boundary, in np.longdouble.

    gamma_bar = P u + P' u' has derivative (P + P'') u', so the maximum is a
    root of (P + P'') [u', w], found by bisection from the grid maximum.
    """
    values = far.symmetrized.values
    grid = far.symmetrized.grid
    top = grid[np.argmax(area_form(far.symmetrized.boundary_points()[:, None, :], w), axis=0)]
    w = w.astype(np.longdouble)

    def cross(t, order):  # [u^(order)(t), w]
        t = t + 0.5 * order * np.pi
        return np.cos(t) * w[:, 1] - np.sin(t) * w[:, 0]

    def rise(t):
        curvature = _extended_series(values, t) + _extended_series(values, t, 2)
        return -curvature * cross(t, 1)

    spacing = TWO_PI / values.shape[0]
    t = _extended_bisection(rise, top - spacing, top + spacing)
    return _extended_series(values, t) * cross(t, 0) + _extended_series(values, t, 1) * cross(t, 1)


class TestExactGauges:
    def test_circle_farfield_gauge_is_the_norm(self, rng):
        w = _random_vectors(rng, 2000)
        got = gauge_function(far_field_curve(named_table("circle")))(w)
        assert np.max(np.abs(got / np.hypot(w[:, 0], w[:, 1]) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_smooth_gauges_match_extended_reference(self, rng, seed):
        table = random_support_table(np.random.default_rng(seed))
        w = _random_vectors(rng, 200)
        far = far_field_curve(table)
        want = _extended_farfield_gauge(far, w)
        assert np.max(np.abs(gauge_function(far)(w) / want - 1.0)) <= 1e-14
        want = _extended_support_gauge(table.support.values, w)
        assert np.max(np.abs(gauge_function(table)(w) / want - 1.0)) <= 1e-14

    def test_polygon_farfield_gauge_is_the_largest_vertex_value(self, rng):
        far = far_field_curve(random_convex_polygon_table(rng))
        w = _random_vectors(rng, 50)
        want = [np.max(area_form(far.symmetrized, v[None, :])) for v in w]
        assert np.array_equal(gauge_function(far)(w), want)


def _minkowski_length(far, ball):
    """Length of the far-field curve Gamma in the gauge of the unit ball `ball`.

    A polygonal Gamma sums the gauge of its edges; a smooth one integrates the
    gauge of its tangent spectrally over the period.
    """
    gauge = gauge_function(ball)
    pts = far.points
    if far.kind == "polygon":
        return float(np.sum(gauge(np.roll(pts, -1, axis=0) - pts)))
    return float(TWO_PI * np.mean(gauge(spectral_derivative(pts, TWO_PI, 1))))


class TestMinkowskiGeometry:
    def test_square_gauge_is_max_norm(self):
        gauge = gauge_function(SQUARE)
        vecs = np.array([[2.0, 0.0], [0.5, 0.25], [-3.0, 1.0], [0.2, -2.2]])
        np.testing.assert_allclose(gauge(vecs), np.max(np.abs(vecs), axis=1), atol=1e-12)

    def test_gauge_rejects_off_origin_ball(self):
        shifted = SQUARE + np.array([5.0, 0.0])
        with pytest.raises(InvariantViolation):
            gauge_function(shifted)

    @pytest.mark.parametrize("name", ["circle", "square", "triangle"])
    def test_far_field_curve_solves_isoperimetric_problem(self, name):
        # the far-field curve has Minkowski length 2 A(Gamma) in the
        # symmetrized table's gauge, the isoperimetrix equality case
        table = named_table(name)
        far = far_field_curve(table)
        ball = (
            far.symmetrized
            if far.kind == "polygon"
            else far.symmetrized.boundary_points()
        )
        length = _minkowski_length(far, ball)
        assert length == pytest.approx(2.0 * far.farfield_area, rel=1e-6)

    def test_isoperimetrix_equality_random_table(self, rng):
        tab = random_support_table(rng)
        far = far_field_curve(tab)
        length = _minkowski_length(far, far.symmetrized.boundary_points())
        assert length == pytest.approx(2.0 * far.farfield_area, rel=1e-5)
