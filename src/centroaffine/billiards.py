"""Outer billiards about a convex table and its far-field limit.

The outer billiard map F sends a point x outside a convex table to its
reflection 2P - x in the tangency point P where the table hugs the left
side of the ray from x through P.  Far from the table the square map F^2
shadows a continuous flow: orbits trace homothets of a fixed centrally
symmetric curve Gamma (the area-form polar of the symmetrized table) and
move with velocity -4 gamma_bar, so angular momentum [Gamma, -2 gamma_bar]
is a conserved quantity equal to 2, a discrete Kepler law.

One revolution of the limiting flow on the unit homothet takes
T_raw = A(Gamma) / 2 steps per unit of homothety; the affine-invariant
normalization T_abs = (1/2) sqrt(A(gamma_bar) A(Gamma)) lies between
sqrt(2) (parallelogram tables) and pi/2 (ellipse tables).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .duality import central_symmetrize
from .errors import InteriorPoint, InvariantViolation, UndefinedOnSingularSet
from .planar import (
    DEFAULT_GRID,
    TWO_PI,
    SupportBody,
    TrigSeries,
    _bracketed_newton,
    _fourier_multiply,
    area_form,
    signed_area,
)

# A point this close to the line through two table vertices, relative to the
# scale max(|x|, table size), is treated as a tangency tie.  The size is the
# table's largest distance from the origin, so both tests commute with scaling.
EPS_SINGULAR = 1e-12
# Margin for the outside-the-table test, relative to the same scale.
EPS_OUTSIDE = 1e-12
_INSIDE = "point is inside the table or on its boundary; the outer billiard map is undefined there"


@dataclass(frozen=True)
class ConvexTable:
    """Convex billiard table, either a polygon or a smooth support body."""

    kind: str
    vertices: np.ndarray | None = None
    support: SupportBody | None = None

    def __post_init__(self):
        if self.kind == "polygon":
            pts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
            if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
                raise InvariantViolation("polygon table needs at least 3 vertices")
            if not np.all(np.isfinite(pts)):
                raise InvariantViolation("polygon table has non-finite vertices")
            edges = np.roll(pts, -1, axis=0) - pts
            turn = area_form(edges, np.roll(edges, -1, axis=0))
            scale = float(np.max(np.hypot(edges[:, 0], edges[:, 1]))) ** 2
            if np.min(turn) <= 1e-12 * max(scale, 1e-30):
                raise InvariantViolation(
                    "polygon table must be strictly convex and counterclockwise"
                )
            pts.setflags(write=False)
            object.__setattr__(self, "vertices", pts)
        elif self.kind == "smooth":
            if not isinstance(self.support, SupportBody):
                raise InvariantViolation("smooth table needs a SupportBody")
        else:
            raise InvariantViolation(f"unknown table kind {self.kind!r}")


def polygon_table(vertices) -> ConvexTable:
    return ConvexTable(kind="polygon", vertices=np.asarray(vertices, dtype=float))


def support_table(support) -> ConvexTable:
    if not isinstance(support, SupportBody):
        support = SupportBody(np.asarray(support, dtype=float))
    return ConvexTable(kind="smooth", support=support)


def named_table(name: str) -> ConvexTable:
    """Builtin tables: "triangle", "square" (polygons) and "circle" (smooth)."""
    if name == "triangle":
        ang = np.array([0.5, 7.0 / 6.0, 11.0 / 6.0]) * math.pi
        return polygon_table(np.column_stack([np.cos(ang), np.sin(ang)]))
    if name == "square":
        return polygon_table([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    if name == "circle":
        return support_table(np.ones(DEFAULT_GRID))
    raise InvariantViolation(f"unknown table name {name!r}")


class _SmoothStepper:
    """Cached trigonometric series of a support body for fast tangency solves.

    With h(t) = p(t) - <u(t), x> and lambda = <u'(t), x> - p'(t), h' = -lambda,
    so the forward tangency (lambda < 0) is where h crosses from negative to
    positive.  The grid samples of h pick that one bracket, and a bracketed
    Newton on h, with h' from the same phase row, solves it to rounding.
    """

    def __init__(self, support: SupportBody):
        self.p = TrigSeries.from_samples(support.values, TWO_PI)
        self.grid = support.grid
        self.values = support.values
        self.size = float(np.max(support.values))
        self.units = np.column_stack([np.cos(self.grid), np.sin(self.grid)])

    def tangency(self, x: np.ndarray) -> float:
        """Parameter of the tangent point with the table left of the ray x -> P."""
        h = self.values - self.units @ x
        scale = max(self.size, float(np.hypot(x[0], x[1])))
        if float(np.min(h)) > -EPS_OUTSIDE * scale:
            raise InteriorPoint(_INSIDE)
        # h rises through zero from node j to node j + 1, the last node wrapping to the first
        neg, up = h < 0.0, h >= 0.0
        rises = np.flatnonzero(neg[:-1] & up[1:])
        if neg[-1] and up[0]:
            rises = np.append(rises, h.shape[0] - 1)
        if rises.size != 1:
            raise UndefinedOnSingularSet(
                f"found {rises.size} forward tangencies instead of 1; the point "
                "sits on the singular set of the map"
            )

        def rise(t, p, dp, _):
            cos, sin = np.cos(t), np.sin(t)
            return p - (cos * x[0] + sin * x[1]), dp + (sin * x[0] - cos * x[1])

        lo = self.grid[rises[:1]]
        return float(_bracketed_newton(self.p, rise, lo, lo + TWO_PI / self.values.shape[0])[0])

    def boundary_point(self, t: float) -> np.ndarray:
        phases = self.p.phases(t)
        p = self.p.combine(phases)
        dp = self.p.combine(phases, 1)
        return np.array(
            [p * math.cos(t) - dp * math.sin(t), p * math.sin(t) + dp * math.cos(t)]
        )

    def step(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.boundary_point(self.tangency(x)) - x


def _billiard_map(table: ConvexTable) -> Callable[[np.ndarray], np.ndarray]:
    """The outer billiard map F of one table, with its per-table data built once."""
    if table.kind == "smooth":
        return _SmoothStepper(table.support).step
    return _polygon_map(table.vertices)


# An accepted tangency walk needs both sides at its end this many times the
# singular threshold away from zero.
WALK_MARGIN = 1000.0
# The walk runs only on tables whose edge turns all have at least this sine.
WALK_MIN_SINE = 1e-4
# A walk gives up after this many moves, which cost less than half of the
# full rule's numpy calls on any table.
WALK_MAX_MOVES = 32


def _polygon_map(pts: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """F on a polygon table, warm-started at the vertex two calls back and walked in Python floats.

    side[i] = [e_i, x - P_i] / |e_i| is the signed distance from x to the
    line of edge i, negative exactly on the edges that face x.  Those edges
    form one chain, and F reflects x in the vertex P_i where the chain ends:
    edge i-1 faces x and edge i does not.  This is the discrete twin of
    _SmoothStepper.tangency, where h turns from negative to positive.  The
    singular set is where x lies on the line of edge i-1 or edge i.  The
    walk computes each side in floats by the same IEEE operations, in the
    same order, as the full rule's area_form(edges, x - pts) / lengths, so
    the two read the same bits.

    F^2 moves a far point little, so the chain ends near where it ended two
    calls back.  From there the walk goes forward while edge i faces x and
    back while edge i-1 does not, and accepts i if side[i-1] < -tau and
    side[i] > tau, tau = WALK_MARGIN * EPS_SINGULAR * scale.  The full rule
    below reads the same computed sides; it could answer otherwise only with
    a second index where they turn from negative to non-negative.  Exact
    sides (on the lines of the float edges) turn only at the two ends of the
    chain, so that needs a computed side of the wrong sign, within the
    rounding d <= 10 u scale of zero, on an edge other than i-1 and i.  By
    convexity such an edge leaves x within d (1 + 2 / sin(turn)) of the
    table, where every side is above -tau.  With every turn's sine at least
    WALK_MIN_SINE that is 40 times below tau, so an accepted walk returns
    what the full rule returns.  A near tie, no end within WALK_MAX_MOVES
    moves, or a thinner table runs the full rule over numpy arrays of all
    n edges; it is the only place that raises.
    """
    n = pts.shape[0]
    edges = np.roll(pts, -1, axis=0) - pts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    size = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    sines = area_form(edges, np.roll(edges, -1, axis=0)) / (lengths * np.roll(lengths, -1))
    walks = float(np.min(sines)) >= WALK_MIN_SINE
    px, py = pts.T.tolist()
    ex, ey = edges.T.tolist()
    ln = lengths.tolist()
    most = min(n, WALK_MAX_MOVES)
    ends = [0, 0]  # the chain ends of the last two calls

    def side(k: int, x0: float, x1: float) -> float:
        return (ex[k] * (x1 - py[k]) - ey[k] * (x0 - px[k])) / ln[k]

    def walk(x0: float, x1: float) -> int | None:
        i, moves = ends[0], 0
        here = side(i, x0, x1)
        while here < 0.0 and moves < most:
            i = i + 1 if i + 1 < n else 0
            here = side(i, x0, x1)
            moves += 1
        before = side(i - 1, x0, x1)
        while before >= 0.0 and moves < most:
            i = i - 1 if i else n - 1
            here, before = before, side(i - 1, x0, x1)
            moves += 1
        tau = WALK_MARGIN * EPS_SINGULAR * max(size, math.hypot(x0, x1))
        return i if before < -tau and here > tau else None

    def full_rule(x: np.ndarray) -> int:
        scale = max(size, float(np.hypot(x[0], x[1])))
        sides = area_form(edges, x[None, :] - pts) / lengths
        if np.min(sides) > -EPS_OUTSIDE * scale:
            raise InteriorPoint(_INSIDE)
        found = np.nonzero(np.roll(sides < 0.0, 1) & (sides >= 0.0))[0]
        if found.size != 1 or min(-sides[found[0] - 1], sides[found[0]]) <= EPS_SINGULAR * scale:
            raise UndefinedOnSingularSet(
                "two table vertices are collinear with the point; the tangency "
                "vertex is ambiguous"
            )
        return int(found[0])

    def step(x: np.ndarray) -> np.ndarray:
        x0, x1 = x.tolist()
        i = walk(x0, x1) if walks else None
        if i is None:
            i = full_rule(x)
        ends[0], ends[1] = ends[1], i
        return np.array((2.0 * px[i] - x0, 2.0 * py[i] - x1))

    return step


def outer_billiard_step(table: ConvexTable, x) -> np.ndarray:
    """One application of the outer billiard map F(x) = 2 P - x."""
    return _billiard_map(table)(np.asarray(x, dtype=float).reshape(2))


def billiard_orbit(table: ConvexTable, x0, steps: int) -> np.ndarray:
    """Orbit x, F(x), ..., F^steps(x) as a (steps+1, 2) array."""
    steps = int(steps)
    if steps < 0:
        raise InvariantViolation("orbit length must be nonnegative")
    out = np.empty((steps + 1, 2))
    out[0] = np.asarray(x0, dtype=float).reshape(2)
    step = _billiard_map(table)
    for k in range(steps):
        out[k + 1] = step(out[k])
    return out


@dataclass(frozen=True)
class FarFieldCurve:
    """Limit shape Gamma of far orbits of F^2, with its edge or point speeds.

    For a smooth table, points[i] = Gamma(theta_i) and speeds[i] is the flow
    velocity -2 gamma_bar(theta_i) there.  For a polygon, points holds the
    vertices of the polygonal Gamma and speeds[j] is the constant velocity
    -2 W_{j+1} along the edge from points[j] to points[j+1].
    """

    kind: str
    points: np.ndarray
    speeds: np.ndarray
    table_area: float
    farfield_area: float
    symmetrized: object


def far_field_curve(table: ConvexTable) -> FarFieldCurve:
    """Symmetrize the table and build the far-field curve Gamma."""
    if table.kind == "polygon":
        w = central_symmetrize(table.vertices)
        nxt = np.roll(w, -1, axis=0)
        denom = area_form(w, nxt)
        gamma = (nxt - w) / denom[:, None]
        speeds = -2.0 * nxt
        return FarFieldCurve(
            kind="polygon",
            points=gamma,
            speeds=speeds,
            table_area=float(signed_area(w)),
            farfield_area=float(signed_area(gamma)),
            symmetrized=w,
        )
    sym = central_symmetrize(table.support)
    p = sym.values
    tangents = np.column_stack([-np.sin(sym.grid), np.cos(sym.grid)])
    return FarFieldCurve(
        kind="smooth",
        points=tangents / p[:, None],
        speeds=-2.0 * sym.boundary_points(),
        table_area=float(sym.area()),
        farfield_area=float(0.5 * TWO_PI * np.mean(1.0 / p**2)),
        symmetrized=sym,
    )


def kepler_residual(far: FarFieldCurve) -> float:
    """Worst deviation of the angular momentum [Gamma, v] from 2."""
    if far.kind == "smooth":
        return float(np.max(np.abs(area_form(far.points, far.speeds) - 2.0)))
    nxt = np.roll(far.points, -1, axis=0)
    res_tail = np.abs(area_form(far.points, far.speeds) - 2.0)
    res_head = np.abs(area_form(nxt, far.speeds) - 2.0)
    return float(max(np.max(res_tail), np.max(res_head)))


@dataclass(frozen=True)
class FlowTrajectory:
    """One closed revolution of the far-field flow on the unit homothet."""

    times: np.ndarray
    points: np.ndarray
    period: float
    kepler_residual: float


def far_field_flow(table: ConvexTable) -> FlowTrajectory:
    """Integrate dy/dtau = -4 gamma_bar along Gamma for one revolution.

    Time is measured in F^2 steps per unit homothety, so the period equals
    A(Gamma) / 2 exactly.
    """
    far = far_field_curve(table)
    if far.kind == "polygon":
        gamma = far.points
        nxt = np.roll(gamma, -1, axis=0)
        w_next = -0.5 * far.speeds
        coef = np.hypot(*(nxt - gamma).T) / np.hypot(*w_next.T)
        times = np.concatenate([[0.0], np.cumsum(coef / 4.0)])
        points = np.vstack([gamma, gamma[:1]])
        return FlowTrajectory(
            times=times,
            points=points,
            period=float(times[-1]),
            kepler_residual=kepler_residual(far),
        )
    p = far.symmetrized.values
    rate = 1.0 / (4.0 * p**2)
    # antiderivative without the mean and Nyquist modes, shifted to vanish at the first node
    wiggle = _fourier_multiply(rate, TWO_PI, lambda k: np.r_[0.0, 1.0 / (1j * k[1:-1]), 0.0])
    tau = (wiggle - wiggle[0]) + float(np.mean(rate)) * far.symmetrized.grid
    period = float(np.mean(rate)) * TWO_PI
    times = np.concatenate([tau, [period]])
    points = np.vstack([far.points, far.points[:1]])
    return FlowTrajectory(
        times=times,
        points=points,
        period=period,
        kepler_residual=kepler_residual(far),
    )


@dataclass(frozen=True)
class AbsoluteTimeReport:
    """Affine-invariant revolution time of the far-field flow with its bounds."""

    kind: str
    table_area: float
    farfield_area: float
    raw_period: float
    absolute_period: float
    lower_bound: float
    upper_bound: float
    equals_lower: bool
    equals_upper: bool


def absolute_time(table: ConvexTable, tol: float = 1e-9) -> AbsoluteTimeReport:
    """T_abs = (1/2) sqrt(A(gamma_bar) A(Gamma)), between sqrt(2) and pi/2.

    A polygon table whose symmetrization has 2m vertices obeys the sharper
    upper bound m sin(pi/(2m)); the lower bound is attained exactly on
    parallelograms, the smooth upper bound on ellipses.
    """
    far = far_field_curve(table)
    t_abs = 0.5 * math.sqrt(far.table_area * far.farfield_area)
    lower = math.sqrt(2.0)
    if far.kind == "polygon":
        # symmetrized table has 2m vertices; the sharp bound is m sin(pi/2m)
        half = far.points.shape[0] // 2
        upper = half * math.sin(math.pi / (2.0 * half))
    else:
        upper = 0.5 * math.pi
    return AbsoluteTimeReport(
        kind=far.kind,
        table_area=far.table_area,
        farfield_area=far.farfield_area,
        raw_period=0.5 * far.farfield_area,
        absolute_period=float(t_abs),
        lower_bound=lower,
        upper_bound=float(upper),
        equals_lower=bool(abs(t_abs - lower) <= tol),
        equals_upper=bool(abs(t_abs - upper) <= tol),
    )


def _dist_to_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the boundary of a closed polygon.

    A running minimum over the edges keeps memory linear in points + vertices.
    """
    edges = np.roll(poly, -1, axis=0) - poly
    best = np.full(points.shape[0], np.inf)
    for a, e, ee in zip(poly, edges, np.sum(edges * edges, axis=1)):
        rel = points - a
        t = np.clip((rel[:, 0] * e[0] + rel[:, 1] * e[1]) / ee, 0.0, 1.0)
        foot = a + t[:, None] * e
        np.minimum(best, np.hypot(*(points - foot).T), out=best)
    return best


@dataclass(frozen=True)
class FarFieldError:
    """Largest relative gap between one F^2 revolution and its homothet of Gamma."""

    radius: float
    gauge: float
    steps: int
    winding: float
    error: float


def _far_start(far: FarFieldCurve, radius: float, direction) -> tuple[np.ndarray, float]:
    """far_field_error's start point radius * direction and its Gamma-gauge."""
    if radius <= 0.0:
        raise InvariantViolation("radius must be positive")
    if direction is None:
        direction = (math.cos(0.3), math.sin(0.3))
    d = np.asarray(direction, dtype=float).reshape(2)
    d = d / np.hypot(d[0], d[1])
    x0 = radius * d
    return x0, float(gauge_function(far)(x0)[0])


def _revolution_steps(table: ConvexTable, radius: float) -> float:
    """Map steps in one revolution of the limit flow from far_field_error's default start.

    The flow closes it in gauge * A(Gamma) / 2 squared steps, so the count
    grows linearly with the radius; far_field_error allows twice as many.
    """
    far = far_field_curve(table)
    return _far_start(far, float(radius), None)[1] * far.farfield_area


def far_field_error(table: ConvexTable, radius: float, direction=None) -> FarFieldError:
    """Run F^2 for one revolution from radius * direction and measure the gap.

    The orbit is compared against lambda_0 Gamma where lambda_0 is the
    Gamma-gauge of the start point; the maximum distance scales like 1/radius.
    The squared map circulates clockwise around the table (its limit flow is
    the time reverse of the sectorial-area parametrization), so the winding
    is accumulated with sign and the orbit stops after one full turn either
    way.
    """
    radius = float(radius)
    far = far_field_curve(table)
    x0, lam = _far_start(far, radius, direction)
    expected = lam * 0.5 * far.farfield_area
    max_steps = int(math.ceil(2.0 * expected)) + 64
    step = _billiard_map(table)
    pts = [x0]
    winding = 0.0
    angle = math.atan2(x0[1], x0[0])
    y = x0
    for _ in range(max_steps):
        y = step(step(y))
        pts.append(y)
        new_angle = math.atan2(y[1], y[0])
        delta = new_angle - angle
        if delta <= -math.pi:
            delta += TWO_PI
        elif delta > math.pi:
            delta -= TWO_PI
        winding += delta
        angle = new_angle
        if abs(winding) >= TWO_PI:
            break
    else:
        raise InvariantViolation(
            "far-field orbit did not close a revolution within the step budget"
        )
    orbit = np.asarray(pts)
    dist = _dist_to_polygon(orbit, lam * far.points)
    return FarFieldError(
        radius=radius,
        gauge=float(lam),
        steps=2 * (orbit.shape[0] - 1),
        winding=float(winding),
        error=float(np.max(dist) / radius),
    )


def gauge_function(ball):
    """Minkowski functional of a convex body containing the origin.

    Accepts a ConvexTable, a SupportBody, a polygon vertex array, or a
    FarFieldCurve for the body bounded by Gamma, and returns a callable
    mapping an (M, 2) array of vectors to their gauges, exact to rounding.
    Gamma's gauge max_t [gamma_bar(t), w] is the support function of the
    symmetrized table at (w_y, -w_x).  A support body's max_t <u, w> / p is
    where N = <u', w> p - <u, w> p' falls through zero, N' = -<u, w>(p + p''),
    with p's series chopped at its rounding floor (``TrigSeries.chopped``).
    """
    if isinstance(ball, ConvexTable):
        ball = ball.vertices if ball.kind == "polygon" else ball.support
    if isinstance(ball, FarFieldCurve) and ball.kind == "polygon":

        def gauge(vectors: np.ndarray) -> np.ndarray:
            vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
            return np.max(area_form(ball.symmetrized, vectors[:, None, :]), axis=1)

        return gauge
    if isinstance(ball, FarFieldCurve):
        support = TrigSeries.from_samples(ball.symmetrized.values, TWO_PI)

        def gauge(vectors: np.ndarray) -> np.ndarray:
            w = np.atleast_2d(np.asarray(vectors, dtype=float))
            return np.hypot(w[:, 0], w[:, 1]) * support.series(np.arctan2(-w[:, 0], w[:, 1]))

        return gauge
    if isinstance(ball, SupportBody):
        p = TrigSeries.from_samples(ball.values, TWO_PI).chopped()

        def gauge(vectors: np.ndarray) -> np.ndarray:
            w = np.atleast_2d(np.asarray(vectors, dtype=float))

            def rise(t, val, d1, d2):  # -N and -N'
                cos, sin = np.cos(t), np.sin(t)
                along = cos * w[:, 0] + sin * w[:, 1]
                across = cos * w[:, 1] - sin * w[:, 0]
                return along * d1 - across * val, along * (val + d2)

            # <u, w> > 0 on this half circle, so N falls from |w| p to -|w| p through one root
            arg = np.arctan2(w[:, 1], w[:, 0])
            t = _bracketed_newton(p, rise, arg - 0.5 * math.pi, arg + 0.5 * math.pi)
            return (np.cos(t) * w[:, 0] + np.sin(t) * w[:, 1]) / p.series(t)

        return gauge
    pts = np.asarray(ball, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise InvariantViolation("gauge ball must be a polygon or a support body")
    nxt = np.roll(pts, -1, axis=0)
    denom = area_form(pts, nxt)
    if np.min(denom) <= 0.0:
        raise InvariantViolation("gauge ball must contain the origin strictly inside")

    def gauge(vectors: np.ndarray) -> np.ndarray:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        num = area_form(vectors[:, None, :], nxt[None, :, :]) - area_form(
            vectors[:, None, :], pts[None, :, :]
        )
        return np.max(num / denom[None, :], axis=1)

    return gauge
