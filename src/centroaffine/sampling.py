"""Seeded random generators for polygons, diffeomorphisms and tables.

All generators take an explicit numpy Generator so that experiments are
reproducible; the package standard is numpy's default PCG64 stream created
by :func:`rng_from_seed`.  Amplitude budgets are chosen so that every draw
satisfies the invariants of the object it builds (no rejection needed),
except where noted.
"""

from __future__ import annotations

import math

import numpy as np

from .billiards import ConvexTable, polygon_table, support_table
from .curves import DELTA_DIFFEO, DiffeoCurve
from .errors import InvariantViolation, NotStarShaped
from .planar import (
    DEFAULT_GRID,
    TWO_PI,
    SL2Matrix,
    StarPolygon,
    sl2_apply,
    spectral_derivative,
    TrigSeries,
    _resample_with_phases,
)
from .polygons import (
    RayConfiguration,
    normalize_rays,
    project_to_unit_cross,
    regular_polygon,
)


def rng_from_seed(seed) -> np.random.Generator:
    """The package-standard PCG64 stream for a given seed."""
    return np.random.default_rng(seed)


def random_sl2(rng: np.random.Generator, spread: float = 0.3) -> SL2Matrix:
    """Random unimodular matrix: rotation times a random squeeze and shear."""
    phi = rng.uniform(0.0, TWO_PI)
    a = math.exp(spread * rng.normal())
    s = spread * rng.normal()
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    squeeze = np.array([[a, s], [0.0, 1.0 / a]])
    return SL2Matrix.from_array(rot @ squeeze)


def random_ray_configuration(n: int, rng: np.random.Generator) -> RayConfiguration:
    """n rays with angular gaps bounded away from 0 and pi."""
    if n < 3:
        raise InvariantViolation("need at least 3 rays")
    raw = rng.uniform(0.25, 1.0, size=n)
    gaps = math.pi * raw / float(np.sum(raw))
    theta0 = rng.uniform(0.0, math.pi / 8.0)
    angles = theta0 + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return RayConfiguration(angles)


def random_star_polygon(
    n: int, rng: np.random.Generator, spread: float = 0.15, transform: bool = True
) -> StarPolygon:
    """Random polygon with unit cross products, optionally moved by random SL(2).

    Odd n normalizes a random ray configuration exactly; even n perturbs the
    regular polygon and projects back onto the unit-cross manifold, shrinking
    the perturbation on the rare retry.
    """
    if n % 2 == 1:
        poly = normalize_rays(random_ray_configuration(n, rng))
    else:
        poly = None
        scale = spread
        for _ in range(12):
            base = regular_polygon(n).vertices
            cand = base + scale * rng.normal(size=base.shape)
            try:
                poly = StarPolygon(project_to_unit_cross(cand))
                break
            except (NotStarShaped, InvariantViolation):
                scale *= 0.5
        if poly is None:
            raise InvariantViolation("could not draw a star polygon; spread too large")
    if transform:
        poly = sl2_apply(random_sl2(rng), poly)
    return poly


def near_regular_polygon(
    n: int, rng: np.random.Generator, scale: float = 1e-5
) -> StarPolygon:
    """Tiny perturbation of the regular polygon, back on the unit-cross manifold."""
    base = regular_polygon(n).vertices
    cand = base + scale * rng.normal(size=base.shape)
    return StarPolygon(project_to_unit_cross(cand))


def random_diffeo(
    rng: np.random.Generator,
    max_order: int = 8,
    strength: float = 0.85,
    grid: int = DEFAULT_GRID,
) -> DiffeoCurve:
    """Random even-harmonic circle diffeomorphism with a safe slope margin.

    Coefficients are rescaled so that max |g'| <= strength * (1 - delta),
    which keeps f' above the diffeomorphism floor without rejection.
    """
    if max_order < 2:
        raise InvariantViolation("need max_order >= 2")
    if not 0.0 < strength < 1.0:
        raise InvariantViolation("strength must lie in (0, 1)")
    orders = np.arange(2, max_order + 1, 2)
    z = (rng.normal(size=orders.size) + 1j * rng.normal(size=orders.size)) / orders
    budget = float(np.sum(2.0 * orders * np.abs(z)))
    target = rng.uniform(0.2, 1.0) * strength * (1.0 - DELTA_DIFFEO)
    z *= target / budget
    return DiffeoCurve({int(k): z[i] for i, k in enumerate(orders)}, grid=grid)


def _hull(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull's vertices, counterclockwise.

    A. M. Andrew's monotone chain: sort by (x, y), then build the lower and
    the upper chain, popping every vertex that is not a strict left turn, so
    repeated points and points inside a hull edge are left out.
    """

    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2:
                a, b, c = points[out[-2]], points[out[-1]], points[i]
                if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0:
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    order = np.lexsort((points[:, 1], points[:, 0]))
    return np.array(chain(order) + chain(order[::-1]), dtype=np.intp)


def random_convex_polygon_table(
    rng: np.random.Generator, n_points: int = 10
) -> ConvexTable:
    """Hull of a Gaussian cloud, recentered so the origin is interior."""
    if n_points < 3:
        raise InvariantViolation("need at least 3 cloud points")
    for _ in range(32):
        cloud = rng.normal(size=(n_points, 2))
        verts = cloud[_hull(cloud)]
        verts = verts - np.mean(verts, axis=0)
        try:
            return polygon_table(verts)
        except InvariantViolation:
            continue
    raise InvariantViolation("could not draw a strictly convex table")


def random_support_table(
    rng: np.random.Generator, max_order: int = 6, grid: int = DEFAULT_GRID
) -> ConvexTable:
    """Smooth convex table from a random truncated support expansion."""
    if max_order < 2:
        raise InvariantViolation("need max_order >= 2")
    orders = np.arange(1, max_order + 1)
    amp = rng.normal(size=orders.size) / (orders * orders)
    phases = rng.uniform(0.0, TWO_PI, size=orders.size)
    curv_budget = float(np.sum(np.abs(amp) * np.maximum(orders * orders - 1, 1)))
    pos_budget = float(np.sum(np.abs(amp)))
    scale = rng.uniform(0.2, 1.0) * min(0.8 / curv_budget, 0.5 / pos_budget)
    t = TWO_PI * np.arange(grid) / grid
    p = 1.0 + (scale * amp) @ np.cos(np.multiply.outer(orders, t) + phases[:, None])
    return support_table(p)


def random_unit_speed_loop(
    rng: np.random.Generator, max_order: int = 5, grid: int = DEFAULT_GRID
) -> np.ndarray:
    """Closed loop of total length 2 pi sampled at equal arclength steps.

    The loop is a radial graph r(theta) = 1 + small trig polynomial (possibly
    non-convex), re-parameterized by arclength and rescaled to length 2 pi.
    """
    if max_order < 1:
        raise InvariantViolation("need max_order >= 1")
    orders = np.arange(1, max_order + 1)
    amp = rng.normal(size=orders.size) / (1.0 + orders)
    phases = rng.uniform(0.0, TWO_PI, size=orders.size)
    budget = float(np.sum(np.abs(amp) * (1.0 + orders)))
    scale = rng.uniform(0.1, 1.0) * 0.25 / budget
    t = TWO_PI * np.arange(grid) / grid
    r = 1.0 + (scale * amp) @ np.cos(np.multiply.outer(orders, t) + phases[:, None])
    pts = r[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    speed = np.hypot(*spectral_derivative(pts, TWO_PI, 1).T)
    # the points share the speed's grid, so the resample's last phase matrix,
    # kept at least as long as the points' chopped series, also interpolates
    # them at the new parameters
    points = TrigSeries.from_samples(pts, TWO_PI)
    _, at_arclength = _resample_with_phases(
        speed, TWO_PI, grid, keep=points.chopped().orders.size
    )
    resampled = points.prefix(at_arclength.shape[1]).combine(at_arclength)
    length = TWO_PI * float(np.mean(speed))
    return resampled * (TWO_PI / length)
