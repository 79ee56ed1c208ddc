"""Polar duality for star polygons, curves and convex bodies.

The plane is identified with its dual through the area form, so every dual
object is again a plane polygon or curve.  Duals of non-convex inputs come
out as wave fronts: closed co-oriented fronts whose area is the signed
integral (1/2) oint [x, dx] = oint x dy taken in the parameter direction
inherited from the primal object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, SingularRadial
from .planar import (
    EPS_POLY,
    SampledCurve,
    SupportBody,
    StarPolygon,
    TWO_PI,
    _as_points,
    _shifted,
    area_form,
    signed_area,
    spectral_derivative,
)
from .polygons import cross_products, energy

EPS_RADIAL = 1e-10


@dataclass(frozen=True)
class DualPolygon:
    """Dual vertex sequence V*_i = V_{i+1} - V_i of a star polygon."""

    vertices: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.vertices, "dual vertices")
        object.__setattr__(self, "vertices", pts)
        pts.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def full_cycle(self) -> np.ndarray:
        return np.vstack([self.vertices, -self.vertices])


@dataclass(frozen=True)
class WaveFront:
    """A closed co-oriented front: either smooth samples or a vertex cycle."""

    points: np.ndarray
    kind: str = "smooth"
    period: float = TWO_PI

    def __post_init__(self):
        pts = _as_points(self.points, "front points")
        if self.kind not in ("smooth", "polygon"):
            raise InvariantViolation("front kind must be 'smooth' or 'polygon'")
        if self.kind == "smooth" and self.period <= 0:
            raise InvariantViolation("smooth fronts need a positive period")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)


def dual_polygon(polygon: StarPolygon) -> DualPolygon:
    """Edge-difference dual; pairs to one against the primal vertices."""
    v = polygon.vertices
    dual = _shifted(v, 1) - v
    pairing = area_form(v, dual)
    if np.max(np.abs(pairing - 1.0)) > EPS_POLY:
        raise InvariantViolation("dual pairing [V_i, V*_i] = 1 failed")
    return DualPolygon(dual)


def wavefront_area(front) -> float:
    """Signed area oint x dy of a wave front (polygon cycle or smooth samples)."""
    if isinstance(front, WaveFront):
        if front.kind == "polygon":
            return signed_area(front.points)
        deriv = spectral_derivative(front.points, front.period, 1)
        return float(np.mean(front.points[:, 0] * deriv[:, 1]) * front.period)
    return signed_area(front)


def polar_dual_curve(curve: SampledCurve | WaveFront) -> WaveFront:
    """The dual front gamma' / [gamma, gamma'] on the full parameter period.

    Raises SingularRadial when the radial component [gamma, gamma'] of the
    input (nearly) vanishes somewhere.
    """
    if isinstance(curve, SampledCurve):
        pts = curve.doubled()
        period = 2.0 * curve.period
    elif isinstance(curve, WaveFront) and curve.kind == "smooth":
        pts = curve.points
        period = curve.period
    else:
        raise InvariantViolation("polar dual needs a smooth curve or front")
    deriv = spectral_derivative(pts, period, 1)
    radial = area_form(pts, deriv)
    # a sign change means an interior zero even if no sample sits on it
    if np.min(np.abs(radial)) < EPS_RADIAL or np.min(radial) * np.max(radial) <= 0:
        raise SingularRadial(
            f"radial component dips to {np.min(np.abs(radial)):.3e}; dual blows up"
        )
    return WaveFront(points=deriv / radial[:, None], kind="smooth", period=period)


def bs_product_polygon(polygon: StarPolygon) -> float:
    """Area product A(V) A(V*) = n (2n - energy) of the symmetric 2n-gons."""
    n = polygon.n
    return n * (2.0 * n - energy(cross_products(polygon)))


def bs_bound_polygon(n: int) -> float:
    """Sharp upper bound 4 n^2 sin^2(pi / 2n) for the polygon area product."""
    return 4.0 * n * n * math.sin(math.pi / (2 * n)) ** 2


def bs_product_curve(curve: SampledCurve) -> float:
    """Area product T * integral of the radial acceleration [gamma', gamma'']."""
    if not curve.wronskian_normalized:
        raise InvariantViolation("area product needs a Wronskian-normalized curve")
    k = area_form(curve.derivative(1), curve.derivative(2))
    return curve.period * float(np.mean(k) * curve.period)


def bs_bound_curve() -> float:
    return math.pi * math.pi


def _polygon_support(vertices: np.ndarray, angles: np.ndarray) -> np.ndarray:
    u = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.max(u @ vertices.T, axis=1)


def _edge_normal_angles(vertices: np.ndarray) -> np.ndarray:
    edges = np.roll(vertices, -1, axis=0) - vertices
    return np.arctan2(-edges[:, 0], edges[:, 1])


def central_symmetrize(body):
    """Minkowski half-sum with the antipodal image; returns the input type.

    Support bodies average p(t) with p(t + pi) on the grid.  Convex polygons
    evaluate their support function at the original and antipodal edge
    normals and intersect the corresponding supporting half planes.
    """
    if isinstance(body, SupportBody):
        n = body.grid_size
        sym = 0.5 * (body.values + np.roll(body.values, n // 2))
        return SupportBody(sym)
    verts = _as_points(body, "polygon vertices")
    if signed_area(verts) <= 0:
        raise InvariantViolation("polygon must be counterclockwise")
    normals = _edge_normal_angles(verts)
    angles = np.sort(np.mod(np.concatenate([normals, normals + math.pi]), TWO_PI))
    merged = [float(angles[0])]
    for a in angles[1:]:
        if a - merged[-1] > 1e-9:
            merged.append(float(a))
    if len(merged) > 1 and TWO_PI - (merged[-1] - merged[0]) <= 1e-9:
        merged.pop()
    angles = np.asarray(merged)
    support = 0.5 * (
        _polygon_support(verts, angles)
        + _polygon_support(verts, angles + math.pi)
    )
    out = []
    m = angles.shape[0]
    for i in range(m):
        a, b = angles[i], angles[(i + 1) % m]
        pa, pb = support[i], support[(i + 1) % m]
        mat = np.array(
            [[math.cos(a), math.sin(a)], [math.cos(b), math.sin(b)]]
        )
        out.append(np.linalg.solve(mat, np.array([pa, pb])))
    out = np.asarray(out)
    keep = [0]
    scale = float(np.max(np.abs(out))) + 1e-30
    for i in range(1, m):
        if np.max(np.abs(out[i] - out[keep[-1]])) > 1e-10 * scale:
            keep.append(i)
    if np.max(np.abs(out[keep[-1]] - out[keep[0]])) <= 1e-10 * scale:
        keep.pop()
    return out[keep]
