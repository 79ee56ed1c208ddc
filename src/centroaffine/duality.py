"""Area products of polar-dual star polygons, and central symmetrization.

The plane is identified with its dual through the area form.  A star
polygon V with [V_i, V_{i+1}] = 1 pairs to one with its dual
V*_i = V_{i+1} - V_i.  The area product A(V) A(V*) is computed here from
the primal polygon alone, next to its sharp Blaschke-Santalo type bound;
the smooth analogue for a curve and its polar dual is
``curves.petty_product``.  Central symmetrization is the Minkowski half-sum
of a convex body with its antipodal image.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvariantViolation
from .planar import (
    SupportBody,
    StarPolygon,
    TWO_PI,
    _as_points,
    _shifted,
    _star_vertices,
    area_form,
    signed_area,
)
from .polygons import cross_products, energy


def bs_product_polygon(polygon):
    """Area product A(V) A(V*) = n (2n - energy) of the symmetric 2n-gons.

    A StarPolygon gives a float.  A (count, n, 2) stack of half lists, such
    as ``sampling.random_star_polygons`` draws, is checked by StarPolygon's
    rules and gives one product per row, all in one pass.
    """
    if isinstance(polygon, StarPolygon):
        n = polygon.n
        return n * (2.0 * n - energy(cross_products(polygon)))
    v = _star_vertices(polygon, 3)
    n = v.shape[1]
    # the energy of each row: the sum of its cross products [V_{i-1}, V_{i+1}]
    return n * (2.0 * n - np.sum(area_form(_shifted(v, -1), _shifted(v, 1)), axis=-1))


def bs_bound_polygon(n: int) -> float:
    """Sharp upper bound 4 n^2 sin^2(pi / 2n) for the polygon area product."""
    return 4.0 * n * n * math.sin(math.pi / (2 * n)) ** 2


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
