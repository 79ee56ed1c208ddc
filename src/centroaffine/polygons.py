"""Star polygons through their cross-product coordinates.

A star polygon V_0..V_{n-1} (half of an origin-symmetric 2n-gon with
[V_i, V_{i+1}] = 1) is encoded by the cross products
c_i = [V_{i-1}, V_{i+1}]; the vertices satisfy the three-term recurrence
V_{i+1} = c_i V_i - V_{i-1}.  The total energy sum(c_i) is bounded below
by 2 n cos(pi / n), with equality exactly on the SL(2, R) orbit of the
regular polygon where every c_i = 2 cos(pi / n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosureViolation, DegenerateRays, InvariantViolation
from .planar import (
    EPS_CLOSE,
    EPS_POLY,
    SL2Matrix,
    StarPolygon,
    _turn_angles,
    area_form,
    _shifted,
    sl2_apply,
)

EPS_GRAD = 1e-8


@dataclass(frozen=True)
class CrossProducts:
    """The sequence c_i = [V_{i-1}, V_{i+1}] of a star polygon."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] < 3:
            raise InvariantViolation("need a flat sequence of at least 3 cross products")
        if not np.all(np.isfinite(vals)):
            raise InvariantViolation("cross products must be finite")
        if np.min(vals) <= 0:
            raise InvariantViolation("cross products of a star polygon are positive")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class RayConfiguration:
    """Strictly increasing ray angles spanning less than a half turn."""

    angles: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        if ang.ndim != 1 or ang.shape[0] < 3:
            raise InvariantViolation("need at least 3 ray angles")
        if not np.all(np.isfinite(ang)):
            raise InvariantViolation("ray angles must be finite")
        if np.min(np.diff(ang)) <= 0:
            raise InvariantViolation("ray angles must increase strictly")
        if ang[-1] - ang[0] >= math.pi:
            raise InvariantViolation("ray angles must span less than pi")
        object.__setattr__(self, "angles", ang)
        ang.setflags(write=False)

    @property
    def n(self) -> int:
        return self.angles.shape[0]


@dataclass(frozen=True)
class MinimizationResult:
    polygon: StarPolygon
    value: float
    gradient_norm: float
    iterations: int
    converged: bool


def cross_products(polygon: StarPolygon) -> CrossProducts:
    """c_i = [V_{i-1}, V_{i+1}] with the antipodal wrap at both ends."""
    n = polygon.n
    prev = polygon.extended(-1, n - 2)
    nxt = polygon.extended(1, n)
    return CrossProducts(area_form(prev, nxt))


def energy(c) -> float:
    """Total cross-product energy sum(c_i); at least 2 n cos(pi / n)."""
    if isinstance(c, StarPolygon):
        c = cross_products(c)
    return float(np.sum(c.values))


def energy_lower_bound(n: int) -> float:
    return 2.0 * n * math.cos(math.pi / n)


def _frieze_values(c: CrossProducts, i: int, j: int) -> np.ndarray:
    """Entries F_{i,q} for q = i..j of the frieze recurrence.

    Seeds F_{i,i} = 0, F_{i,i+1} = 1 and F_{i,q+1} = c_q F_{i,q} - F_{i,q-1},
    with the index of c taken modulo n.
    """
    if j < i:
        raise InvariantViolation("need j >= i in the frieze recurrence")
    vals = np.empty(j - i + 1)
    vals[0] = 0.0
    if j > i:
        vals[1] = 1.0
    cv = c.values
    n = c.n
    for q in range(i + 1, j):
        vals[q + 1 - i] = cv[q % n] * vals[q - i] - vals[q - 1 - i]
    return vals


def frieze_determinant(c: CrossProducts, i: int, j: int) -> float:
    """F_{i,j} = [V_i, V_j] computed from the cross products alone.

    Defined here for j - i >= 2; the nearer pairs are fixed by the seeds.
    """
    if j - i < 2:
        raise InvariantViolation("frieze determinant needs j - i >= 2")
    return float(_frieze_values(c, i, j)[-1])


def frieze_relation_residual(c: CrossProducts, i: int, j: int) -> float:
    """Deviation of F_{i-1,j-1} F_{i,j} - F_{i,j-1} F_{i-1,j} from one."""
    if j - i < 2:
        raise InvariantViolation("frieze relation needs j - i >= 2")
    row_prev = _frieze_values(c, i - 1, j)
    row = _frieze_values(c, i, j)
    f_prev_jm1 = row_prev[j - 1 - (i - 1)]
    f_prev_j = row_prev[j - (i - 1)]
    f_jm1 = row[j - 1 - i]
    f_j = row[j - i]
    return float(f_prev_jm1 * f_j - f_jm1 * f_prev_j - 1.0)


def reconstruct(c: CrossProducts, v_prev, v0) -> StarPolygon:
    """Run the three-term recurrence from seeds V_{-1}, V_0 with [V_{-1}, V_0] = 1."""
    v_prev = np.asarray(v_prev, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if abs(area_form(v_prev, v0) - 1.0) > EPS_POLY:
        raise InvariantViolation(
            f"seed pair must satisfy [V_-1, V_0] = 1 within eps_poly = {EPS_POLY:.0e}"
        )
    n = c.n
    verts = np.empty((n + 1, 2))
    verts[0] = v_prev
    verts[1] = v0
    cv = c.values
    for i in range(n - 1):
        verts[i + 2] = cv[i] * verts[i + 1] - verts[i]
    v_n = cv[n - 1] * verts[n] - verts[n - 1]
    scale = max(1.0, float(np.max(np.abs(verts))))
    gap = max(
        float(np.max(np.abs(verts[n] + v_prev))), float(np.max(np.abs(v_n + v0)))
    )
    if gap > EPS_CLOSE * scale:
        raise ClosureViolation(
            f"recurrence fails antiperiodic closure by {gap:.3e} "
            f"(eps_close = {EPS_CLOSE:.0e})"
        )
    return StarPolygon(verts[1 : n + 1])


def _ray_deltas(angles: np.ndarray) -> np.ndarray:
    """Consecutive angular gaps including the antipodal wrap back to theta_0 + pi.

    Along the last axis, so a (count, n) stack gives the gaps of each row.
    """
    ext = np.concatenate([angles, angles[..., :1] + math.pi], axis=-1)
    return np.diff(ext, axis=-1)


def _ray_points(angles: np.ndarray) -> np.ndarray:
    """Points t_i (cos, sin)(theta_i) on n rays with all [V_i, V_{i+1}] = 1, unchecked.

    The cyclic system t_i t_{i+1} sin(delta_i) = 1 has the alternating-sum
    solution in log coordinates, unique for odd n.  For even n it is
    solvable only when the alternating sum of the log gaps vanishes, and the
    wrap [V_{n-1}, -V_0] misses one otherwise.

    ``angles`` is (n,) or a (count, n) stack, one configuration per row,
    for (n, 2) or (count, n, 2) points; each row gets the arithmetic of a
    single configuration.
    """
    n = angles.shape[-1]
    gaps = np.sin(_ray_deltas(angles))
    if np.min(gaps) <= 1e-12:
        raise DegenerateRays("two rays nearly coincide; no finite normalization")
    b = -np.log(gaps)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    # s_i = (1/2) sum_k (-1)^k b_{i+k}; solves s_i + s_{i+1} = b_i for odd n
    s = np.empty(b.shape)
    s[..., 0] = 0.5 * np.sum(signs * b, axis=-1)
    for i in range(n - 1):
        s[..., i + 1] = b[..., i] - s[..., i]
    u = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return np.exp(s)[..., None] * u


def regular_polygon(n: int) -> StarPolygon:
    """The centro-affine regular polygon: equal rays, all c_i = 2 cos(pi/n)."""
    theta = math.pi * np.arange(n) / n
    r = 1.0 / math.sqrt(math.sin(math.pi / n))
    return StarPolygon(r * np.column_stack([np.cos(theta), np.sin(theta)]))


def canonical_gauge(polygon: StarPolygon) -> StarPolygon:
    """The unique unimodular image with V_0 = (1, 0) and V_{n-1} = (0, 1)."""
    v = polygon.vertices
    basis = np.column_stack([v[0], v[-1]])
    m = np.linalg.inv(basis)
    return sl2_apply(SL2Matrix.from_array(m / math.sqrt(abs(np.linalg.det(m)))), polygon)


# ---------------------------------------------------------------------------
# energy minimization
# ---------------------------------------------------------------------------


_PERP_SIGNS = np.array([1.0, -1.0])


def _perp(d: np.ndarray) -> np.ndarray:
    """Rows perp(x, y) = (y, -x), so that [w, b] = <w, perp(b)>."""
    return d[:, ::-1] * _PERP_SIGNS


def _energy_gradient(v: np.ndarray) -> np.ndarray:
    """Gradient of sum_i [V_{i-1}, V_{i+1}]: row j is perp(V_{j+2} - V_{j-2}).

    The indices wrap antipodally.
    """
    return _perp(_shifted(v, 2) - _shifted(v, -2))


def _poly_energy(v: np.ndarray) -> float:
    """sum_i [V_{i-1}, V_{i+1}] on an (n, 2) vertex array."""
    return float(area_form(_shifted(v, -1), _shifted(v, 1)).sum())


def _constraint_values(v: np.ndarray) -> np.ndarray:
    return area_form(v, _shifted(v, 1)) - 1.0


def _constraint_derivative(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """J w = [w_i, V_{i+1}] + [V_i, w_{i+1}], J the Jacobian of the constraints."""
    return area_form(w, _shifted(v, 1)) + area_form(v, _shifted(w, 1))


def _least_norm_step(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """J^T (J J^T)^{-1} r, the shortest w with J w = r.

    J^T y has rows perp(y_i V_{i+1} - y_{i-1} V_{i-1}), and J J^T is cyclic
    tridiagonal with diagonal |V_i|^2 + |V_{i+1}|^2 and entries
    -<V_i, V_{i+2}> at (i, i+1) and (i+1, i); all wraps are antipodal.
    """
    n = v.shape[0]
    nxt = _shifted(v, 1)
    rows = np.arange(n)
    cols = (rows + 1) % n
    jjt = np.diag((v * v).sum(axis=1) + (nxt * nxt).sum(axis=1))
    off = -(v * _shifted(v, 2)).sum(axis=1)
    jjt[rows, cols] = off
    jjt[cols, rows] = off
    y = np.linalg.solve(jjt, r)[:, None]
    return _perp(y * nxt - _shifted(y * v, -1))


def _tangent_gradient(v: np.ndarray) -> np.ndarray:
    """The energy gradient minus its component normal to the constraint manifold."""
    g = _energy_gradient(v)
    return g - _least_norm_step(v, _constraint_derivative(v, g))


def project_to_unit_cross(vertices, tol: float = 1e-12, maxiter: int = 40) -> np.ndarray:
    """Newton projection of a vertex list onto the unit cross-product manifold."""
    v = np.array(vertices, dtype=float)
    for _ in range(maxiter):
        phi = _constraint_values(v)
        if np.abs(phi).max() < tol:
            return v
        v = v - _least_norm_step(v, phi)
    raise InvariantViolation("Newton projection onto unit cross products stalled")


def _is_star(v: np.ndarray) -> bool:
    turns = _turn_angles(v)
    return bool(turns.min() > 0 and abs(float(turns.sum()) - math.pi) < 1e-6)


def _descend(v: np.ndarray, gtol: float, maxiter: int):
    """Projected gradient descent with backtracking and a Barzilai-Borwein step.

    Each trial point v - t g is projected back onto the unit-cross manifold;
    a failed projection or a result outside the star-shaped chamber
    (:func:`_is_star`) halves t, as does too small a decrease.  Stops
    converged when the tangent gradient norm drops below gtol, or when the
    energy has stagnated at the rounding floor for several accepted steps in
    a row; stops unconverged after maxiter iterations or when no step length
    decreases the energy.
    """
    f, g = _poly_energy(v), _tangent_gradient(v)
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))
    flat_steps = 0
    for it in range(maxiter):
        gnorm = float(np.linalg.norm(g))
        if gnorm < gtol or flat_steps >= 8:
            return v, gnorm, it, True
        t = step
        for _ in range(60):
            try:
                v_new = project_to_unit_cross(v - t * g)
            except (InvariantViolation, np.linalg.LinAlgError):
                v_new = None
            if v_new is None or not _is_star(v_new):
                t *= 0.5
                continue
            f_new = _poly_energy(v_new)
            if f_new <= f - 1e-4 * t * gnorm * gnorm:
                g_new = _tangent_gradient(v_new)
                dx = (v_new - v).ravel()
                dg = (g_new - g).ravel()
                denom = float(dx @ dg)
                step = float(dx @ dx) / denom if denom > 0 else t * 2.0
                step = min(max(step, 1e-10), 1e3)
                if f - f_new <= 1e-14 * (1.0 + abs(f)):
                    flat_steps += 1
                else:
                    flat_steps = 0
                v, f, g = v_new, f_new, g_new
                break
            t *= 0.5
        else:
            return v, float(np.linalg.norm(g)), it + 1, False
    return v, float(np.linalg.norm(g)), maxiter, False


def minimize_energy(
    n: int,
    init: RayConfiguration | StarPolygon,
    *,
    gtol: float = EPS_GRAD,
    maxiter: int = 4000,
) -> MinimizationResult:
    """Descend the total cross-product energy over n-vertex star polygons.

    One path serves every n.  A star polygon is the starting point as it
    is; rays start from points at the equal radius 1 / sqrt(sin(pi / n)),
    the radius of the regular polygon, projected onto [V_i, V_{i+1}] = 1.
    Projected gradient descent (:func:`_descend`) then moves the vertex
    coordinates along the closed-form energy gradient made tangent to the
    unit-cross manifold, and Newton projection re-imposes the unit cross
    products after every step.  The constraint Jacobian J is never formed:
    J, its transpose and the cyclic tridiagonal J J^T are shifted stencils
    (:func:`_least_norm_step`).  The reported polygon is in the gauge
    V_0 = (1, 0), V_{n-1} = (0, 1).
    """
    if n < 3:
        raise InvariantViolation("need n >= 3")
    if init.n != n:
        raise InvariantViolation("initial ray or vertex count does not match n")
    if isinstance(init, StarPolygon):
        v0 = init.vertices
    else:
        u = np.column_stack([np.cos(init.angles), np.sin(init.angles)])
        v0 = u / math.sqrt(math.sin(math.pi / n))
    v = project_to_unit_cross(v0)
    if not _is_star(v):
        raise InvariantViolation("initial point does not project to a star polygon")
    v, gnorm, it, ok = _descend(v, gtol, maxiter)
    poly = canonical_gauge(StarPolygon(v))
    return MinimizationResult(
        polygon=poly,
        value=energy(poly),
        gradient_norm=gnorm,
        iterations=it,
        converged=ok,
    )
