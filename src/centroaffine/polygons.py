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

from .errors import (
    ClosureViolation,
    DegenerateRays,
    EvenN,
    InvariantViolation,
)
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


def closure_residual(c: CrossProducts) -> np.ndarray:
    """The three numbers (F_{0,n-1} - 1, F_{-1,n-1}, F_{0,n}).

    All vanish exactly when the recurrence V_{i+1} = c_i V_i - V_{i-1}
    closes into an origin-symmetric polygon.
    """
    n = c.n
    return np.array(
        [
            frieze_determinant(c, 0, n - 1) - 1.0,
            frieze_determinant(c, -1, n - 1),
            frieze_determinant(c, 0, n),
        ]
    )


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
    """Consecutive angular gaps including the antipodal wrap back to theta_0 + pi."""
    ext = np.concatenate([angles, angles[:1] + math.pi])
    return np.diff(ext)


def normalize_rays(rays: RayConfiguration) -> StarPolygon:
    """Scale points on given rays so all consecutive cross products equal one.

    Solvable precisely for an odd number of rays: the cyclic system
    t_i t_{i+1} sin(delta_i) = 1 has the alternating-sum solution in
    log coordinates.  Even counts are rejected; their normalization has a
    one-parameter fiber and a codimension-one solvability condition, exposed
    separately by :func:`even_fiber_residual`.
    """
    n = rays.n
    if n % 2 == 0:
        raise EvenN("ray normalization is determined only for odd ray counts")
    gaps = np.sin(_ray_deltas(rays.angles))
    if np.min(gaps) <= 1e-12:
        raise DegenerateRays("two rays nearly coincide; no finite normalization")
    b = -np.log(gaps)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    # s_i = (1/2) sum_k (-1)^k b_{i+k}; solves s_i + s_{i+1} = b_i for odd n
    s0 = 0.5 * float(np.sum(signs * b))
    s = np.empty(n)
    s[0] = s0
    for i in range(n - 1):
        s[i + 1] = b[i] - s[i]
    t = np.exp(s)
    u = np.column_stack([np.cos(rays.angles), np.sin(rays.angles)])
    return StarPolygon(t[:, None] * u)


def even_fiber_residual(rays: RayConfiguration) -> float:
    """Log-ratio of alternating gap products; zero iff an even count normalizes."""
    gaps = np.sin(_ray_deltas(rays.angles))
    if np.min(gaps) <= 1e-12:
        raise DegenerateRays("two rays nearly coincide")
    logs = np.log(gaps)
    return float(np.sum(logs[::2]) - np.sum(logs[1::2]))


def polygon_rays(polygon: StarPolygon) -> RayConfiguration:
    """Vertex arguments, lifted so they increase strictly within a half turn."""
    v = polygon.vertices
    theta0 = math.atan2(v[0, 1], v[0, 0])
    turns = _turn_angles(v)
    angles = theta0 + np.concatenate([[0.0], np.cumsum(turns[:-1])])
    return RayConfiguration(angles)


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


def _energy_gradient(v: np.ndarray) -> np.ndarray:
    """Gradient of sum_i [V_{i-1}, V_{i+1}]: row j is perp(V_{j+2} - V_{j-2}).

    Here perp(x, y) = (y, -x); the indices wrap antipodally.
    """
    d = _shifted(v, 2) - _shifted(v, -2)
    return np.column_stack([d[:, 1], -d[:, 0]])


def _poly_energy(v: np.ndarray) -> float:
    """sum_i [V_{i-1}, V_{i+1}] on an (n, 2) vertex array."""
    return float(np.sum(area_form(_shifted(v, -1), _shifted(v, 1))))


def _constraint_values(v: np.ndarray) -> np.ndarray:
    return area_form(v, _shifted(v, 1)) - 1.0


def _constraint_jacobian(v: np.ndarray) -> np.ndarray:
    """Rows d[V_i, V_{i+1}] over the flattened vertices.

    d[u, w]/du = (w_y, -w_x) and d[u, w]/dw = (-u_y, u_x); the last row
    differentiates [V_{n-1}, -V_0], which flips the sign of its V_0 block.
    """
    n = v.shape[0]
    nxt = _shifted(v, 1)
    rows = np.arange(n)
    jac = np.zeros((n, n, 2))
    jac[rows, rows] = np.column_stack([nxt[:, 1], -nxt[:, 0]])
    jac[rows, (rows + 1) % n] = np.column_stack([-v[:, 1], v[:, 0]])
    jac[-1, 0] *= -1.0
    return jac.reshape(n, 2 * n)


def project_to_unit_cross(vertices, tol: float = 1e-12, maxiter: int = 40) -> np.ndarray:
    """Newton projection of a vertex list onto the unit cross-product manifold."""
    v = np.array(vertices, dtype=float)
    for _ in range(maxiter):
        phi = _constraint_values(v)
        if np.max(np.abs(phi)) < tol:
            return v
        jac = _constraint_jacobian(v)
        step = jac.T @ np.linalg.solve(jac @ jac.T, phi)
        v = v - step.reshape(-1, 2)
    raise InvariantViolation("Newton projection onto unit cross products stalled")


def _tangential(grad_flat: np.ndarray, jac: np.ndarray) -> np.ndarray:
    lam = np.linalg.solve(jac @ jac.T, jac @ grad_flat)
    return grad_flat - jac.T @ lam


def _is_star(v: np.ndarray) -> bool:
    turns = _turn_angles(v)
    return bool(np.min(turns) > 0 and abs(float(np.sum(turns)) - math.pi) < 1e-6)


def _descend(value_and_grad, step_to, x0, gtol: float, maxiter: int):
    """Projected gradient descent with backtracking and a Barzilai-Borwein step.

    ``value_and_grad(x)`` gives the energy and its gradient tangent to the
    unit-cross manifold; ``step_to(x, d)`` maps x + d back onto the manifold
    and raises when that leaves the star-shaped chamber, which halves the
    step.  Stops converged when the tangential gradient norm drops below
    gtol, or when the value has stagnated at the rounding floor for several
    accepted steps in a row; stops unconverged after maxiter iterations or
    when no step length decreases the value.
    """
    x = x0
    f, g = value_and_grad(x)
    step = 1.0 / (1.0 + float(np.linalg.norm(g)))
    it = 0
    flat_steps = 0
    while it < maxiter:
        gnorm = float(np.linalg.norm(g))
        if gnorm < gtol:
            return x, f, gnorm, it, True
        if flat_steps >= 8:
            return x, f, gnorm, it, True
        moved = False
        t = step
        for _ in range(60):
            try:
                x_new = step_to(x, -t * g)
                f_new, g_new = value_and_grad(x_new)
            except (FloatingPointError, InvariantViolation, np.linalg.LinAlgError):
                t *= 0.5
                continue
            if f_new <= f - 1e-4 * t * gnorm * gnorm:
                dx = (x_new - x).ravel()
                dg = (g_new - g).ravel()
                denom = float(dx @ dg)
                step = float(dx @ dx) / denom if denom > 0 else t * 2.0
                step = min(max(step, 1e-10), 1e3)
                if f - f_new <= 1e-14 * (1.0 + abs(f)):
                    flat_steps += 1
                else:
                    flat_steps = 0
                x, f, g = x_new, f_new, g_new
                moved = True
                break
            t *= 0.5
        it += 1
        if not moved:
            return x, f, float(np.linalg.norm(g)), it, False
    return x, f, float(np.linalg.norm(g)), it, False


def _minimize(v0: np.ndarray, gtol: float, maxiter: int):
    def value_and_grad(v):
        g = _tangential(_energy_gradient(v).ravel(), _constraint_jacobian(v))
        return _poly_energy(v), g.reshape(v.shape)

    def step_to(v, delta):
        cand = project_to_unit_cross(v + delta)
        if not _is_star(cand):
            raise FloatingPointError("projection left the star-shaped chamber")
        return cand

    v = project_to_unit_cross(v0)
    if not _is_star(v):
        raise InvariantViolation("initial point does not project to a star polygon")
    v, _, gnorm, it, ok = _descend(value_and_grad, step_to, v, gtol, maxiter)
    return StarPolygon(v), gnorm, it, ok


def minimize_energy(
    n: int,
    init: RayConfiguration | StarPolygon,
    *,
    gtol: float = EPS_GRAD,
    maxiter: int = 4000,
) -> MinimizationResult:
    """Descend the total cross-product energy over n-vertex star polygons.

    One path serves every n: projected gradient descent on the vertex
    coordinates (:func:`_descend`), with the closed-form energy gradient
    made tangent to the unit-cross manifold and the unit cross products
    re-imposed by Newton projection after every step.  A star polygon is
    the starting point as it is; odd-n rays start from their unique
    normalization (:func:`normalize_rays`); even-n rays start from equal
    radii 1 / sqrt(sin(pi / n)).  The reported polygon is in the gauge
    V_0 = (1, 0), V_{n-1} = (0, 1).
    """
    if n < 3:
        raise InvariantViolation("need n >= 3")
    if isinstance(init, RayConfiguration) and init.n != n:
        raise InvariantViolation("initial ray count does not match n")
    if isinstance(init, StarPolygon) and init.n != n:
        raise InvariantViolation("initial polygon size does not match n")
    if isinstance(init, StarPolygon):
        v0 = init.vertices
    elif n % 2 == 1:
        v0 = normalize_rays(init).vertices
    else:
        u = np.column_stack([np.cos(init.angles), np.sin(init.angles)])
        v0 = u / math.sqrt(math.sin(math.pi / n))
    poly, gnorm, it, ok = _minimize(v0, gtol, maxiter)
    poly = canonical_gauge(poly)
    return MinimizationResult(
        polygon=poly,
        value=energy(poly),
        gradient_norm=gnorm,
        iterations=it,
        converged=ok,
    )
