"""Planar containers and spectral calculus on periodic grids.

The only bilinear form used anywhere is the area form
``[u, v] = u_x v_y - u_y v_x``; it measures oriented area and identifies
the plane with its dual plane, so dual objects live in the same
coordinate plane as primal ones.

Curves that close up only after a sign flip (``gamma(t + T) = -gamma(t)``)
are stored on the half period ``[0, T)`` and doubled by negation before
any Fourier operation.  All sample counts are powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotStarShaped

EPS_POLY = 1e-9
EPS_WRON = 1e-8
EPS_DET = 1e-12
EPS_CLOSE = 1e-9
STAR_MARGIN = 1e-10
DEFAULT_GRID = 1024

TWO_PI = 2.0 * math.pi


def _as_points(obj, name: str = "points") -> np.ndarray:
    pts = np.asarray(obj, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvariantViolation(f"{name} must have shape (N, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise InvariantViolation(f"{name} contains non-finite components")
    return pts


def _require_power_of_two(n: int, name: str = "sample count") -> None:
    if n < 4 or (n & (n - 1)) != 0:
        raise InvariantViolation(f"{name} must be a power of two >= 4, got {n}")


def area_form(u, v):
    """Oriented area [u, v] = u_x v_y - u_y v_x of a pair of plane vectors.

    Accepts arrays of shape (..., 2) and broadcasts.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def signed_area(points) -> float:
    """Shoelace area of a closed vertex cycle (positive when counterclockwise)."""
    pts = _as_points(points)
    nxt = np.roll(pts, -1, axis=0)
    return 0.5 * float(np.sum(area_form(pts, nxt)))


def _fourier_multiply(samples, period: float, multiplier):
    """Apply a Fourier multiplier along the first axis of periodic samples.

    ``multiplier`` maps the angular wavenumbers 2 pi m / period of the rfft
    bins, the Nyquist bin last, to complex factors.  Samples have shape (N,)
    or (N, d).
    """
    arr = np.asarray(samples, dtype=float)
    n = arr.shape[0]
    _require_power_of_two(n)
    mult = multiplier(TWO_PI * np.arange(n // 2 + 1) / period)
    spectrum = np.fft.rfft(arr, axis=0)
    return np.fft.irfft(spectrum * _per_mode(mult, spectrum), n=n, axis=0)


def spectral_derivative(samples, period: float, order: int = 1):
    """Differentiate periodic uniformly sampled data by Fourier multipliers.

    ``samples`` covers one full period on an equispaced grid whose size is a
    power of two; shape (N,) or (N, 2).  Orders 1 through 4 are supported;
    the Nyquist mode is zeroed for odd orders.
    """
    if not 1 <= order <= 4:
        raise InvariantViolation(f"derivative order must be in 1..4, got {order}")
    if period <= 0:
        raise InvariantViolation("period must be positive")

    def multiplier(k):
        mult = (1j * k) ** order
        if order % 2 == 1:
            mult[-1] = 0.0
        return mult

    return _fourier_multiply(samples, period, multiplier)


def circular_shift(samples, period: float, delta: float):
    """Trigonometric interpolation of periodic samples shifted to t + delta.

    Exact for band-limited data; the Nyquist mode is dropped because it has
    no well-defined phase under a non-grid shift.
    """
    return _fourier_multiply(
        samples, period, lambda k: np.append(np.exp(1j * k[:-1] * delta), 0.0)
    )


class TrigSeries:
    """Real trigonometric series f(t) = Re sum_m c_m e^{i m omega t}, omega = 2 pi / period.

    ``orders`` lists the (possibly sparse) orders m and ``coeffs`` their
    complex coefficients, already weighted, with shape (K,) or (K, d).
    Evaluation is one product of the phase matrix e^{i omega m t} with the
    coefficients, weighted by (i omega m)^order for a derivative.  The phase
    matrix depends only on the points and the orders, so a caller that
    evaluates several series, derivatives or coefficient sets at one point
    set builds it once with ``phases`` and applies ``combine`` to each.  A
    series whose orders are a slice of another's reads the same slice of
    its columns; that keeps the bits, while zero-padding the coefficients
    to the longer order list does not.  The weighted coefficients of each
    derivative order are built on first use and kept.
    """

    def __init__(self, orders, coeffs, period: float):
        self.orders = np.asarray(orders, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.period = float(period)
        self.freq = 1j * (TWO_PI / self.period) * self.orders
        self._weighted = {0: self.coeffs}  # order -> (i omega m)^order * coeffs

    @classmethod
    def from_samples(cls, samples, period: float) -> "TrigSeries":
        """Trigonometric interpolant of samples on a power-of-two grid over one period."""
        arr = np.asarray(samples, dtype=float)
        n = arr.shape[0]
        _require_power_of_two(n)
        coeffs = np.fft.rfft(arr, axis=0) / n
        # interior modes count twice (conjugate pair), the mean and Nyquist modes once
        weights = np.full(coeffs.shape[0], 2.0)
        weights[0] = weights[-1] = 1.0
        return cls(np.arange(coeffs.shape[0]), _per_mode(weights, coeffs) * coeffs, period)

    def phases(self, t) -> np.ndarray:
        """The matrix e^{i omega m t}, one row per point and one column per order."""
        out = np.multiply.outer(t, self.freq)
        return np.exp(out, out=out)

    def combine(self, phases: np.ndarray, order: int = 0):
        """f (order 0) or its derivative of the given order from ``phases(t)``."""
        coeffs = self._weighted.get(order)
        if coeffs is None:
            coeffs = _per_mode(self.freq**order, self.coeffs) * self.coeffs
            self._weighted[order] = coeffs
        return (phases @ coeffs).real

    def series(self, t, order: int = 0):
        """f (order 0) or its derivative of the given order at the points t."""
        return self.combine(self.phases(t), order)

    def antiderivative(self) -> "TrigSeries":
        """Series whose derivative is f without its mean and Nyquist modes.

        For a series from ``from_samples`` the first mode is the mean, which
        has no periodic antiderivative, and the last is the Nyquist mode,
        whose antiderivative the samples do not determine; both are dropped,
        so its phase matrix is columns 1:-1 of the original's.
        """
        coeffs = self.coeffs[1:-1]
        freq = self.freq[1:-1]
        return TrigSeries(self.orders[1:-1], coeffs / _per_mode(freq, coeffs), self.period)


def _per_mode(factor: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Reshape a per-mode factor to broadcast against (K,) or (K, d) coefficients."""
    return factor.reshape(factor.shape + (1,) * (coeffs.ndim - 1))


def _bracketed_newton(series: TrigSeries, rise, lo, hi) -> np.ndarray:
    """Roots of g in the brackets [lo, hi], one per row, where g rises through zero.

    ``rise(t, f, f', f'')`` gives g and g' from the series and its first two
    derivatives at the (M,) points t, all read off one phase matrix.  A step
    g / g' that would leave the shrinking bracket bisects it instead.  The
    iterates stop once every step is below 1e-9 (the roots are angles): the
    error left after a step s is about s^2 g'' / 2g', below rounding.
    """
    t = 0.5 * (lo + hi)
    for _ in range(64):
        phases = series.phases(t)
        g, dg = rise(t, *(series.combine(phases, k) for k in range(3)))
        lo, hi = np.where(g < 0.0, t, lo), np.where(g > 0.0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(g == 0.0, t, t - g / dg)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        if np.max(np.abs(new - t)) <= 1e-9:
            return new
        t = new
    return t


def resample_by_density(density, period: float, n_out: int) -> np.ndarray:
    """Parameter values that split a positive periodic density into equal mass.

    Returns theta_0 = 0 <= theta_1 <= ... < period such that the running
    integral of ``density`` reaches j/n_out of its total at theta_j.  Used to
    re-parameterize curves by arclength or by swept area.  Each Newton
    iterate builds one phase matrix, which gives both the density and, as
    columns 1:-1, its antiderivative; the previous iterate's matrix is
    freed first, so at most one n_out x (N/2 + 1) matrix is alive.  The
    slice gives the same bits as a matrix built for the antiderivative's
    orders; padding its coefficients with zeros to the full order list
    would not.
    """
    return _resample_with_phases(density, period, n_out)[0]


def _resample_with_phases(density, period: float, n_out: int):
    """``resample_by_density`` and the phase matrix of the density's series at its result.

    Any series from samples on the same grid as ``density`` can be evaluated
    at the resampled points from that matrix with ``combine``.
    """
    series = TrigSeries.from_samples(density, period)
    if np.min(density) <= 0:
        raise InvariantViolation("density must be strictly positive")
    mean = series.coeffs[0].real
    wiggle = series.antiderivative()
    wiggle0 = wiggle.series(0.0)
    targets = mean * period * np.arange(n_out) / n_out
    theta = period * np.arange(n_out) / n_out
    for step in range(51):
        phases = None  # free the previous iterate's matrix before building the next
        phases = series.phases(theta)
        val = mean * theta + (wiggle.combine(phases[:, 1:-1]) - wiggle0) - targets
        if step == 50 or np.max(np.abs(val)) < 1e-13 * mean * period:
            break
        theta = theta - val / series.combine(phases)
    return theta, phases


@dataclass(frozen=True)
class SL2Matrix:
    """Unimodular 2x2 matrix; the symmetry group of every construction here."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        entries = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(x) for x in entries):
            raise InvariantViolation("matrix entries must be finite")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > EPS_DET:
            raise InvariantViolation(
                f"|det - 1| = {abs(det - 1.0):.3e} exceeds eps_det = {EPS_DET:.0e}"
            )

    @property
    def array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @classmethod
    def from_array(cls, m) -> "SL2Matrix":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise InvariantViolation(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def identity(cls) -> "SL2Matrix":
        return cls(1.0, 0.0, 0.0, 1.0)


def _shifted(vertices: np.ndarray, k: int) -> np.ndarray:
    """Rows V_{i+k}, i = 0..n-1, of a half list under the wrap V_{i+n} = -V_i.

    Needs |k| < n.
    """
    if k >= 0:
        return np.vstack([vertices[k:], -vertices[:k]])
    return np.vstack([-vertices[k:], vertices[:k]])


def _turn_angles(vertices: np.ndarray) -> np.ndarray:
    nxt = _shifted(vertices, 1)
    return np.arctan2(area_form(vertices, nxt), np.sum(vertices * nxt, axis=1))


@dataclass(frozen=True)
class StarPolygon:
    """Half list V_0..V_{n-1} of an origin-symmetric 2n-gon with [V_i, V_{i+1}] = 1.

    The second half is the antipodal image V_{i+n} = -V_i.  Construction
    validates the unit cross products (within eps_poly) and star-shapedness:
    the vertex arguments increase strictly and sweep a total angle of pi.
    """

    vertices: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.vertices, "vertices")
        if pts.shape[0] < 3:
            raise InvariantViolation("a star polygon needs at least 3 vertices per half")
        object.__setattr__(self, "vertices", pts)
        pts.setflags(write=False)
        dev = np.max(np.abs(area_form(pts, _shifted(pts, 1)) - 1.0))
        if dev > EPS_POLY:
            raise InvariantViolation(
                f"max |[V_i, V_i+1] - 1| = {dev:.3e} exceeds eps_poly = {EPS_POLY:.0e}"
            )
        turns = _turn_angles(pts)
        if np.min(turns) < STAR_MARGIN:
            raise NotStarShaped(
                f"vertex arguments must increase strictly (min turn {np.min(turns):.3e})"
            )
        if abs(float(np.sum(turns)) - math.pi) > 1e-8:
            raise NotStarShaped(
                f"vertex arguments sweep {float(np.sum(turns)):.6f}, expected pi"
            )

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def full_cycle(self) -> np.ndarray:
        """All 2n vertices of the origin-symmetric polygon."""
        return np.vstack([self.vertices, -self.vertices])

    def extended(self, lo: int, hi: int) -> np.ndarray:
        """Vertices V_lo..V_hi with the antipodal rule V_{i+n} = -V_i."""
        idx = np.arange(lo, hi + 1)
        # floor division makes the sign rule uniform for negative indices too
        sign = np.where((idx // self.n) % 2 == 0, 1.0, -1.0)
        return sign[:, None] * self.vertices[idx % self.n]


@dataclass(frozen=True)
class SampledCurve:
    """Samples of a curve with gamma(t + T) = -gamma(t) on the half period.

    ``samples[j] = gamma(j T / N)``.  When ``wronskian_normalized`` is set the
    construction checks [gamma, gamma'] = 1 within eps_wron.
    """

    samples: np.ndarray
    period: float
    wronskian_normalized: bool = False

    def __post_init__(self):
        pts = _as_points(self.samples, "samples")
        _require_power_of_two(pts.shape[0])
        if not (math.isfinite(self.period) and self.period > 0):
            raise InvariantViolation("period must be finite and positive")
        object.__setattr__(self, "samples", pts)
        pts.setflags(write=False)
        if self.wronskian_normalized:
            w = area_form(pts, self.derivative(1))
            dev = np.max(np.abs(w - 1.0))
            if dev > EPS_WRON:
                raise InvariantViolation(
                    f"max |[gamma, gamma'] - 1| = {dev:.3e} exceeds eps_wron = {EPS_WRON:.0e}"
                )

    @property
    def grid_size(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> np.ndarray:
        n = self.grid_size
        return self.period * np.arange(n) / n

    def doubled(self) -> np.ndarray:
        """Samples over the full period 2T, closing up via the sign flip."""
        return np.vstack([self.samples, -self.samples])

    def derivative(self, order: int = 1) -> np.ndarray:
        """Derivative samples on the stored half-period grid."""
        full = spectral_derivative(self.doubled(), 2.0 * self.period, order)
        return full[: self.grid_size]

    def shifted(self, delta: float) -> np.ndarray:
        """Samples of gamma(t + delta) on the stored half-period grid."""
        full = circular_shift(self.doubled(), 2.0 * self.period, delta)
        return full[: self.grid_size]


@dataclass(frozen=True)
class SupportBody:
    """Support function samples p(t_j) > 0 of a convex body, t_j = 2 pi j / N.

    Convexity is enforced through p + p'' > 0 at the grid points.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise InvariantViolation("support values must be a flat array")
        if not np.all(np.isfinite(vals)):
            raise InvariantViolation("support values contain non-finite entries")
        _require_power_of_two(vals.shape[0])
        if np.min(vals) <= 0:
            raise InvariantViolation("support function must be strictly positive")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
        if np.min(self.curvature_density()) <= 0:
            raise InvariantViolation("p + p'' must stay positive (convexity)")

    @property
    def grid_size(self) -> int:
        return self.values.shape[0]

    @property
    def grid(self) -> np.ndarray:
        n = self.grid_size
        return TWO_PI * np.arange(n) / n

    def derivative(self, order: int = 1) -> np.ndarray:
        return spectral_derivative(self.values, TWO_PI, order)

    def curvature_density(self) -> np.ndarray:
        """p + p'', the density of the curvature measure in the normal angle."""
        return self.values + self.derivative(2)

    def boundary_points(self) -> np.ndarray:
        """Boundary parameterized by the outward normal angle: p u + p' u'."""
        t = self.grid
        u = np.column_stack([np.cos(t), np.sin(t)])
        up = np.column_stack([-np.sin(t), np.cos(t)])
        return self.values[:, None] * u + self.derivative(1)[:, None] * up

    def area(self) -> float:
        p = self.values
        pp = self.derivative(1)
        return 0.5 * TWO_PI * float(np.mean(p * p - pp * pp))


def sl2_apply(matrix: SL2Matrix, obj):
    """Act by a unimodular matrix; returns an object of the same type.

    Star polygons and sampled curves keep their invariants because the area
    form is preserved exactly by determinant-one maps.
    """
    if not isinstance(matrix, SL2Matrix):
        matrix = SL2Matrix.from_array(matrix)
    m = matrix.array
    if isinstance(obj, StarPolygon):
        return StarPolygon(obj.vertices @ m.T)
    if isinstance(obj, SampledCurve):
        return SampledCurve(
            obj.samples @ m.T, obj.period, wronskian_normalized=obj.wronskian_normalized
        )
    arr = np.asarray(obj, dtype=float)
    return arr @ m.T
