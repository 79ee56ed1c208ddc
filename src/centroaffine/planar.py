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

    def __init__(self, orders, coeffs, period: float, nyquist: bool = False):
        self.orders = np.asarray(orders, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.period = float(period)
        self.nyquist = nyquist  # the last order is the Nyquist mode of the samples
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
        return cls(
            np.arange(coeffs.shape[0]), _per_mode(weights, coeffs) * coeffs, period, nyquist=True
        )

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

    def prefix(self, count: int) -> "TrigSeries":
        """The series of the first ``count`` orders; its phase matrix is a column prefix."""
        if count >= self.orders.size:
            return self
        return TrigSeries(self.orders[:count], self.coeffs[:count], self.period)

    def chopped(self) -> "TrigSeries":
        """The prefix that ends with the last order above the rounding floor of the samples.

        Chebfun's chop for trigonometric series (J. L. Aurentz and
        L. N. Trefethen, *Chopping a Chebyshev series*, ACM TOMS 43, 2017).
        Read the series as ``from_samples`` of N = 2 max(orders) samples x_j.
        Each coefficient is w_m / N times the sum of the N terms
        x_j e^{-2 pi i j m / N}, with weight w_m <= 2.  Whatever order the
        rfft adds them in, that sum is rounded by at most about N u times
        the sum of the |x_j| (u = eps / 2; N. J. Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., section 4.2), so the
        coefficient by at most about w_m N u max |x_j| <= N eps sum_m |c_m|,
        since |x_j| <= sum_m |c_m|.  That is the floor: 1.1e-13 sum |c| at
        N = 512 and 2.3e-13 at N = 1024.  The FFT's own rounding is nearer
        log2(N) u; the margin covers samples that carry rounding of their
        own, such as a spectral derivative's, which grows with the order.
        Every dropped coefficient lies at or below the floor, so the k-th
        derivative moves by at most the floor times the sum of |omega m|^k
        over the dropped orders.  At least the first order is kept, and a cut
        series no longer holds the Nyquist mode.
        """
        if self.orders.size == 0:  # e.g. the antiderivative of a constant
            return self
        mags = np.abs(self.coeffs).reshape(self.orders.size, -1)
        floor = 2.0 * self.orders.max() * np.finfo(float).eps * mags.sum(axis=0).max()
        above = np.nonzero(mags.max(axis=1) > floor)[0]
        return self.prefix(int(above[-1]) + 1 if above.size else 1)

    def antiderivative(self) -> "TrigSeries":
        """Series whose derivative is f without its mean (and Nyquist) mode.

        The first order is taken as the mean, which has no periodic
        antiderivative, and is dropped.  A series from ``from_samples`` also
        ends in the Nyquist mode, whose antiderivative the samples do not
        determine, and drops it too, so its phase matrix is columns 1:-1 of
        the original's; a chopped series keeps its last order (columns 1:).
        """
        stop = self.orders.size - 1 if self.nyquist else self.orders.size
        coeffs = self.coeffs[1:stop]
        freq = self.freq[1:stop]
        return TrigSeries(self.orders[1:stop], coeffs / _per_mode(freq, coeffs), self.period)


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
    re-parameterize curves by arclength or by swept area.  Newton runs on
    the density's series chopped at its rounding floor
    (``TrigSeries.chopped``), from the grid inversion of the mass
    (``_mass_inverse``), and stops once the mass is within 1e-13 of its
    total after at least one step, or after 50 steps.  Each iterate builds
    one phase matrix, which gives both the density and, as its columns from
    1 on, its antiderivative; the previous iterate's matrix is freed first,
    so at most one n_out x K matrix is alive for the K kept orders.  The
    slice gives the same bits as a matrix built for the antiderivative's
    orders; padding its coefficients with zeros to the full order list
    would not.
    """
    return _resample_with_phases(density, period, n_out)[0]


def _resample_with_phases(density, period: float, n_out: int, keep: int = 1):
    """``resample_by_density`` and the phase matrix of the density's series at its result.

    The matrix has a column for each of the chopped density's orders, and
    for at least the first ``keep`` orders, so any series from samples on
    the same grid as ``density`` that is cut to that many orders can be
    evaluated at the resampled points from it with ``combine``.
    """
    density = np.asarray(density, dtype=float)
    if n_out < 1:
        raise InvariantViolation(f"need at least one resampled point, got n_out = {n_out}")
    if not np.all(np.isfinite(density)):
        raise InvariantViolation("density contains non-finite values")
    if np.min(density) <= 0:
        raise InvariantViolation("density must be strictly positive")
    dense = TrigSeries.from_samples(density, period)
    series = dense.prefix(max(dense.chopped().orders.size, keep))
    mean = series.coeffs[0].real
    wiggle = series.antiderivative()
    columns = slice(1, 1 + wiggle.orders.size)
    wiggle0 = wiggle.series(0.0)
    targets = mean * period * np.arange(n_out) / n_out
    theta = _mass_inverse(density, period, targets)
    for step in range(51):
        phases = None  # free the previous iterate's matrix before building the next
        phases = series.phases(theta)
        val = mean * theta + (wiggle.combine(phases[:, columns]) - wiggle0) - targets
        # the start is only O(h^4) close, so at least one step is always taken
        if step == 50 or (step > 0 and np.max(np.abs(val)) < 1e-13 * mean * period):
            break
        theta = theta - val / series.combine(phases)
    return theta, phases


def _mass_inverse(density, period: float, targets) -> np.ndarray:
    """Newton's start for ``resample_by_density``: the grid inversion of the cumulative mass.

    The mass M(t) at the grid nodes comes from one FFT antiderivative of the
    samples.  Between two nodes the inverse t(M) is the cubic Hermite
    interpolant with slopes dt/dM = 1/density, whose error is O(h^4) in the
    mass step h, so one Newton step then lands within rounding.
    """
    n = density.shape[0]
    wiggle = _fourier_multiply(density, period, lambda k: np.r_[0.0, 1.0 / (1j * k[1:-1]), 0.0])
    mean = float(np.mean(density))
    nodes = np.append(mean * period * np.arange(n) / n + (wiggle - wiggle[0]), mean * period)
    slopes = np.append(density, density[0])
    j = np.clip(np.searchsorted(nodes, targets, side="right") - 1, 0, n - 1)
    h = nodes[j + 1] - nodes[j]
    s = (targets - nodes[j]) / h
    lo = period * j / n
    return (
        (1.0 + 2.0 * s) * (1.0 - s) ** 2 * lo
        + s * (1.0 - s) ** 2 * h / slopes[j]
        + s * s * (3.0 - 2.0 * s) * (lo + period / n)
        + s * s * (s - 1.0) * h / slopes[j + 1]
    )


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
