"""Functionals on centro-affine parametrized loops.

A loop here is an antisymmetric curve gamma(t + T) = -gamma(t) with
[gamma, gamma'] = 1.  Every such loop comes from a circle diffeomorphism
through

    gamma(t) = f'(t)^(-1/2) * (cos f(t), sin f(t)),

where f(t) = t + g(t) with g a pi-periodic even-harmonic trig polynomial.
The chord-area functional

    I(alpha) = (1/pi) * integral_0^pi [gamma(t), gamma(t + alpha)] dt

equals sin(alpha) on the unit circle and on every SL(2) image of it; the
routines below evaluate it, expand its Hessian at the circle into Fourier
modes, and search for functions with I(alpha) < sin(alpha).

The same diffeomorphism drives two classical quantities: the area product
of the loop, T times the integral of the potential k = [gamma', gamma''] of
its Hill equation gamma'' + k gamma = 0, and the Schwarzian average of the
doubled circle map phi = 2 f; pointwise k = f'^2 + S(f)/2.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    AlphaOutOfRange,
    InvariantViolation,
    NotADiffeo,
    NotUnitSpeed,
)
from .planar import (
    DEFAULT_GRID,
    TWO_PI,
    SampledCurve,
    TrigSeries,
    _require_power_of_two,
    area_form,
    circular_shift,
    spectral_derivative,
)
from .reports import Report

# Hard floor on f' below which a harmonic packet stops being a diffeomorphism.
DELTA_DIFFEO = 0.05
# Speed tolerance for the unit-speed chord averages.
EPS_SPEED = 1e-6
# Deficits above this floor count as numerically nonnegative.
EPS_DEFICIT = 1e-7


class _PhaseMemo:
    """Phase matrices of DiffeoCurve evaluations, shared across instances.

    A phase matrix depends on the points and the orders, never on the
    coefficients, so a search that builds many packets with the same orders
    on the same grids needs each matrix once.  Entries are keyed by the
    frequencies and the raw bytes of the points; the least recently used
    goes first once either budget is exceeded, and a matrix larger than the
    byte budget is never stored.
    """

    def __init__(self, max_entries: int, max_bytes: int):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _cost(key: tuple, phases: np.ndarray) -> int:
        return phases.nbytes + len(key[0]) + len(key[2])

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored matrices and their keys."""
        return sum(self._cost(key, phases) for key, phases in self._entries.items())

    def phases(self, series: TrigSeries, t: np.ndarray) -> np.ndarray:
        key = (series.freq.tobytes(), t.shape, t.tobytes())
        phases = self._entries.get(key)
        if phases is not None:
            self._entries.move_to_end(key)
            return phases
        phases = series.phases(t)
        if self._cost(key, phases) <= self.max_bytes:
            phases.setflags(write=False)
            self._entries[key] = phases
            while len(self._entries) > self.max_entries or self.nbytes > self.max_bytes:
                self._entries.popitem(last=False)
        return phases


_PHASES = _PhaseMemo(max_entries=16, max_bytes=8 * 2**20)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < math.pi:
        raise AlphaOutOfRange(
            f"shift alpha={alpha!r} must lie strictly between 0 and pi"
        )
    return alpha


class DiffeoCurve:
    """Circle diffeomorphism f(t) = t + 2 Re sum z_n e^{int}, even n >= 2.

    The harmonic packet is given as a mapping order -> complex coefficient.
    Orders must be even and at least 2; f' is required to stay above
    DELTA_DIFFEO on a fine grid, otherwise NotADiffeo is raised.
    """

    def __init__(self, harmonics: Mapping[int, complex], grid: int = DEFAULT_GRID):
        items = sorted((int(k), complex(v)) for k, v in dict(harmonics).items())
        for order, coeff in items:
            if order < 2 or order % 2 != 0:
                raise InvariantViolation(
                    f"harmonic order {order} must be even and >= 2"
                )
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise InvariantViolation(f"harmonic z_{order} is not finite")
        _require_power_of_two(grid)
        self.harmonics = {k: v for k, v in items}
        self.grid_size = int(grid)
        # f - t as a real series: z_n e^{int} and its conjugate give 2 Re z_n e^{int}
        self._series = TrigSeries(
            [k for k, _ in items], 2.0 * np.array([v for _, v in items], dtype=complex), TWO_PI
        )
        fine = np.arange(4 * self.grid_size) * (math.pi / (2 * self.grid_size))
        fp_min = float(np.min(self.angle_map(fine, order=1)))
        if fp_min < DELTA_DIFFEO:
            raise NotADiffeo(
                f"min f' = {fp_min:.6g} is below the floor delta_diffeo = "
                f"{DELTA_DIFFEO}"
            )

    def angle_map(self, t, order: int = 0):
        """Evaluate f (order=0) or its derivative f^(order), exactly.

        The phase matrix at t comes from the process-wide ``_PHASES`` memo,
        so packets with the same orders evaluated at the same points share
        one matrix; the values do not depend on whether it was memoized.
        """
        t = np.asarray(t, dtype=float)
        val = self._series.combine(_PHASES.phases(self._series, t), order)
        if order == 0:
            return t + val
        if order == 1:
            return 1.0 + val
        return val

    def curve(self) -> SampledCurve:
        return curve_from_diffeo(self)


def curve_from_diffeo(diffeo: DiffeoCurve) -> SampledCurve:
    """Sample gamma = f'^(-1/2) (cos f, sin f) on the half-period grid."""
    samples = _curve_samples(diffeo, diffeo.grid_size)
    return SampledCurve(samples, period=math.pi, wronskian_normalized=True)


def _curve_samples(diffeo: DiffeoCurve, grid: int) -> np.ndarray:
    """Half-period samples without container validation, for hot loops."""
    t = np.arange(grid) * (math.pi / grid)
    f = diffeo.angle_map(t)
    scale = diffeo.angle_map(t, order=1) ** -0.5
    return np.column_stack([scale * np.cos(f), scale * np.sin(f)])


def area_functional(obj, alpha: float, route: str = "auto") -> float:
    """Chord-area value I(alpha) = (1/pi) int_0^pi [gamma(t), gamma(t+alpha)] dt.

    route="cross" shifts the sampled loop spectrally and averages the cross
    product; route="formula" uses the diffeomorphism form
    sin(f(t+alpha) - f(t)) / sqrt(f'(t+alpha) f'(t)) and needs a DiffeoCurve.
    The default picks the formula when a DiffeoCurve is given.
    """
    alpha = _check_alpha(alpha)
    if route == "auto":
        route = "formula" if isinstance(obj, DiffeoCurve) else "cross"
    if route == "formula":
        if not isinstance(obj, DiffeoCurve):
            raise InvariantViolation("formula route needs a DiffeoCurve")
        t = np.arange(obj.grid_size) * (math.pi / obj.grid_size)
        f0 = obj.angle_map(t)
        f1 = obj.angle_map(t + alpha)
        fp0 = obj.angle_map(t, order=1)
        fp1 = obj.angle_map(t + alpha, order=1)
        return float(np.mean(np.sin(f1 - f0) / np.sqrt(fp1 * fp0)))
    if route != "cross":
        raise InvariantViolation(f"unknown route {route!r}")
    curve = obj.curve() if isinstance(obj, DiffeoCurve) else obj
    if not isinstance(curve, SampledCurve):
        raise InvariantViolation("cross route needs a SampledCurve or DiffeoCurve")
    shifted = curve.shifted(alpha)
    return float(np.mean(area_form(curve.samples, shifted)))


def _profile_from_samples(half_samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I at every grid shift via one FFT cross-correlation pass.

    x and y of the antipodally doubled loop are the rows of one (2, 2N)
    array, transformed in one call; each row gets the bits of its own
    transform.
    """
    n = half_samples.shape[0]
    doubled = np.empty((2, 2 * n))
    doubled[:, :n] = half_samples.T
    np.negative(half_samples.T, out=doubled[:, n:])
    x, y = np.fft.fft(doubled)
    corr = np.fft.ifft(np.conj(x) * y - np.conj(y) * x)[: n + 1].real / (2 * n)
    alphas = np.arange(n + 1) * (math.pi / n)
    return alphas, corr


def area_functional_profile(obj) -> tuple[np.ndarray, np.ndarray]:
    """I(alpha) at all grid shifts alpha = k pi / N, k = 0..N, in one pass."""
    if isinstance(obj, DiffeoCurve):
        samples = _curve_samples(obj, obj.grid_size)
    elif isinstance(obj, SampledCurve):
        samples = obj.samples
    else:
        raise InvariantViolation("profile needs a SampledCurve or DiffeoCurve")
    return _profile_from_samples(samples)


def petty_product(curve: SampledCurve) -> float:
    """Area product T * int_0^T k dt of the loop and its polar dual.

    k = [gamma', gamma''] is the potential of the Hill equation
    gamma'' + k gamma = 0 that the loop solves.  The product is at most
    pi^2, with equality exactly on conics.
    """
    if not curve.wronskian_normalized:
        raise InvariantViolation("area product needs [gamma, gamma'] = 1")
    k = area_form(curve.derivative(1), curve.derivative(2))
    return curve.period * float(np.mean(k) * curve.period)


def schwarzian(f_samples: np.ndarray, period: float) -> np.ndarray:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 on the sample grid.

    Assumes f winds once, i.e. f(t + period) = f(t) + period, so that
    f(t) - t is periodic and spectral differentiation applies.
    """
    f = np.asarray(f_samples, dtype=float)
    if f.ndim != 1:
        raise InvariantViolation("schwarzian expects a 1-d sample array")
    _require_power_of_two(f.shape[0])
    t = np.arange(f.shape[0]) * (period / f.shape[0])
    g = f - t
    fp = 1.0 + spectral_derivative(g, period, 1)
    if np.min(fp) <= 0.0:
        raise NotADiffeo("f' has a nonpositive value; not a circle diffeomorphism")
    return _schwarzian(fp, spectral_derivative(g, period, 2), spectral_derivative(g, period, 3))


def _schwarzian(fp, fpp, fppp):
    """S(f) = f'''/f' - (3/2)(f''/f')^2 from the first three derivatives of f."""
    return fppp / fp - 1.5 * (fpp / fp) ** 2


def average_schwarzian(obj) -> float:
    """Integral over [0, 2pi) of (1/2) phi'^2 + S(phi) for a circle map phi.

    Accepts a DiffeoCurve (derivatives evaluated analytically) or a raw
    array of phi samples on the uniform 2pi grid with unit winding.  The
    value is at most pi, with equality exactly on Moebius maps.
    """
    if isinstance(obj, DiffeoCurve):
        t = np.arange(2 * obj.grid_size) * (math.pi / obj.grid_size)
        fp, fpp, fppp = (obj.angle_map(t, order=k) for k in (1, 2, 3))
        return float(TWO_PI * np.mean(0.5 * fp**2 + _schwarzian(fp, fpp, fppp)))
    phi = np.asarray(obj, dtype=float)
    s_val = schwarzian(phi, TWO_PI)
    t = np.arange(phi.shape[0]) * (TWO_PI / phi.shape[0])
    fp = 1.0 + spectral_derivative(phi - t, TWO_PI, 1)
    return float(TWO_PI * np.mean(0.5 * fp**2 + s_val))


@dataclass(frozen=True)
class HessianMode:
    """Second-variation weight of one Fourier mode of the chord functional."""

    order: int
    alpha: float
    value: float


def _mode_values(order: float, alphas: np.ndarray) -> np.ndarray:
    n2 = order * order
    return (
        (3.0 * n2 - 4.0) * np.sin(alphas)
        + (n2 + 4.0) * np.sin(alphas) * np.cos(order * alphas)
        - 4.0 * order * np.cos(alphas) * np.sin(order * alphas)
    )


def hessian_mode_value(order: int, alpha: float) -> HessianMode:
    """Closed form for the quadratic part of I(alpha) - sin(alpha).

    Perturbing the circle by the single harmonic z_n e^{int} changes the
    functional by (1/2) |z_n|^2 f_n(alpha) + O(|z_n|^3) with

        f_n = (3n^2-4) sin a + (n^2+4) sin a cos na - 4n cos a sin na.

    Modes n = 0 and n = 2 are flat (Moebius directions).
    """
    order = int(order)
    if order < 0 or order % 2 != 0:
        raise InvariantViolation(f"mode order {order} must be even and >= 0")
    alpha = _check_alpha(alpha)
    value = float(_mode_values(float(order), np.array(alpha)))
    return HessianMode(order=order, alpha=alpha, value=value)


def hessian_mode_numeric(order: int, alpha: float, eps: float = 1e-3) -> float:
    """Second difference of I along one harmonic, normalized by eps^2.

    Perturbs the circle map by z_n = +-eps/2 on the given order.  For small
    eps the value settles at f_n(alpha) / 4, so the ratio against
    hessian_mode_value is a mode- and alpha-independent constant.
    """
    order = int(order)
    if order < 2 or order % 2 != 0:
        raise InvariantViolation(f"mode order {order} must be even and >= 2")
    if not 1e-4 <= eps <= 1e-2:
        raise InvariantViolation(f"eps={eps!r} outside the stable window [1e-4, 1e-2]")
    alpha = _check_alpha(alpha)
    plus = area_functional(DiffeoCurve({order: eps / 2.0}), alpha, route="formula")
    minus = area_functional(DiffeoCurve({order: -eps / 2.0}), alpha, route="formula")
    return (plus + minus - 2.0 * math.sin(alpha)) / (eps * eps)


def positivity_scan(n_max: int, grid: int = 400) -> Report:
    """Certify f_n > 0 on an interior alpha grid for even 4 <= n <= n_max.

    Also tabulates the normalized small-alpha slope ratio
    sqrt((n^2-4)/2) * tan(pi/(2n)), which increases in n; its value at
    n = 4 is the tightest margin of the whole family.
    """
    n_max = int(n_max)
    if n_max < 4 or n_max > 256 or n_max % 2 != 0:
        raise InvariantViolation(f"n_max={n_max} must be even with 4 <= n_max <= 256")
    grid = int(grid)
    if grid < 8:
        raise InvariantViolation("alpha grid too coarse to certify positivity")
    alphas = np.arange(1, grid + 1) * (math.pi / (grid + 1))
    orders = list(range(4, n_max + 1, 2))
    minima = []
    ratios = []
    for n in orders:
        vals = _mode_values(float(n), alphas)
        minima.append(float(np.min(vals)))
        ratios.append(math.sqrt((n * n - 4.0) / 2.0) * math.tan(math.pi / (2.0 * n)))
    all_positive = all(m > 0.0 for m in minima)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    return Report(
        command="hessian-scan",
        inputs={"n_max": n_max, "grid": grid},
        results={
            "orders": orders,
            "min_values": minima,
            "slope_ratios": ratios,
            "tightest_ratio": ratios[0],
        },
        bounds={"positivity_floor": 0.0},
        satisfied=bool(all_positive and increasing),
        flags={"all_modes_positive": all_positive, "ratios_increasing": increasing},
    )


def criticality_residual(curve: SampledCurve, alpha: float) -> np.ndarray:
    """Pointwise Euler-Lagrange residual of I(alpha), zero on conics.

    The first variation of I at gamma vanishes iff
    3 [gamma', gamma_+ - gamma_-] + [gamma, gamma_+' - gamma_-'] = 0
    with gamma_{+-}(t) = gamma(t +- alpha).
    """
    alpha = _check_alpha(alpha)
    if not curve.wronskian_normalized:
        raise InvariantViolation("criticality residual needs [gamma, gamma'] = 1")
    d1 = curve.derivative(1)
    # columns gamma, gamma' on the doubled grid, shifted together
    both = np.hstack([curve.samples, d1])
    both = np.vstack([both, -both])
    n = curve.grid_size
    period_full = 2.0 * curve.period
    diff = (
        circular_shift(both, period_full, alpha)[:n]
        - circular_shift(both, period_full, -alpha)[:n]
    )
    return 3.0 * area_form(d1, diff[:, :2]) + area_form(curve.samples, diff[:, 2:])


def chord_average(samples: np.ndarray, offset: float, fn: Callable | None = None) -> float:
    """Average of fn(|gamma(s + offset) - gamma(s)|^2) over a unit-speed loop.

    samples holds a closed curve on the uniform 2pi arclength grid; speeds
    must be 1 within EPS_SPEED.  For concave increasing fn the average is
    at most fn(4 sin^2(offset/2)), with equality on the unit circle.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvariantViolation("chord average expects an (N, 2) sample array")
    _require_power_of_two(pts.shape[0])
    offset = float(offset)
    if not 0.0 < offset < TWO_PI:
        raise AlphaOutOfRange(f"chord offset {offset!r} must lie in (0, 2pi)")
    speed = np.hypot(*spectral_derivative(pts, TWO_PI, 1).T)
    worst = float(np.max(np.abs(speed - 1.0)))
    if worst > EPS_SPEED:
        raise NotUnitSpeed(
            f"speed deviates from 1 by {worst:.3g} (tolerance {EPS_SPEED})"
        )
    shifted = circular_shift(pts, TWO_PI, offset)
    sq = np.sum((shifted - pts) ** 2, axis=1)
    vals = sq if fn is None else fn(sq)
    return float(np.mean(vals))


def chord_bound(offset: float, fn: Callable | None = None) -> float:
    """Circle value fn(4 sin^2(offset/2)) that bounds the chord average."""
    val = 4.0 * math.sin(float(offset) / 2.0) ** 2
    return float(val if fn is None else fn(val))


def polygon_diagonal_average(
    vertices: np.ndarray, k: int, fn: Callable | None = None
) -> float:
    """(1/n) sum_i fn(|V_{i+k} - V_i|^2) over a closed polygon."""
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise InvariantViolation("need at least 3 polygon vertices")
    n = pts.shape[0]
    k = int(k)
    if not 1 <= k <= n - 1:
        raise InvariantViolation(f"diagonal offset k={k} must satisfy 1 <= k <= n-1")
    diff = np.roll(pts, -k, axis=0) - pts
    sq = np.sum(diff * diff, axis=1)
    vals = sq if fn is None else fn(sq)
    return float(np.mean(vals))


def polygon_diagonal_bound(
    vertices: np.ndarray, k: int, fn: Callable | None = None
) -> float:
    """Regular-polygon value fn(C^2 sin^2(k pi/n) / sin^2(pi/n)), C = max side."""
    pts = np.asarray(vertices, dtype=float)
    n = pts.shape[0]
    k = int(k)
    side_sq = np.sum((np.roll(pts, -1, axis=0) - pts) ** 2, axis=1)
    c_sq = float(np.max(side_sq))
    ratio = math.sin(k * math.pi / n) ** 2 / math.sin(math.pi / n) ** 2
    val = c_sq * ratio
    return float(val if fn is None else fn(val))


def _deficit_objective(params, orders, alpha_idx, grid):
    harmonics = {int(orders[0]): complex(params[0], 0.0)}
    for j, order in enumerate(orders[1:]):
        harmonics[int(order)] = complex(params[1 + 2 * j], params[2 + 2 * j])
    try:
        diffeo = DiffeoCurve(harmonics, grid=grid)
    except NotADiffeo:
        return 10.0
    samples = _curve_samples(diffeo, grid)
    alphas, values = _profile_from_samples(samples)
    deficit = values[alpha_idx] - np.sin(alphas[alpha_idx])
    return float(deficit.min())


def _nelder_mead(fun, x0, args, maxiter, xatol, fatol):
    """Nelder-Mead simplex search, step for step as scipy's ``minimize`` runs it.

    Non-adaptive coefficients, a 5 % initial simplex (0.00025 on zero
    coordinates), and a stop once both the simplex and its values span at
    most ``xatol`` and ``fatol``, or after ``maxiter`` iterations.  Returns
    the best vertex, its value and the number of objective calls.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(np.copy(x), *args)

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim], dtype=float)
    # scipy sorts twice before the first iteration; argsort is not stable on ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = f(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = f(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim)), nfev


def _alpha_indices(alpha_grid: int, grid: int) -> np.ndarray:
    """Distinct grid shifts nearest to alpha_grid equally spaced interior angles."""
    if alpha_grid + 1 >= grid:
        # steps of at most one cell round onto every interior shift
        return np.arange(1, grid)
    alpha_idx = np.clip(
        np.round((np.arange(1, alpha_grid + 1) * grid) / (alpha_grid + 1)).astype(int),
        1,
        grid - 1,
    )
    # sorted, so repeats are neighbours (np.unique would load numpy.ma)
    return alpha_idx[np.diff(alpha_idx, prepend=0) > 0]


def deficit_search(
    cutoff: int,
    trials: int,
    alpha_grid: int,
    seed: int,
    *,
    grid: int = 256,
    z_bound: float = 0.3,
    maxiter: int | None = None,
) -> Report:
    """Minimize min_alpha (I(alpha) - sin(alpha)) over truncated harmonic packets.

    Packets use orders 4, 6, ..., 2*cutoff with z_2 = 0 and Im z_4 = 0 as
    rotation gauge.  Each trial draws a start from its own child stream of
    the given seed, polishes with Nelder-Mead, and the report records the
    most negative deficit found; values above -EPS_DEFICIT support the
    conjecture that the circle is the minimum.
    """
    cutoff = int(cutoff)
    if not 2 <= cutoff <= 16:
        raise InvariantViolation(f"harmonic cutoff {cutoff} must satisfy 2 <= M <= 16")
    trials = int(trials)
    if trials < 1:
        raise InvariantViolation("need at least one search trial")
    alpha_grid = int(alpha_grid)
    if alpha_grid < 1:
        raise InvariantViolation("need at least one alpha sample")
    _require_power_of_two(grid)
    orders = list(range(4, 2 * cutoff + 1, 2))
    dim = 1 + 2 * (len(orders) - 1)
    alpha_idx = _alpha_indices(alpha_grid, grid)
    if maxiter is None:
        maxiter = 400 * dim
    best = math.inf
    best_params = None
    evaluations = 0
    for trial in range(trials):
        rng = np.random.default_rng([int(seed), trial])
        x0 = None
        for _ in range(64):
            cand = np.empty(dim)
            mags = z_bound * rng.uniform(0.0, 1.0, size=len(orders)) / np.asarray(orders)
            phases = rng.uniform(0.0, TWO_PI, size=len(orders))
            cand[0] = mags[0]
            for j in range(1, len(orders)):
                cand[1 + 2 * (j - 1)] = mags[j] * math.cos(phases[j])
                cand[2 + 2 * (j - 1)] = mags[j] * math.sin(phases[j])
            if _deficit_objective(cand, orders, alpha_idx, grid) < 9.0:
                x0 = cand
                break
        if x0 is None:
            continue
        x, fun, nfev = _nelder_mead(
            _deficit_objective, x0, (orders, alpha_idx, grid), maxiter, 1e-10, 1e-13
        )
        evaluations += nfev
        if fun < best:
            best = fun
            best_params = x.copy()
    harmonics_out = []
    if best_params is not None:
        harmonics_out.append([orders[0], float(best_params[0]), 0.0])
        for j, order in enumerate(orders[1:]):
            harmonics_out.append(
                [order, float(best_params[1 + 2 * j]), float(best_params[2 + 2 * j])]
            )
    return Report(
        command="conjecture-search",
        inputs={
            "cutoff": cutoff,
            "trials": trials,
            "alpha_grid": alpha_grid,
            "seed": int(seed),
            "grid": grid,
            "z_bound": z_bound,
        },
        results={
            "best_deficit": best,
            "best_harmonics": harmonics_out,
            "objective_evaluations": evaluations,
        },
        bounds={"deficit_floor": -EPS_DEFICIT},
        satisfied=bool(best >= -EPS_DEFICIT),
        flags={"counterexample": bool(best < -EPS_DEFICIT)},
    )
