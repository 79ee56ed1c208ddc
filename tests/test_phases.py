"""One phase matrix per point set: every reuse keeps the bits of a fresh evaluation.

The reference below is the evaluator as it stood before phase matrices were
shared: a new e^{i omega m t} matrix for every call.  Each reuse is compared
to it with np.array_equal or ==, not with a tolerance.  Given the dense
series of all N/2 + 1 orders in place of the chopped one, the same reference
is the dense evaluator, the oracle that the chopped resample and loop are held
to within a stated multiple of the rounding floor.
"""

import math
import tracemalloc

import numpy as np
import pytest

from centroaffine import billiards, curves, sampling
from centroaffine.planar import (
    TWO_PI,
    TrigSeries,
    _mass_inverse,
    _resample_with_phases,
    resample_by_density,
    spectral_derivative,
)

EPS = np.finfo(float).eps
NEWTON_TOL = 1e-13  # the resample's stopping rule, |residual| < NEWTON_TOL * mean * period


def reference_series(series, t, order=0):
    coeffs = series.coeffs
    if order:
        weights = series.freq**order
        coeffs = weights.reshape(weights.shape + (1,) * (coeffs.ndim - 1)) * coeffs
    return (np.exp(np.multiply.outer(t, series.freq)) @ coeffs).real


def resample_series(density, period, keep=1):
    """The density's series as the resample cuts it: chopped, and at least ``keep`` orders."""
    dense = TrigSeries.from_samples(density, period)
    return dense.prefix(max(dense.chopped().orders.size, keep))


def reference_resample(series, n_out, density=None):
    """The resample's Newton on ``series``, a fresh matrix per evaluation.

    Given the ``density`` samples, Newton starts as resample_by_density does,
    from the grid inversion of the mass; without, it starts as the dense
    evaluator did, from the uniform grid.
    """
    period = series.period
    mean = series.coeffs[0].real
    wiggle = series.antiderivative()
    wiggle0 = reference_series(wiggle, 0.0)
    targets = mean * period * np.arange(n_out) / n_out
    if density is None:
        theta = period * np.arange(n_out) / n_out
    else:
        theta = _mass_inverse(density, period, targets)
    for step in range(50):
        val = mean * theta + (reference_series(wiggle, theta) - wiggle0) - targets
        if step >= (density is not None) and np.max(np.abs(val)) < NEWTON_TOL * mean * period:
            break
        theta = theta - val / reference_series(series, theta)
    return theta


def dense_resample(density, period, n_out):
    return reference_resample(TrigSeries.from_samples(density, period), n_out)


def loop_samples(rng, max_order=5, grid=1024):
    """The draws of sampling.random_unit_speed_loop: the radial graph's points and speed."""
    orders = np.arange(1, max_order + 1)
    amp = rng.normal(size=orders.size) / (1.0 + orders)
    phases = rng.uniform(0.0, TWO_PI, size=orders.size)
    budget = float(np.sum(np.abs(amp) * (1.0 + orders)))
    scale = rng.uniform(0.1, 1.0) * 0.25 / budget
    t = TWO_PI * np.arange(grid) / grid
    r = 1.0 + (scale * amp) @ np.cos(np.multiply.outer(orders, t) + phases[:, None])
    pts = r[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    return pts, np.hypot(*spectral_derivative(pts, TWO_PI, 1).T)


def reference_unit_speed_loop(rng, chop=True):
    """sampling.random_unit_speed_loop with a fresh matrix per evaluation.

    With ``chop`` the speed's series is cut as the loop cuts it, and the
    points' series to the same orders; without, both are dense.
    """
    pts, speed = loop_samples(rng)
    points = TrigSeries.from_samples(pts, TWO_PI)
    series = TrigSeries.from_samples(speed, TWO_PI)
    if chop:
        series = resample_series(speed, TWO_PI, keep=points.chopped().orders.size)
        points = points.prefix(series.orders.size)
    theta = reference_resample(series, speed.size, speed if chop else None)
    return reference_series(points, theta) * (TWO_PI / (TWO_PI * float(np.mean(speed))))


def rounding_floor(series):
    """TrigSeries.chopped's floor N eps sum |c_m| for a dense series of N samples."""
    mags = np.abs(series.coeffs).reshape(series.orders.size, -1)
    return 2.0 * series.orders.max() * EPS * mags.sum(axis=0).max()


def tail_bound(dense, kept, order):
    """Largest change of the order-th derivative (order -1: the antiderivative) from the cut.

    Each order m that the chopped series drops holds a coefficient at most
    the floor, and enters the derivative with weight |omega m|^order.
    """
    # the dense antiderivative has no Nyquist order to drop
    dropped = dense.orders[kept:-1] if order < 0 else dense.orders[kept:]
    omega_m = (TWO_PI / dense.period) * dropped
    return rounding_floor(dense) * float(np.sum(omega_m**order))


def reference_angle_map(diffeo, t, order=0):
    t = np.asarray(t, dtype=float)
    val = reference_series(diffeo._series, t, order)
    return t + val if order == 0 else 1.0 + val if order == 1 else val


def smooth_density(rng, n):
    """A positive density on n points with a decaying spectrum."""
    noise = np.fft.rfft(rng.normal(size=n)) * np.exp(-np.arange(n // 2 + 1) / 6.0)
    wiggle = np.fft.irfft(noise, n=n)
    return 1.0 + 0.6 * wiggle / np.max(np.abs(wiggle))


@pytest.mark.parametrize("shape", [(), (2,)])
def test_series_matches_a_fresh_matrix(rng, shape):
    orders = np.array([0, 1, 3, 4, 9])
    coeffs = rng.normal(size=(5, *shape)) + 1j * rng.normal(size=(5, *shape))
    series = TrigSeries(orders, coeffs, 2.5)
    for t in (0.7, np.linspace(-1.0, 4.0, 37)):
        for order in range(4):
            assert np.array_equal(series.series(t, order), reference_series(series, t, order))


def test_resample_by_density_matches_a_fresh_matrix(rng):
    for n, count in ((64, 10), (256, 10), (1024, 3)):
        for _ in range(count):
            density = smooth_density(rng, n)
            assert np.array_equal(
                resample_by_density(density, TWO_PI, n),
                reference_resample(resample_series(density, TWO_PI), n, density),
            )


def test_resample_returns_the_last_iterate_when_newton_stalls(rng, monkeypatch):
    # with np.max reading inf neither loop meets its tolerance, so both run all 50 steps
    density = smooth_density(rng, 64)
    monkeypatch.setattr(np, "max", lambda values, *a, **k: math.inf)
    assert np.array_equal(
        resample_by_density(density, TWO_PI, 64),
        reference_resample(resample_series(density, TWO_PI), 64, density),
    )


@pytest.mark.parametrize("seed", range(5))
def test_unit_speed_loop_matches_a_fresh_matrix(seed):
    loop = sampling.random_unit_speed_loop(np.random.default_rng(seed))
    assert np.array_equal(loop, reference_unit_speed_loop(np.random.default_rng(seed)))


def test_unit_speed_loop_holds_one_phase_matrix():
    grid = 1024
    one_matrix = grid * (grid // 2 + 1) * np.dtype(complex).itemsize
    sampling.random_unit_speed_loop(np.random.default_rng(0), grid=grid)
    tracemalloc.start()
    try:
        sampling.random_unit_speed_loop(np.random.default_rng(1), grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chopped matrix holds a few dozen of the 513 columns
    assert peak <= 0.25 * one_matrix


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_chopped_series_matches_the_dense_one_to_the_floor(rng, n):
    t = np.linspace(-1.0, 7.0, 301)
    for _ in range(4):
        dense = TrigSeries.from_samples(smooth_density(rng, n), TWO_PI)
        chopped = dense.chopped()
        kept = chopped.orders.size
        assert np.array_equal(chopped.orders, dense.orders[:kept])
        # the cut falls right after the last coefficient above the floor
        floor = rounding_floor(dense)
        assert np.all(np.abs(dense.coeffs[kept:]) <= floor) and abs(dense.coeffs[kept - 1]) > floor
        for order in range(3):
            change = np.abs(chopped.series(t, order) - dense.series(t, order))
            assert np.max(change) <= tail_bound(dense, kept, order)
        change = np.abs(chopped.antiderivative().series(t) - dense.antiderivative().series(t))
        assert np.max(change) <= tail_bound(dense, kept, -1)
        if n == 64:
            # every mode lies above the floor: the series keeps its Nyquist mode,
            # and its antiderivative drops it as the dense one does
            assert chopped is dense and chopped.nyquist
            assert chopped.antiderivative().orders.size == kept - 2


def test_chopped_series_keeps_its_last_order_in_the_antiderivative():
    period = 3.0
    grid = period * np.arange(64) / 64
    dense = TrigSeries.from_samples(2.0 + np.cos(5.0 * (TWO_PI / period) * grid), period)
    chopped = dense.chopped()
    assert chopped.orders.tolist() == [0, 1, 2, 3, 4, 5] and not chopped.nyquist
    anti = chopped.antiderivative()
    assert anti.orders.tolist() == [1, 2, 3, 4, 5]
    query = np.linspace(0.0, period, 17)
    expected = np.sin(5.0 * (TWO_PI / period) * query) / (5.0 * (TWO_PI / period))
    np.testing.assert_allclose(anti.series(query), expected, atol=1e-14)


def test_chop_keeps_order_zero_of_a_zero_series():
    series = TrigSeries.from_samples(np.zeros(16), TWO_PI).chopped()
    assert series.orders.tolist() == [0]
    # its antiderivative has no orders left, and chops to itself
    assert series.antiderivative().chopped().orders.size == 0


def resample_bound(density, period):
    """How far the chopped resample may move theta from the dense one.

    Both Newton runs stop with |F(theta) - target| below NEWTON_TOL * mean *
    period, and the chopped cumulative mass F differs from the dense one by
    at most the antiderivative's tail bound; F' is the density, so theta
    moves by at most their sum over its least value.
    """
    dense = TrigSeries.from_samples(density, period)
    kept = resample_series(density, period).orders.size
    newton = 2.0 * NEWTON_TOL * dense.coeffs[0].real * period
    return (tail_bound(dense, kept, -1) + newton) / float(np.min(density))


def test_chopped_resample_matches_the_dense_oracle(rng):
    for n, count in ((64, 4), (256, 4), (1024, 4)):
        for _ in range(count):
            density = smooth_density(rng, n)
            theta = resample_by_density(density, TWO_PI, n)
            dense = dense_resample(density, TWO_PI, n)
            if n < 1024:
                # every mode survives the chop; only Newton's start differs
                assert resample_series(density, TWO_PI).orders.size == n // 2 + 1
            assert np.max(np.abs(theta - dense)) <= resample_bound(density, TWO_PI)


def test_resample_matrix_serves_a_longer_series():
    # a circle at constant speed: the density keeps order 0 alone, the points need order 1
    grid = TWO_PI * np.arange(64) / 64
    points = TrigSeries.from_samples(np.column_stack([np.cos(grid), np.sin(grid)]), TWO_PI)
    keep = points.chopped().orders.size
    theta, phases = _resample_with_phases(np.ones(64), TWO_PI, 64, keep=keep)
    assert keep == 2 and phases.shape == (64, 2)
    circle = points.prefix(phases.shape[1]).combine(phases)
    np.testing.assert_allclose(circle, np.column_stack([np.cos(theta), np.sin(theta)]), atol=1e-15)


def test_mass_inversion_leaves_one_newton_step():
    # a start within 1e-9 lands within rounding after one step: the error
    # left is about e^2 |f'| / 2f
    for seed in range(8):
        speed = loop_samples(np.random.default_rng(seed))[1]
        targets = np.mean(speed) * TWO_PI * np.arange(speed.size) / speed.size
        start = _mass_inverse(speed, TWO_PI, targets)
        assert np.max(np.abs(start - resample_by_density(speed, TWO_PI, speed.size))) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_chopped_unit_speed_loop_matches_the_dense_oracle(seed):
    loop = sampling.random_unit_speed_loop(np.random.default_rng(seed))
    dense = reference_unit_speed_loop(np.random.default_rng(seed), chop=False)
    pts, speed = loop_samples(np.random.default_rng(seed))
    # a unit-speed loop moves by at most max speed / mean speed per unit of theta
    # (rescaled to length 2 pi), plus the points' own dropped orders
    points = TrigSeries.from_samples(pts, TWO_PI)
    kept = resample_series(speed, TWO_PI, keep=points.chopped().orders.size).orders.size
    bound = (
        resample_bound(speed, TWO_PI) * float(np.max(speed))
        + tail_bound(points, kept, 0)
    ) / float(np.mean(speed))
    assert np.max(np.abs(loop - dense)) <= bound


@pytest.mark.parametrize("seed", range(4))
def test_chopped_support_gauge_matches_the_dense_one(seed, monkeypatch):
    table = sampling.random_support_table(np.random.default_rng(seed))
    rng = np.random.default_rng(100 + seed)
    theta = rng.uniform(0.0, TWO_PI, 500)
    vectors = rng.uniform(0.5, 2.0, 500)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    chopped = billiards.gauge_function(table)(vectors)
    monkeypatch.setattr(TrigSeries, "chopped", lambda series: series)
    dense = billiards.gauge_function(table)(vectors)
    assert np.max(np.abs(chopped / dense - 1.0)) <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_angle_map_matches_a_fresh_matrix(seed):
    diffeo = sampling.random_diffeo(np.random.default_rng(seed), grid=256)
    for t in (np.linspace(0.0, 7.0, 101), np.arange(256) * (math.pi / 256), 1.25):
        for order in range(4):
            # the second call reads the memoized matrix
            for _ in range(2):
                assert np.array_equal(
                    diffeo.angle_map(t, order), reference_angle_map(diffeo, t, order)
                )


def test_average_schwarzian_matches_a_fresh_matrix(monkeypatch):
    diffeos = [sampling.random_diffeo(np.random.default_rng(seed)) for seed in range(4)]
    shared = [curves.average_schwarzian(d) for d in diffeos]
    monkeypatch.setattr(curves.DiffeoCurve, "angle_map", reference_angle_map)
    assert shared == [curves.average_schwarzian(d) for d in diffeos]


def test_deficit_search_report_matches_a_fresh_matrix(monkeypatch):
    shared = curves.deficit_search(4, 2, 24, seed=3).to_json_bytes()
    monkeypatch.setattr(curves.DiffeoCurve, "angle_map", reference_angle_map)
    assert shared == curves.deficit_search(4, 2, 24, seed=3).to_json_bytes()


class TestPhaseMemo:
    def test_shared_across_coefficients_not_across_orders(self):
        memo = curves._PhaseMemo(max_entries=4, max_bytes=2**20)
        t = np.linspace(0.0, 1.0, 16)
        first = memo.phases(TrigSeries([2, 4], [1.0, 2.0], TWO_PI), t)
        assert memo.phases(TrigSeries([2, 4], [3.0, -1.0], TWO_PI), t) is first
        assert memo.phases(TrigSeries([2, 6], [1.0, 2.0], TWO_PI), t) is not first
        assert memo.phases(TrigSeries([2, 4], [1.0, 2.0], TWO_PI), t + 0.0) is first
        assert not first.flags.writeable

    def test_entries_and_bytes_stay_bounded(self):
        memo = curves._PhaseMemo(max_entries=5, max_bytes=40_000)
        series = TrigSeries(np.arange(8), np.ones(8), TWO_PI)
        for n in range(1, 200):
            memo.phases(series, np.linspace(0.0, 1.0, n))
            assert len(memo) <= 5
            assert memo.nbytes <= 40_000
        # a matrix above the byte budget is returned but never kept
        big = memo.phases(series, np.linspace(0.0, 1.0, 1000))
        assert big.shape == (1000, 8)
        assert memo.nbytes <= 40_000

    def test_module_memo_stays_bounded(self):
        rng = np.random.default_rng(5)
        for grid in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
            for max_order in (2, 4, 6, 8, 10):
                diffeo = sampling.random_diffeo(rng, max_order=max_order, grid=grid)
                curves.average_schwarzian(diffeo)
                curves.area_functional(diffeo, 1.0 + 1e-3 * grid)
        memo = curves._PHASES
        assert 0 < len(memo) <= memo.max_entries
        assert memo.nbytes <= memo.max_bytes
