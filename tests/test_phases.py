"""One phase matrix per point set: every reuse keeps the bits of a fresh evaluation.

The reference below is the evaluator as it stood before phase matrices were
shared: a new e^{i omega m t} matrix for every call.  Each reuse is compared
to it with np.array_equal or ==, not with a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest

from centroaffine import curves, sampling
from centroaffine.planar import TWO_PI, TrigSeries, resample_by_density, spectral_derivative


def reference_series(series, t, order=0):
    coeffs = series.coeffs
    if order:
        weights = series.freq**order
        coeffs = weights.reshape(weights.shape + (1,) * (coeffs.ndim - 1)) * coeffs
    return (np.exp(np.multiply.outer(t, series.freq)) @ coeffs).real


def reference_resample(density, period, n_out):
    series = TrigSeries.from_samples(density, period)
    mean = series.coeffs[0].real
    wiggle = series.antiderivative()
    wiggle0 = reference_series(wiggle, 0.0)
    targets = mean * period * np.arange(n_out) / n_out
    theta = period * np.arange(n_out) / n_out
    for _ in range(50):
        val = mean * theta + (reference_series(wiggle, theta) - wiggle0) - targets
        if np.max(np.abs(val)) < 1e-13 * mean * period:
            break
        theta = theta - val / reference_series(series, theta)
    return theta


def reference_unit_speed_loop(rng, max_order=5, grid=1024):
    """The draws of sampling.random_unit_speed_loop, then a fresh matrix per evaluation."""
    orders = np.arange(1, max_order + 1)
    amp = rng.normal(size=orders.size) / (1.0 + orders)
    phases = rng.uniform(0.0, TWO_PI, size=orders.size)
    budget = float(np.sum(np.abs(amp) * (1.0 + orders)))
    scale = rng.uniform(0.1, 1.0) * 0.25 / budget
    t = TWO_PI * np.arange(grid) / grid
    r = 1.0 + (scale * amp) @ np.cos(np.multiply.outer(orders, t) + phases[:, None])
    pts = r[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    speed = np.hypot(*spectral_derivative(pts, TWO_PI, 1).T)
    theta = reference_resample(speed, TWO_PI, grid)
    resampled = reference_series(TrigSeries.from_samples(pts, TWO_PI), theta)
    return resampled * (TWO_PI / (TWO_PI * float(np.mean(speed))))


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
                resample_by_density(density, TWO_PI, n), reference_resample(density, TWO_PI, n)
            )


def test_resample_returns_the_last_iterate_when_newton_stalls(rng, monkeypatch):
    # with np.max reading inf neither loop meets its tolerance, so both run all 50 steps
    density = smooth_density(rng, 64)
    monkeypatch.setattr(np, "max", lambda values, *a, **k: math.inf)
    assert np.array_equal(
        resample_by_density(density, TWO_PI, 64), reference_resample(density, TWO_PI, 64)
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
    assert peak <= 1.25 * one_matrix


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
