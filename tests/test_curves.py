"""Chord-area functional, Fourier Hessian, Schwarzian and chord inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroaffine import (
    DiffeoCurve,
    SL2Matrix,
    SampledCurve,
    area_functional,
    area_functional_profile,
    average_schwarzian,
    chord_average,
    chord_bound,
    criticality_residual,
    curve_from_diffeo,
    deficit_search,
    hessian_mode_numeric,
    hessian_mode_value,
    hill_potential,
    petty_product,
    polygon_diagonal_average,
    polygon_diagonal_bound,
    positivity_scan,
    schwarzian,
    schwarzian_potential,
    sl2_apply,
)
from centroaffine.curves import _deficit_objective, _mode_values, _nelder_mead
from centroaffine.errors import (
    AlphaOutOfRange,
    InvariantViolation,
    NotADiffeo,
    NotUnitSpeed,
)
from centroaffine.sampling import random_diffeo, random_sl2, random_unit_speed_loop

TWO_PI = 2.0 * math.pi


def circle_curve(n=1024):
    t = math.pi * np.arange(n) / n
    return SampledCurve(
        np.column_stack([np.cos(t), np.sin(t)]), math.pi, wronskian_normalized=True
    )


class TestDiffeoCurve:
    def test_identity_map(self):
        d = DiffeoCurve({})
        t = np.linspace(0.0, 2.0, 7)
        np.testing.assert_allclose(d.angle_map(t), t)
        np.testing.assert_allclose(d.angle_map(t, order=1), 1.0)

    def test_analytic_derivatives_match_spectral(self):
        d = DiffeoCurve({4: 0.02 + 0.01j, 6: -0.005j})
        n = 512
        t = TWO_PI * np.arange(n) / n
        from centroaffine import spectral_derivative

        g = d.angle_map(t) - t
        np.testing.assert_allclose(
            d.angle_map(t, order=1) - 1.0, spectral_derivative(g, TWO_PI), atol=1e-11
        )
        np.testing.assert_allclose(
            d.angle_map(t, order=3), spectral_derivative(g, TWO_PI, 3), atol=1e-9
        )

    def test_rejects_odd_orders(self):
        with pytest.raises(InvariantViolation):
            DiffeoCurve({3: 0.01})

    def test_rejects_large_amplitude(self):
        with pytest.raises(NotADiffeo, match="delta_diffeo"):
            DiffeoCurve({4: 0.2})

    def test_curve_has_unit_wronskian(self):
        d = DiffeoCurve({4: 0.05, 8: 0.01j})
        curve = d.curve()
        assert curve.wronskian_normalized
        w = np.einsum(
            "ij,ij->i",
            curve.samples,
            np.column_stack([-curve.derivative()[:, 1], curve.derivative()[:, 0]]),
        )
        np.testing.assert_allclose(-w, 1.0, atol=1e-9)


class TestAreaFunctional:
    def test_circle_gives_sin(self):
        curve = circle_curve()
        for alpha in (0.3, 1.0, math.pi / 2, 2.4):
            assert area_functional(curve, alpha) == pytest.approx(math.sin(alpha), abs=1e-12)

    def test_ellipse_gives_sin(self, rng):
        ellipse = sl2_apply(random_sl2(rng), circle_curve())
        for alpha in (0.5, 1.7):
            assert area_functional(ellipse, alpha) == pytest.approx(math.sin(alpha), abs=1e-10)

    def test_routes_agree(self):
        d = DiffeoCurve({4: 0.03 - 0.02j, 6: 0.01})
        for alpha in (0.4, 2.0):
            a = area_functional(d, alpha, route="formula")
            b = area_functional(d, alpha, route="cross")
            assert a == pytest.approx(b, abs=1e-12)

    def test_alpha_range_enforced(self):
        with pytest.raises(AlphaOutOfRange):
            area_functional(circle_curve(), 0.0)
        with pytest.raises(AlphaOutOfRange):
            area_functional(circle_curve(), math.pi)

    def test_profile_matches_pointwise(self):
        d = DiffeoCurve({4: 0.04, 8: 0.015j}, grid=256)
        alphas, values = area_functional_profile(d)
        assert alphas.shape == (257,)
        assert values[0] == pytest.approx(0.0, abs=1e-14)
        for k in (31, 97, 200):
            direct = area_functional(d, alphas[k], route="formula")
            assert values[k] == pytest.approx(direct, abs=1e-12)

    def test_profile_excess_nonnegative_for_small_packets(self, rng):
        # near the circle the conjectured inequality I >= sin holds
        for _ in range(5):
            d = random_diffeo(rng, strength=0.2)
            alphas, values = area_functional_profile(d)
            assert np.min(values - np.sin(alphas)) >= -1e-9


class TestHessianModes:
    def test_flat_directions(self):
        for alpha in (0.3, 1.2, 2.7):
            assert hessian_mode_value(0, alpha).value == pytest.approx(0.0, abs=1e-12)
            assert hessian_mode_value(2, alpha).value == pytest.approx(0.0, abs=1e-12)

    def test_numeric_second_difference_vanishes_on_order_two(self):
        for alpha in (0.5, 1.5, 2.5):
            assert abs(hessian_mode_numeric(2, alpha)) < 1e-5

    def test_numeric_matches_closed_form_up_to_constant(self):
        alphas = np.linspace(0.2, math.pi - 0.2, 8)
        ratios = []
        for order in (4, 6):
            for alpha in alphas:
                closed = hessian_mode_value(order, alpha).value
                ratios.append(hessian_mode_numeric(order, alpha) / closed)
        ratios = np.asarray(ratios)
        spread = np.max(np.abs(ratios / np.mean(ratios) - 1.0))
        assert spread < 1e-3

    def test_closed_form_constant_is_one_half(self):
        # (I - sin a) / (|z|^2 f_n) -> 1/2 as the single harmonic z e^{int} shrinks
        for order in (4, 6, 8):
            for alpha in (0.7, 1.9):
                closed = hessian_mode_value(order, alpha).value
                for rho in (2e-3, 1e-3, 5e-4):
                    z = rho * complex(0.6, 0.8)
                    excess = area_functional(DiffeoCurve({order: z}), alpha) - math.sin(alpha)
                    assert abs(excess / (rho * rho * closed) - 0.5) <= 0.5 * rho

    def test_eps_window_enforced(self):
        with pytest.raises(InvariantViolation):
            hessian_mode_numeric(4, 1.0, eps=1e-6)

    def test_positivity_scan_report(self):
        rep = positivity_scan(16, grid=200)
        assert rep.satisfied
        assert rep.results["orders"] == [4, 6, 8, 10, 12, 14, 16]
        assert min(rep.results["min_values"]) > 0.0
        assert rep.results["tightest_ratio"] == pytest.approx(1.0146119, abs=1e-6)

    def test_mode_values_sign_structure(self):
        alphas = np.linspace(0.05, math.pi - 0.05, 300)
        assert np.min(_mode_values(4.0, alphas)) > 0.0
        assert np.min(_mode_values(64.0, alphas)) > 0.0


class TestHillAndPetty:
    def test_circle_potential_is_one(self):
        pot = hill_potential(circle_curve())
        np.testing.assert_allclose(pot.samples, 1.0, atol=1e-10)
        assert pot.integral() == pytest.approx(math.pi, abs=1e-12)

    def test_petty_equality_on_conics(self, rng):
        assert petty_product(circle_curve()) == pytest.approx(math.pi**2, abs=1e-10)
        ellipse = sl2_apply(random_sl2(rng), circle_curve())
        assert petty_product(ellipse) == pytest.approx(math.pi**2, abs=1e-9)

    def test_petty_below_bound_for_random_loops(self, rng):
        for _ in range(20):
            curve = random_diffeo(rng).curve()
            assert petty_product(curve) <= math.pi**2 + 1e-9

    def test_requires_wronskian_flag(self):
        t = math.pi * np.arange(128) / 128
        bare = SampledCurve(np.column_stack([np.cos(t), np.sin(t)]), math.pi)
        with pytest.raises(InvariantViolation):
            hill_potential(bare)


class TestSchwarzian:
    def test_vanishes_for_rotation(self):
        # third spectral derivative amplifies grid roundoff by k^3
        n = 256
        t = TWO_PI * np.arange(n) / n
        np.testing.assert_allclose(schwarzian(t + 0.7, TWO_PI), 0.0, atol=1e-8)

    def test_known_value_for_single_harmonic(self):
        d = DiffeoCurve({4: 0.01})
        n = 512
        t = TWO_PI * np.arange(n) / n
        s = schwarzian(d.angle_map(t), TWO_PI)
        fp = d.angle_map(t, order=1)
        fpp = d.angle_map(t, order=2)
        fppp = d.angle_map(t, order=3)
        np.testing.assert_allclose(s, fppp / fp - 1.5 * (fpp / fp) ** 2, atol=1e-10)

    def test_average_is_pi_for_identity(self):
        n = 512
        t = TWO_PI * np.arange(n) / n
        assert average_schwarzian(t) == pytest.approx(math.pi, abs=1e-12)
        assert average_schwarzian(DiffeoCurve({})) == pytest.approx(math.pi, abs=1e-12)

    def test_average_below_pi_for_random_maps(self, rng):
        for _ in range(25):
            assert average_schwarzian(random_diffeo(rng)) <= math.pi + 1e-9

    def test_rejects_non_diffeo_samples(self):
        n = 256
        t = TWO_PI * np.arange(n) / n
        with pytest.raises(NotADiffeo):
            schwarzian(t + 1.2 * np.sin(t), TWO_PI)

    def test_doubled_map_reproduces_hill_potential(self, rng):
        d = random_diffeo(rng, strength=0.5)
        via_schwarzian = schwarzian_potential(d)
        via_curve = hill_potential(d.curve())
        np.testing.assert_allclose(via_schwarzian.samples, via_curve.samples, atol=1e-7)


class TestCriticality:
    def test_vanishes_on_circle_and_ellipse(self, rng):
        for curve in (circle_curve(), sl2_apply(random_sl2(rng), circle_curve())):
            res = criticality_residual(curve, 1.1)
            assert np.max(np.abs(res)) < 1e-9

    def test_detects_perturbed_curves(self):
        curve = DiffeoCurve({4: 0.04}).curve()
        res = criticality_residual(curve, 1.1)
        assert np.max(np.abs(res)) > 1e-3


class TestChordInequalities:
    def test_circle_equality(self):
        n = 512
        t = TWO_PI * np.arange(n) / n
        circle = np.column_stack([np.cos(t), np.sin(t)])
        for offset in (0.4, 1.3, math.pi / 2, 3.0):
            assert chord_average(circle, offset) == pytest.approx(
                chord_bound(offset), abs=1e-12
            )

    def test_random_loops_below_bound(self, rng):
        for _ in range(10):
            loop = random_unit_speed_loop(rng)
            for offset in (0.8, 2.0):
                for fn in (None, np.sqrt):
                    assert chord_average(loop, offset, fn) <= chord_bound(offset, fn) + 1e-9

    def test_speed_check(self):
        n = 256
        t = TWO_PI * np.arange(n) / n
        fast = np.column_stack([2 * np.cos(t), 2 * np.sin(t)])
        with pytest.raises(NotUnitSpeed):
            chord_average(fast, 1.0)

    def test_offset_range(self):
        n = 128
        t = TWO_PI * np.arange(n) / n
        circle = np.column_stack([np.cos(t), np.sin(t)])
        with pytest.raises(AlphaOutOfRange):
            chord_average(circle, 0.0)

    def test_regular_polygon_diagonal_equality(self):
        for n in (5, 9):
            verts = 2.1 * np.column_stack(
                [np.cos(TWO_PI * np.arange(n) / n), np.sin(TWO_PI * np.arange(n) / n)]
            )
            for k in range(1, n):
                assert polygon_diagonal_average(verts, k) == pytest.approx(
                    polygon_diagonal_bound(verts, k), abs=1e-10
                )

    def test_perturbed_polygons_below_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 10))
            t = TWO_PI * np.arange(n) / n
            verts = np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(
                scale=0.1, size=(n, 2)
            )
            for k in range(1, n):
                assert (
                    polygon_diagonal_average(verts, k)
                    <= polygon_diagonal_bound(verts, k) + 1e-12
                )

    def test_diagonal_offset_validated(self):
        square = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
        with pytest.raises(InvariantViolation):
            polygon_diagonal_average(square, 4)


@settings(max_examples=15, deadline=None)
@given(
    re4=st.floats(min_value=-0.04, max_value=0.04),
    im6=st.floats(min_value=-0.02, max_value=0.02),
)
def test_area_functional_sl2_invariant(re4, im6):
    d = DiffeoCurve({4: re4, 6: 1j * im6}, grid=256)
    curve = d.curve()
    shear = SL2Matrix(1.0, 0.5, 0.0, 1.0)
    for alpha in (0.9, 2.2):
        assert area_functional(curve, alpha) == pytest.approx(
            area_functional(sl2_apply(shear, curve), alpha), abs=1e-10
        )


def _areal_energy(curve):
    """Double integral of [gamma(t), gamma(t + alpha)] over t, alpha in [0, pi].

    The t-average over the doubled grid is spectrally exact; the alpha
    direction uses the trapezoid rule on the N + 1 grid shifts.
    """
    doubled = curve.doubled()
    n = curve.grid_size
    m = np.arange(n + 1)
    idx = (np.arange(2 * n)[None, :] + m[:, None]) % (2 * n)
    cross = doubled[None, :, 0] * doubled[idx, 1] - doubled[None, :, 1] * doubled[idx, 0]
    inner = math.pi * np.mean(cross, axis=1)
    weights = np.full(n + 1, math.pi / n)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(np.dot(weights, inner))


def test_areal_energy_recovers_profile_integral():
    d = DiffeoCurve({4: 0.03}, grid=256)
    curve = d.curve()
    alphas, values = area_functional_profile(d)
    # integrating I(alpha) against d alpha (times pi from the t measure)
    direct = np.trapezoid(values, alphas) * math.pi
    assert _areal_energy(curve) == pytest.approx(direct, abs=1e-10)


def test_deficit_search_supports_conjecture():
    rep = deficit_search(2, 3, 8, 12345, grid=128)
    assert rep.satisfied
    assert rep.results["best_deficit"] >= -1e-7
    assert rep.exit_code == 0


def test_deficit_search_validates_cutoff():
    with pytest.raises(InvariantViolation):
        deficit_search(1, 3, 8, 0)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


# 16 interior alpha samples on a 128-point grid, as deficit_search picks them
_ALPHA_IDX = np.round(np.arange(1, 17) * 128 / 17).astype(int)
_DEFICIT_ARGS = {3: ([4, 6], _ALPHA_IDX, 128), 4: ([4, 6, 8], _ALPHA_IDX, 128)}


@pytest.mark.parametrize(
    "fun, x0, args",
    [
        (_rosenbrock, [-1.2, 1.0], ()),
        (_rosenbrock, [0.0, 1.3, 0.7, -0.4, 0.0], ()),
        (_deficit_objective, [0.03, -0.01, 0.02], _DEFICIT_ARGS[3]),
        (_deficit_objective, [0.02, 0.01, -0.015, 0.005, 0.0], _DEFICIT_ARGS[4]),
        # starts next to the f' floor, so some vertices tie at the 10.0 penalty
        (_deficit_objective, [0.1185, 0.0, 0.0], _DEFICIT_ARGS[3]),
    ],
    ids=["rosenbrock-2", "rosenbrock-5-zeros", "deficit-M3", "deficit-M4", "deficit-M3-floor"],
)
@pytest.mark.parametrize("maxiter", [40, None])
def test_nelder_mead_matches_scipy(fun, x0, args, maxiter):
    optimize = pytest.importorskip("scipy.optimize")
    x0 = np.array(x0)
    maxiter = maxiter or 400 * x0.size
    res = optimize.minimize(
        fun, x0, args=args, method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-13},
    )
    x, value, nfev = _nelder_mead(fun, x0, args, maxiter, 1e-10, 1e-13)
    assert np.array_equal(x, res.x)
    assert value == res.fun
    assert nfev == res.nfev
