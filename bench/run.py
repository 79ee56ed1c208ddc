"""Time the library's kernels one call at a time and write BENCH_kernels.json.

Run from the root of a checkout:  python3 bench/run.py [--out PATH]

Each kernel is timed in KEEP repeats.  A repeat runs the kernel as many times
as fill about TARGET_S seconds (found once, before timing) and records the
time per call; the file gives the minimum and the median per call over the
repeats, with the machine the numbers came from.  Inputs are fixed seeds, so
every run times the same work.  Needs numpy only.

The kernels run on the BLAS threads a CLI process gets: one, unless
OPENBLAS_NUM_THREADS is set, and the machine block records its value (null
when unset).  It also records sys.flags.dont_write_bytecode: when it is set
(PYTHONDONTWRITEBYTECODE), every cli_launch_* process compiles the package
from source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Before numpy, so that OpenBLAS starts on the CLI's one thread.
from centroaffine import billiards, curves, planar, polygons, sampling  # noqa: E402

import numpy as np  # noqa: E402

KEEP = 7
TARGET_S = 0.05


def kernels() -> dict:
    """name -> (zero-argument callable, what one call does)."""
    rng = np.random.default_rng(20260815)
    loop = sampling.random_unit_speed_loop(rng)
    t = planar.TWO_PI * np.arange(1024) / 1024
    radial = (1.0 + 0.1 * np.cos(3.0 * t) + 0.05 * np.sin(5.0 * t))[:, None]
    pts = radial * np.column_stack([np.cos(t), np.sin(t)])
    speed = np.hypot(*planar.spectral_derivative(pts, planar.TWO_PI, 1).T)
    diffeo = sampling.random_diffeo(rng)

    orders = [4, 6, 8]
    params = np.array([0.02, 0.01, -0.005, 0.004, 0.003])
    alpha_idx = np.arange(10, 256, 10)

    def packet(cutoff):
        """Orders 4, 6, ..., 2M and a packet on them in the search's layout, |f' - 1| <= 0.4."""
        orders = list(range(4, 2 * cutoff + 1, 2))
        z = [0.2 / (k * len(orders)) * complex(math.cos(k), math.sin(k)) for k in orders]
        return np.array([z[0].real] + [p for c in z[1:] for p in (c.real, c.imag)]), orders

    params8, orders8 = packet(8)
    params16, orders16 = packet(16)

    poly = sampling.random_star_polygon(81, rng).vertices.copy()
    rays = sampling.random_ray_configuration(21, rng)

    triangle_table = billiards.named_table("triangle")
    triangle = billiards._billiard_map(triangle_table)
    circle = billiards._billiard_map(billiards.named_table("circle"))
    far = np.array([700.0, 714.0])
    ang = planar.TWO_PI * (np.arange(48) + 0.5) / 48
    c, s = math.cos(0.3), math.sin(0.3)
    ellipse48 = np.column_stack([1.5 * np.cos(ang), 0.8 * np.sin(ang)]) @ np.array([[c, s], [-s, c]])
    polygon48 = billiards._billiard_map(billiards.polygon_table(ellipse48))
    orbit48 = [far]

    def step48():
        orbit48[0] = polygon48(orbit48[0])
    table = sampling.random_support_table(np.random.default_rng(5))
    gauge = billiards.gauge_function(table)

    def kept(samples) -> str:
        """How many of the series' modes the chop keeps, for the kernel's description."""
        series = planar.TrigSeries.from_samples(samples, planar.TWO_PI)
        return f"the chop keeps {series.chopped().orders.size} of {series.orders.size} modes"

    theta = rng.uniform(0.0, planar.TWO_PI, 2000)
    vectors = rng.uniform(0.5, 2.0, 2000)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])

    pythonpath = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)

    def launch(*argv):
        def run():
            subprocess.run(
                [sys.executable, "-m", "centroaffine.cli", *argv],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
            )

        return run

    return {
        "area_form_spectral_derivative_1024": (
            lambda: planar.area_form(loop, planar.spectral_derivative(loop, planar.TWO_PI, 1)),
            "[gamma, gamma'] on a 1024-point loop",
        ),
        "ialpha_profile_1024": (
            lambda: curves.area_functional_profile(diffeo),
            "I(alpha) at all 1025 grid shifts of a random_diffeo on grid 1024",
        ),
        "arclength_resample_1024": (
            lambda: planar.resample_by_density(speed, planar.TWO_PI, 1024),
            f"resample_by_density of a radial graph's speed, 1024 points in and out; {kept(speed)}",
        ),
        "unit_speed_loop_1024": (
            lambda: sampling.random_unit_speed_loop(np.random.default_rng(3)),
            "random_unit_speed_loop at grid 1024: resample plus interpolation; "
            "the chop keeps 25 of the speed's 513 modes",
        ),
        "deficit_objective_m4": (
            lambda: curves._deficit_objective(params, orders, alpha_idx, 256),
            "one conjecture-search objective, M = 4, grid 256, 25 alphas",
        ),
        "deficit_objective_m8": (
            lambda: curves._deficit_objective(params8, orders8, alpha_idx, 256),
            "one conjecture-search objective, M = 8 (orders 4..16), grid 256, 25 alphas",
        ),
        "deficit_objective_m16": (
            lambda: curves._deficit_objective(params16, orders16, alpha_idx, 256),
            "one conjecture-search objective, M = 16 (orders 4..32), grid 256, 25 alphas",
        ),
        "energy_gradient_n81": (
            lambda: (polygons._poly_energy(poly), polygons._energy_gradient(poly)),
            "energy and its gradient at a random 81-vertex star polygon",
        ),
        "energy_descent_n21": (
            lambda: polygons.minimize_energy(21, rays),
            "minimize_energy from random rays, n = 21",
        ),
        "polygon_step_triangle": (
            lambda: triangle(far),
            "one outer-billiard step on the triangle at radius about 1000, from the same point each call",
        ),
        "polygon_step_48gon": (
            step48,
            "one outer-billiard step on an ellipse 48-gon, each call from where the last one ended (radius about 1000)",
        ),
        "far_field_triangle_1e4": (
            lambda: billiards.far_field_error(triangle_table, 1e4),
            "far_field_error of the triangle at radius 1e4: one revolution, 39,008 map steps",
        ),
        "smooth_step_circle": (
            lambda: circle(far),
            "one outer-billiard step on the 1024-grid circle at radius about 1000",
        ),
        "smooth_gauge_1024": (
            lambda: gauge(vectors),
            "gauge_function of a 1024-grid random_support_table at 2000 vectors; "
            f"{kept(table.support.values)}",
        ),
        "cli_launch_abstime": (
            launch("abstime", "--table", "triangle"),
            "one `python -m centroaffine.cli abstime --table triangle` process, from spawn to exit",
        ),
        "cli_launch_bs_check": (
            launch("bs-check", "--n", "9", "--trials", "1000", "--seed", "1"),
            "one `python -m centroaffine.cli bs-check --n 9 --trials 1000 --seed 1` process, "
            "from spawn to exit",
        ),
    }


def time_kernel(fn) -> dict:
    fn()  # caches and lazy set-up fill before timing
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= TARGET_S or number >= 1 << 20:
            break
        number *= 2 if elapsed <= 0 else max(2, min(16, math.ceil(TARGET_S / elapsed)))
    per_call = []
    for _ in range(KEEP):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - start) / number)
    return {
        "min_s": min(per_call),
        "median_s": statistics.median(per_call),
        "calls_per_repeat": number,
        "repeats": KEEP,
    }


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_kernels.json"))
    args = parser.parse_args(argv)
    results = {}
    for name, (fn, what) in kernels().items():
        results[name] = {"what": what, **time_kernel(fn)}
        row = results[name]
        print(f"{name:36s} min {row['min_s'] * 1e6:12.1f} us   median {row['median_s'] * 1e6:12.1f} us")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "kernels": results}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
