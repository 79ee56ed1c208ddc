"""Workloads of the benchmark: seeded inputs, command lists and their checks.

Inputs are drawn here with numpy alone, never through ``centroaffine``, so a
change to the package cannot change what the benchmark feeds it.  A workload
pass is a fixed list of CLI commands built from one pool index; the pool is
small and closed so that the reference digests in ``reference.json`` cover
every input the benchmark can ever run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

POOL_SIZE = 32
_SALT = 0x1006_1339


@dataclass(frozen=True)
class Task:
    """One CLI command, the exit code it must give, and why."""

    name: str
    argv: tuple[str, ...]
    expect: int
    reason: str
    check: Callable[[dict], str | None] | None = None
    table: str | None = None


# ---------------------------------------------------------------------------
# headline checks: each returns None or a one-line description of the breach
# ---------------------------------------------------------------------------


def check_gap(report: dict) -> str | None:
    gap = report["results"]["gap"]
    if not -1e-9 <= gap <= 1e-6:
        return f"energy gap {gap!r} outside [-1e-9, 1e-6]"
    return None


def check_bs(report: dict) -> str | None:
    n = report["inputs"].get("n", 9)
    bound = 4.0 * n * n * math.sin(math.pi / (2 * n)) ** 2
    worst = report["results"]["max_product"]
    if not worst <= bound + 1e-8:
        return f"area product {worst!r} above 4n^2 sin^2(pi/2n) = {bound!r}"
    return None


def check_abstime(report: dict) -> str | None:
    t = report["results"]["absolute_period"]
    if not math.sqrt(2.0) - 1e-9 <= t <= 0.5 * math.pi + 1e-9:
        return f"absolute period {t!r} outside [sqrt 2, pi/2]"
    return None


def check_hessian(report: dict) -> str | None:
    worst = min(report["results"]["min_values"])
    if not worst > 0.0:
        return f"mode weight {worst!r} is not positive"
    return None


def check_decay(report: dict) -> str | None:
    errors = report["results"].get("errors")
    if not errors or len(errors) < 2:
        return "no far-field errors reported"
    if not all(b < a for a, b in zip(errors, errors[1:])):
        return f"far-field errors {errors!r} do not decrease with radius"
    return None


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def _sl2(rng: np.random.Generator, spread: float = 0.3) -> np.ndarray:
    """Rotation times a squeeze-shear: a random matrix of determinant one."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    a = math.exp(spread * rng.normal())
    s = spread * rng.normal()
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return rot @ np.array([[a, s], [0.0, 1.0 / a]])


def regular_polygon_image(rng: np.random.Generator, n: int = 9) -> np.ndarray:
    """Half list of an SL(2) image of the regular polygon with unit cross products."""
    theta = math.pi * np.arange(n) / n
    r = 1.0 / math.sqrt(math.sin(math.pi / n))
    verts = r * np.column_stack([np.cos(theta), np.sin(theta)])
    return verts @ _sl2(rng).T


def strictly_convex(pts: np.ndarray) -> bool:
    """The acceptance rule of the package's polygon tables, restated in numpy."""
    edges = np.roll(pts, -1, axis=0) - pts
    nxt = np.roll(edges, -1, axis=0)
    turn = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    scale = float(np.max(np.hypot(edges[:, 0], edges[:, 1]))) ** 2
    return bool(np.min(turn) > 1e-12 * max(scale, 1e-30))


def ellipse_table(rng: np.random.Generator, n: int = 48) -> tuple[np.ndarray, dict]:
    """Counterclockwise convex n-gon inscribed in an origin-centred ellipse."""
    for draw in range(1, 65):
        a = rng.uniform(1.0, 2.0)
        b = rng.uniform(0.5, 1.0)
        tilt = rng.uniform(0.0, 2.0 * math.pi)
        t = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.1, 0.9, size=n)) / n
        rot = np.array([[math.cos(tilt), -math.sin(tilt)], [math.sin(tilt), math.cos(tilt)]])
        pts = np.column_stack([a * np.cos(t), b * np.sin(t)]) @ rot.T
        if strictly_convex(pts):
            return pts, {"vertices": n, "axes": [a, b], "draws": draw}
    raise RuntimeError("no strictly convex ellipse polygon in 64 draws")


def smooth_support(rng: np.random.Generator, grid: int = 256, orders: int = 6):
    """Support samples p = 1 + sum c_k cos(k t + phi_k) with p > 0 and p + p'' > 0."""
    k = np.arange(1, orders + 1)
    amp = rng.normal(size=k.size) / (k * k)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=k.size)
    curv_budget = float(np.sum(np.abs(amp) * np.maximum(k * k - 1, 1)))
    pos_budget = float(np.sum(np.abs(amp)))
    amp = amp * rng.uniform(0.2, 1.0) * min(0.8 / curv_budget, 0.5 / pos_budget)
    t = 2.0 * math.pi * np.arange(grid) / grid
    p = 1.0 + amp @ np.cos(np.multiply.outer(k, t) + phase[:, None])
    return p, {"grid": grid, "harmonics": int(k.size)}


def even_harmonic_curve(rng: np.random.Generator, max_order: int = 8):
    """Harmonics z_n, n = 2..max_order even, with sum 2 n |z_n| in [0.3, 0.6]."""
    orders = np.arange(2, max_order + 1, 2)
    z = (rng.normal(size=orders.size) + 1j * rng.normal(size=orders.size)) / orders
    budget = float(np.sum(2.0 * orders * np.abs(z)))
    z = z * rng.uniform(0.3, 0.6) / budget
    rows = [[int(n), float(c.real), float(c.imag)] for n, c in zip(orders, z)]
    return rows, {"harmonics": len(rows), "slope_budget": float(np.sum(2.0 * orders * np.abs(z)))}


def _write(workdir: str, name: str, data: dict) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return name


def _seeds(rng: np.random.Generator, count: int) -> list[str]:
    return [str(int(s)) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------------------
# workloads: each builds the pass for one pool index in workdir
# ---------------------------------------------------------------------------

_ENERGY = "energy >= 2n cos(pi/n) on star polygons, attained by the regular one"
_FARFIELD = "far orbits approach the limit shape at rate O(1/radius)"


def polygons(pool: int, workdir: str) -> tuple[list[Task], dict]:
    rng = np.random.default_rng([_SALT, 0, pool])
    s = _seeds(rng, 5)
    poly = regular_polygon_image(rng)
    path = _write(workdir, "poly9.json", {"n": 9, "vertices": poly.tolist()})
    bs = "A(V) A(V*) <= 4 n^2 sin^2(pi/2n) on star polygons"
    tasks = [
        Task("min-n7", ("polygon-min", "--n", "7", "--trials", "10", "--seed", s[0]), 0, _ENERGY, check_gap),
        Task("min-n21-odd", ("polygon-min", "--n", "21", "--trials", "2", "--seed", s[1]), 0, _ENERGY, check_gap),
        Task("min-n20-even", ("polygon-min", "--n", "20", "--trials", "10", "--seed", s[2]), 0, _ENERGY, check_gap),
        Task("min-n40-even", ("polygon-min", "--n", "40", "--trials", "2", "--seed", s[3]), 0, _ENERGY, check_gap),
        Task("bs-random-n9", ("bs-check", "--n", "9", "--trials", "1000", "--seed", s[4]), 0, bs, check_bs),
        Task("bs-file-9gon", ("bs-check", "--in", path), 0, bs + "; the regular image attains it", check_bs),
    ]
    return tasks, {"poly9": {"vertices": 9, "sl2_image_of": "regular 9-gon"}}


def curves(pool: int, workdir: str) -> tuple[list[Task], dict]:
    rng = np.random.default_rng([_SALT, 1, pool])
    s = _seeds(rng, 3)
    rows, props = even_harmonic_curve(rng)
    path = _write(workdir, "curve.json", {"half_period": math.pi, "harmonics": rows})
    tasks = [
        Task("chord-check", ("chord-check", "--trials", "5", "--seed", s[0]), 0,
             "chord averages of unit-speed loops and polygons are at most the circle's"),
        Task("conjecture-search", ("conjecture-search", "--trials", "4", "--seed", s[1]), 0,
             "conjectured I(alpha) >= sin(alpha); local search finds no deficit"),
        Task("schwarzian-check", ("schwarzian-check", "--trials", "100", "--seed", s[2]), 0,
             "average Schwarzian <= pi and area product <= pi^2, equal on Moebius maps"),
        Task("ialpha-sweep", ("ialpha-sweep", "--in", path), 0,
             "conjectured I(alpha) >= sin(alpha); it holds on small even-harmonic packets"),
        Task("criticality", ("criticality", "--in", path), 2,
             "only conics are critical for I(alpha); a packet with harmonics is not a conic"),
        Task("hessian-scan", ("hessian-scan",), 0,
             "second-variation weights f_n(alpha) > 0 for every even n >= 4", check_hessian),
    ]
    return tasks, {"curve": props}


def billiards(pool: int, workdir: str) -> tuple[list[Task], dict]:
    rng = np.random.default_rng([_SALT, 2, pool])
    verts, poly_props = ellipse_table(rng)
    p, smooth_props = smooth_support(rng)
    table48 = _write(workdir, "table48.json", {"kind": "polygon", "vertices": verts.tolist()})
    smooth = _write(workdir, "smooth256.json", {"kind": "support", "values": p.tolist()})
    tasks = [
        Task("farfield-triangle", ("farfield-error", "--table", "triangle", "--radius", "1000", "--radius", "4000"),
             0, _FARFIELD, check_decay, "triangle"),
        Task("farfield-polygon48", ("farfield-error", "--in", table48, "--radius", "1000", "--radius", "3000"),
             0, _FARFIELD, check_decay, "polygon48"),
        Task("farfield-circle", ("farfield-error", "--table", "circle", "--radius", "100", "--radius", "300"),
             0, _FARFIELD, check_decay, "circle"),
        Task("farfield-smooth256", ("farfield-error", "--in", smooth, "--radius", "30", "--radius", "100"),
             0, _FARFIELD, check_decay, "smooth256"),
        Task("orbit-triangle", ("billiard-orbit", "--table", "triangle", "--x0", "50,7", "--steps", "15000"),
             0, "a point outside a convex table has one forward tangency off the singular set",
             None, "triangle"),
        Task("abstime-smooth256", ("abstime", "--in", smooth), 0,
             "sqrt(2) <= T_abs <= pi/2 for every convex table", check_abstime),
    ]
    return tasks, {"table48": poly_props, "smooth256": smooth_props}


WORKLOADS = {"polygons": polygons, "curves": curves, "billiards": billiards}


def pool_order(seed: int) -> list[int]:
    """Pool indices in the order a run with this seed visits them."""
    rng = np.random.default_rng([_SALT, seed & (2**64 - 1)])
    return [int(i) for i in rng.permutation(POOL_SIZE)]
