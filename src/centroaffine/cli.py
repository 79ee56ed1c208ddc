"""Batch command line interface.

Every subcommand runs one experiment and emits a JSON report (CSV for
sweeps) that is byte-identical across runs with the same inputs and seed.
Exit codes: 0 when the checked property holds (or nothing was checked),
1 for usage and input errors, 2 when a bound is violated, a counterexample
is found, or an orbit hits the singular set.

Input files are JSON:

  polygon  {"n": 5, "vertices": [[x, y], ...]}           half list, n rows
  curve    {"half_period": 3.14159, "harmonics": [[n, re, im], ...]}
  table    {"kind": "polygon", "vertices": [[x, y], ...]}
           {"kind": "support", "values": [p_0, p_1, ...]}

The --table flag also accepts the builtin names triangle, square, circle.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

import numpy as np

# Every layer loads with the CLI, not in its handler: perfbench/boot.py counts
# this import as a launch's set-up and, when tracing, wraps every layer before
# the command runs, so a layer loaded later would be time no figure counts.
from . import billiards, curves, duality, polygons, sampling
from .errors import (
    ConfigError,
    InteriorPoint,
    ParseError,
    UndefinedOnSingularSet,
)
from .planar import StarPolygon
from .reports import Report, sweep_csv_bytes


# billiard-orbit holds the whole orbit and its JSON report (about 67 bytes a
# step) in memory, and farfield-error one revolution, so both are capped.
MAX_ORBIT_STEPS = 1_000_000
# polygon-min's least-norm step solves with a dense n x n matrix J J^T, 8 n^2
# bytes: 32 MB at the cap, 3.2 GB at n = 20,000.
MAX_POLYGON_N = 2000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_json(path: str) -> dict:
    def finite(convert):
        def parse(token: str):
            if not math.isfinite(float(token)):
                raise ParseError(f"{path}: non-finite number {token} is not allowed")
            return convert(token)

        return parse

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(
                fh, parse_float=finite(float), parse_int=finite(int), parse_constant=finite(float)
            )
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON is nested too deeply") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return data


def _number(value, path: str, what: str) -> float:
    # bool is an int subclass, but true and false are not numbers in a file
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: {what} must be a number, got {json.dumps(value)[:40]}")
    return float(value)


def _integer(value, path: str, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ParseError(f"{path}: {what} must be an integer, got {json.dumps(value)[:40]}")
    return int(value)


def _points(data: dict, key: str, path: str) -> np.ndarray:
    message = f"{path}: '{key}' must be a rectangular list of numbers"
    try:
        pts = np.asarray(data[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(message) from exc
    # float() also takes "1.5", true and null; the loader gives numbers as int or float
    if any(type(x) not in (int, float) for x in np.asarray(data[key], dtype=object).reshape(-1)):
        raise ParseError(message)
    return pts


def load_polygon(path: str) -> StarPolygon:
    data = _load_json(path)
    if "vertices" not in data:
        raise ParseError(f"{path}: polygon file needs a 'vertices' field")
    verts = _points(data, "vertices", path)
    if "n" in data and _integer(data["n"], path, "'n'") != verts.shape[0]:
        raise ParseError(f"{path}: 'n' does not match the vertex count")
    return StarPolygon(verts)


def load_curve(path: str) -> curves.DiffeoCurve:
    data = _load_json(path)
    if "harmonics" not in data:
        raise ParseError(f"{path}: curve file needs a 'harmonics' field")
    if "half_period" in data:
        if abs(_number(data["half_period"], path, "'half_period'") - math.pi) > 1e-9:
            raise ParseError(f"{path}: only the half period pi is supported")
    rows = data["harmonics"]
    if not isinstance(rows, list):
        raise ParseError(f"{path}: 'harmonics' must be a list of [order, re, im] rows")
    harmonics = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise ParseError(f"{path}: harmonics rows must be [order, re, im]")
        order = _integer(row[0], path, "a harmonic order")
        if order in harmonics:
            raise ParseError(f"{path}: harmonic order {order} is given twice")
        harmonics[order] = complex(
            _number(row[1], path, "a harmonic's re"), _number(row[2], path, "a harmonic's im")
        )
    return curves.DiffeoCurve(harmonics)


def load_table(spec: str) -> billiards.ConvexTable:
    if spec in ("triangle", "square", "circle"):
        return billiards.named_table(spec)
    data = _load_json(spec)
    kind = data.get("kind")
    if kind == "polygon":
        if "vertices" not in data:
            raise ParseError(f"{spec}: polygon table needs 'vertices'")
        return billiards.polygon_table(_points(data, "vertices", spec))
    if kind == "support":
        if "values" not in data:
            raise ParseError(f"{spec}: support table needs 'values'")
        return billiards.support_table(_points(data, "values", spec))
    raise ParseError(f"{spec}: table kind must be 'polygon' or 'support'")


def _resolve_table(args) -> tuple[billiards.ConvexTable, str]:
    if getattr(args, "table", None) and getattr(args, "infile", None):
        raise ConfigError("give either --table or --in, not both")
    spec = getattr(args, "table", None) or getattr(args, "infile", None)
    if not spec:
        raise ConfigError("this command needs --table NAME or --in FILE")
    return load_table(spec), spec


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_polygon_min(args) -> Report:
    n = args.n
    if n is None or not 3 <= n <= MAX_POLYGON_N:
        raise ConfigError(f"polygon-min needs 3 <= --n <= {MAX_POLYGON_N}")
    rng = sampling.rng_from_seed(args.seed)
    best = None
    all_converged = True
    for _ in range(args.trials):
        res = polygons.minimize_energy(n, sampling.random_ray_configuration(n, rng))
        all_converged = all_converged and res.converged
        if best is None or res.value < best.value:
            best = res
    bound = polygons.energy_lower_bound(n)
    c = polygons.cross_products(best.polygon).values
    return Report(
        command="polygon-min",
        inputs={"n": n, "trials": args.trials, "seed": args.seed},
        results={
            "energy": best.value,
            "gap": best.value - bound,
            "cross_products": c,
            "vertices": best.polygon.vertices,
            "gradient_norm": best.gradient_norm,
            "iterations": best.iterations,
        },
        bounds={"energy_lower": bound},
        satisfied=bool(best.value >= bound - 1e-9),
        flags={"converged": bool(all_converged)},
    )


def _cmd_bs_check(args) -> Report:
    if args.infile:
        polys = load_polygon(args.infile).vertices[None]
        inputs = {"in": args.infile}
    else:
        if args.n is None or args.n < 3:
            raise ConfigError("bs-check needs --n >= 3 or --in FILE")
        rng = sampling.rng_from_seed(args.seed)
        polys = sampling.random_star_polygons(args.n, args.trials, rng)
        inputs = {"n": args.n, "trials": args.trials, "seed": args.seed}
    products = duality.bs_product_polygon(polys)
    bound = duality.bs_bound_polygon(polys.shape[1])
    worst = float(np.max(products))
    return Report(
        command="bs-check",
        inputs=inputs,
        results={
            "max_product": worst,
            "min_slack": float(bound - worst),
            "checked": polys.shape[0],
        },
        bounds={"area_product": bound},
        satisfied=bool(worst <= bound + 1e-8),
        flags={},
    )


def _cmd_ialpha_sweep(args) -> Report:
    if args.infile:
        source = args.infile
        diffeo = load_curve(args.infile)
    else:
        source = "circle"
        diffeo = curves.DiffeoCurve({})
    alphas, values = curves.area_functional_profile(diffeo)
    n = alphas.shape[0] - 1
    g = args.grid
    if g < 2 or g > n:
        raise ConfigError(f"--grid must be between 2 and {n}")
    idx = np.round(np.linspace(0, n, g + 1)).astype(int)
    # sorted, so repeats are neighbours (np.unique would load numpy.ma)
    idx = idx[np.diff(idx, prepend=-1) > 0]
    rows = [
        (float(alphas[i]), float(values[i]), math.sin(float(alphas[i]))) for i in idx
    ]
    gaps = np.array([v - b for _, v, b in rows])
    return Report(
        command="ialpha-sweep",
        inputs={"source": source, "grid": g},
        results={"sweep": [list(r) for r in rows], "min_gap": float(np.min(gaps))},
        bounds={"conjectured_floor": "sin(alpha)"},
        satisfied=bool(float(np.min(gaps)) >= -1e-7),
        flags={},
    )


def _cmd_hessian_scan(args) -> Report:
    n_max = args.n if args.n is not None else 64
    return curves.positivity_scan(n_max, grid=args.grid)


def _cmd_schwarzian_check(args) -> Report:
    rng = sampling.rng_from_seed(args.seed)
    identity_value = curves.average_schwarzian(curves.DiffeoCurve({}))
    max_avg = identity_value
    max_petty = curves.petty_product(curves.curve_from_diffeo(curves.DiffeoCurve({})))
    for _ in range(args.trials):
        d = sampling.random_diffeo(rng)
        max_avg = max(max_avg, curves.average_schwarzian(d))
        max_petty = max(max_petty, curves.petty_product(curves.curve_from_diffeo(d)))
    area_bound = math.pi * math.pi
    return Report(
        command="schwarzian-check",
        inputs={"trials": args.trials, "seed": args.seed},
        results={
            "identity_average": identity_value,
            "max_average": max_avg,
            "max_area_product": max_petty,
        },
        bounds={"average": math.pi, "area_product": area_bound},
        satisfied=bool(max_avg <= math.pi + 1e-7 and max_petty <= area_bound + 1e-7),
        flags={},
    )


def _cmd_criticality(args) -> Report:
    if args.infile:
        source = args.infile
        diffeo = load_curve(args.infile)
    else:
        source = "circle"
        diffeo = curves.DiffeoCurve({})
    curve = curves.curve_from_diffeo(diffeo)
    residual = float(np.max(np.abs(curves.criticality_residual(curve, args.alpha))))
    return Report(
        command="criticality",
        inputs={"source": source, "alpha": args.alpha},
        results={"max_residual": residual},
        bounds={"critical_below": 1e-8},
        satisfied=bool(residual <= 1e-8),
        flags={},
    )


def _cmd_conjecture_search(args) -> Report:
    cutoff = args.n if args.n is not None else 4
    return curves.deficit_search(cutoff, args.trials, args.grid, args.seed)


def _parse_point(text: str) -> np.ndarray:
    try:
        x, y = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--x0 must look like '3.0,0.5', got {text!r}") from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"--x0 must be finite, got {text!r}")
    return np.array([x, y])


def _cmd_billiard_orbit(args) -> Report:
    if not 0 <= args.steps <= MAX_ORBIT_STEPS:
        raise ConfigError(f"--steps must be between 0 and {MAX_ORBIT_STEPS}")
    table, spec = _resolve_table(args)
    x0 = _parse_point(args.x0)
    inputs = {"table": spec, "x0": x0, "steps": args.steps}
    try:
        orbit = billiards.billiard_orbit(table, x0, args.steps)
    except (InteriorPoint, UndefinedOnSingularSet) as exc:
        return Report(
            command="billiard-orbit",
            inputs=inputs,
            results={},
            satisfied=False,
            flags={"singular": str(exc)},
        )
    return Report(
        command="billiard-orbit",
        inputs=inputs,
        results={"points": orbit, "final": orbit[-1]},
        satisfied=True,
        flags={},
    )


def _cmd_farfield_error(args) -> Report:
    table, spec = _resolve_table(args)
    radii = sorted(set(args.radius)) if args.radius else [1e3, 1e4]
    if len(radii) < 2 or not all(math.isfinite(r) and r > 0 for r in radii):
        raise ConfigError("farfield-error needs >= 2 distinct finite positive --radius values")
    # a revolution grows with the radius, so the largest one bounds every run
    steps = billiards._revolution_steps(table, radii[-1])
    if not steps <= MAX_ORBIT_STEPS:
        raise ConfigError(
            f"--radius {radii[-1]:g} needs about {steps:.3g} map steps for one revolution, "
            f"more than the cap of {MAX_ORBIT_STEPS}"
        )
    try:
        runs = [billiards.far_field_error(table, r) for r in radii]
    except (InteriorPoint, UndefinedOnSingularSet) as exc:
        return Report(
            command="farfield-error",
            inputs={"table": spec, "radii": radii},
            results={},
            satisfied=False,
            flags={"singular": str(exc)},
        )
    errors = [r.error for r in runs]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    return Report(
        command="farfield-error",
        inputs={"table": spec, "radii": radii},
        results={
            "errors": errors,
            "gauges": [r.gauge for r in runs],
            "steps": [r.steps for r in runs],
        },
        bounds={"decay": "O(1/radius)"},
        satisfied=bool(decreasing),
        flags={},
    )


def _cmd_abstime(args) -> Report:
    table, spec = _resolve_table(args)
    rep = billiards.absolute_time(table)
    inside = rep.lower_bound - 1e-9 <= rep.absolute_period <= rep.upper_bound + 1e-9
    return Report(
        command="abstime",
        inputs={"table": spec},
        results={
            "raw_period": rep.raw_period,
            "absolute_period": rep.absolute_period,
            "table_area": rep.table_area,
            "farfield_area": rep.farfield_area,
        },
        bounds={"lower": rep.lower_bound, "upper": rep.upper_bound},
        satisfied=bool(inside),
        flags={
            "equals_lower": rep.equals_lower,
            "equals_upper": rep.equals_upper,
            "kind": rep.kind,
        },
    )


def _cmd_chord_check(args) -> Report:
    rng = sampling.rng_from_seed(args.seed)
    offsets = 2.0 * math.pi * np.arange(1, 9) / 9.0
    worst_loop = math.inf
    for _ in range(args.trials):
        loop = sampling.random_unit_speed_loop(rng)
        for c in offsets:
            for fn in (None, np.sqrt):
                gap = curves.chord_bound(c, fn) - curves.chord_average(loop, c, fn)
                worst_loop = min(worst_loop, gap)
    worst_poly = math.inf
    for _ in range(args.trials):
        table = sampling.random_convex_polygon_table(rng)
        verts = table.vertices
        for k in range(1, verts.shape[0]):
            for fn in (None, np.sqrt):
                gap = curves.polygon_diagonal_bound(
                    verts, k, fn
                ) - curves.polygon_diagonal_average(verts, k, fn)
                worst_poly = min(worst_poly, gap)
    return Report(
        command="chord-check",
        inputs={"trials": args.trials, "seed": args.seed},
        results={"min_loop_slack": worst_loop, "min_polygon_slack": worst_poly},
        bounds={"slack_floor": 0.0},
        satisfied=bool(worst_loop >= -1e-8 and worst_poly >= -1e-8),
        flags={},
    )


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="centroaffine",
        description="Numerical experiments on centro-affine inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        if flags.get("n"):
            p.add_argument("--n", type=int, default=None, help=flags["n"])
        if flags.get("alpha"):
            p.add_argument("--alpha", type=float, default=1.0, help=flags["alpha"])
        if flags.get("grid"):
            p.add_argument("--grid", type=int, default=flags["grid"][0], help=flags["grid"][1])
        if flags.get("trials"):
            p.add_argument(
                "--trials", type=_positive_int, default=flags["trials"][0], help=flags["trials"][1]
            )
        if flags.get("seed"):
            p.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")
        if flags.get("table"):
            p.add_argument("--table", type=str, default=None, help=flags["table"])
        if flags.get("infile"):
            p.add_argument("--in", dest="infile", type=str, default=None, help=flags["infile"])
        if flags.get("steps"):
            p.add_argument("--steps", type=int, default=flags["steps"][0], help=flags["steps"][1])
        if flags.get("radius"):
            p.add_argument("--radius", type=float, action="append", default=None, help=flags["radius"])
        if flags.get("x0"):
            p.add_argument("--x0", type=str, required=True, help=flags["x0"])
        p.add_argument("--out", type=str, default=None, help="write the report here")
        p.add_argument(
            "--format", type=str, choices=("json", "csv"), default="json",
            help="output format (csv only for sweeps)",
        )
        p.set_defaults(handler=handler)
        return p

    add(
        "polygon-min", _cmd_polygon_min,
        "minimize the cross-product energy over star polygons",
        n="number of vertices per half", trials=(20, "random restarts"), seed=True,
    )
    add(
        "bs-check", _cmd_bs_check,
        "test the polygonal area-product upper bound on random polygons",
        n="number of vertices per half", trials=(100, "random polygons"),
        seed=True, infile="check a single polygon file instead",
    )
    add(
        "ialpha-sweep", _cmd_ialpha_sweep,
        "sweep the chord-area functional against sin(alpha)",
        grid=(64, "number of alpha samples"), infile="curve file (default: circle)",
    )
    add(
        "hessian-scan", _cmd_hessian_scan,
        "certify positivity of the second-variation mode weights",
        n="largest even mode order (default 64)", grid=(400, "alpha grid size"),
    )
    add(
        "schwarzian-check", _cmd_schwarzian_check,
        "test the Schwarzian average and area-product bounds on random maps",
        trials=(200, "random diffeomorphisms"), seed=True,
    )
    add(
        "criticality", _cmd_criticality,
        "measure the Euler-Lagrange residual of the chord functional",
        alpha="chord parameter in (0, pi)", infile="curve file (default: circle)",
    )
    add(
        "conjecture-search", _cmd_conjecture_search,
        "search truncated harmonic packets for a negative chord-area deficit",
        n="harmonic cutoff M (orders 4..2M, default 4)",
        trials=(8, "search restarts"), grid=(24, "alpha samples"), seed=True,
    )
    add(
        "billiard-orbit", _cmd_billiard_orbit,
        "iterate the outer billiard map",
        table="builtin table name or file", infile="table file",
        steps=(10, "number of map applications"), x0="start point 'x,y'",
    )
    add(
        "farfield-error", _cmd_farfield_error,
        "compare far orbits of the squared map with their limit shape",
        table="builtin table name or file", infile="table file",
        radius="start radius (repeatable; default 1e3 and 1e4)",
    )
    add(
        "abstime", _cmd_abstime,
        "affine-invariant revolution time of the far-field flow",
        table="builtin table name or file", infile="table file",
    )
    add(
        "chord-check", _cmd_chord_check,
        "test chord-length averages on random loops and polygons",
        trials=(20, "random loops and polygons"), seed=True,
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        report = args.handler(args)
        report.wall_time_s = time.perf_counter() - start
        if args.format == "csv":
            rows = report.results.get("sweep")
            if rows is None:
                raise ConfigError("csv output is only available for sweeps")
            payload = sweep_csv_bytes(rows)
        else:
            # strict JSON: a non-finite number raises ValueError here
            payload = report.to_json_bytes()
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    print(f"wall time: {report.wall_time_s:.3f} s", file=sys.stderr)
    return report.exit_code


def console_main() -> None:
    raise SystemExit(main())


# A CLI process ends right after its command, so the heap that numpy and the
# layers built on import never needs collecting: frozen, it is left out of
# every collection, the one at interpreter shutdown included.  stdout and
# stderr are still flushed at exit, and --out is written inside its own with.
gc.freeze()

if __name__ == "__main__":
    console_main()
