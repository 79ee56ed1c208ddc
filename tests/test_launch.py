"""What a launch loads and keeps: every layer with the CLI, no numpy.ma, a frozen import heap,
and the lazy names and imports."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import centroaffine
from test_cli import CHEAP_RUNS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every public name of the package, by layer: a hand copy of ``_EXPORTS``, so that
# adding or dropping a public name is a visible change to this test as well.
EXPORTS = {
    "billiards": [
        "AbsoluteTimeReport", "ConvexTable", "FarFieldCurve", "FarFieldError", "FlowTrajectory",
        "absolute_time", "billiard_orbit", "far_field_curve", "far_field_error", "far_field_flow",
        "gauge_function", "kepler_residual", "named_table", "polygon_table", "support_table",
    ],
    "curves": [
        "DELTA_DIFFEO", "DiffeoCurve", "HessianMode", "area_functional", "area_functional_profile",
        "average_schwarzian", "chord_average", "chord_bound", "criticality_residual",
        "curve_from_diffeo", "deficit_search", "hessian_mode_numeric", "hessian_mode_value",
        "petty_product", "polygon_diagonal_average", "polygon_diagonal_bound", "positivity_scan",
        "schwarzian",
    ],
    "duality": ["bs_bound_polygon", "bs_product_polygon", "central_symmetrize"],
    "errors": [
        "AlphaOutOfRange", "ClosureViolation", "ConfigError", "DegenerateRays", "InteriorPoint",
        "InvariantViolation", "NotADiffeo", "NotStarShaped", "NotUnitSpeed", "ParseError",
        "UndefinedOnSingularSet",
    ],
    "planar": [
        "SL2Matrix", "SampledCurve", "StarPolygon", "SupportBody", "TrigSeries", "area_form",
        "circular_shift", "signed_area", "sl2_apply", "spectral_derivative",
    ],
    "polygons": [
        "CrossProducts", "MinimizationResult", "RayConfiguration", "canonical_gauge",
        "cross_products", "energy", "energy_lower_bound", "frieze_determinant",
        "frieze_relation_residual", "minimize_energy", "project_to_unit_cross", "reconstruct",
        "regular_polygon",
    ],
    "reports": ["Report"],
    "sampling": [
        "near_regular_polygon", "random_convex_polygon_table", "random_diffeo",
        "random_ray_configuration", "random_sl2", "random_star_polygon", "random_star_polygons",
        "random_support_table", "random_unit_speed_loop", "rng_from_seed",
    ],
}
NAMES = sorted((layer, name) for layer, names in EXPORTS.items() for name in names)


def run_fresh(code: str) -> str:
    """Run Python code in a new interpreter that finds the package under src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def loads_numpy_ma(argv: list[str]) -> bool:
    """Whether one CLI run in a fresh process leaves numpy.ma in sys.modules."""
    probe = (
        "import contextlib, io, sys\n"
        "from centroaffine import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    cli.main({argv!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    return run_fresh(probe).strip() == "True"


def test_cli_import_loads_every_layer():
    # perfbench's traced mode wraps every layer right after this import and
    # counts time spent loading a layer later as unattributed
    probe = (
        "import json, sys, centroaffine.cli\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('centroaffine.')]))\n"
    )
    layers = {f"centroaffine.{layer}" for layer in EXPORTS} | {"centroaffine.cli"}
    assert set(json.loads(run_fresh(probe))) == layers


def test_cli_import_freezes_the_import_heap():
    assert int(run_fresh("import gc, centroaffine.cli; print(gc.get_freeze_count())")) > 10_000


def test_package_import_freezes_nothing():
    assert int(run_fresh("import gc, centroaffine; print(gc.get_freeze_count())")) == 0


def test_out_file_from_a_launch_matches_in_process_main(tmp_path):
    # the report reaches the file before interpreter shutdown, which no longer
    # collects the frozen heap
    from centroaffine import cli

    argv = ["bs-check", *CHEAP_RUNS["bs-check"], "--out"]
    launched, in_process = tmp_path / "launched.json", tmp_path / "in_process.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "centroaffine.cli", *argv, str(launched)],
        capture_output=True, env=env,
    )
    assert proc.returncode == cli.main([*argv, str(in_process)]) == 0
    assert proc.stdout == b""
    assert launched.read_bytes() == in_process.read_bytes()


def test_no_subcommand_loads_numpy_ma():
    assert [c for c, argv in CHEAP_RUNS.items() if loads_numpy_ma([c, *argv])] == []


def test_sampling_loads_no_billiards_or_curves():
    probe = (
        "import json, sys, centroaffine.sampling\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('centroaffine.'))))\n"
    )
    loaded = set(json.loads(run_fresh(probe)))
    assert "centroaffine.sampling" in loaded
    assert {"centroaffine.billiards", "centroaffine.curves"}.isdisjoint(loaded)


def test_package_import_loads_no_layer():
    probe = (
        "import sys, centroaffine\n"
        "print(sorted(m for m in sys.modules if m.startswith('centroaffine.')))\n"
    )
    assert run_fresh(probe).strip() == "[]"


def test_export_table_matches_the_copy():
    assert {layer: list(names) for layer, names in centroaffine._EXPORTS.items()} == EXPORTS


@pytest.mark.parametrize("layer, name", NAMES, ids=[name for _, name in NAMES])
def test_every_public_name_resolves_to_its_layer(layer, name):
    namespace = {}
    exec(f"from centroaffine import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"centroaffine.{layer}"), name)


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from centroaffine import *", namespace)
    assert {name for _, name in NAMES} | set(EXPORTS) <= set(namespace)
    assert {name for _, name in NAMES} | set(EXPORTS) <= set(dir(centroaffine))


def test_layers_are_attributes_of_the_package():
    probe = "import centroaffine; print(centroaffine.polygons.energy_lower_bound(4))"
    assert float(run_fresh(probe)) == pytest.approx(8.0 * 2**-0.5)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        centroaffine.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from centroaffine import no_such_name", {})


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from centroaffine import polygons, sampling, billiards" in code
    assert len(run_fresh(code).splitlines()) == 2
