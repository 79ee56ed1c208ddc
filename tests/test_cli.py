"""End-to-end checks of the batch interface: exit codes, payloads, loaders."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from centroaffine import cli
from centroaffine.polygons import regular_polygon
from centroaffine.reports import Report

REPORT_KEYS = {"command", "inputs", "results", "bounds", "satisfied", "flags"}
PENTAGON = regular_polygon(5).vertices.tolist()


def run_cli(capsys, argv):
    """Invoke the entry point in-process and capture both streams."""
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    return rc, json.loads(out), err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestHappyPaths:
    def test_polygon_min(self, capsys):
        rc, rep, _ = run_json(
            capsys, ["polygon-min", "--n", "4", "--trials", "2", "--seed", "7"]
        )
        assert rc == 0
        assert REPORT_KEYS <= set(rep)
        assert rep["command"] == "polygon-min"
        assert rep["inputs"] == {"n": 4, "trials": 2, "seed": 7}
        assert rep["results"]["energy"] == pytest.approx(4.0 * math.sqrt(2.0))
        assert rep["results"]["gap"] >= -1e-9
        assert rep["flags"]["converged"] is True

    def test_bs_check(self, capsys):
        rc, rep, _ = run_json(
            capsys, ["bs-check", "--n", "5", "--trials", "10", "--seed", "3"]
        )
        assert rc == 0
        assert rep["results"]["checked"] == 10
        assert rep["results"]["max_product"] <= rep["bounds"]["area_product"] + 1e-8
        assert rep["results"]["min_slack"] >= -1e-8

    def test_ialpha_sweep(self, capsys):
        rc, rep, _ = run_json(capsys, ["ialpha-sweep", "--grid", "8"])
        assert rc == 0
        rows = rep["results"]["sweep"]
        assert len(rows) == 9
        # circle: value equals the bound sin(alpha) at every sample
        for alpha, value, bound in rows:
            assert value == pytest.approx(bound, abs=1e-9)
        assert rep["results"]["min_gap"] >= -1e-9

    def test_hessian_scan(self, capsys):
        rc, rep, _ = run_json(capsys, ["hessian-scan", "--n", "8", "--grid", "100"])
        assert rc == 0
        assert rep["results"]["orders"] == [4, 6, 8]
        assert min(rep["results"]["min_values"]) > 0.0
        assert rep["flags"]["all_modes_positive"] is True

    def test_schwarzian_check(self, capsys):
        rc, rep, _ = run_json(
            capsys, ["schwarzian-check", "--trials", "3", "--seed", "1"]
        )
        assert rc == 0
        assert rep["results"]["identity_average"] == pytest.approx(math.pi, abs=1e-9)
        assert rep["results"]["max_average"] <= math.pi + 1e-7
        assert rep["results"]["max_area_product"] <= math.pi**2 + 1e-7

    def test_criticality_circle(self, capsys):
        rc, rep, _ = run_json(capsys, ["criticality", "--alpha", "1.0"])
        assert rc == 0
        assert rep["results"]["max_residual"] < 1e-9

    def test_conjecture_search(self, capsys):
        rc, rep, _ = run_json(
            capsys,
            ["conjecture-search", "--n", "2", "--trials", "1", "--grid", "8",
             "--seed", "5"],
        )
        assert rc == 0
        assert rep["results"]["best_deficit"] >= rep["bounds"]["deficit_floor"]

    def test_billiard_orbit_necklace(self, capsys):
        rc, rep, _ = run_json(
            capsys,
            ["billiard-orbit", "--table", "square", "--x0", "2.5,0.7",
             "--steps", "12"],
        )
        assert rc == 0
        pts = np.asarray(rep["results"]["points"])
        assert pts.shape == (13, 2)
        np.testing.assert_allclose(pts[12], pts[0], atol=1e-9)

    def test_farfield_error_decays(self, capsys):
        rc, rep, _ = run_json(
            capsys,
            ["farfield-error", "--table", "triangle", "--radius", "200",
             "--radius", "800"],
        )
        assert rc == 0
        e_near, e_far = rep["results"]["errors"]
        assert e_far < e_near

    def test_farfield_error_drops_repeated_radii(self, capsys):
        rc, rep, _ = run_json(
            capsys,
            ["farfield-error", "--table", "triangle", "--radius", "800",
             "--radius", "200", "--radius", "800"],
        )
        assert rc == 0
        assert rep["inputs"]["radii"] == [200.0, 800.0]
        assert len(rep["results"]["errors"]) == 2

    def test_abstime_square(self, capsys):
        rc, rep, _ = run_json(capsys, ["abstime", "--table", "square"])
        assert rc == 0
        assert rep["results"]["absolute_period"] == pytest.approx(math.sqrt(2.0))
        assert rep["flags"]["equals_lower"] is True
        assert rep["flags"]["equals_upper"] is True

    def test_abstime_circle(self, capsys):
        rc, rep, _ = run_json(capsys, ["abstime", "--table", "circle"])
        assert rc == 0
        assert rep["results"]["absolute_period"] == pytest.approx(0.5 * math.pi)
        assert rep["flags"]["equals_upper"] is True
        assert rep["flags"]["equals_lower"] is False

    def test_chord_check(self, capsys):
        rc, rep, _ = run_json(capsys, ["chord-check", "--trials", "2", "--seed", "9"])
        assert rc == 0
        assert rep["results"]["min_loop_slack"] >= -1e-8
        assert rep["results"]["min_polygon_slack"] >= -1e-8

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, ["--help"])
        assert rc == 0
        assert "polygon-min" in out


class TestUsageErrors:
    def test_no_command(self, capsys):
        rc, _, err = run_cli(capsys, [])
        assert rc == 1
        assert "error" in err

    def test_unknown_command(self, capsys):
        rc, _, err = run_cli(capsys, ["frobnicate"])
        assert rc == 1

    def test_unknown_flag(self, capsys):
        rc, _, err = run_cli(capsys, ["polygon-min", "--bogus", "1"])
        assert rc == 1

    def test_sweep_takes_no_seed(self, capsys):
        rc, _, _ = run_cli(capsys, ["ialpha-sweep", "--seed", "1"])
        assert rc == 1

    def test_missing_start_point(self, capsys):
        rc, _, _ = run_cli(capsys, ["billiard-orbit", "--table", "square"])
        assert rc == 1

    def test_malformed_start_point(self, capsys):
        rc, _, err = run_cli(
            capsys, ["billiard-orbit", "--table", "square", "--x0", "abc"]
        )
        assert rc == 1
        assert "--x0" in err

    def test_polygon_min_needs_n(self, capsys):
        rc, _, _ = run_cli(capsys, ["polygon-min", "--n", "2"])
        assert rc == 1

    def test_bs_check_needs_source(self, capsys):
        rc, _, _ = run_cli(capsys, ["bs-check"])
        assert rc == 1

    @pytest.mark.parametrize("steps", ["-1", "1000001", "1000000000000"])
    def test_orbit_steps_out_of_range(self, capsys, steps):
        rc, out, err = run_cli(
            capsys, ["billiard-orbit", "--table", "square", "--x0", "2.5,0.7", "--steps", steps]
        )
        assert rc == 1
        assert out == ""
        assert "--steps" in err

    @pytest.mark.parametrize(
        "command",
        ["polygon-min", "bs-check", "chord-check", "schwarzian-check", "conjecture-search"],
    )
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one(self, capsys, command, trials):
        size = ["--n", "5"] if command in ("polygon-min", "bs-check") else []
        rc, out, err = run_cli(capsys, [command, *size, "--trials", trials])
        assert rc == 1
        assert out == ""
        assert "--trials" in err

    @pytest.mark.parametrize("x0", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_start_point(self, capsys, x0):
        rc, out, err = run_cli(
            capsys, ["billiard-orbit", "--table", "square", "--x0", x0]
        )
        assert rc == 1
        assert out == ""
        assert "--x0" in err

    @pytest.mark.parametrize("table", ["triangle", "square", "circle"])
    @pytest.mark.parametrize("radius", ["1e12", "1e308"])
    def test_farfield_radius_past_the_step_cap(self, capsys, table, radius):
        # one revolution at 1e12 takes about 1e12 map steps, and at 1e308 the
        # count overflows to inf; the check runs before any step
        rc, out, err = run_cli(
            capsys, ["farfield-error", "--table", table, "--radius", "1", "--radius", radius]
        )
        assert rc == 1
        assert out == ""
        assert "--radius" in err and str(cli.MAX_ORBIT_STEPS) in err

    def test_non_finite_payload_is_an_error(self, capsys, monkeypatch):
        for value in (math.nan, np.float64(np.inf), np.float32(np.nan), np.array([1.0, -np.inf])):

            def handler(args):
                return Report(command="abstime", results={"value": value}, satisfied=True)

            monkeypatch.setattr(cli, "_cmd_abstime", handler)
            rc, out, err = run_cli(capsys, ["abstime", "--table", "square"])
            assert rc == 1
            assert out == ""
            assert "not JSON compliant" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "radii",
        [["200"], ["200", "200"], ["inf", "200"], ["nan", "200"], ["0", "200"],
         ["-5", "200"]],
        ids=["one", "repeated", "inf", "nan", "zero", "negative"],
    )
    def test_farfield_error_radii(self, capsys, radii):
        argv = ["farfield-error", "--table", "triangle"]
        for r in radii:
            argv += ["--radius", r]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1
        assert out == ""
        assert "--radius" in err

    @pytest.mark.parametrize(
        "command, token, text",
        [
            ("ialpha-sweep", "NaN", '{"half_period": NaN, "harmonics": [[4, 0.02, 0.01]]}'),
            ("ialpha-sweep", "1e999", '{"harmonics": [[4, 1e999, 0.01]]}'),
            ("bs-check", "Infinity", '{"vertices": [[Infinity, 0.0], [0.0, 1.0], [-1.0, 0.5]]}'),
            ("abstime", "-Infinity", '{"kind": "support", "values": [1.0, -Infinity, 1.0]}'),
            ("bs-check", "1" + "0" * 400, '{"vertices": [[1' + "0" * 400 + ', 0], [0, 1]]}'),
        ],
        ids=["curve-nan", "curve-overflow", "polygon-inf", "table-minus-inf", "polygon-big-int"],
    )
    def test_non_finite_json_token(self, capsys, tmp_path, command, token, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        rc, out, err = run_cli(capsys, [command, "--in", str(path)])
        assert rc == 1
        assert out == ""
        assert f"non-finite number {token}" in err

    def test_table_and_infile_conflict(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"kind": "polygon", "vertices": []})
        rc, _, err = run_cli(capsys, ["abstime", "--table", "square", "--in", path])
        assert rc == 1
        assert "not both" in err

    def test_table_required(self, capsys):
        rc, _, _ = run_cli(capsys, ["abstime"])
        assert rc == 1

    def test_sweep_grid_too_small(self, capsys):
        rc, _, _ = run_cli(capsys, ["ialpha-sweep", "--grid", "1"])
        assert rc == 1


class TestInputErrors:
    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, ["bs-check", "--in", "/nonexistent.json"])
        assert rc == 1
        assert "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = run_cli(capsys, ["bs-check", "--in", str(path)])
        assert rc == 1
        assert "not valid JSON" in err

    def test_non_object_json(self, capsys, tmp_path):
        path = write_json(tmp_path / "arr.json", [1, 2, 3])
        rc, _, err = run_cli(capsys, ["bs-check", "--in", path])
        assert rc == 1
        assert "JSON object" in err

    def test_polygon_count_mismatch(self, capsys, tmp_path):
        verts = regular_polygon(5).vertices.tolist()
        path = write_json(tmp_path / "p.json", {"n": 4, "vertices": verts})
        rc, _, err = run_cli(capsys, ["bs-check", "--in", path])
        assert rc == 1
        assert "does not match" in err

    def test_polygon_bad_cross_products(self, capsys, tmp_path):
        verts = [[2.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [-0.5, -1.0], [1.0, -1.0]]
        path = write_json(tmp_path / "p.json", {"vertices": verts})
        rc, _, err = run_cli(capsys, ["bs-check", "--in", path])
        assert rc == 1
        assert "invalid input" in err

    def test_curve_wrong_half_period(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"half_period": 1.0, "harmonics": [[4, 0.01, 0.0]]},
        )
        rc, _, err = run_cli(capsys, ["criticality", "--in", path])
        assert rc == 1
        assert "half period" in err

    def test_curve_bad_row(self, capsys, tmp_path):
        path = write_json(tmp_path / "c.json", {"harmonics": [[4, 0.01]]})
        rc, _, err = run_cli(capsys, ["criticality", "--in", path])
        assert rc == 1
        assert "[order, re, im]" in err

    def test_curve_not_a_diffeo(self, capsys, tmp_path):
        path = write_json(tmp_path / "c.json", {"harmonics": [[4, 0.2, 0.0]]})
        rc, _, err = run_cli(capsys, ["criticality", "--in", path])
        assert rc == 1
        assert "invalid input" in err

    def test_table_unknown_kind(self, capsys, tmp_path):
        path = write_json(tmp_path / "t.json", {"kind": "blob", "values": [1.0]})
        rc, _, err = run_cli(capsys, ["abstime", "--in", path])
        assert rc == 1
        assert "kind" in err

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("ialpha-sweep", {"harmonics": 5}, "'harmonics' must be a list"),
            ("ialpha-sweep", {"harmonics": [5]}, "[order, re, im]"),
            ("ialpha-sweep", {"harmonics": [[4, [1], 0]]}, "must be a number"),
            ("ialpha-sweep", {"half_period": None, "harmonics": []}, "'half_period' must be a number"),
            ("ialpha-sweep", {"harmonics": [[4.5, 0.01, 0.0]]}, "must be an integer"),
            ("ialpha-sweep", {"harmonics": [[True, 0.01, 0.0]]}, "must be an integer"),
            ("bs-check", {"n": None, "vertices": [[1, 0], [0, 1], [-1, 0.5]]}, "'n' must be an integer"),
            ("bs-check", {"n": 3.7, "vertices": [[1, 0], [0, 1], [-1, 0.5]]}, "'n' must be an integer"),
            ("bs-check", {"vertices": {"x": 1}}, "'vertices' must be"),
            ("abstime", {"kind": "support", "values": [[1.0], 2.0]}, "'values' must be"),
            ("bs-check", {"vertices": [[str(c) for c in v] for v in PENTAGON]}, "'vertices' must be"),
            ("bs-check", {"vertices": [[1, 0], [0, True], [-1, 0.5]]}, "'vertices' must be"),
            ("bs-check", {"vertices": [[1, 0], [0, None], [-1, 0.5]]}, "'vertices' must be"),
            ("abstime", {"kind": "polygon", "vertices": [[str(c) for c in v] for v in PENTAGON]},
             "'vertices' must be"),
            ("abstime", {"kind": "support", "values": ["1.0"] * 64}, "'values' must be"),
            ("abstime", {"kind": "support", "values": [True] * 64}, "'values' must be"),
            ("abstime", {"kind": "support", "values": [1.0] * 63 + [None]}, "'values' must be"),
        ],
        ids=[
            "harmonics-number", "harmonics-row-number", "harmonics-nested-re", "half-period-null",
            "order-fraction", "order-bool", "n-null", "n-fraction", "vertices-object",
            "values-ragged", "vertices-strings", "vertices-bool", "vertices-null",
            "table-vertices-strings", "values-strings", "values-bool", "values-null",
        ],
    )
    def test_malformed_field_is_a_parse_error(self, capsys, tmp_path, command, data, message):
        path = write_json(tmp_path / "in.json", data)
        rc, out, err = run_cli(capsys, [command, "--in", path])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("command", ["criticality", "ialpha-sweep"])
    def test_repeated_harmonic_order_is_a_parse_error(self, capsys, tmp_path, command):
        # a second row for z_2 used to replace the first without a word
        path = write_json(tmp_path / "c.json", {"harmonics": [[2, 0.01, 0], [2.0, 0.02, 0]]})
        rc, out, err = run_cli(capsys, [command, "--in", path])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "harmonic order 2 is given twice" in err

    def test_integral_float_order_is_accepted(self, capsys, tmp_path):
        path = write_json(tmp_path / "c.json", {"harmonics": [[4.0, 0.02, 0.01]]})
        rc, rep, _ = run_json(capsys, ["ialpha-sweep", "--grid", "4", "--in", path])
        assert rc == 0
        assert rep["results"]["min_gap"] >= -1e-7

    def test_vertices_nested_past_the_iterator_limit(self, capsys, tmp_path):
        # numpy builds a 40-dimensional array here but cannot iterate over it
        path = write_json(tmp_path / "deep.json", {"vertices": json.loads("[" * 40 + "1" + "]" * 40)})
        rc, out, err = run_cli(capsys, ["bs-check", "--in", path])
        assert rc == 1
        assert out == ""
        assert "vertices must have shape" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        rc, out, err = run_cli(capsys, ["bs-check", "--in", str(path)])
        assert rc == 1
        assert out == ""
        assert "nested too deeply" in err


# Arbitrary JSON values, small enough that every example runs in milliseconds.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8) | st.floats(-4.0, 4.0) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
POINTS = st.lists(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), max_size=8)
ON_CIRCLE = st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=8, unique=True).map(
    lambda angles: [[math.cos(a), math.sin(a)] for a in sorted(angles)]
)
REGULAR = st.sampled_from([regular_polygon(k).vertices.tolist() for k in range(3, 8)])
ROWS = st.lists(
    st.tuples(
        st.integers(-2, 12) | st.floats(0.0, 12.0), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)
    ).map(list),
    max_size=4,
)
SUPPORT = st.integers(0, 6).flatmap(
    lambda k: st.lists(st.floats(0.9, 1.1), min_size=2**k, max_size=2**k)
)
FUZZ = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLoaderFuzz:
    """Every loader input ends in exit 0 or 2, or in a usage error with a message."""

    @staticmethod
    def check(tmp_path_factory, data, command, *flags):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, "--in", str(path), *flags])
        assert rc in (0, 1, 2)
        if rc == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith(("error: ", "invalid input: "))

    @FUZZ
    @given(
        data=st.fixed_dictionaries(
            {}, optional={"n": st.integers(0, 9) | ANY_JSON, "vertices": REGULAR | POINTS | ANY_JSON}
        )
    )
    def test_polygon_loader(self, tmp_path_factory, data):
        self.check(tmp_path_factory, data, "bs-check")

    @FUZZ
    @given(
        data=st.fixed_dictionaries(
            {}, optional={"half_period": st.just(math.pi) | ANY_JSON, "harmonics": ROWS | ANY_JSON}
        )
    )
    def test_curve_loader(self, tmp_path_factory, data):
        self.check(tmp_path_factory, data, "ialpha-sweep", "--grid", "4")

    @FUZZ
    @given(
        data=st.fixed_dictionaries(
            {},
            optional={
                "kind": st.sampled_from(["polygon", "support"]) | ANY_JSON,
                "vertices": ON_CIRCLE | POINTS | ANY_JSON,
                "values": SUPPORT | ANY_JSON,
            },
        )
    )
    def test_table_loader(self, tmp_path_factory, data):
        self.check(tmp_path_factory, data, "abstime")


class TestViolations:
    def test_orbit_from_interior_point(self, capsys):
        rc, rep, _ = run_json(
            capsys,
            ["billiard-orbit", "--table", "square", "--x0", "0.3,-0.2"],
        )
        assert rc == 2
        assert rep["satisfied"] is False
        assert "singular" in rep["flags"]

    def test_orbit_hits_singular_set(self, capsys):
        rc, rep, _ = run_json(
            capsys,
            ["billiard-orbit", "--table", "square", "--x0", "1,-3"],
        )
        assert rc == 2
        assert rep["satisfied"] is False

    def test_perturbed_curve_not_critical(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"half_period": math.pi, "harmonics": [[4, 0.03, 0.0]]},
        )
        rc, rep, _ = run_json(capsys, ["criticality", "--in", path, "--alpha", "1.0"])
        assert rc == 2
        assert rep["results"]["max_residual"] > 1e-3


class TestFileRoundTrips:
    def test_polygon_file(self, capsys, tmp_path):
        verts = regular_polygon(5).vertices.tolist()
        path = write_json(tmp_path / "p.json", {"n": 5, "vertices": verts})
        rc, rep, _ = run_json(capsys, ["bs-check", "--in", path])
        assert rc == 0
        assert rep["results"]["checked"] == 1
        # the regular polygon attains the bound
        assert rep["results"]["min_slack"] == pytest.approx(0.0, abs=1e-9)

    def test_curve_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "c.json",
            {"half_period": math.pi, "harmonics": [[4, 0.02, 0.01]]},
        )
        rc, rep, _ = run_json(capsys, ["ialpha-sweep", "--grid", "4", "--in", path])
        assert rc == 0
        assert rep["inputs"]["source"] == path
        assert rep["results"]["min_gap"] >= -1e-7

    def test_polygon_table_file(self, capsys, tmp_path):
        verts = [[2.0, 1.0], [-2.0, 1.0], [-2.0, -1.0], [2.0, -1.0]]
        path = write_json(tmp_path / "t.json", {"kind": "polygon", "vertices": verts})
        rc, rep, _ = run_json(capsys, ["abstime", "--in", path])
        assert rc == 0
        # parallelogram: same invariant time as the square
        assert rep["results"]["absolute_period"] == pytest.approx(math.sqrt(2.0))

    def test_support_table_file(self, capsys, tmp_path):
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        values = (1.0 + 0.05 * np.cos(3.0 * theta)).tolist()
        path = write_json(tmp_path / "t.json", {"kind": "support", "values": values})
        rc, rep, _ = run_json(capsys, ["abstime", "--in", path])
        assert rc == 0
        assert rep["flags"]["kind"] == "smooth"
        lower, upper = rep["bounds"]["lower"], rep["bounds"]["upper"]
        assert lower <= rep["results"]["absolute_period"] <= upper


class TestOutputFormats:
    def test_csv_sweep(self, capsys):
        rc, out, _ = run_cli(capsys, ["ialpha-sweep", "--grid", "4", "--format", "csv"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,value,bound"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_csv_rejected_without_sweep(self, capsys):
        rc, _, err = run_cli(capsys, ["abstime", "--table", "square", "--format", "csv"])
        assert rc == 1
        assert "only available for sweeps" in err

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, _ = run_cli(
            capsys, ["abstime", "--table", "circle", "--out", str(path)]
        )
        assert rc == 0
        assert out == ""
        rep = json.loads(path.read_text())
        assert rep["command"] == "abstime"

    def test_wall_time_on_stderr_only(self, capsys):
        rc, out, err = run_cli(capsys, ["abstime", "--table", "square"])
        assert rc == 0
        assert "wall time" in err
        assert "wall_time" not in out


CHEAP_RUNS = {
    "polygon-min": ["--n", "5", "--trials", "2", "--seed", "3"],
    "bs-check": ["--n", "5", "--trials", "10", "--seed", "99"],
    "ialpha-sweep": ["--grid", "8"],
    "hessian-scan": ["--n", "8", "--grid", "50"],
    "schwarzian-check": ["--trials", "2", "--seed", "1"],
    "criticality": ["--alpha", "1.0"],
    "conjecture-search": ["--n", "2", "--trials", "1", "--grid", "8", "--seed", "5"],
    "billiard-orbit": ["--table", "circle", "--x0", "3,0.5", "--steps", "4"],
    "farfield-error": ["--table", "triangle", "--radius", "50", "--radius", "100"],
    "abstime": ["--table", "circle"],
    "chord-check": ["--trials", "1", "--seed", "9"],
}


class TestDeterminism:
    ARGV = ["bs-check", "--n", "5", "--trials", "10", "--seed", "99"]

    def test_every_subcommand_is_covered(self, capsys):
        _, usage, _ = run_cli(capsys, ["--help"])
        commands = usage[usage.index("{") + 1 : usage.index("}")].split(",")
        assert set(CHEAP_RUNS) == set(commands)

    @pytest.mark.parametrize("command", sorted(CHEAP_RUNS))
    def test_subcommand_byte_identical(self, capsys, command):
        argv = [command, *CHEAP_RUNS[command]]
        rc, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert rc == 0
        assert first == second
        proc = subprocess.run(
            [sys.executable, "-m", "centroaffine.cli", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == rc
        assert proc.stdout == first

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, self.ARGV)
        _, second, _ = run_cli(capsys, self.ARGV)
        assert first == second

    def test_subprocess_matches_in_process(self, capsys):
        _, expected, _ = run_cli(capsys, self.ARGV)
        proc = subprocess.run(
            [sys.executable, "-m", "centroaffine.cli", *self.ARGV],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == expected


class TestBlasThreads:
    """The CLI runs numpy's BLAS on one thread unless the user says otherwise."""

    VARIABLE = "OPENBLAS_NUM_THREADS"

    def run_python(self, args, **overrides):
        env = {k: v for k, v in os.environ.items() if k != self.VARIABLE}
        env.update(overrides)
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, check=True,
        )
        return proc.stdout

    def test_report_bytes_do_not_depend_on_the_core_count(self):
        """A pool input whose min_loop_slack differs in its last digits on 1 and 2 threads.

        On a machine with one core OpenBLAS starts one thread either way,
        so there the test passes whatever the package does.
        """
        argv = ["-m", "centroaffine.cli", "chord-check", "--trials", "5", "--seed", "1437647638"]
        assert self.run_python(argv) == self.run_python(argv, **{self.VARIABLE: "1"})

    @pytest.mark.parametrize("value", [None, "2"])
    def test_import_leaves_the_variable_as_it_was(self, value):
        """Unset stays unset, so child processes inherit nothing; a user's value stays."""
        code = f"import os, centroaffine; print(os.environ.get({self.VARIABLE!r}))"
        overrides = {} if value is None else {self.VARIABLE: value}
        assert self.run_python(["-c", code], **overrides) == f"{value}\n"
