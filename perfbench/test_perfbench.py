"""Self-tests of the benchmark: failure counting, self-time arithmetic, tracing.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _launch(task, code, stdout):
    return run.Launch(task=task, code=code, spawn_ns=0, exit_ns=1, setup_s=0.5, cpu_s=0.1,
                      rss_mb=50.0, stdout=stdout, stderr=b"")


def test_each_broken_report_counts_as_exactly_one_failure():
    gap_task = workloads.Task("gap", ("polygon-min",), 0, "energy bound", workloads.check_gap)
    exit_task = workloads.Task("exit", ("hessian-scan",), 0, "positive weights")
    cases = [
        (gap_task, 0, b'{"results": {"gap": NaN}}'),  # not strict JSON
        (exit_task, 2, b'{"results": {}}'),  # wrong exit code
        (gap_task, 0, b'{"results": {"gap": 1e-3}}'),  # gap above tolerance
    ]
    launches = []
    for task, code, stdout in cases:
        item = _launch(task, code, stdout)
        item.problems = run.judge(task, code, stdout)
        assert len(item.problems) == 1, item.problems
        launches.append(item)
    good = _launch(gap_task, 0, b'{"results": {"gap": 1e-12}}')
    good.problems = run.judge(gap_task, 0, good.stdout)
    assert good.problems == []
    result = run.Run("polygons", 0, [run.Pass(0, False, launches + [good])], [], {}, 1.0)
    attempted, failed, correct, notes = run.failures(result, {})
    assert (attempted, failed, correct) == (4, 3, False)
    assert notes["gap"]["failed"] == 2 and notes["exit"]["failed"] == 1


def test_known_failure_keeps_the_run_correct():
    task = workloads.Task("farfield-circle", ("farfield-error",), 0, "decay", workloads.check_decay)
    stdout = b'{"results": {"errors": [4.706118e-06, 4.706187e-06]}}'
    item = _launch(task, 2, stdout)
    item.problems = run.judge(task, 2, stdout)
    assert len(item.problems) == 2
    result = run.Run("billiards", 0, [run.Pass(3, False, [item])], [], {}, 1.0)
    reference = {"failures": {"billiards": {"3": ["farfield-circle"], "4": ["farfield-polygon48"]}}}
    known = run.known_failures(result, reference)
    assert known == {"3": ["farfield-circle"]}
    assert run.failures(result, known)[:3] == (1, 1, True)
    assert run.failures(result, {"4": ["farfield-circle"]})[:3] == (1, 1, False)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    np.testing.assert_array_equal(spans.self_times(parent, start, end), [30.0, 20.0, 40.0, 10.0])
    trace = {
        "names": ["cli.main", "polygons.energy", "billiards.far_field_error", "planar.area_form"],
        "name": np.array([0, 1, 2, 3]),
        "parent": parent,
        "start": start * 1_000_000_000,
        "end": end * 1_000_000_000,
        "counts": {},
        "marks": {"t0": -5 * 10**9, "t1": -1 * 10**9, "t2": 0, "t3": 100 * 10**9},
    }
    summary = spans.summarize(trace)
    assert summary["self_s"]["cli"] == pytest.approx(30.0)
    assert summary["self_s"]["polygons"] == pytest.approx(20.0)
    assert summary["self_s"]["billiards"] == pytest.approx(40.0)
    assert summary["self_s"]["planar"] == pytest.approx(10.0)
    assert summary["import_s"] == pytest.approx(4.0)
    assert summary["in_process_s"] == pytest.approx(105.0)
    # the one second between import and main is the only unattributed time
    assert summary["unattributed_share"] == pytest.approx(1.0 / 105.0)


def test_strict_json_rejects_non_finite_numbers():
    for bad in (b'{"a": NaN}', b'{"a": Infinity}', b'{"a": -Infinity}', b"[1]"):
        with pytest.raises(ValueError):
            run.strict_json(bad)
    assert run.strict_json(b'{"a": 1e308}') == {"a": 1e308}


def test_inputs_repeat_for_a_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for build in workloads.WORKLOADS.values():
        tasks_a, props_a = build(5, str(first))
        tasks_b, props_b = build(5, str(second))
        assert [t.argv for t in tasks_a] == [t.argv for t in tasks_b]
        assert props_a == props_b
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert workloads.pool_order(3) == workloads.pool_order(3)
    assert sorted(workloads.pool_order(3)) == list(range(workloads.POOL_SIZE))


def test_traced_command_patches_names_imported_across_modules(tmp_path):
    span_file = tmp_path / "spans.npz"
    env = run.child_env(ROOT)
    env["PERFBENCH_SPANS"] = str(span_file)
    proc = subprocess.run(
        [sys.executable, run.BOOT, "abstime", "--table", "triangle"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = spans.load(str(span_file))
    names = [trace["names"][i] for i in trace["name"]]
    parents = [names[p] if p >= 0 else None for p in trace["parent"]]
    # billiards calls area_form through its own namespace
    assert ("planar.area_form", "billiards.far_field_curve") in set(zip(names, parents))
    assert names[0] == "cli.main" and parents[0] is None
    summary = spans.summarize(trace)
    assert summary["unattributed_share"] < 0.05
    assert summary["counts"]["reports.bytes_out"] == len(proc.stdout)
