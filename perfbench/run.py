"""End-to-end benchmark of the ``centroaffine`` CLI, with a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload polygons|curves|billiards|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A workload is a fixed list of CLI commands, each run in a fresh process, one
after another: a closed loop with one client, the way batch checks are run.
The benchmark repeats the list (a pass) until ``--seconds`` have elapsed;
each pass draws its inputs from one index of a closed pool, visited in an
order fixed by ``--seed``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:

    setup_s      median over launches of spawn -> ``centroaffine.cli`` imported
    run_s        median over passes of first spawn -> last exit
    cpu_s        median over passes of user + system CPU of the commands
    peak_rss_mb  median over passes of the largest max-RSS of a command

With ``--trace 1`` every pass is run twice, untraced and then traced, and the
last line holds the per-layer metrics of the traced passes (see
``PER_LAYER``).  ``--workload all`` (the default) runs every workload in trace
mode and prints both sets.  Every command's output is checked; a command
fails when it crashes, times out, exits 1, prints anything but strict JSON,
exits with another code than its task expects, or breaks a closed form.
A failure that ``reference.json`` records for the same task and input at the
reference commit counts in ``failed`` but keeps ``correct`` true; any other
failure makes the run incorrect.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BOOT = os.path.join(HERE, "boot.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = ".perfbench_work"
COMMAND_TIMEOUT_S = 60.0
# Stop starting passes after this long, whatever --seconds says, so that a
# run ends within its time limit even when a command hangs.
HARD_LIMIT_S = 110.0

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Launch:
    """One CLI process: its task, exit status, timings and output."""

    task: workloads.Task
    code: int | None  # None when the command timed out
    spawn_ns: int
    exit_ns: int
    setup_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    problems: list[str] = field(default_factory=list)
    summary: dict | None = None  # span summary of a traced command


@dataclass
class Pass:
    pool: int
    traced: bool
    launches: list[Launch]

    @property
    def run_s(self) -> float:
        return (self.launches[-1].exit_ns - self.launches[0].spawn_ns) * 1e-9


# ---------------------------------------------------------------------------
# launching and judging commands
# ---------------------------------------------------------------------------


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PERFBENCH_SPANS", None)
    return env


def launch(task: workloads.Task, workdir: str, env: dict, span_file: str | None) -> Launch:
    """Run one command to completion and reap it with its resource usage."""
    out_path = os.path.join(workdir, f"{task.name}.out")
    err_path = os.path.join(workdir, f"{task.name}.err")
    if span_file:
        env = dict(env, PERFBENCH_SPANS=span_file)
        if os.path.exists(span_file):
            os.remove(span_file)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, BOOT, *task.argv],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        timed_out = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)
            if not ready:
                timed_out = True
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        exit_ns = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    setup_s = math.nan
    first, _, _ = stderr.partition(b"\n")
    if first.startswith(b"perfbench-import-ns "):
        setup_s = (int(first.split()[1]) - spawn_ns) * 1e-9
    return Launch(
        task=task,
        code=None if timed_out else proc.returncode,
        spawn_ns=spawn_ns,
        exit_ns=exit_ns,
        setup_s=setup_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def strict_json(data: bytes) -> dict:
    """Parse a report, rejecting NaN and Infinity, which JSON does not allow."""
    report = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def judge(task: workloads.Task, code: int | None, stdout: bytes, stderr: bytes = b"") -> list[str]:
    """Every reason this command failed; empty when it passed."""
    if code is None:
        return ["timed out"]
    if code not in (0, 2):
        last = stderr.decode("utf-8", "replace").strip().rsplit("\n", 1)[-1]
        return [f"exit code {code}: {last}"]
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    problems = []
    if code != task.expect:
        problems.append(f"exit code {code}, expected {task.expect}")
    if task.check is not None:
        try:
            breach = task.check(report)
        except (KeyError, TypeError, ValueError) as exc:
            breach = f"headline number missing: {exc!r}"
        if breach:
            problems.append(breach)
    return problems


def run_pass(workload: str, pool: int, traced: bool, workdir: str, env: dict) -> tuple[Pass, dict]:
    tasks, props = workloads.WORKLOADS[workload](pool, workdir)
    launches, span_files = [], []
    for i, task in enumerate(tasks):
        span_files.append(os.path.join(workdir, f"spans-{i}.npz") if traced else None)
        launches.append(launch(task, workdir, env, span_files[-1]))
    for item, span_file in zip(launches, span_files):
        item.problems = judge(item.task, item.code, item.stdout, item.stderr)
        if span_file and os.path.exists(span_file):
            item.summary = spans.summarize(spans.load(span_file))
    return Pass(pool, traced, launches), props


# ---------------------------------------------------------------------------
# measuring a workload
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    untraced: list[Pass]
    traced: list[Pass]
    inputs: dict
    elapsed_s: float


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str) -> Run:
    workdir = os.path.join(root, WORKDIR, workload)
    os.makedirs(workdir, exist_ok=True)
    env = child_env(root)
    # Untimed warm-up: compiles bytecode and fills the page cache.
    launch(workloads.Task("warm-up", ("--help",), 0, "help text"), workdir, env, None)
    order = workloads.pool_order(seed)
    untraced, traced, inputs = [], [], {}
    t_start = time.perf_counter()
    while True:
        pool = order[len(untraced) % len(order)]
        item, props = run_pass(workload, pool, False, workdir, env)
        untraced.append(item)
        inputs[str(pool)] = props
        if trace:
            traced.append(run_pass(workload, pool, True, workdir, env)[0])
        elapsed = time.perf_counter() - t_start
        if elapsed * (1 + 1 / len(untraced)) > seconds or elapsed > HARD_LIMIT_S:
            break
    return Run(workload, seed, untraced, traced, inputs, elapsed)


def end_to_end(run: Run) -> dict:
    passes = run.untraced
    # A command that never finished its import has failed; it has no set-up time.
    setups = [x.setup_s for p in passes for x in p.launches if not math.isnan(x.setup_s)]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "run_s": statistics.median(p.run_s for p in passes),
        "cpu_s": statistics.median(sum(x.cpu_s for x in p.launches) for p in passes),
        "peak_rss_mb": statistics.median(max(x.rss_mb for x in p.launches) for p in passes),
    }


# Per-layer metrics of a traced run, with units.  Each comment names the
# end-to-end metric and workload the figure should move.
PER_LAYER = {
    "cli.import_s": "s",  # setup_s, all workloads (most on curves)
    "cli.handler_self_s": "s",  # run_s on curves and polygons
    "reports.self_s": "s",
    "reports.serialize_s": "s",  # run_s on billiards (orbit payload)
    "reports.bytes_out": "bytes",
    "reports.bytes_changed": "count",  # against reference.json; informational
    "reports.bytes_compared": "count",
    "planar.self_s": "s",  # run_s on curves
    "planar.resample_by_density.s": "s",
    "planar.resample_by_density.calls": "count",
    "planar.spectral_derivative.calls": "count",
    "sampling.self_s": "s",  # run_s on curves
    "sampling.random_unit_speed_loop.ms": "ms",
    "sampling.random_star_polygon.calls": "count",  # polygons
    "polygons.self_s": "s",  # run_s on polygons
    "polygons.descent_odd_s": "s",
    "polygons.descent_even_s": "s",
    "polygons.iterations": "count",
    "polygons.ms_per_iteration": "ms",
    "polygons.converged_ratio": "1",
    "polygons.project_to_unit_cross.calls": "count",
    "duality.self_s": "s",  # run_s on polygons
    "duality.bs_product_polygon.calls": "count",
    "duality.central_symmetrize.calls": "count",  # billiards
    "curves.self_s": "s",  # run_s on curves
    "curves.deficit_search.s": "s",
    "curves.objective_evals": "count",
    "curves.us_per_objective_eval": "us",
    "curves.DiffeoCurve.calls": "count",
    "curves.DiffeoCurve.s": "s",
    "curves.chord_average.calls": "count",
    "billiards.self_s": "s",  # run_s on billiards
    "billiards.map_steps": "count",
    "billiards.far_field_error.s": "s",
    "billiards.billiard_orbit.s": "s",
    "billiards.step_us.triangle": "us",
    "billiards.step_us.polygon48": "us",
    "billiards.step_us.circle": "us",
    "billiards.step_us.smooth256": "us",
    "trace.overhead_s": "s",  # traced run_s minus untraced run_s
    "trace.unattributed_max": "1",  # worst command: |in-process - import - self times| / in-process
    "trace.spans": "count",
}

# Span totals (seconds) and call counts that feed PER_LAYER, by figure name.
_TOTALS = {
    "planar.resample_by_density.s": ["planar.resample_by_density"],
    "curves.deficit_search.s": ["curves.deficit_search"],
    "curves.DiffeoCurve.s": ["curves.DiffeoCurve"],
    "billiards.far_field_error.s": ["billiards.far_field_error"],
    "billiards.billiard_orbit.s": ["billiards.billiard_orbit"],
    "reports.serialize_s": ["reports.Report.to_json_bytes", "reports.sweep_csv_bytes"],
    "random_unit_speed_loop.s": ["sampling.random_unit_speed_loop"],
}
_CALLS = {
    "planar.resample_by_density.calls": "planar.resample_by_density",
    "planar.spectral_derivative.calls": "planar.spectral_derivative",
    "sampling.random_star_polygon.calls": "sampling.random_star_polygon",
    "polygons.project_to_unit_cross.calls": "polygons.project_to_unit_cross",
    "duality.bs_product_polygon.calls": "duality.bs_product_polygon",
    "duality.central_symmetrize.calls": "duality.central_symmetrize",
    "curves.DiffeoCurve.calls": "curves.DiffeoCurve",
    "curves.chord_average.calls": "curves.chord_average",
    "random_unit_speed_loop.calls": "sampling.random_unit_speed_loop",
}
# Public calls whose time, divided by the map steps, is the cost of one step.
_STEP_NAMES = ("billiards.far_field_error", "billiards.billiard_orbit")
_TABLES = ("triangle", "polygon48", "circle", "smooth256")


def launch_figures(x: Launch) -> Counter:
    """Additive figures of one traced command."""
    s = x.summary
    f = Counter({"cli.handler_self_s" if layer == "cli" else f"{layer}.self_s": secs
                 for layer, secs in s["self_s"].items()})
    for key, names in _TOTALS.items():
        f[key] = sum(s["total_s"].get(n, 0.0) for n in names)
    for key, name in _CALLS.items():
        f[key] = s["calls"].get(name, 0)
    f.update(s["counts"])
    for parity in ("odd", "even"):
        f[f"polygons.descent_{parity}_s"] = f.pop(f"polygons.descent_{parity}_ns", 0.0) * 1e-9
    if x.task.table:
        f[f"step_s.{x.task.table}"] = sum(s["total_s"].get(n, 0.0) for n in _STEP_NAMES)
        f[f"steps.{x.task.table}"] = s["counts"].get("billiards.map_steps", 0)
    f["trace.spans"] = s["spans"]
    return f


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(run: Run, reference: dict) -> dict:
    """Medians over traced passes of per-pass sums; ratios are of totals over the run."""
    commands = [x for item in run.traced for x in item.launches if x.summary]
    per_pass = []
    for item in run.traced:
        acc = Counter()
        for x in item.launches:
            if x.summary:
                acc.update(launch_figures(x))
        per_pass.append(acc)
    total = sum(per_pass, Counter())
    out = {key: statistics.median(p[key] for p in per_pass) if per_pass else 0.0 for key in PER_LAYER}
    out["cli.import_s"] = statistics.median(x.summary["import_s"] for x in commands) if commands else 0.0
    out["sampling.random_unit_speed_loop.ms"] = _ratio(
        total["random_unit_speed_loop.s"], total["random_unit_speed_loop.calls"], 1e3)
    descent_s = total["polygons.descent_odd_s"] + total["polygons.descent_even_s"]
    out["polygons.ms_per_iteration"] = _ratio(descent_s, total["polygons.iterations"], 1e3)
    out["polygons.converged_ratio"] = _ratio(total["polygons.converged"], total["polygons.descents"])
    out["curves.us_per_objective_eval"] = _ratio(
        total["curves.deficit_search.s"], total["curves.objective_evals"], 1e6)
    for table in _TABLES:
        out[f"billiards.step_us.{table}"] = _ratio(total[f"step_s.{table}"], total[f"steps.{table}"], 1e6)
    overheads = [t.run_s - u.run_s for t, u in zip(run.traced, run.untraced)]
    out["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    out["trace.unattributed_max"] = max((x.summary["unattributed_share"] for x in commands), default=0.0)
    out["reports.bytes_changed"], out["reports.bytes_compared"] = digest_changes(run, reference)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_changes(run: Run, reference: dict) -> tuple[int, int]:
    """Commands whose report bytes differ from the reference commit's, and commands compared."""
    known = reference.get("digests", {}).get(run.workload, {})
    changed = compared = 0
    for item in run.untraced + run.traced:
        expected = known.get(str(item.pool), {})
        for x in item.launches:
            if x.task.name in expected:
                compared += 1
                changed += digest(x.stdout) != expected[x.task.name]
    return changed, compared


# ---------------------------------------------------------------------------
# machine record and output
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
    }


def known_failures(run: Run, reference: dict) -> dict:
    """Tasks that failed on the same pool inputs at the reference commit.

    They stay in the benchmark so that a fix shows: they count as failed but
    keep the run correct.  At the reference commit the circle far-field task
    fails on every input, because its errors sit on the 1024-gon sagitta
    floor 1 - cos(pi/1024) = 4.706e-6 and cannot decrease.
    """
    recorded = reference.get("failures", {}).get(run.workload, {})
    pools = {str(p.pool) for p in run.untraced}
    return {pool: tasks for pool, tasks in recorded.items() if pool in pools}


def failures(run: Run, known: dict) -> tuple[int, int, bool, dict]:
    """Attempted and failed commands, whether every failure is a known one, and per-task notes."""
    attempted = failed = 0
    unexpected = False
    notes: dict[str, dict] = {}
    for item in run.untraced + run.traced:
        for x in item.launches:
            attempted += 1
            note = notes.setdefault(
                x.task.name,
                {"expect": x.task.expect, "reason": x.task.reason, "attempted": 0, "failed": 0, "problems": []},
            )
            note["attempted"] += 1
            if x.problems:
                failed += 1
                note["failed"] += 1
                for p in x.problems:
                    if p not in note["problems"]:
                        note["problems"].append(p)
                unexpected = unexpected or x.task.name not in known.get(str(item.pool), ())
    return attempted, failed, not unexpected, notes


def print_run(run: Run, e2e: dict, layers: dict | None, notes: dict, known: dict,
              attempted: int, failed: int) -> None:
    print(json.dumps({
        "workload": run.workload,
        "seed": run.seed,
        "pools": [p.pool for p in run.untraced],
        "passes": {"untraced": len(run.untraced), "traced": len(run.traced)},
        "elapsed_s": run.elapsed_s,
        "inputs": run.inputs,
        "tasks": notes,
        "known_failures": known,
        "machine": machine(),
        "launches": [
            [[x.task.name, (x.exit_ns - x.spawn_ns) * 1e-9, x.setup_s, x.cpu_s, x.rss_mb]
             for x in p.launches]
            for p in run.untraced
        ],
    }, sort_keys=True))
    print(f"# {run.workload}, seed {run.seed}: {len(run.untraced)} untraced and "
          f"{len(run.traced)} traced passes of {len(run.untraced[0].launches)} commands")
    for name, unit in END_TO_END.items():
        print(f"{run.workload:10s} {name:40s} {e2e[name]:14.6f} {unit}")
    print(f"{run.workload:10s} {'failed_ratio':40s} {failed / attempted:14.6f} 1 ({failed} of {attempted})")
    for task, note in notes.items():
        if note["failed"]:
            print(f"{run.workload:10s}   {task} failed {note['failed']} of {note['attempted']}: "
                  + "; ".join(note["problems"]))
    for name, value in (layers or {}).items():
        print(f"{run.workload:10s} {name:40s} {value:14.6f} {PER_LAYER[name]}")


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "centroaffine", "cli.py")):
        print("error: run from the root of a centroaffine checkout (src/centroaffine missing)",
              file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"
    total_attempted = total_failed = 0
    all_correct = True
    metrics = {}
    for name in names:
        run = measure(name, args.seed, args.seconds, trace, root)
        e2e = end_to_end(run)
        layers = per_layer(run, reference) if trace else None
        known = known_failures(run, reference)
        attempted, failed, correct, notes = failures(run, known)
        print_run(run, e2e, layers, notes, known, attempted, failed)
        total_attempted += attempted
        total_failed += failed
        all_correct = all_correct and correct
        if args.workload == "all":
            metrics.update({f"{name}.{k}": {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()})
            metrics[f"{name}.failed_ratio"] = {"value": failed / attempted, "unit": "1"}
            metrics.update({f"{name}.{k}": {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()})
        elif trace:
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": all_correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
