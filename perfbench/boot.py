"""Run one ``centroaffine`` CLI command the way ``python -m centroaffine.cli`` does.

Usage: python boot.py SUBCOMMAND [flags]

The first line on stderr gives the process clock right after the package
import, so the caller can time the set-up of each launch.  When the
environment names a span file in PERFBENCH_SPANS, the public calls of every
layer are wrapped and their spans are written there once the command ends.
"""

import os
import sys
import time

t0 = time.perf_counter_ns()
import centroaffine.cli as cli  # noqa: E402

t1 = time.perf_counter_ns()
sys.stderr.write(f"perfbench-import-ns {t1}\n")
sys.stderr.flush()

span_path = os.environ.get("PERFBENCH_SPANS")
if not span_path:
    sys.exit(cli.main(sys.argv[1:]))

import spans  # noqa: E402

recorder = spans.Recorder()
recorder.install("centroaffine")
t2 = time.perf_counter_ns()
try:
    code = cli.main(sys.argv[1:])
finally:
    t3 = time.perf_counter_ns()
    recorder.dump(span_path, {"t0": t0, "t1": t1, "t2": t2, "t3": t3})
sys.exit(code)
