"""Record the report digests of every pool input, and the tasks that fail on it.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/make_reference.py [COMMIT]

Runs every workload once per pool index, untraced, and writes to
perfbench/reference.json the sha256 of each command's stdout and the tasks
that failed their check, with COMMIT, the commit they belong to.  The
benchmark counts report bytes that changed against these digests, and
treats a failure recorded here as known.
"""

import json
import os
import sys

import run
import workloads


def main(argv) -> int:
    root = os.getcwd()
    env = run.child_env(root)
    digests, failed = {}, {}
    for name in workloads.WORKLOADS:
        workdir = os.path.join(root, run.WORKDIR, name)
        os.makedirs(workdir, exist_ok=True)
        digests[name], failed[name] = {}, {}
        for pool in range(workloads.POOL_SIZE):
            item, _ = run.run_pass(name, pool, False, workdir, env)
            digests[name][str(pool)] = {x.task.name: run.digest(x.stdout) for x in item.launches}
            for x in item.launches:
                if x.problems:
                    failed[name].setdefault(str(pool), []).append(x.task.name)
                    print(f"failed {name} pool {pool} {x.task.name}: {'; '.join(x.problems)}")
            print(f"{name} pool {pool}: run_s {item.run_s:.3f}", flush=True)
    commit = argv[0] if argv else "unknown"
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "digests": digests, "failures": failed}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
