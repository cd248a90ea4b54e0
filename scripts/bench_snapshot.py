#!/usr/bin/env python3
"""Run the benchmark once per workload and write BENCH_<workload>.json.

Each workload listed in BENCHMARK.json is run with
``perfbench/run.py --seed 101 --seconds 30 --trace 0`` from the repository
root. The file written beside BENCHMARK.json holds perfbench's result JSON
(the last line of its stdout) together with the command, the commit it was
run on and the host: ``nproc``, the Python and the numpy versions. A run
that does not print ``"correct": true`` with no failed event writes nothing
and makes the script exit 1.

    python3 scripts/bench_snapshot.py                # every workload
    python3 scripts/bench_snapshot.py prefix_reuse   # just one
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from bench_pairs import perfbench_result

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["--seed", "101", "--seconds", "30", "--trace", "0"]


def _commit() -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.strip()
    return head + ("-dirty" if dirty else "")


def snapshot(workload: str, commit: str) -> dict:
    result = perfbench_result(ROOT, ["--workload", workload, *ARGS])
    return {
        "workload": workload,
        "command": ["python3", "perfbench/run.py", "--workload", workload, *ARGS],
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "result": result,
    }


def main(argv: list[str]) -> int:
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    unknown = sorted(set(argv) - set(declared))
    if unknown:
        print(f"unknown workload(s) {unknown}; BENCHMARK.json lists {declared}", file=sys.stderr)
        return 2
    # read once: the first BENCH file written would make the tree dirty
    commit = _commit()
    for workload in argv or declared:
        try:
            snap = snapshot(workload, commit)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        out = ROOT / f"BENCH_{workload}.json"
        out.write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out.name}: miss_p50_ms {snap['result']['metrics']['miss_p50_ms']['value']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
