#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, base revision against the
working tree, and judge every end-to-end metric.

    python3 scripts/bench_pairs.py --base HEAD --workload prefix_reuse --seed 103 --pairs 10

The base side runs in a ``git archive`` export of REV, ``tree`` in a
temporary directory, so nothing is written under ``.git``. The change side
runs in ``work`` beside it, a copy of the working tree's tracked and
untracked-but-not-ignored files as they are, uncommitted edits included:
both sides import from paths of the same length, which alone moves
``peak_rss_mb`` by up to about 0.6%. The temporary directory is removed at
the end, on error and on SIGTERM too. Each run is ``perfbench/run.py
--workload W --seed S --seconds 30 --trace 0`` from that side's root. Pair
i runs the base first when i is even and the change first when it is odd.

For each metric BENCHMARK.json lists, the table gives each side's median
and quartiles, how many pairs the change won (ties count for neither side)
and two verdicts:

- claim: ``yes`` when the change won at least nine tenths of the pairs and
  its median is better than the base's by more than the distance between
  the base's quartiles;
- bound: ``REGRESSED`` when the change's median is worse than the base's by
  more than the metric's bound (a share of the base's median); otherwise
  ``unresolved`` when the base's quartiles lie further apart than that bound
  and not every run of the change beats every run of the base; else ``ok``.

The last line of stdout is one JSON object with every run's metrics per
side. A run that exits non-zero or reports a failed event stops the script
with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric from runs paired by index (base[i] against change[i])."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same, non-zero number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) < 0 is better
    bq, cq = quartiles(base), quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    gain = sign * (bq[1] - cq[1])  # how far the change's median is better
    spread = bq[2] - bq[0]
    claim = wins >= 0.9 * len(base) and gain > spread
    if bq[1]:
        worse = -gain / abs(bq[1])
    else:
        worse = 0.0 if gain >= 0 else float("inf")
    if worse > bound:
        bound_check = "REGRESSED"
    elif (bq[1] and spread / abs(bq[1]) > bound
          and not all(sign * (c - b) < 0 for c in change for b in base)):
        bound_check = "unresolved"
    else:
        bound_check = "ok"
    return {"base": bq, "change": cq, "wins": wins, "pairs": len(base),
            "worse": worse, "claim": claim, "bound": bound_check}


def perfbench_result(root: Path, args: list[str]) -> dict:
    """The result JSON (the last line of stdout) of ``perfbench/run.py
    ARGS`` run from root. A run that exits non-zero, or whose result is not
    correct or has a failed event, raises RuntimeError."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: perfbench exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root}: {result['failed']} of {result['attempted']} events failed")
    return result


def run_bench(side: Path, workload: str, seed: int) -> dict:
    result = perfbench_result(side, ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(SECONDS), "--trace", "0"])
    return {name: m["value"] for name, m in result["metrics"].items()}


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked-but-not-ignored files,
    as they are on disk, to dest; a tracked file deleted on disk is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--deduplicate", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True, check=True)
    for name in os.fsdecode(listed.stdout).split("\0")[:-1]:
        src = ROOT / name
        if os.path.lexists(src):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)


def run_pairs(base_dir: Path, change_dir: Path, workload: str, seed: int,
              pairs: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    sides = {"base": base_dir, "change": change_dir}
    for i in range(pairs):
        for name in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[name].append(run_bench(sides[name], workload, seed))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return runs


def table(runs: dict[str, list[dict]], declared: list[dict]) -> list[str]:
    fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
    lines = [f"{'metric':22s} {'base q1/med/q3':>30s} {'change q1/med/q3':>30s} "
             f"{'worse':>8s} {'wins':>6s} claim bound"]
    for metric in declared:
        name = metric["name"]
        v = verdict([r[name] for r in runs["base"]], [r[name] for r in runs["change"]],
                    metric["better"], metric["bound"])
        lines.append(f"{name:22s} {fmt(v['base']):>30s} {fmt(v['change']):>30s} "
                     f"{v['worse']:+8.2%} {v['wins']:>3d}/{v['pairs']:<2d} "
                     f"{'yes' if v['claim'] else 'no':5s} {v['bound']} (bound {metric['bound']:.0%})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("--pairs must be at least 1", file=sys.stderr)
        return 2
    # SIGTERM's default action would end the process without the finally
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        # copied before the export, so a temporary directory inside the
        # working tree holds nothing yet to copy
        copy_working_tree(tmp / "work")
        archive = subprocess.run(["git", "archive", "--output", str(tmp / "base.tar"), args.base],
                                 cwd=ROOT, capture_output=True, text=True)
        if archive.returncode != 0:
            print(f"git archive failed:\n{archive.stderr}", file=sys.stderr)
            return 2
        with tarfile.open(tmp / "base.tar") as tar:
            tar.extractall(tmp / "tree", filter="data")
        runs = run_pairs(tmp / "tree", tmp / "work", args.workload, args.seed, args.pairs)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, base {args.base} "
          "against a copy of the working tree")
    print("\n".join(table(runs, bench["end_to_end"])))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "base": args.base,
                      "runs": runs}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
