#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and write the
runs, with each side's median and quartiles, to ``BENCH_<label>.json``.

Run from anywhere inside a checkout:

    python3 scripts/bench_pairs.py --parent REV --change REV \\
        --workload NAME [--workload NAME ...] --seed N --pairs K \\
        [--label LABEL]

It exports both revisions' committed files (``git archive``) into
``.bench_build/pairs-<sha>/`` with ``scripts/certified_diff.py``'s
``export``, and runs ``perfbench/run.py --trace 0`` unchanged in each
copy, for
``BENCHMARK.json``'s ``run_seconds``, one process at a time.  Pair i runs
every workload on both trees, the parent first for even i and the change
first for odd i, so that both trees see the same drift.  The file, written
at the root of the checkout after every pair, holds:

- ``environment``: the benchmark's own environment report (from the
  parent's first run) and numpy's SIMD extensions;
- per workload, ``runs``: every run's result line as printed, with its
  pair, its tree, its place in the pair and the load average before and
  after it;
- per workload and ``BENCHMARK.json`` end-to-end metric, ``metrics``:
  each tree's median and quartiles, the change/parent ratio of the
  medians, and ``change_won``, the number of pairs in which the change
  read better by the metric's direction (ties count for neither side);
- per workload, ``failed``: the operations failed and attempted per tree.

The label defaults to ``<parent sha>-<change sha>`` (seven digits each).
The exported copies are removed at the end, and every run has returned
before the next starts, so no process is left running.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from certified_diff import ROOT, export  # noqa: E402

SIDES = ("parent", "change")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its result line
    and the parts of its report line that describe the run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        timeout=10 * seconds + 300)
    if out.returncode:
        raise SystemExit(f"{tree}: perfbench/run.py {workload} seed {seed} "
                         f"exited {out.returncode}:\n{out.stderr}")
    *_, report_line, result_line = out.stdout.splitlines()
    report = json.loads(report_line)["report"]
    return {"result": json.loads(result_line), "env": report["env"],
            "loadavg": [report["loadavg_before"], report["loadavg_after"]]}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summary(runs: list, metrics: list) -> dict:
    """Each end-to-end metric's spread per tree, the change/parent ratio of
    the medians and the pairs the change won; the failures per tree."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        won = sum(sign * (c - p) < 0
                  for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "ratio": (statistics.median(values["change"])
                      / statistics.median(values["parent"])),
            "change_won": won, "pairs": len(pairs),
        }
    failed = {side: {k: sum(p[side][k] for p in pairs)
                     for k in ("failed", "attempted")} for side in SIDES}
    return {"metrics": out, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="base revision")
    ap.add_argument("--change", required=True, help="revision measured")
    ap.add_argument("--workload", action="append", required=True,
                    help="a benchmark workload; repeat for several")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", help="names BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    if not set(args.workload) <= known:
        ap.error(f"unknown workload; choose from {sorted(known)}")
    seconds = spec["run_seconds"]

    trees = {side: export(getattr(args, side), "pairs") for side in SIDES}
    shas = {side: trees[side].name.split("-", 1)[1] for side in SIDES}
    label = args.label or f"{shas['parent'][:7]}-{shas['change'][:7]}"
    dest = ROOT / f"BENCH_{label}.json"
    record = {
        "parent": {"rev": args.parent, "sha": shas["parent"]},
        "change": {"rev": args.change, "sha": shas["change"]},
        "seed": args.seed, "pairs": args.pairs, "seconds": seconds,
        "command": "perfbench/run.py --trace 0",
        "environment": {
            "simd": np.show_config(mode="dicts")["SIMD Extensions"],
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE")},
        "workloads": {w: {"runs": []} for w in args.workload},
    }
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                entry = record["workloads"][workload]
                for place, side in enumerate(order):
                    run = bench(trees[side], workload, args.seed, seconds)
                    env = run.pop("env")
                    record["environment"].setdefault("benchmark", env)
                    entry["runs"].append({"pair": i, "side": side,
                                          "place": place, **run})
                    print(f"pair {i} {workload} {side}: run_s "
                          f"{run['result']['metrics']['run_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
                if i >= 1:
                    entry.update(summary(entry["runs"],
                                         spec["end_to_end"]))
            dest.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        for tree in set(trees.values()):
            shutil.rmtree(tree, ignore_errors=True)
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:13s} {name:12s} parent "
                  f"{m['parent']['median']:.4g} change "
                  f"{m['change']['median']:.4g} ratio {m['ratio']:.3f} "
                  f"change better in {m['change_won']}/{m['pairs']}")
    print(f"wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
