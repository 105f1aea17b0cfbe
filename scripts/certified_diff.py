#!/usr/bin/env python3
"""Check that a revision and the working tree compute the same certified
numbers, count the same traced work and write the same CLI output, bit for
bit.

Run from anywhere inside a checkout:

    python3 scripts/certified_diff.py REV

It exports REV's committed files (``git archive``) into
``.bench_build/certified-<sha>/`` and runs ``scripts/dump_certified.py``
for every benchmark workload on seeds 0 and 1, once in that copy and once
in the working tree.  For each pair of dumps that differ it prints the
first key whose value differs (``ledger[12].mass``, say) with both values.
It then makes one traced call of each workload of ``TRACED`` on seed 0 in
each tree, with that tree's ``perfbench/tracing.py`` recorder, and
compares the tracer's exact counters (``tracing.EXACT_COUNTERS``: the step,
face-step, remesh and quadrature counts and the remesh mass change); it
prints each counter that differs.  Last it runs each command of
``CLI_RUNS`` as ``python -m holeflow.cli`` on each tree's ``src/``, in a
fresh directory per tree, and compares the two directories' files byte for
byte; for each pair that differs it prints the first file that does.  It
exits 1 if any dump, counter or output tree differs and 0 when all are
identical; the exported copy is removed either way.  The copy is an export
rather than a ``git worktree``: nothing is registered in ``.git``, so an
interrupted run leaves only an ignored directory behind.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow_l5", "reference_l4", "window_l4", "series")
SEEDS = (0, 1)
# workloads whose exact trace counters are compared, on seed 0
TRACED = ("flow_l5", "reference_l4")
# one traced call of a workload in the tree it runs in, printing its exact
# counters as JSON; the recorder also wraps the names the workloads module
# imported, as perfbench/run.py has it do
TRACE_CALL = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import tracing, workloads
wl = workloads.WORKLOADS[sys.argv[1]]
inputs = wl.setup(int(sys.argv[2]))
recorder = tracing.SpanRecorder()
with recorder.patched(extra_modules=[workloads]):
    wl.call(inputs)
got = tracing.layer_metrics(recorder.spans)
print(json.dumps({k: got[k] for k in tracing.EXACT_COUNTERS}))
"""
# CLI runs whose output trees are compared: a name and the commands that
# run in order in one directory, which holds what they write.
CLI_RUNS = (
    ("experiment", [["experiment", "--j", "2", "--level", "4",
                     "--out-dir", "out"]]),
    ("expanding-holes", [["expanding-holes", "--spacing", "0.001",
                          "--level", "4", "--out", "excess_report.json"]]),
    ("series", [["series", "--K", "10", "--J", "40", "--out-dir", "out"]]),
    # a nucleated level-3 stack, whose hole opens (76 steps, with
    # remeshes); the level-3 surgery report fails, which exits 1
    ("evolve", [["gen-fixture", "--level", "3", "--out", "mesh.dvar"],
                ["nucleate", "--mesh", "mesh.dvar", "--out", "nuc.dvar"],
                ["evolve", "--mesh", "nuc.dvar", "--t-end", "4e-4",
                 "--snapshots", "3", "--out-dir", "out"]]),
)


def export(rev: str, prefix: str = "certified") -> Path:
    """REV's committed files in a fresh directory under ``.bench_build``,
    ``<prefix>-<sha>``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    dest = ROOT / ".bench_build" / f"{prefix}-{sha}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def dump(tree: Path, workload: str, seed: int) -> bytes:
    out = subprocess.run([sys.executable, "scripts/dump_certified.py",
                          workload, str(seed)], cwd=tree, capture_output=True)
    if out.returncode:
        raise SystemExit(f"{tree}: dump_certified.py {workload} {seed} "
                         f"failed:\n{out.stderr.decode()}")
    return out.stdout


def counters(tree: Path, workload: str, seed: int) -> dict:
    """The tracer's exact counters of one traced call in ``tree``."""
    out = subprocess.run([sys.executable, "-c", TRACE_CALL, workload,
                          str(seed)], cwd=tree, capture_output=True)
    if out.returncode:
        raise SystemExit(f"{tree}: traced {workload} {seed} failed:\n"
                         f"{out.stderr.decode()}")
    return json.loads(out.stdout)


def cli_tree(tree: Path, commands) -> dict:
    """{relative path: bytes} of every file that ``commands`` write, run in
    order as ``python -m holeflow.cli`` on tree's ``src/`` in a fresh
    directory.  A command may report a failed check (exit 1), which its
    files record; any other nonzero exit stops the comparison."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as work:
        for argv in commands:
            out = subprocess.run([sys.executable, "-m", "holeflow.cli",
                                  *argv], cwd=work, env=env,
                                 capture_output=True)
            if out.returncode not in (0, 1):
                raise SystemExit(f"{tree}: holeflow {' '.join(argv)} exited "
                                 f"{out.returncode}:\n{out.stderr.decode()}")
        return {str(p.relative_to(work)): p.read_bytes()
                for p in Path(work).rglob("*") if p.is_file()}


def first_difference(a, b, path: str = ""):
    """(path, value in a, value in b) of the first differing entry of two
    JSON values, in a's key order; None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return sub, a.get(key), b.get(key)
            found = first_difference(a[key], b[key], sub)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path} (length)", len(a), len(b)
        return None
    return None if a == b else (path or "<top>", a, b)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare against, e.g. HEAD")
    args = ap.parse_args(argv)
    base = export(args.rev)
    differ = 0
    try:
        for workload in WORKLOADS:
            for seed in SEEDS:
                old, new = dump(base, workload, seed), dump(ROOT, workload,
                                                            seed)
                if old == new:
                    print(f"same    {workload} seed {seed}")
                    continue
                differ += 1
                found = first_difference(json.loads(old), json.loads(new))
                where = ("bytes only (same JSON values)" if found is None
                         else f"{found[0]}: {found[1]!r} -> {found[2]!r}")
                print(f"DIFFERS {workload} seed {seed}: {where}")
        counters_differ = 0
        for workload in TRACED:
            old, new = counters(base, workload, 0), counters(ROOT, workload,
                                                             0)
            changed = sorted(k for k in old.keys() | new.keys()
                             if old.get(k) != new.get(k))
            if not changed:
                print(f"same    counters {workload} seed 0: "
                      + ", ".join(f"{k} {x!r}" for k, x in new.items()))
                continue
            counters_differ += 1
            for k in changed:
                print(f"DIFFERS counters {workload} seed 0: {k}: "
                      f"{old.get(k)!r} -> {new.get(k)!r}")
        trees_differ = 0
        for name, commands in CLI_RUNS:
            old, new = cli_tree(base, commands), cli_tree(ROOT, commands)
            path = next((p for p in sorted(old.keys() | new.keys())
                         if old.get(p) != new.get(p)), None)
            if path is None:
                print(f"same    cli {name}: {len(new)} files")
                continue
            trees_differ += 1
            print(f"DIFFERS cli {name}: {path}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{differ} of {len(WORKLOADS) * len(SEEDS)} dumps, "
          f"{counters_differ} of {len(TRACED)} counter sets and "
          f"{trees_differ} of {len(CLI_RUNS)} CLI trees differ from "
          f"{args.rev}")
    return 1 if differ or counters_differ or trees_differ else 0


if __name__ == "__main__":
    sys.exit(main())
