#!/usr/bin/env python3
"""Check that a revision and the working tree compute the same certified
numbers, bit for bit.

Run from anywhere inside a checkout:

    python3 scripts/certified_diff.py REV

It exports REV's committed files (``git archive``) into
``.bench_build/certified-<sha>/`` and runs ``scripts/dump_certified.py``
for every benchmark workload on seeds 0 and 1, once in that copy and once
in the working tree.  For each pair of dumps that differ it prints the
first key whose value differs (``ledger[12].mass``, say) with both values.
It exits 1 if any pair differs by a byte and 0 when every dump is
byte-identical; the exported copy is removed either way.  The copy is an
export rather than a ``git worktree``: nothing is registered in ``.git``,
so an interrupted run leaves only an ignored directory behind.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow_l5", "reference_l4", "window_l4", "series")
SEEDS = (0, 1)


def export(rev: str) -> Path:
    """REV's committed files in a fresh directory under ``.bench_build``."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    dest = ROOT / ".bench_build" / f"certified-{sha}"
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
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{differ} of {len(WORKLOADS) * len(SEEDS)} dumps differ from "
          f"{args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
