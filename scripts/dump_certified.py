#!/usr/bin/env python3
"""Print one benchmark workload's certified numbers, bit for bit.

Run from the root of a checkout:

    python3 scripts/dump_certified.py WORKLOAD SEED > out.json

It imports the benchmark's workloads (``perfbench/workloads.py``) without
changing them, makes one call on the seed's inputs and prints a JSON object
whose numbers are ``float.hex`` strings: the certified numbers, the failed
output checks and, for a workload that returns a flow trajectory
(``flow_l5``), every ledger row.  Two checkouts compute the same numbers
exactly when their outputs are byte-identical, so ``diff`` of the two files
is the equivalence gate for a refactor that must not change results.
"""

from __future__ import annotations

import os

# The benchmark pins BLAS to one thread; do the same so the runs compare.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from holeflow.flow import FlowTrajectory  # noqa: E402
import workloads  # noqa: E402


def _hex(x):
    return None if x is None else float(x).hex()


def dump(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name]
    out = wl.call(wl.setup(seed))
    result = {"workload": name, "seed": seed,
              "certified": {k: _hex(x) for k, x in wl.certified(out).items()},
              "failures": wl.failures(out)}
    if isinstance(out, FlowTrajectory):
        result["ledger"] = [{k: _hex(x) for k, x in row.items()}
                            for row in out.ledger]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    args = ap.parse_args(argv)
    print(json.dumps(dump(args.workload, args.seed), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
