#!/usr/bin/env python3
"""holeflow benchmark: four closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process (``threads = 1``, BLAS pinned to one thread):
the next call starts only after the previous one has returned and its
output has been checked.  ``--trace 0`` sets up the inputs several times
(reporting the median set-up time), then makes the timed call once and
repeats it while the next call is expected to end within ``--seconds``, and
prints the end-to-end metrics.  ``--trace 1``
makes one untraced call and one traced call on the same inputs and prints
the per-layer metrics of the traced one (see ``tracing.py``).

A call fails when it raises (``ResolutionExhausted`` included), when one of
its output checks fails, or when its certified numbers differ bitwise from
the first call's.  Before the last line the benchmark prints a ``report``
line (environment, per-call times, failures, certified numbers, exact
counters); the last line is the result object.  Spans and exact counters
are written under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import os

# Set before numpy is first imported: BLAS reads these once, when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
IMPORT_TIMEOUT_S = 60

IMPORT_PROBE = ("import time; t = time.perf_counter(); import holeflow; "
                "print(repr(time.perf_counter() - t))")


def environment() -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # glibc codes of _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE, which the os module does not name
    caches = {name: libc.sysconf(code)
              for name, code in (("l1d", 188), ("l2", 191), ("l3", 194))}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "cache_bytes": caches,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Time of a fresh ``import holeflow`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=IMPORT_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def same_bits(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def rel_dev(certified: dict, reference: dict) -> float:
    """Largest relative deviation over the numbers both dicts hold."""
    worst = 0.0
    for key, ref in reference.items():
        val = certified.get(key)
        if val is None or ref is None:
            continue
        if val != ref:
            worst = max(worst, abs(val - ref) / max(abs(ref), 1e-300))
    return worst


def seed_reference(workload: str, seed: int) -> dict:
    """Certified numbers recorded at the seed commit (seed 0 as fallback)."""
    baseline = json.loads((HERE / "baseline.json").read_text())
    recorded = baseline["certified"][workload]
    return recorded.get(str(seed), recorded["0"])


def code_hash() -> str:
    h = hashlib.sha256()
    files = sorted((SRC / "holeflow").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Loop:
    """Closed-loop caller: runs one call, checks it, records the outcome."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None
        self.times = []
        self.failures = []
        self.certified = []

    def once(self, inputs, reference=None):
        """One checked call; returns its certified numbers (None if it raised).

        ``reference`` is the certified dict the call must equal bitwise; by
        default the first call's.
        """
        t0 = time.perf_counter()
        cert, bad = None, []
        try:
            out = self.wl.call(inputs)
            cert = self.wl.certified(out)
            bad = self.wl.failures(out)
        except Exception as exc:  # every error of a call counts as a failure
            traceback.print_exc(file=sys.stderr)
            bad = [f"raised {type(exc).__name__}: {exc}"]
        if cert is not None:
            ref = reference if reference is not None else self.first
            if ref is None:
                self.first = cert
            elif not same_bits(cert, ref):
                bad.append("certified numbers differ bitwise from the "
                           "reference call")
        self.times.append(time.perf_counter() - t0)
        self.failures.append(bad)
        self.certified.append(cert)
        return cert

    @property
    def failed(self) -> int:
        return sum(1 for bad in self.failures if bad)


def run_untraced(wl, seed, seconds):
    setups, inputs = [], None
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        setups.append(imp + time.perf_counter() - t0)
    loop = Loop(wl)
    start = time.perf_counter()
    loop.once(inputs)
    # read after the first call, so that it does not depend on the call count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while (time.perf_counter() - start + statistics.median(loop.times)
           <= seconds):
        loop.once(inputs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(loop.times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return loop, metrics, {"setup_s": setups}


def run_traced(wl, seed, workload_module):
    import tracing

    loop = Loop(wl)
    untraced = loop.once(wl.setup(seed))
    recorder = tracing.SpanRecorder()
    with recorder.patched(extra_modules=[workload_module]):
        inputs = wl.setup(seed)
        loop.once(inputs, reference=untraced)
    layer = tracing.layer_metrics(recorder.spans)
    layer["trace.overhead_frac"] = loop.times[1] / loop.times[0] - 1.0
    layer["check.rel_dev_vs_seed"] = rel_dev(
        loop.certified[-1] or {}, seed_reference(wl.name, seed))

    OUT.mkdir(parents=True, exist_ok=True)
    recorder.write(OUT / f"spans-{wl.name}-seed{seed}.json")
    counters = {k: layer[k] for k in tracing.EXACT_COUNTERS}
    stored = OUT / f"counters-{wl.name}-seed{seed}-{code_hash()}.json"
    if stored.exists():
        if json.loads(stored.read_text()) != counters:
            loop.failures[-1].append("exact counters differ from an earlier "
                                     "run on the same seed")
    elif not loop.failures[-1]:
        stored.write_text(json.dumps(counters))

    units = json.loads((HERE / "layers.json").read_text())
    metrics = {name: (layer[name], spec["unit"])
               for name, spec in units.items()}
    return loop, metrics, {"exact_counters": counters}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "holeflow" / "__init__.py").is_file():
        print(f"benchmark: no holeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()
    import holeflow
    if Path(holeflow.__file__).resolve().parent != SRC / "holeflow":
        print(f"benchmark: holeflow imported from {holeflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        loop, metrics, extra = run_traced(wl, args.seed, workloads)
    else:
        loop, metrics, extra = run_untraced(wl, args.seed, args.seconds)

    certified = next((c for c in loop.certified if c is not None), None)
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "env": environment(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "call_s": loop.times, "failures": loop.failures,
        "failed_frac": loop.failed / len(loop.times),
        "certified": certified,
        "rel_dev_vs_seed": rel_dev(certified or {},
                                   seed_reference(wl.name, args.seed)),
        **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
