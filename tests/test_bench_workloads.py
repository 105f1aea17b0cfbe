"""The benchmark's workloads still run against the library.

``perfbench/workloads.py`` builds its inputs through the library's public
names, keyword by keyword (``ExpandingHolesConfig(t_plane=..., t1=...)``),
and checks every call's output.  A change to one of those names or
signatures breaks the benchmark run; this test runs the criterion-07
window workload on seed 0 and requires its output checks to pass.

It also pins that run's certified numbers bit for bit:
``window_l4_seed0_certified.json`` is ``scripts/dump_certified.py
window_l4 0`` as committed, numbers as ``float.hex`` strings.  A change
that must not move results keeps them equal; one that moves them on
purpose regenerates the file and lists every number, old and new.
"""

import importlib
import json
from pathlib import Path

HERE = Path(__file__).parent


def test_window_workload_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS["window_l4"]
    out = wl.call(wl.setup(0))
    assert wl.failures(out) == []
    pinned = json.loads((HERE / "window_l4_seed0_certified.json").read_text())
    assert {k: None if x is None else float(x).hex()
            for k, x in wl.certified(out).items()} == pinned["certified"]
