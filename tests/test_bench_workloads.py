"""The benchmark's workloads still run against the library.

``perfbench/workloads.py`` builds its inputs through the library's public
names, keyword by keyword (``ExpandingHolesConfig(t_plane=..., t1=...)``),
and checks every call's output.  A change to one of those names or
signatures breaks the benchmark run; this test runs the criterion-07
window workload on seed 0 and requires its output checks to pass.
"""

import importlib
from pathlib import Path


def test_window_workload_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS["window_l4"]
    assert wl.failures(wl.call(wl.setup(0))) == []
