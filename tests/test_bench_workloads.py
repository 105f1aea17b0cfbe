"""The benchmark's workloads still run against the library.

``perfbench/workloads.py`` builds its inputs through the library's public
names, keyword by keyword (``ExpandingHolesConfig(t_plane=..., t1=...)``),
and checks every call's output.  A change to one of those names or
signatures breaks the benchmark run; this test runs three workloads on
seed 0 and requires their output checks to pass: the criterion-07 window
(``window_l4``), ``orchestrate``'s whole path at mesh level 4
(``reference_l4``: nucleation checks, density floor, density sup, both
windows and the strict weighted mass drop) and the level-5 flow
(``flow_l5``), whose steps mostly take the patched path of the flow's
step workspace.

It also pins each run's certified numbers bit for bit:
``<workload>_seed0_certified.json`` is ``scripts/dump_certified.py
<workload> 0`` as committed, numbers as ``float.hex`` strings.  The
``flow_l5`` pin holds the certified numbers (``steps``, ``faces_final``,
``mass_final``, ``dissipation_total`` and ``remesh_delta_total``) and, in
place of the dump's per-step ledger, ``ledger_sha256``: the SHA-256 of
``json.dumps(ledger, sort_keys=True)``, the ledger rows as the dump
writes them.  So every bit of every step's time, mass, dissipation, min
edge and remesh delta is pinned.  A change that must not move results
keeps them equal; one that moves them on purpose regenerates the file and
lists every number, old and new.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

HERE = Path(__file__).parent


@pytest.mark.parametrize("name", ["window_l4", "reference_l4", "flow_l5"])
def test_window_workload_runs_clean(monkeypatch, name):
    monkeypatch.syspath_prepend(str(HERE.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name]
    out = wl.call(wl.setup(0))
    assert wl.failures(out) == []
    pinned = json.loads((HERE / f"{name}_seed0_certified.json").read_text())
    assert {k: None if x is None else float(x).hex()
            for k, x in wl.certified(out).items()} == pinned["certified"]
    if "ledger_sha256" in pinned:
        ledger = [{k: float(x).hex() for k, x in row.items()}
                  for row in out.ledger]
        text = json.dumps(ledger, sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == pinned["ledger_sha256"])
