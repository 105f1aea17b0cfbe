"""The benchmark's trace layer still binds to the library.

``perfbench/tracing.py`` wraps holeflow functions by name and reads the
quadrature counters from their parameters ``v``, ``quad_order`` and
``subdiv``, so renaming one of them breaks the traced benchmark run.  This
test enters the same recorder on a small mesh.
"""

import importlib
import math
from pathlib import Path

import numpy as np

from holeflow import estimates, varifold
from holeflow.fixtures import icosphere
from holeflow.quadrature import simplex_rule


def test_trace_counts_every_quadrature_evaluation(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    v = icosphere(1)
    h = varifold.mean_curvature(v)

    def phi(p):
        return np.exp(-np.sum(p * p, axis=1))

    def grad(p):
        return -2.0 * phi(p)[:, None] * p

    # (module, function, arguments, keywords, (quad_order, subdiv) used)
    calls = [(varifold, "weight_measure", (v, phi), {}, (3, 0)),
             (varifold, "weighted_first_variation", (v, phi, grad, h),
              {"quad_order": 2}, (2, 0)),
             (varifold, "weighted_first_variation_perp", (v, phi, grad, h),
              {"subdiv": 1}, (3, 1)),
             (estimates, "curvature_l2_sq", (v, h, phi), {"quad_order": 1},
              (1, varifold.MEASUREMENT_SUBDIV))]
    recorder = tracing.SpanRecorder()
    with recorder.patched():
        # looked up inside the block, where the names hold the wrappers
        for module, name, args, kwargs, _ in calls:
            getattr(module, name)(*args, **kwargs)
    got = tracing.layer_metrics(recorder.spans)["varifold.quad_evals"]
    assert got == sum(v.num_faces * len(simplex_rule(2, order, subdiv)[1])
                      for *_, (order, subdiv) in calls)


def test_trace_counts_one_curvature_call_per_flow_step(monkeypatch):
    """``flow.face_steps`` is read from the ``mean_curvature`` spans under
    ``flow.evolve``, so ``evolve`` must call the traced function once per
    step, on the mesh it steps."""
    from holeflow import flow
    from holeflow.fixtures import make_fixture
    from holeflow.geom import coordinate_plane
    from holeflow.nucleation import nucleate

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    v0 = nucleate(make_fixture("flat_stack", 2, 3, radius=0.2),
                  coordinate_plane([0, 1], 3), 0.05)
    t_end = 0.05**2 / 20
    recorder = tracing.SpanRecorder()
    with recorder.patched():
        traj = flow.evolve(v0, t_end, snapshot_times=[0.0, t_end])
    got = tracing.layer_metrics(recorder.spans)
    # no remesh, so every step's mesh has v0's faces
    assert got["remesh.calls"] == 0
    assert len(traj.ledger) > 5
    assert got["flow.steps"] == len(traj.ledger)
    assert got["varifold.mean_curvature_calls"] == len(traj.ledger)
    assert got["flow.face_steps"] == len(traj.ledger) * v0.num_faces


def test_trace_records_one_remesh_span_per_pass(monkeypatch):
    """``remesh.*`` is read from the ``remesh.remesh`` spans, so each remesh
    pass of ``evolve`` must call the traced function once, and the spans'
    values (the passes' mass changes) must add up to the ledger's."""
    from holeflow import flow
    from holeflow.fixtures import make_fixture
    from holeflow.geom import coordinate_plane
    from holeflow.nucleation import nucleate

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    v0 = nucleate(make_fixture("flat_stack", 2, 3, radius=0.2),
                  coordinate_plane([0, 1], 3), 0.05)
    passes, real = [], flow._StepWorkspace.remesh

    def counted(ws):
        passes.append(ws.num_faces)
        return real(ws)

    monkeypatch.setattr(flow._StepWorkspace, "remesh", counted)
    recorder = tracing.SpanRecorder()
    with recorder.patched():
        traj = flow.evolve(v0, 1e-3, snapshot_times=[0.0, 1e-3])
    got = tracing.layer_metrics(recorder.spans)
    assert got["remesh.calls"] == len(passes) >= 2
    assert got["remesh.mass_delta"] == math.fsum(row["remesh_delta"]
                                                 for row in traj.ledger)
    assert got["remesh.mass_delta"] != 0.0
