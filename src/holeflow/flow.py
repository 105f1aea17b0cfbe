"""Discrete gradient flow of the mass functional with fixed boundary.

Interior vertices move by dt * h per step (explicit), with dt capped by
c_stab * (smallest altitude of a moving face)^2 and by a per-step
displacement cap.  Each trajectory carries a dissipation ledger
mirroring the integral mass inequality of the continuum flow: at every
recorded time,  mass(t) + sum of dt * integral |h|^2  must not exceed the
initial mass beyond a tolerance.  No topological surgery happens during
evolution beyond periodic edge-length equalization; runs that lose spatial
resolution abort with a dedicated exception.

A step does work only where the surface moves.  A vertex whose |h| is at
roundoff (``REST_FLOOR``) is at rest and gets h = 0, so a mesh at rest
reaches its next snapshot in one step.  A face is active when one of its
corners has nonzero h; the step-size caps read the altitudes and the
largest corner |h| of active faces only.

``evolve`` keeps the state of the flow on the current topology in one
mutable step workspace (``_StepWorkspace``): the vertices, the face rows
(measures, normals or tangents, edge lengths) with the face-major
per-corner area-gradient terms and multiplicity times measure, the lumped
vertex masses and area gradient, the flow's h with |h| and masses |h|^2,
the step caps per face and the minimum edge length.  A step adds dt h to
the moving set only, the vertices whose h is nonzero now or was at the
last step: any other vertex was stepped once since it came to rest, so
x + dt * 0.0 would keep its bits.  It rewrites, in place, the rows of the
faces that the vertices whose bits changed touch, the vertex sums of those
faces' vertices W (over every face that touches W, in face order, so each
sum has the bits of a full ``bincount``), h, |h| and masses |h|^2 on W and
the caps of the faces that touch W; its dt is the minimum of the cap row.
A whole-mesh reduction costs microseconds (5.7 us for the minimum of the
35 712 edge lengths of flow_l5's mesh on a 2-core x86-64), less than
keeping a structure up to date to avoid it: the minimum edge, the ledger's
mass (the face mass row's sum), the dissipation (the masses |h|^2 row's
sum) and the two tests of the median edge length (a count) read every
entry, and the faces touching a set of vertices are found by marking the
set and testing every face's corners.  A remesh pass reports what it
changed, and the workspace patches itself from that report: it takes the
pass's face rows, the terms and face rows of the faces the pass carried
and the sums of the vertices that kept their faces move through its face
and vertex maps, and only the vertices of the faces it computed or removed
are summed again.  The workspace is built in full at the start and on a
step that moved more than ``FRESH_BUILD_DIRTY_FRACTION`` of the faces.
Either way every array is bitwise that of a mesh built fresh at the same
vertices.  Recorded snapshots and the mesh handed to ``remesh`` are
``DiscreteVarifold`` meshes holding a copy of the workspace's vertices and
its face rows, with no step state.  A mesh freezes the rows it holds, and
the workspace copies a frozen row before it writes it, so a mesh is never
written after it is built and no two meshes share a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import Plane, norm_last
from .varifold import (DiscreteVarifold, ScalarTest, _corner_max,
                       _curvature, _face_altitudes, _face_pass,
                       _gradient_keys, _gradient_sums, _gradient_terms,
                       _lumped_masses, _median, _require_positive_measures,
                       _row_max,
                       mean_curvature, weight_measure,
                       weighted_first_variation)
from .remesh import RemeshChange, remesh

# A vertex whose |h| times the initial median edge e0 is at most REST_FLOOR
# is at rest: its h is set to zero.  |h| e0 is dimensionless.  Its roundoff
# is about k eps |x| / e0 for k ~ 12 corner terms in the area gradient,
# coordinates of size |x| and eps = 2.2e-16: about 1e-13 on the lab's stacks
# (|x| <= 0.2, e0 >= 0.0065).  On the level-4 and level-5 stacks the largest
# nonzero value measured at rest is 1e-15, and the smallest on a moving,
# relaxing perturbed stack is 1e-8.  1e-10 sits 1000 times above the
# roundoff estimate and 100 times below that, and it suppresses at most a
# move of t_end * REST_FLOOR / e0 over a whole run (1e-11 for a flow to
# eps^2 / 4).  A mesh at rest then reaches its next snapshot in one step
# instead of crawling there at the stability cap.
REST_FLOOR = 1e-10

DISP_CAP = 0.05             # max vertex move per step, in altitude units
REMESH_EVERY = 25           # steps between periodic remeshes
REMESH_MIN_RATIO = 0.35     # remesh now if min/median edge drops below
REMESH_BACKOFF = 5          # min steps between adaptive remeshes
TOL_LEDGER = 0.05           # relative slack of the dissipation ledger
MIN_EDGE_FLOOR_REL = 1e-4   # vs initial median: resolution exhausted
MAX_STEPS = 2_000_000       # step budget of one run
BARRIER_CHECK_SAMPLES = 9   # radii and heights of the barrier coverage check

# A step rewrites in place the workspace's rows of the faces its moved
# vertices touch, and the vertex sums of those faces' vertices, when at most
# this share of the faces is dirty, and rebuilds every row and sum
# otherwise.  Timed on nucleated level-4 and level-5 stacks (2976 and 11904
# faces; the disc of vertices nearest the axis whose faces are the given
# share, moved to and fro, one update and the h after it, best of 7 x 20,
# three runs on a 2-core x86-64), patching costs 0.18-0.23 / 0.07-0.08 of
# a rebuild at 2.5 % dirty faces, 0.73-0.74 / 0.47-0.79 at 35 %, 0.59-1.08
# / 0.69-0.79 at 40 % and 1.13-1.41 / 1.09-1.25 at 70 %: the ring of
# re-summed vertices and the faces around it outgrow the dirty faces, and
# the two cost the same somewhere between 40 and 70 %.  flow_l5 and
# reference_l4 dirty 2-5 % of their faces per step, window_l4's perturbed
# stack 98-100 %.
FRESH_BUILD_DIRTY_FRACTION = 0.35

# ``move`` adds dt h to the moving set alone when it holds at most this
# share of the vertices, and to every vertex otherwise.  Timed on random
# sets (best of 9 x 2000 on a 2-core x86-64), gathering, adding to and
# scattering the set cost 0.40 / 0.57 / 0.82 / 1.20 of the full add at 2 /
# 5 / 10 / 20 % of 5000 vertices, and 0.71 / 0.78 / 0.72 / 2.2 of it on
# 1600 vertices.  flow_l5 moves 1-2 % of its vertices per step.
MOVING_SET_SHARE = 0.1


@dataclass
class DtPolicy:
    """The step policy's one setting; the rest are the constants above."""
    c_stab: float = 0.1  # dt <= c_stab * (smallest active altitude)^2


class ResolutionExhausted(RuntimeError):
    """Raised when the mesh can no longer resolve the evolution."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class FlowTrajectory:
    times: list
    snapshots: list
    cumulative_dissipation: list  # aligned with snapshots
    ledger: list                  # per-step dicts: t, mass, dissipation, ...
    policy: DtPolicy
    valid: bool = True
    invalid_reason: str = ""

    def between(self, t1: float, t2: float) -> list:
        """The (t, snapshot) pairs recorded in [t1, t2], in time order; both
        ends are widened by 1e-12 max(1, |t2|)."""
        slack = 1e-12 * max(1.0, abs(t2))
        return [(t, v) for t, v in zip(self.times, self.snapshots)
                if t1 - slack <= t <= t2 + slack]

    def snapshot_at(self, t: float) -> DiscreteVarifold:
        arr = np.asarray(self.times)
        i = int(np.argmin(np.abs(arr - t)))
        if abs(arr[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"no snapshot at t={t}")
        return self.snapshots[i]


class _StepWorkspace:
    """The flow's state on one topology, rewritten in place step by step.

    After ``build``, ``refresh``, ``move`` or ``remesh`` these equal, bit
    for bit, what a ``DiscreteVarifold`` built fresh at ``vertices`` gives:
    ``rows`` (the ``_face_pass`` rows, keyed as a mesh's cache), ``terms``
    (the per-corner area-gradient terms, face-major (nf, d, corners), so
    that the terms of a set of faces are a row gather), ``face_mass``
    (multiplicity times measure per face), ``min_edge`` (the minimum edge
    length), and ``masses`` and ``gradient`` (lumped vertex masses,
    per-vertex area gradient).  ``mean_curvature()`` then brings ``h`` (the
    mean curvature with resting vertices zeroed, the rest floor scaled by
    ``e0``, the flow's initial median edge length), ``hn`` (|h| per
    vertex), ``mass_h2`` (masses |h|^2 per vertex, the dissipation's
    terms) and the step caps up to date where the sums changed.  The caps
    are two face rows, inf on a face at rest (no corner with nonzero h):
    ``alt``, the smallest altitude, and ``caps``, the dt cap min(c_stab
    alt^2, DISP_CAP alt / face_h), face_h the face's largest corner |h|;
    the step's dt is their minimum, which is exact in any order.

    ``move`` adds to the moving set only (the vertices with nonzero h now
    or at the last step), and a step that changes the same vertices as the
    last one reuses its index sets (``_StepPlan``).  ``min_edge``,
    ``total_mass()`` and the sum of ``mass_h2`` are full reductions; the
    mass is kept until a face mass changes.  ``_faces_at`` finds the faces
    touching a set of vertices by testing every face's corners.  A remesh
    pass is patched in from its change report (``_patch``).  Every array
    but the face rows is the workspace's own and is written in place.  A
    face row may be held by a mesh (``snapshot``, a remesh pass's output,
    the mesh the workspace was built on), which froze it; ``refresh``
    copies such a row before it writes it.
    """

    def __init__(self, v: DiscreteVarifold, e0: float,
                 c_stab: float = DtPolicy.c_stab):
        self.e0, self.c_stab = e0, c_stab
        self.build(v)

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    def build(self, v: DiscreteVarifold) -> None:
        """Take v's topology, vertices and face rows and form every other
        array in full."""
        self.faces, self.mult, self.boundary = (v.faces, v.multiplicity,
                                                v.boundary)
        self.vertices = v.vertices.copy()
        self._marks()
        nv, d = self.vertices.shape
        nf = self.num_faces
        self.h, self.hn, self.mass_h2 = (np.empty((nv, d)), np.empty(nv),
                                         np.empty(nv))
        self.alt, self.caps = np.empty(nf), np.empty(nf)
        self.rows = dict(v._cache)  # v's frozen rows, copied when written
        self.terms = _gradient_terms(v)
        self._sum_all()

    def _marks(self) -> None:
        """A cleared vertex mark and local indices for the mesh, and the
        state that the first step on a mesh starts from: no last step
        (``move`` adds to every vertex)."""
        nv = len(self.vertices)
        self._vertex_mark = np.zeros(nv, dtype=bool)
        self._local = np.zeros(nv, dtype=np.int64)
        self._was_moving, self._was_count = None, 0
        self._plan = self._keys = None

    def move(self, dt: float) -> None:
        """One explicit step, x + dt * h, as a fresh mesh would take it; then
        what the vertices whose bits changed touch is refreshed.

        When it holds at most ``MOVING_SET_SHARE`` of the vertices, only
        the moving set is added to: the vertices whose h is nonzero now or
        was at the last step.  Any other vertex has h = +0.0 and was stepped
        once since it came to rest, which turned its -0.0 coordinates into
        +0.0 (x + dt * 0.0 does that), so adding to it would not change its
        bits.  The first step on a mesh (after ``build`` or a patched
        remesh) adds to every vertex.
        """
        h = self.mean_curvature()
        was, limit = self._was_moving, MOVING_SET_SHARE * len(h)
        count = np.count_nonzero(self.hn)
        # the two counts bound the moving set's size from above; a set over
        # the limit is not kept, so the next step adds to every vertex
        moving = self.hn > 0.0 if count <= limit else None
        if was is not None and count + self._was_count <= limit:
            idx = np.flatnonzero(moving | was)
            x = self.vertices.take(idx, axis=0)
            moved = x + dt * h.take(idx, axis=0)
            changed = idx[_row_max(moved.view(np.int64) != x.view(np.int64))]
            self.vertices[idx] = moved
        else:
            moved = self.vertices + dt * h
            # bit patterns, not values: x + dt * 0.0 turns -0.0 into +0.0
            changed = _row_max(moved.view(np.int64)
                               != self.vertices.view(np.int64)).nonzero()[0]
            self.vertices = moved
        self._was_moving, self._was_count = moving, count
        self.refresh(changed)

    def mean_curvature(self) -> np.ndarray:
        """The flow's h at the current vertices, formed again on the vertices
        whose sums changed since the last call, with |h| (``hn``), masses
        |h|^2 (``mass_h2``) and the step caps of the faces touching them.
        Raises on an interior vertex with no face, as
        ``varifold.mean_curvature`` does.
        """
        for r in self._pending:
            ring, touch = r.ring, r.touch
            masses = self.masses[ring]
            h = _curvature(_take(self.gradient, ring), masses, r.boundary)
            hn = norm_last(h)
            rest = hn * self.e0 <= REST_FLOOR
            h[rest] = 0.0
            hn[rest] = 0.0
            self.h[ring], self.hn[ring] = h, hn
            self.mass_h2[ring] = masses * hn * hn
            face_h = _corner_max(self.hn, r.faces)
            alt = _face_altitudes(self.rows["measures"][touch],
                                  _take(self.rows["edge_lengths"], touch))
            active = face_h > 0.0
            # a face at rest divides by inf, and its cap is set to inf below
            caps = np.minimum(self.c_stab * alt**2, DISP_CAP * alt
                              / np.where(active, face_h, np.inf))
            self.alt[touch] = np.where(active, alt, np.inf)
            self.caps[touch] = np.where(active, caps, np.inf)
        self._pending = []
        return self.h

    def total_mass(self) -> float:
        """The sum of ``face_mass``, kept until a face mass changes."""
        if self._mass is None:
            self._mass = float(self.face_mass.sum())
        return self._mass

    def snapshot(self) -> DiscreteVarifold:
        """A mesh holding a copy of the vertices and the face rows, which it
        freezes.  A row that only the workspace holds (a writeable one) is
        handed over, not copied: ``refresh`` copies a frozen row before it
        writes it, and a full build or a remesh pass replaces the rows.  So
        no two meshes share a row.  No vertex sum or other step state goes
        with them."""
        vertices = self.vertices.copy()
        vertices.setflags(write=False)
        return DiscreteVarifold(vertices, self.faces, self.mult,
                                self.boundary,
                                {key: row if row.flags.writeable
                                 else row.copy()
                                 for key, row in self.rows.items()})

    def remesh(self) -> float:
        """One remesh pass on a snapshot, which reads the workspace's mass
        instead of summing it again, patched in from the change it reports
        (``_patch``) unless it changed nothing.  Returns the pass's mass
        change."""
        out, delta, change = remesh(self.snapshot(), self.total_mass())
        if change is not None:
            self._patch(out, change)
        return delta

    def _patch(self, v: DiscreteVarifold, change: RemeshChange) -> None:
        """Take the mesh v that a remesh pass made of the workspace's mesh.

        A carried face's terms and caps, and a vertex's sums, h, |h| and
        masses |h|^2, are gathered through the change's face and vertex
        maps, one ``take`` each; the vertices are a copy of v's and the
        face rows v's own, frozen (see ``snapshot``).  A vertex keeps its
        sums when it keeps every face: the faces it keeps are carried in
        the same order with the same terms.  So only the vertices of faces
        the pass computed or removed (the ring) are summed again
        (``_sum_ring``).  ``mean_curvature`` forms h next on the ring and
        on the vertices whose h the last step left to form.
        """
        if any(isinstance(r.ring, slice) for r in self._pending):
            self.mean_curvature()  # after a full build: h everywhere first
        src, vsrc = change.face_source, change.vertex_source
        computed = (src < 0).nonzero()[0]
        # the faces the pass kept; the computed faces (source -1) mark a
        # spare last slot
        kept = np.zeros(self.num_faces + 1, dtype=bool)
        kept[src] = True
        # the new index of each vertex, the split midpoints writing a spare
        # last slot
        new_vertex = np.full(len(self.vertices) + 1, -1)
        new_vertex[vsrc] = np.arange(len(vsrc))
        left = new_vertex.take(self.faces.compress(~kept[:-1], axis=0))
        pending = [new_vertex.take(r.ring) for r in self._pending]
        fmap, vmap = np.maximum(src, 0), np.maximum(vsrc, 0)
        self.terms = self.terms.take(fmap, axis=0)
        self.terms[computed] = change.terms
        self.alt, self.caps = self.alt.take(fmap), self.caps.take(fmap)
        self.masses, self.hn, self.mass_h2 = (
            a.take(vmap) for a in (self.masses, self.hn, self.mass_h2))
        self.gradient = self.gradient.take(vmap, axis=0)
        self.h = self.h.take(vmap, axis=0)
        self.faces, self.mult, self.boundary = (v.faces, v.multiplicity,
                                                v.boundary)
        self.vertices = v.vertices.copy()
        self.rows = dict(v._cache)
        self.face_mass = self.mult * self.rows["measures"]
        self._mass = None
        self.min_edge = _min_edge(self.rows["edge_lengths"])
        self._marks()
        mark = self._vertex_mark
        mark[self.faces.take(computed, axis=0)] = True
        mark[left[left >= 0]] = True
        for p in pending:
            mark[p[p >= 0]] = True
        ring = np.flatnonzero(mark)
        mark[ring] = False
        self._pending = []
        self._sum_ring(_Ring(self, ring))

    def _faces_at(self, idx: np.ndarray) -> np.ndarray:
        """The faces touching the vertices ``idx``, in increasing order.
        The vertex mark is clear on entry and on exit."""
        mark = self._vertex_mark
        mark[idx] = True
        out = _corner_max(mark, self.faces).nonzero()[0]
        mark[idx] = False
        return out

    def refresh(self, idx: np.ndarray) -> None:
        """Bring every array up to date after ``vertices`` changed on the
        vertices ``idx`` (an index that includes every vertex whose bits
        changed): the rows of the faces touching them are recomputed in
        place, or all rows when they are more than
        ``FRESH_BUILD_DIRTY_FRACTION`` of the faces, and the vertex sums of
        those faces' vertices follow.

        The index sets of a patched step (``_StepPlan``) depend only on the
        topology and ``idx``; a step that changes the same vertices as the
        last one, as most steps of a moving rim do, reuses them."""
        plan = self._plan
        if plan is None or not np.array_equal(plan.changed, idx):
            dirty = self._faces_at(idx)
            if len(dirty) > FRESH_BUILD_DIRTY_FRACTION * self.num_faces:
                rows = _face_pass(self.vertices, self.faces, self.mult)
                _require_positive_measures(rows["measures"])
                self.terms = rows.pop("corner_gradients")
                self.rows = rows
                self._sum_all()
                return
            if not len(dirty):
                return
            plan = self._plan = _StepPlan(self, idx, dirty)
        dirty = plan.dirty
        rows = _face_pass(self.vertices, plan.faces, plan.mult)
        _require_positive_measures(rows["measures"])
        self.terms[dirty] = rows.pop("corner_gradients")
        for key, new in rows.items():
            row = self.rows[key]
            if not row.flags.writeable:  # a handed-out mesh holds it
                row = self.rows[key] = row.copy()
            row[dirty] = new
        self.face_mass[dirty] = plan.mult * rows["measures"]
        self._mass = None
        self.min_edge = _min_edge(self.rows["edge_lengths"])
        self._sum_ring(plan.ring)

    def _sum_all(self) -> None:
        """The face masses, the minimum edge and the vertex sums of every
        vertex, from the rows and terms; ``mean_curvature`` forms h and the
        caps everywhere next."""
        nv = len(self.vertices)
        self.face_mass = self.mult * self.rows["measures"]
        self._mass = None
        self.min_edge = _min_edge(self.rows["edge_lengths"])
        self.masses = _lumped_masses(self.faces, self.mult,
                                     self.rows["measures"], nv)
        if self._keys is None:
            self._keys = _gradient_keys(self.faces)
        self.gradient = _gradient_sums(self.faces, self.terms, nv,
                                       self._keys)
        self._pending = [_Ring(self)]

    def _sum_ring(self, r: "_Ring") -> None:
        """Sum the vertex masses and area gradient of the ring's vertices
        again over the faces that touch them; ``mean_curvature`` forms h on
        them next.

        Two ``bincount`` calls sum over local vertex indices, in which
        corners outside the ring add to a discarded slot, local index 0:
        the masses over each corner's index, and the gradient over the
        index times d plus the coordinate, on the face-major terms as they
        are gathered.  Every vertex of the ring adds the same terms in the
        same face order as a full ``bincount`` of that row, so it gets the
        same bits.
        """
        d, nr = self.vertices.shape[1], len(r.ring)
        masses = np.bincount(r.local, np.repeat(
            self.face_mass.take(r.touch) / d, d), nr + 1)
        terms = self.terms.take(r.touch, axis=0)
        gradient = np.bincount(r.keys, terms.ravel(), (nr + 1) * d)
        self.masses[r.ring] = masses[1:]
        self.gradient[r.ring] = gradient.reshape(nr + 1, d)[1:]
        self._pending.append(r)


class _Ring:
    """Vertices whose sums are formed again (``ring``) and the faces that
    touch them (``touch``), with what ``_sum_ring`` and ``mean_curvature``
    index by them: the vertices' boundary flags, the faces' corners, and
    the ring sum's ``bincount`` keys: ``local``, each corner's local vertex
    index (1 + its position in ``ring``, 0 outside it), and ``keys``, that
    index times d plus the coordinate, (faces, d, corners) flattened as
    the terms are.  With no ``ring`` it stands for every vertex and face,
    which ``mean_curvature`` takes as slices.
    """

    def __init__(self, ws: _StepWorkspace, ring=None):
        if ring is None:
            self.ring = self.touch = slice(None)
            self.boundary, self.faces = ws.boundary, ws.faces
            return
        nr = len(ring)
        self.ring, self.touch = ring, ws._faces_at(ring)
        self.boundary = ws.boundary[ring]
        self.faces = ws.faces.take(self.touch, axis=0)
        local = ws._local
        local[ring] = np.arange(1, nr + 1)
        idx = local.take(self.faces)
        local[ring] = 0
        self.local = idx.ravel()
        self.keys = _gradient_keys(idx)


class _StepPlan:
    """The index sets of a patched step that changes the vertices
    ``changed``: the dirty faces (those touching them) with their corners
    and multiplicities, and the ring of the dirty faces' vertices."""

    def __init__(self, ws: _StepWorkspace, changed, dirty: np.ndarray):
        self.changed, self.dirty = changed, dirty
        self.faces = ws.faces.take(dirty, axis=0)
        self.mult = ws.mult.take(dirty)
        mark = ws._vertex_mark
        mark[self.faces] = True
        ring = mark.nonzero()[0]
        mark[ring] = False
        self.ring = _Ring(ws, ring)


def _take(a: np.ndarray, idx) -> np.ndarray:
    """``a[idx]`` for an index array or a slice (``mean_curvature``'s ring
    after a full build): an index takes rows with ``take``, several times
    faster than fancy indexing on the step's small 2-D gathers."""
    return a[idx] if isinstance(idx, slice) else a.take(idx, axis=0)


def _min_edge(lengths: np.ndarray) -> float:
    """The smallest of the edge lengths, 0.0 with no face."""
    return float(lengths.min()) if len(lengths) else 0.0


def evolve(v0: DiscreteVarifold, t_end: float,
           policy: Optional[DtPolicy] = None,
           snapshot_times=None) -> FlowTrajectory:
    """Run the flow to t_end, recording snapshots at the requested times."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    policy = policy or DtPolicy()
    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, t_end, 21)
    req = sorted({float(t) for t in snapshot_times} | {0.0, float(t_end)})
    if req[0] < 0 or req[-1] > t_end * (1 + 1e-12):
        raise ValueError("snapshot times outside [0, t_end]")

    initial_median = v0.median_edge_length()
    floor = MIN_EDGE_FLOOR_REL * initial_median
    mass0 = v0.total_mass()

    traj = FlowTrajectory(times=[], snapshots=[], cumulative_dissipation=[],
                          ledger=[], policy=policy)
    ws = _StepWorkspace(v0, initial_median, policy.c_stab)
    t = 0.0
    cum_diss = 0.0
    steps = 0

    def record(tt, v):
        traj.times.append(tt)
        traj.snapshots.append(v)
        traj.cumulative_dissipation.append(cum_diss)

    record(0.0, v0)
    steps_since_remesh = 0
    for t_next in req[1:]:
        while t_next - t > 1e-14 * max(1.0, t_next):
            if steps >= MAX_STEPS:
                raise ResolutionExhausted("step budget exhausted", traj)
            delta = 0.0
            need_remesh = (steps_since_remesh >= REMESH_EVERY)
            # the median edge length is read only through these two tests
            if not need_remesh and steps_since_remesh >= REMESH_BACKOFF:
                need_remesh = _median_holds(
                    ws.rows["edge_lengths"],
                    lambda e: ws.min_edge < REMESH_MIN_RATIO * e)
            if need_remesh:
                delta = ws.remesh()
                steps_since_remesh = 0
            # no median lies below the minimum edge
            if ws.num_faces == 0 or (
                    ws.min_edge < floor and not _median_holds(
                        ws.rows["edge_lengths"], lambda e: e >= floor)):
                raise ResolutionExhausted(
                    f"resolution exhausted at t={t:.6g}: surface collapsed "
                    "below the policy floor", traj)
            mean_curvature(ws)  # h on the moved ring; one call per step
            # stability and displacement caps from faces with moving corners
            # only (inf on the rest); static slivers must not throttle the
            # step, and with nothing moving it reaches t_next
            alt = float(ws.alt.min())
            if alt < floor:
                raise ResolutionExhausted(
                    f"resolution exhausted at t={t:.6g} "
                    f"(moving-region edge {alt:.3e} < {floor:.3e})", traj)
            dt = min(float(ws.caps.min()), t_next - t)
            diss = dt * float(ws.mass_h2.sum())
            ws.move(dt)
            t += dt
            cum_diss += diss
            steps += 1
            steps_since_remesh += 1
            traj.ledger.append({
                "t": t, "mass": ws.total_mass(), "dissipation": diss,
                "min_edge": ws.min_edge, "remesh_delta": delta,
            })
        t = t_next
        record(t, ws.snapshot())

    for tt, vv, cd in zip(traj.times, traj.snapshots,
                          traj.cumulative_dissipation):
        if vv.total_mass() + cd > mass0 * (1.0 + TOL_LEDGER):
            traj.valid = False
            traj.invalid_reason = (
                f"dissipation ledger violated at t={tt:.6g}: "
                f"{vv.total_mass() + cd:.6g} > {mass0:.6g} * (1 + tol)")
            break
    return traj


def _median_holds(a: np.ndarray, pred) -> bool:
    """``pred(_median(a))`` for a test ``pred`` (array -> bool array) that
    is monotone non-decreasing: if x passes, so does every y >= x.

    With s the n sorted entries and k = n // 2, the entries that pass are
    the last c, s_j for j >= n - c, counted in one pass.  The median is s_k
    for odd n; for even n it lies between s_(k-1) and s_k (their rounded
    mean), so it passes when both do and fails when neither does.  Only
    when exactly s_k passes is the median itself tested.
    """
    n = a.size
    first_pass, k = n - np.count_nonzero(pred(a)), n // 2
    if n % 2:
        return first_pass <= k
    if first_pass != k:
        return first_pass < k
    return bool(pred(_median(a)))


def brakke_inequality_test(traj: FlowTrajectory, phi: ScalarTest,
                           t1: float, t2: float) -> float:
    """Slack of the integral flow inequality between two recorded times.

    slack = RHS - LHS with
      LHS = ||V_t||(phi(., t)) evaluated at t2 minus at t1,
      RHS = trapezoid over snapshots of
            delta(V_t, phi(., t))(h) + ||V_t||(d phi/dt).
    Nonnegative slack (up to discretization) is the flow inequality.
    """
    lo, hi = traj.times[0], traj.times[-1]
    if not (lo <= t1 < t2 <= hi * (1 + 1e-12)):
        raise ValueError("requested interval outside trajectory span")
    window = traj.between(t1, t2)
    if len(window) < 2:
        raise ValueError("need at least two snapshots in [t1, t2]")

    def mass_at(tt, v):
        return weight_measure(v, lambda p: phi.value_fn(p, tt))

    lhs = mass_at(*window[-1]) - mass_at(*window[0])

    vals = []
    for tt, v in window:
        h = mean_curvature(v)
        fv = weighted_first_variation(
            v, lambda p: phi.value_fn(p, tt), lambda p: phi.gradient_fn(p, tt),
            h)
        dphi = weight_measure(v, lambda p: phi.time_derivative_fn(p, tt))
        vals.append(fv + dphi)
    rhs = float(np.trapezoid(vals, [tt for tt, _ in window]))
    return rhs - lhs


@dataclass(frozen=True)
class SphereBarrier:
    """Shrinking round ball; its boundary sphere is an exact flow solution."""

    center: np.ndarray
    initial_radius: float
    n: int

    def radius(self, t: float) -> float:
        r2 = self.initial_radius**2 - 2.0 * self.n * t
        if r2 <= 0:
            return 0.0
        return math.sqrt(r2)


def barrier_monitor(traj: FlowTrajectory, b: SphereBarrier):
    """Earliest recorded time at which the flow touches the shrinking ball.

    The barrier must start disjoint from the initial support; while it stays
    disjoint the region it sweeps is certified empty (external-barrier
    principle), which is the empirical stand-in for the empty-spot
    condition.
    """
    v0 = traj.snapshots[0]
    d0 = np.linalg.norm(v0.vertices - b.center, axis=1)
    if np.min(d0) <= b.initial_radius:
        raise ValueError("barrier invalid: initial support meets the ball")
    for tt, vv in zip(traj.times, traj.snapshots):
        r = b.radius(tt)
        if r == 0.0:
            break
        d = np.linalg.norm(vv.vertices - b.center, axis=1)
        if np.any(d <= r):
            return tt
    return None


def _empty_spot_d1(n: int) -> float:
    """The paper's empty-spot constant d1 = (8n + 2)/(sqrt(2) - 1)."""
    return (8.0 * n + 2.0) / (math.sqrt(2.0) - 1.0)


def barrier_offset_factor(n: int) -> float:
    """Height of the barrier center above the plane, in units of its scale."""
    d1 = _empty_spot_d1(n)
    return math.sqrt(2.0) + math.sqrt(d1**2 - 8.0 * n - 2.0)


def sphere_barrier_from_scale(r_scale: float, n: int,
                              t_plane: Plane) -> SphereBarrier:
    """Barrier ball certifying the empty spot above a flat reference plane.

    The ball sits at height R * (sqrt(2) + sqrt(d1^2 - 8n - 2)) with radius
    R * d1, d1 = (8n + 2) / (sqrt(2) - 1).  Two facts are re-checked
    numerically: the ball stays above height R, and after time 4 R^2 the
    shrunk ball still covers the slab piece
    C(sqrt(2) R) x {sqrt(2) R <= x_N <= 2 R}.
    """
    if r_scale <= 0:
        raise ValueError("scale must be positive")
    d1 = _empty_spot_d1(n)
    nu = t_plane.unit_normal()
    offset = r_scale * barrier_offset_factor(n)
    center = offset * nu
    radius = r_scale * d1

    min_height = offset - radius
    if not min_height > r_scale:
        raise ValueError("barrier geometry check failed: ball reaches too low")

    b = SphereBarrier(center=center, initial_radius=radius, n=n)
    r4 = b.radius(4.0 * r_scale**2)
    # sampled coverage of the slab piece by the shrunk ball; the bottom rim
    # corner lies exactly on the sphere, so allow a relative epsilon
    d = t_plane.ambient_dim
    basis = np.linalg.qr(t_plane.proj + 1e-3 * np.eye(d))[0]
    tang_dirs = [t_plane.apply(basis[:, i]) for i in range(d)]
    tang_dirs = [u / np.linalg.norm(u) for u in tang_dirs
                 if np.linalg.norm(u) > 1e-8][: d - 1]
    rr = np.linspace(0.0, math.sqrt(2.0) * r_scale, BARRIER_CHECK_SAMPLES)
    hh = np.linspace(math.sqrt(2.0) * r_scale, 2.0 * r_scale,
                     BARRIER_CHECK_SAMPLES)
    for u in tang_dirs:
        for rv in rr:
            for hv in hh:
                p = rv * u + hv * nu
                if np.linalg.norm(p - center) > r4 * (1.0 + 1e-9):
                    raise ValueError("barrier geometry check failed: "
                                     "slab piece not covered at final time")
    return b
