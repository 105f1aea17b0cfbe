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
largest corner |h| of active faces only.  The next mesh is told which
vertices changed, bit for bit.  One face pass forms its face geometry and
per-corner area-gradient terms on the faces touching them only, or on all
faces when most did (``with_vertices``), bitwise a full rebuild.

A step mesh holds its face rows (measures, normals or tangents, edge
lengths), the per-corner area-gradient terms, its lumped vertex masses
and its per-vertex area gradient.  A patched step copies its parent's
vertex sums and sums again only the vertices of the faces it
recomputed; a fully built one, like a remeshed mesh, scatters its terms
once.  A recorded snapshot and a mesh about to be remeshed drop the
terms and the area gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geom import Plane
from .varifold import (DiscreteVarifold, ScalarTest, _corner_max, _row_max,
                       mean_curvature, vertex_masses, weight_measure,
                       weighted_first_variation)
from .remesh import remesh

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

    def snapshot_at(self, t: float) -> DiscreteVarifold:
        arr = np.asarray(self.times)
        i = int(np.argmin(np.abs(arr - t)))
        if abs(arr[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"no snapshot at t={t}")
        return self.snapshots[i]


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
    v = v0
    t = 0.0
    cum_diss = 0.0
    steps = 0

    def record(tt):
        v._leave_step_chain()
        traj.times.append(tt)
        traj.snapshots.append(v)
        traj.cumulative_dissipation.append(cum_diss)

    record(0.0)
    steps_since_remesh = 0
    for t_next in req[1:]:
        while t_next - t > 1e-14 * max(1.0, t_next):
            if steps >= MAX_STEPS:
                raise ResolutionExhausted("step budget exhausted", traj)
            delta = 0.0
            need_remesh = (steps_since_remesh >= REMESH_EVERY)
            if not need_remesh and steps_since_remesh >= REMESH_BACKOFF:
                need_remesh = (v.min_edge_length()
                               < REMESH_MIN_RATIO * v.median_edge_length())
            if need_remesh:
                v._leave_step_chain()  # free its gradient terms before remesh
                v, delta = remesh(v)
                steps_since_remesh = 0
            if v.num_faces == 0 or v.median_edge_length() < floor:
                raise ResolutionExhausted(
                    f"resolution exhausted at t={t:.6g}: surface collapsed "
                    "below the policy floor", traj)
            h = mean_curvature(v)
            hn = _row_norm(h)
            rest = hn * initial_median <= REST_FLOOR
            h = np.where(rest[:, None], 0.0, h)  # faster than h[rest] = 0.0
            hn[rest] = 0.0
            face_h = _corner_max(hn, v.faces)
            active = face_h > 0.0
            if np.any(active):
                # stability and displacement caps from faces with moving
                # corners only; static slivers must not throttle the step
                scales = v.face_altitudes(active)
                if np.min(scales) < floor:
                    raise ResolutionExhausted(
                        f"resolution exhausted at t={t:.6g} "
                        f"(moving-region edge {np.min(scales):.3e} "
                        f"< {floor:.3e})", traj)
                dt = float(np.min(np.minimum(
                    policy.c_stab * scales**2,
                    DISP_CAP * scales / face_h[active])))
                dt = min(dt, t_next - t)
            else:
                dt = t_next - t
            diss = dt * float(np.sum(vertex_masses(v) * hn * hn))
            moved = v.vertices + dt * h
            moved.setflags(write=False)  # fresh: hand it over uncopied
            # bit patterns, not values: x + dt * 0.0 turns -0.0 into +0.0
            changed = _row_max(moved.view(np.int64)
                               != v.vertices.view(np.int64))
            v = v.with_vertices(moved, changed)
            t += dt
            cum_diss += diss
            steps += 1
            steps_since_remesh += 1
            traj.ledger.append({
                "t": t, "mass": v.total_mass(), "dissipation": diss,
                "min_edge": v.min_edge_length() if v.num_faces else 0.0,
                "remesh_delta": delta,
            })
        t = t_next
        record(t)

    for tt, vv, cd in zip(traj.times, traj.snapshots,
                          traj.cumulative_dissipation):
        if vv.total_mass() + cd > mass0 * (1.0 + TOL_LEDGER):
            traj.valid = False
            traj.invalid_reason = (
                f"dissipation ledger violated at t={tt:.6g}: "
                f"{vv.total_mass() + cd:.6g} > {mass0:.6g} * (1 + tol)")
            break
    return traj


def _row_norm(h: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(h, axis=1)`` for 2 or 3 columns, bit for bit: the
    squares of the columns added in the norm's order, without its
    reduction over a length-d axis."""
    x = [h[:, a] for a in range(h.shape[1])]
    s = x[0] * x[0] + x[1] * x[1]
    return np.sqrt(s if len(x) == 2 else s + x[2] * x[2])


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
    times = np.asarray(traj.times)
    sel = np.flatnonzero((times >= t1 - 1e-12) & (times <= t2 + 1e-12))
    if len(sel) < 2:
        raise ValueError("need at least two snapshots in [t1, t2]")

    def mass_at(i):
        v = traj.snapshots[i]
        return weight_measure(v, lambda p: phi.value_fn(p, times[i]))

    lhs = mass_at(sel[-1]) - mass_at(sel[0])

    vals = []
    for i in sel:
        v = traj.snapshots[i]
        tt = times[i]
        h = mean_curvature(v)
        fv = weighted_first_variation(
            v, lambda p: phi.value_fn(p, tt), lambda p: phi.gradient_fn(p, tt),
            h)
        dphi = weight_measure(v, lambda p: phi.time_derivative_fn(p, tt))
        vals.append(fv + dphi)
    rhs = float(np.trapezoid(vals, times[sel]))
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
