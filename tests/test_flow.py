import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from holeflow import verify
from holeflow.fixtures import icosphere, make_fixture
from holeflow import flow
from holeflow.flow import (DISP_CAP, MIN_EDGE_FLOOR_REL, REMESH_BACKOFF,
                           REMESH_EVERY, REMESH_MIN_RATIO, REST_FLOOR,
                           DtPolicy, FlowTrajectory, ResolutionExhausted,
                           barrier_monitor,
                           barrier_offset_factor, brakke_inequality_test,
                           evolve, sphere_barrier_from_scale, SphereBarrier)
from holeflow.geom import coordinate_plane
from holeflow.nucleation import nucleate
from holeflow import remesh as remesh_module
from holeflow.remesh import (DEGENERATE_REL, _collapse_candidates, _edges_of,
                             remesh)
from holeflow.varifold import (_face_pass, mean_curvature, vertex_masses,
                               weight_measure)
from holeflow.kernels import make_profile

from helpers import (bump_scalar_test, circle_mesh, cylinder_tube,
                     random_scalar_test, square_sheet)
from test_varifold import _assert_workspace_matches_fresh


def advance(v, dt):
    """The mesh that evolve reaches at time dt."""
    return evolve(v, dt, snapshot_times=[0.0, dt]).snapshots[-1]


def _fresh_mesh_evolve(v0, t_end, snapshot_times):
    """``evolve``'s step rule with one mesh built fresh per step, the
    reference for its step workspace: (ledger, snapshots)."""
    e0 = v0.median_edge_length()
    req = sorted({float(t) for t in snapshot_times} | {0.0, float(t_end)})
    v, t, since, ledger, snapshots = v0, 0.0, 0, [], [v0]
    for t_next in req[1:]:
        while t_next - t > 1e-14 * max(1.0, t_next):
            delta = 0.0
            if since >= REMESH_EVERY or (
                    since >= REMESH_BACKOFF and v.min_edge_length()
                    < REMESH_MIN_RATIO * v.median_edge_length()):
                v, delta, _ = remesh(v)
                since = 0
            assert v.median_edge_length() >= MIN_EDGE_FLOOR_REL * e0
            h = mean_curvature(v)
            hn = np.linalg.norm(h, axis=1)
            rest = hn * e0 <= REST_FLOOR
            h[rest] = 0.0
            hn[rest] = 0.0
            face_h = np.max(hn[v.faces], axis=1)
            active = face_h > 0.0
            dt = t_next - t
            if np.any(active):
                scales = v.face_altitudes()[active]
                dt = min(float(np.min(np.minimum(
                    DtPolicy().c_stab * scales**2,
                    DISP_CAP * scales / face_h[active]))), dt)
            diss = dt * float(np.sum(vertex_masses(v) * hn * hn))
            v = v.with_vertices(v.vertices + dt * h)
            t += dt
            since += 1
            ledger.append({"t": t, "mass": v.total_mass(),
                           "dissipation": diss,
                           "min_edge": v.min_edge_length(),
                           "remesh_delta": delta})
        t = t_next
        snapshots.append(v)
    return ledger, snapshots


def _nucleated(kind, level):
    spacing = 0.06 if kind == "perturbed_stack" else 0.0
    return nucleate(make_fixture(kind, 2, level, radius=0.2, spacing=spacing),
                    coordinate_plane([0, 1], 3), 0.05)


class TestStep:
    def test_flat_plane_fixed(self, flat_square):
        out = advance(flat_square, 1e-4)
        assert np.max(np.abs(out.vertices - flat_square.vertices)) <= 1e-12

    def test_sphere_radius_rate(self):
        s = icosphere(4)
        dt = 1e-4
        out = advance(s, dt)
        r = np.linalg.norm(out.vertices, axis=1).mean()
        assert 1.0 - r == pytest.approx(2 * dt, rel=0.02)

    def test_boundary_fixed_bitwise(self):
        tube = cylinder_tube(3)
        out = advance(tube, 1e-4)
        assert np.array_equal(out.vertices[tube.boundary],
                              tube.vertices[tube.boundary])
        moved = np.linalg.norm(out.vertices - tube.vertices, axis=1)
        assert np.any(moved[~tube.boundary] > 0)


class TestEvolve:
    def test_sphere_oracle_quick(self):
        ok, m = verify.sphere(3, DtPolicy().c_stab)
        assert ok, m

    def test_circle_oracle(self):
        c = circle_mesh(5)
        t_end = 0.3  # r(t)^2 = 1 - 2t for n = 1
        traj = evolve(c, t_end, snapshot_times=np.linspace(0, t_end, 7))
        for t, v in zip(traj.times, traj.snapshots):
            r = np.linalg.norm(v.vertices, axis=1).mean()
            assert r**2 == pytest.approx(1 - 2 * t, rel=0.02)

    def test_stationary_plane_mass_constant(self, flat_square):
        traj = evolve(flat_square, 0.01, snapshot_times=[0.0, 0.005, 0.01])
        m0 = flat_square.total_mass()
        for v in traj.snapshots:
            assert v.total_mass() == pytest.approx(m0, abs=1e-10)
        assert traj.valid

    def test_mesh_at_rest_reaches_each_snapshot_in_one_step(self,
                                                            flat_square):
        # turned off the coordinate planes, a flat sheet's h is roundoff
        # rather than zero; under the rest floor the sheet does not move
        k = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        k /= math.sqrt(14.0)  # cross-product matrix of the unit axis (1,2,3)
        rot = np.eye(3) + math.sin(0.7) * k + (1.0 - math.cos(0.7)) * k @ k
        sheet = flat_square.with_vertices(flat_square.vertices @ rot.T)
        roundoff = (np.max(np.linalg.norm(mean_curvature(sheet), axis=1))
                    * sheet.median_edge_length())
        assert 0.0 < roundoff <= REST_FLOOR
        times = [0.0, 0.002, 0.005, 0.01]
        traj = evolve(sheet, 0.01, snapshot_times=times)
        assert len(traj.ledger) == len(times) - 1
        for v in traj.snapshots:
            assert np.array_equal(v.vertices, sheet.vertices)

    @pytest.mark.parametrize("case", ["rim", "stack", "perturbed", "circle",
                                      "tube"])
    def test_equals_fresh_mesh_per_step(self, case, monkeypatch):
        # the step workspace, patched where the rim moves and patched from
        # each remesh pass's change (on level-3 and level-4 nucleated
        # stacks, whose passes split and collapse), rebuilt every step when
        # nearly every face moves (a perturbed stack), on segments and with
        # a fixed boundary, steps bit for bit as a fresh mesh per step does
        v0, t_end = {"rim": lambda: (_nucleated("flat_stack", 3), 1e-3),
                     "stack": lambda: (_nucleated("flat_stack", 4), 4e-4),
                     "perturbed": lambda: (_nucleated("perturbed_stack", 2),
                                           5e-3),
                     "circle": lambda: (circle_mesh(5), 0.01),
                     "tube": lambda: (cylinder_tube(3), 0.1)}[case]()
        passes = []  # per pass of the flow: (split, collapsed)

        def spy(name):
            real = getattr(remesh_module, name)

            def wrapper(*args):
                out = real(*args)
                if name == "_split_pass":
                    passes.append([out is not None])
                elif len(passes[-1]) == 1:
                    passes[-1].append(out is not None)
                return out
            return wrapper

        for name in ("_split_pass", "_collapse_pass"):
            monkeypatch.setattr(remesh_module, name, spy(name))
        real_pass = flow._StepWorkspace.remesh

        def checked_pass(ws):
            # every array of the workspace is a fresh build's after a pass
            delta = real_pass(ws)
            _assert_workspace_matches_fresh(ws)
            return delta

        monkeypatch.setattr(flow._StepWorkspace, "remesh", checked_pass)
        times = np.linspace(0.0, t_end, 4)
        traj = evolve(v0, t_end, snapshot_times=times)
        monkeypatch.undo()  # count the flow's passes only
        ledger, snapshots = _fresh_mesh_evolve(v0, t_end, times)
        assert len(ledger) > REMESH_EVERY
        if case in ("rim", "stack"):
            assert sum(row["remesh_delta"] != 0.0 for row in ledger) >= 2
            assert [True, True] in passes
        assert [{k: float(x).hex() for k, x in row.items()}
                for row in traj.ledger] == [
                    {k: float(x).hex() for k, x in row.items()}
                    for row in ledger]
        assert len(traj.snapshots) == len(snapshots)
        for got, ref in zip(traj.snapshots, snapshots):
            assert got.vertices.tobytes() == ref.vertices.tobytes()
            assert got.faces.tobytes() == ref.faces.tobytes()
            for key, row in _face_pass(ref.vertices, ref.faces).items():
                assert got._cache[key].tobytes() == row.tobytes(), key
            assert (vertex_masses(got).tobytes()
                    == vertex_masses(ref).tobytes())

    def test_handed_out_meshes_keep_their_arrays(self, monkeypatch):
        # the recorded snapshots and the meshes handed to remesh hold copies
        # of the step workspace's arrays: the flow goes on past each of them
        # without writing any array it holds
        taken, real = [], flow._StepWorkspace.snapshot

        def spy(ws):
            v = real(ws)
            taken.append((v, [a.copy() for a in _arrays(v)]))
            return v

        def _arrays(v):
            return [v.vertices, *v._cache.values()]

        monkeypatch.setattr(flow._StepWorkspace, "snapshot", spy)
        traj = evolve(_nucleated("flat_stack", 3), 1e-3,
                      snapshot_times=np.linspace(0.0, 1e-3, 4))
        assert len(taken) > len(traj.snapshots)  # remeshes took some
        for v, frozen in taken:
            for a, b in zip(_arrays(v), frozen, strict=True):
                assert a.tobytes() == b.tobytes()
        for v in traj.snapshots[1:]:
            assert "corner_gradients" not in v._cache
            assert not any(np.shares_memory(a, b)
                           for w in traj.snapshots if w is not v
                           for a in _arrays(v) for b in _arrays(w))

    def test_dissipation_nonnegative(self):
        s = icosphere(3)
        traj = evolve(s, 0.01, snapshot_times=[0.0, 0.01])
        assert all(row["dissipation"] >= 0.0 for row in traj.ledger)
        assert all(b >= a for a, b in zip(traj.cumulative_dissipation,
                                          traj.cumulative_dissipation[1:]))

    def test_mass_nonincreasing_per_step(self):
        s = icosphere(3)
        traj = evolve(s, 0.02, snapshot_times=[0.0, 0.02])
        masses = [row["mass"] for row in traj.ledger]
        m_prev = s.total_mass()
        for row in traj.ledger:
            assert row["mass"] <= m_prev + 1e-3 * m_prev + abs(row["remesh_delta"])
            m_prev = row["mass"]

    def test_fixed_boundary_along_trajectory(self):
        tube = cylinder_tube(3)
        traj = evolve(tube, 0.01, snapshot_times=np.linspace(0, 0.01, 5))
        ref = tube.vertices[tube.boundary]
        ref_set = {tuple(x) for x in ref}
        for v in traj.snapshots:
            got = {tuple(x) for x in v.vertices[v.boundary]}
            assert got == ref_set

    def test_resolution_exhausted(self):
        tiny = icosphere(2, radius=0.05)
        with pytest.raises(ResolutionExhausted):
            evolve(tiny, 0.01, snapshot_times=[0.0, 0.01])

    def test_snapshot_lookup_errors(self):
        s = icosphere(2)
        traj = evolve(s, 0.01, snapshot_times=[0.0, 0.01])
        with pytest.raises(ValueError):
            traj.snapshot_at(0.123)

    @pytest.mark.parametrize("t1,t2", [(0.25, 1.0), (500.0, 1000.0)])
    def test_between_widens_both_ends(self, t1, t2):
        # each end is widened by 1e-12 max(1, |t2|): a time half that far
        # outside is kept, one 1e-9 max(1, |t2|) outside is dropped
        slack = 1e-12 * max(1.0, abs(t2))
        times = [t1 - 1e3 * slack, t1 - 0.5 * slack, 0.5 * (t1 + t2),
                 t2 + 0.5 * slack, t2 + 1e3 * slack]
        traj = FlowTrajectory(times=times, snapshots=list("abcde"),
                              cumulative_dissipation=[0.0] * 5, ledger=[],
                              policy=DtPolicy())
        assert traj.between(t1, t2) == list(zip(times[1:4], "bcd"))

    def test_ledger_violation_flags_invalid(self, monkeypatch):
        # an impossible tolerance turns any dissipating run invalid
        from holeflow import flow
        monkeypatch.setattr(flow, "TOL_LEDGER", -0.5)
        s = icosphere(2)
        traj = evolve(s, 0.01, snapshot_times=[0.0, 0.01])
        assert not traj.valid
        assert "ledger" in traj.invalid_reason


class TestBrakkeInequality:
    def test_constant_plane_slack_nonnegative(self, flat_square, rng):
        t_end = 0.01
        traj = evolve(flat_square, t_end,
                      snapshot_times=np.linspace(0, t_end, 5))
        for _ in range(10):
            phi = random_scalar_test(rng, 3, span=(0.0, t_end), radius=1.5)
            slack = brakke_inequality_test(traj, phi, 0.0, t_end)
            scale = weight_measure(flat_square,
                                   lambda p: phi.value_fn(p, 0.0))
            assert slack >= -1e-10 * max(scale, 1.0)

    def test_sphere_flow_near_equality(self):
        s = icosphere(3)
        t_end = 0.09
        traj = evolve(s, t_end, snapshot_times=np.linspace(0, t_end, 19))
        prof = make_profile(0.3)

        class Plateau:
            def value_fn(self, p, t):
                return prof.value(np.linalg.norm(p, axis=1) / 3.0)

            def gradient_fn(self, p, t):
                r = np.linalg.norm(p, axis=1)
                out = np.zeros_like(p)
                nz = r > 0
                out[nz] = (prof.d1(r[nz] / 3.0) / (3.0 * r[nz]))[:, None] * p[nz]
                return out

            def time_derivative_fn(self, p, t):
                return np.zeros(len(p))

        slack = brakke_inequality_test(traj, Plateau(), 0.0, t_end)
        assert abs(slack) <= 0.05 * s.total_mass()

    def test_zero_test_function(self, flat_square):
        traj = evolve(flat_square, 0.01, snapshot_times=[0.0, 0.005, 0.01])
        phi = bump_scalar_test([0, 0, 0], 1.0, 0.0, 0.0)
        assert brakke_inequality_test(traj, phi, 0.0, 0.01) == 0.0

    def test_interval_outside_span(self, flat_square):
        traj = evolve(flat_square, 0.01, snapshot_times=[0.0, 0.01])
        phi = bump_scalar_test([0, 0, 0], 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            brakke_inequality_test(traj, phi, 0.0, 0.5)


class TestBarrier:
    def test_offset_factor_value(self):
        # d1 = 18 / (sqrt(2) - 1) for n = 2
        d1 = 18.0 / (math.sqrt(2) - 1.0)
        assert d1 == pytest.approx(43.4558, abs=1e-3)
        assert barrier_offset_factor(2) == pytest.approx(
            math.sqrt(2) + math.sqrt(d1**2 - 18), rel=1e-12)

    def test_barrier_geometry_checks(self, t_plane):
        b = sphere_barrier_from_scale(1.0, 2, t_plane)
        d1 = 18.0 / (math.sqrt(2) - 1.0)
        assert b.initial_radius == pytest.approx(d1)
        min_height = barrier_offset_factor(2) - d1
        assert min_height > 1.0
        # the bottom rim corner of the slab piece ends exactly on the sphere
        corner = np.array([math.sqrt(2), 0.0, math.sqrt(2)])
        assert np.linalg.norm(corner - b.center) == pytest.approx(
            b.radius(4.0), rel=1e-12)

    def test_plane_never_touches(self):
        ok, m = verify.barrier(3)
        assert ok, m

    def test_initial_intersection_rejected(self, t_plane):
        v = make_fixture("flat_stack", 1, 3, radius=2.0)
        traj = evolve(v, 0.01, snapshot_times=[0.0, 0.01])
        bad = SphereBarrier(center=np.array([0.0, 0.0, 0.5]),
                            initial_radius=1.0, n=2)
        with pytest.raises(ValueError, match="barrier invalid"):
            barrier_monitor(traj, bad)

    def test_contact_detected(self):
        # shrinking sphere collapses onto a slowly shrinking interior ball:
        # r_sphere^2 = 1 - 4t meets r_ball^2 = 0.81 - 2t at t = 0.095
        s = icosphere(3)
        traj = evolve(s, 0.12, snapshot_times=np.linspace(0, 0.12, 25))
        ball = SphereBarrier(center=np.zeros(3), initial_radius=0.9, n=1)
        contact = barrier_monitor(traj, ball)
        assert contact is not None
        assert contact == pytest.approx(0.095, abs=0.01)


class TestRemesh:
    def test_split_long_edges(self):
        # one oversized triangle among unit-scale ones gets its edges split
        from holeflow.varifold import DiscreteVarifold
        verts = [[0.0, 0, 0], [6.0, 0, 0], [3.0, 0.8, 0]]
        faces = [[0, 1, 2]]
        for i in range(4):
            base = len(verts)
            x0 = 10.0 + 2.0 * i
            verts += [[x0, 0, 0], [x0 + 1, 0, 0], [x0 + 0.5, 0.9, 0]]
            faces += [[base, base + 1, base + 2]]
        v = DiscreteVarifold(np.asarray(verts), np.asarray(faces),
                             np.ones(5, dtype=np.int64),
                             np.zeros(len(verts), dtype=bool))
        out, delta, _ = remesh(v)
        assert out.num_faces > v.num_faces
        assert out.total_mass() == pytest.approx(v.total_mass() + delta)
        assert abs(delta) <= 1e-12  # planar splits preserve area exactly

    def test_collapse_short_edges(self):
        sq = square_sheet(2.0, 3)
        verts = sq.vertices.copy()
        # shove one interior vertex almost onto a neighbor
        interior = np.flatnonzero(~sq.boundary)
        i = interior[0]
        j = sq.faces[np.any(sq.faces == i, axis=1)][0]
        other = [k for k in j if k != i][0]
        verts[i] = verts[other] + 1e-4
        v = sq.with_vertices(verts)
        out, delta, _ = remesh(v)
        assert out.num_vertices < v.num_vertices

    def test_boundary_preserved(self):
        tube = cylinder_tube(3)
        squeezed = tube.with_vertices(tube.vertices * [1.0, 1.0, 0.2])
        out, _, _ = remesh(squeezed)
        before = {tuple(x) for x in squeezed.vertices[squeezed.boundary]}
        after = {tuple(x) for x in out.vertices[out.boundary]}
        assert before == after

    def test_noop_on_uniform_mesh(self):
        s = icosphere(3)
        out, delta, _ = remesh(s)
        assert out is s and delta == 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 60), st.integers(3, 40),
           st.sampled_from([2, 3]))
    def test_edges_of_match_row_sort(self, seed, nf, nv, d):
        # segments and triangles: each pair's minimum and maximum are the
        # row sort's, in the order of the edge-length columns 0-1, 1-2, 2-0,
        # for every edge and for the edges a random mask selects
        rng = np.random.default_rng(seed)
        faces = np.array([rng.choice(nv, d, replace=False)
                          for _ in range(nf)], dtype=np.int64)
        corners = [[0, 1]] if d == 2 else [[0, 1], [1, 2], [2, 0]]
        want = np.sort(np.concatenate([faces[:, c] for c in corners]), axis=1)
        owners = np.tile(np.arange(nf), len(corners))
        for keep in (np.ones((nf, len(corners)), dtype=bool),
                     rng.random((nf, len(corners))) < 0.5):
            pairs, got = _edges_of(faces, keep)
            assert pairs.dtype == want.dtype and pairs.flags.c_contiguous
            assert np.array_equal(pairs, want[keep.T.ravel()])
            assert np.array_equal(got, owners[keep.T.ravel()])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), level=st.integers(2, 3),
           amp=st.floats(0.0, 0.8), share=st.floats(0.3, 1.5))
    def test_collapse_candidates_match_row_unique(self, seed, level, amp,
                                                  share):
        # the short edges once each, ordered by length and then by vertex
        # pair as np.unique and a stable sort order them (a grid, amp = 0,
        # has ties), then each thin face's shortest edge in face order
        v = _jittered_sheet(seed, level, amp)
        lengths, measures = v._edge_lengths(), v.face_measures()
        cut = share * v.median_edge_length()
        edges = [[0, 1], [1, 2], [2, 0]]
        short = np.flatnonzero(lengths < cut)
        pairs = np.sort(v.faces[:, edges], axis=2).reshape(-1, 2)[short]
        unique, first = np.unique(pairs, axis=0, return_index=True)
        want = unique[np.argsort(lengths.ravel()[short][first],
                                 kind="stable")].tolist()
        thin = np.flatnonzero(2.0 * measures / np.max(lengths, axis=1) < cut)
        want += [sorted(v.faces[f, edges[c]].tolist()) for f, c in
                 zip(thin, np.argmin(lengths[thin], axis=1))]
        got = _collapse_candidates(v.faces, v.boundary, lengths, measures,
                                   cut)
        assert [list(pair) for pair, _ in got] == want
        flags = v.boundary[np.array(want, dtype=np.int64).reshape(-1, 2)]
        assert [list(ends) for _, ends in got] == flags.tolist()


def _jittered_sheet(seed, level, amp):
    """A square sheet whose interior vertices move by up to amp grid
    spacings in the plane and 0.3 amp spacings out of it.  Beyond half a
    spacing, edges to the rim get short and faces get thin, so the pass
    collapses next to the boundary and drops near-degenerate faces."""
    sheet = square_sheet(2.0, level)
    rng = np.random.default_rng(seed)
    inner = ~sheet.boundary
    spacing = 2.0 / 2 ** level
    verts = sheet.vertices.copy()
    verts[inner] += spacing * amp * rng.uniform(-1.0, 1.0, (inner.sum(), 3)) \
        * [1.0, 1.0, 0.3]
    try:
        return sheet.with_vertices(verts)
    except ValueError:  # a jittered face came out degenerate
        assume(False)


REMESH_CASES = dict(seed=st.integers(0, 2**31 - 1), level=st.integers(2, 3),
                    amp=st.floats(0.0, 0.8))


class TestRemeshProperties:
    """Properties of one remesh pass on randomly jittered sheets."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REMESH_CASES)
    def test_boundary_vertices_bitwise_fixed(self, seed, level, amp):
        v = _jittered_sheet(seed, level, amp)
        out, _, _ = remesh(v)
        assert (out.vertices[out.boundary].tobytes()
                == v.vertices[v.boundary].tobytes())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REMESH_CASES)
    def test_no_face_at_degenerate_floor(self, seed, level, amp):
        v = _jittered_sheet(seed, level, amp)
        out, _, _ = remesh(v)
        floor = DEGENERATE_REL * v.median_edge_length() ** 2
        assert np.all(out.face_measures() > floor)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REMESH_CASES)
    def test_no_interior_vertex_without_face(self, seed, level, amp):
        v = _jittered_sheet(seed, level, amp)
        out, _, _ = remesh(v)
        used = np.zeros(out.num_vertices, dtype=bool)
        used[out.faces.ravel()] = True
        assert np.all(used | out.boundary)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REMESH_CASES)
    def test_rebuilt_mesh_holds_its_face_pass(self, seed, level, amp):
        # the rows the pass hands over are bitwise those of a face pass on
        # the rebuilt mesh, and contiguous like them; it hands over no
        # gradient terms, which only the flow's step workspace holds
        v = _jittered_sheet(seed, level, amp)
        out, _, _ = remesh(v)
        assume(out is not v)
        fresh = _face_pass(out.vertices, out.faces)
        assert sorted(out._cache) == sorted(fresh)
        for key, row in fresh.items():
            assert out._cache[key].shape == row.shape
            assert out._cache[key].flags.c_contiguous
            assert out._cache[key].tobytes() == row.tobytes(), key

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REMESH_CASES)
    def test_change_carries_face_pass(self, seed, level, amp):
        # a carried face has its source's corners and multiplicity, and its
        # source's rows are bitwise a face pass on the rebuilt mesh; the
        # reported terms are that pass's terms of the computed faces
        v = _jittered_sheet(seed, level, amp)
        out, _, change = remesh(v)
        assume(change is not None)
        src, vsrc = change.face_source, change.vertex_source
        carried = src >= 0
        fresh = _face_pass(out.vertices, out.faces, out.multiplicity)
        terms = fresh.pop("corner_gradients")
        for key, row in fresh.items():
            assert v._cache[key][src[carried]].tobytes() == \
                row[carried].tobytes(), key
        assert change.terms.tobytes() == terms[~carried].tobytes()
        assert (out.vertices[out.faces[carried]].tobytes()
                == v.vertices[v.faces[src[carried]]].tobytes())
        assert np.array_equal(out.multiplicity[carried],
                              v.multiplicity[src[carried]])
        # the vertex map: kept vertices in order, then split midpoints
        kept = vsrc >= 0
        assert np.all(np.diff(vsrc[kept]) > 0) and np.all(kept[:kept.sum()])
        assert np.array_equal(out.boundary[kept], v.boundary[vsrc[kept]])
        assert not np.any(out.boundary[~kept])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**REMESH_CASES)
    def test_delta_is_mass_change(self, seed, level, amp):
        v = _jittered_sheet(seed, level, amp)
        out, delta, _ = remesh(v)
        assert delta == out.total_mass() - v.total_mass()
