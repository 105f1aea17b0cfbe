import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holeflow import verify
from holeflow.fixtures import disk_triangulation, make_fixture
from holeflow.nucleation import (MERGE_TOL, GrowthEnvelope, SquashMap,
                                 _outside_signature, _same_signature,
                                 envelope_check,
                                 envelope_value, nucleate, squash_point,
                                 squash_points, verify_nucleation)
from holeflow.varifold import DiscreteVarifold, compact

EPS = 0.05
DELTA = 0.2


def _signature_lists(sig, d):
    """An array signature as the sorted lists of tuples it replaced."""
    verts, faces = sig
    return (list(map(tuple, verts.tolist())),
            [(tuple(map(tuple, row[:-1].reshape(d, d).tolist())), int(row[-1]))
             for row in faces])


def _tuple_signature(v, radius):
    """The tuple-sort implementation of ``_outside_signature`` that the
    array one replaced, compared with ``==``."""
    outside_v = np.linalg.norm(v.vertices, axis=1) > radius
    vert_sig = sorted(map(tuple, v.vertices[outside_v].tolist()))
    corners = v.face_corners()
    far = np.any(np.linalg.norm(corners, axis=2) > radius, axis=1)
    face_sig = [(tuple(sorted(map(tuple, c))), m) for c, m in
                zip(corners[far].tolist(), v.multiplicity[far].tolist())]
    return vert_sig, sorted(face_sig)


@pytest.fixture(scope="module")
def squash():
    return SquashMap(delta=DELTA)


class TestEnvelope:
    def test_value_at_inverse_e(self):
        e = GrowthEnvelope(alpha=1.0, r0=0.5)
        assert envelope_value(e, 1 / math.e) == pytest.approx(1 / math.e)

    def test_value_extended_precision(self):
        e = GrowthEnvelope(alpha=0.51, r0=0.5)
        with mp.workdps(50):
            want = float(mp.mpf("0.01") * mp.log(100) ** mp.mpf("-0.51"))
        assert envelope_value(e, 0.01) == pytest.approx(want, rel=1e-14)

    def test_sublinear_near_zero(self):
        # g(s)/s -> 0, but only at a logarithmic rate
        e = GrowthEnvelope(alpha=0.51, r0=0.5)
        s = np.array([1e-2, 1e-4, 1e-8, 1e-16, 1e-64, 1e-256])
        ratios = envelope_value(e, s) / s
        assert np.all(np.diff(ratios) < 0)
        assert ratios[-1] < 0.05

    def test_increasing_on_domain(self):
        e = GrowthEnvelope(alpha=0.51, r0=0.3)
        s = np.linspace(1e-9, e.r0, 20_000)
        assert np.all(np.diff(envelope_value(e, s)) > 0)

    def test_domain_errors(self):
        e = GrowthEnvelope(alpha=0.51, r0=0.5)
        with pytest.raises(ValueError):
            envelope_value(e, 1.0)
        with pytest.raises(ValueError):
            GrowthEnvelope(alpha=0.5, r0=0.5)

    def test_check_flat_plane(self, t_plane):
        v = make_fixture("flat_stack", 1, 3, radius=0.2)
        e = GrowthEnvelope(alpha=0.51, r0=0.1)
        ok, excess = envelope_check(v, e, t_plane)
        assert ok and excess == 0.0

    def test_check_power_sheet_passes(self, t_plane):
        # x3 = |x'|^(4/3) stays below the slow-log envelope near zero
        e = GrowthEnvelope(alpha=0.51, r0=0.1)
        s = np.linspace(1e-6, 0.1, 500)
        assert np.all(s ** (4.0 / 3.0) <= envelope_value(e, s))
        v = make_fixture("branched_disk", 2, 4, radius=0.2)
        ok, excess = envelope_check(v, e, t_plane)
        assert ok, excess

    def test_check_linear_cone_fails(self, t_plane):
        # a cone of slope 0.9 exceeds s / log^0.51(1/s) for s < 0.29
        pts, faces, rim = disk_triangulation(0.2, 3)
        r = np.linalg.norm(pts, axis=1)
        v = DiscreteVarifold(np.column_stack([pts, 0.9 * r]), faces,
                             np.ones(len(faces), dtype=np.int64), rim)
        e = GrowthEnvelope(alpha=0.51, r0=0.1)
        ok, excess = envelope_check(v, e, t_plane)
        assert not ok and excess > 0


class TestSquashMap:
    # point cases at delta = 0.2, reference plane z = 0
    @pytest.mark.parametrize("point,expected", [
        ((0.5, 0.0, 0.05), (0.5, 0.0, 0.0)),     # slab collapses
        ((0.5, 0.0, 0.15), (0.5, 0.0, 0.1)),     # band stretches: 2z - delta
        ((0.5, 0.0, -0.15), (0.5, 0.0, -0.1)),   # odd symmetry
        ((1.1, 0.0, 0.12), (1.1, 0.0, 0.1)),     # annulus cone: |x'| - 1
        ((1.1, 0.0, 0.05), (1.1, 0.0, 0.05)),    # annulus identity: z <= |x'|-1
    ])
    def test_point_cases(self, squash, t_plane, point, expected):
        got = squash_point(squash, t_plane, np.array(point))
        assert np.allclose(got, expected, atol=1e-15)

    def test_identity_outside(self, squash, t_plane):
        x = np.array([[1.3, 0.0, 0.05], [0.2, 0.1, 0.5], [2.0, 2.0, 0.01]])
        out = squash_points(squash, t_plane, x)
        assert np.array_equal(out, x)  # bitwise

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_normal_coordinate_never_increases(self, squash, t_plane, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(50, 3))
        out = squash_points(squash, t_plane, x)
        assert np.all(np.abs(out[:, 2]) <= np.abs(x[:, 2]) + 1e-15)
        assert np.array_equal(out[:, :2], x[:, :2])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**31 - 1))
    def test_idempotent_on_working_slab(self, seed):
        # the surgery operates under the height bound |z| <= delta/2; there
        # and on the untouched zone |z| >= delta the map is a projection
        ok, m = verify.squash(100, seed, DELTA)
        assert ok, m

    def test_sampled_lipschitz_bound(self):
        ok, m = verify.squash(50_000, 12345, DELTA)
        assert ok, m

    def test_lipschitz_constant_attained(self, squash, t_plane):
        # the doubling band realizes the constant
        a = squash_point(squash, t_plane, np.array([0.3, 0.0, 0.11]))
        b = squash_point(squash, t_plane, np.array([0.3, 0.0, 0.19]))
        assert abs(a[2] - b[2]) == pytest.approx(2 * 0.08, rel=1e-12)


class TestNucleate:
    def test_height_precondition(self, t_plane):
        v = make_fixture("flat_stack", 2, 4, radius=4 * EPS, spacing=0.02)
        with pytest.raises(ValueError, match="height bound"):
            nucleate(v, t_plane, EPS)

    def test_mass_drop_and_bound(self, t_plane):
        v0 = make_fixture("flat_stack", 2, 5, radius=4 * EPS,
                          spacing=0.02 * EPS)
        va = nucleate(v0, t_plane, EPS)
        rep = verify_nucleation(v0, va, t_plane, EPS,
                             GrowthEnvelope(alpha=0.51, r0=0.1), 2)
        assert rep["prop5_mass"] <= rep["prop5_bound"] * 1.02
        assert rep["hole_mass_before"] == pytest.approx(
            2 * np.pi * EPS**2, rel=0.02)

    def test_locality_bitwise(self, t_plane):
        v0 = make_fixture("flat_stack", 2, 4, radius=4 * EPS, spacing=0.0)
        va = nucleate(v0, t_plane, EPS)
        far0 = {tuple(x) for x in v0.vertices[
            np.linalg.norm(v0.vertices, axis=1) > 2 * EPS]}
        far1 = {tuple(x) for x in va.vertices[
            np.linalg.norm(va.vertices, axis=1) > 2 * EPS]}
        assert far0 == far1

    def test_outside_signature_equals_face_loop(self, t_plane):
        # the signature from one gather against the per-face loop it
        # replaced, on a nucleated stack and on a copy that differs from it
        # in the multiplicity of one outside face
        def loop_signature(v, radius):
            dist = np.linalg.norm(v.vertices, axis=1)
            vert_sig = sorted(map(tuple, v.vertices[dist > radius]))
            face_sig = []
            for fi in range(v.num_faces):
                corners = np.take(v.vertices, v.faces[fi], axis=0)
                if np.any(np.linalg.norm(corners, axis=1) > radius):
                    face_sig.append((tuple(sorted(map(tuple, corners))),
                                     int(v.multiplicity[fi])))
            return vert_sig, sorted(face_sig)

        v0 = make_fixture("perturbed_stack", 2, 3, radius=4 * EPS,
                          spacing=0.06)
        va = nucleate(v0, t_plane, EPS)
        dist = np.linalg.norm(va.face_corners(), axis=2)
        outside = np.flatnonzero(np.min(dist, axis=1) > 2 * EPS)
        mult = va.multiplicity.copy()
        mult[outside[len(outside) // 2]] += 1
        vb = DiscreteVarifold(va.vertices, va.faces, mult, va.boundary)
        for v in (v0, va, vb):
            assert (_signature_lists(_outside_signature(v, 2 * EPS), 3)
                    == loop_signature(v, 2 * EPS))
        assert not _same_signature(_outside_signature(va, 2 * EPS),
                                   _outside_signature(vb, 2 * EPS))
        envelope = GrowthEnvelope(alpha=0.51, r0=0.1)
        assert verify_nucleation(v0, va, t_plane, EPS, envelope,
                                 2)["prop1_local"]
        assert not verify_nucleation(v0, vb, t_plane, EPS, envelope,
                                     2)["prop1_local"]

    @pytest.mark.parametrize("level", [2, 3, 4])
    @pytest.mark.parametrize("kind,spacing", [("flat_stack", 0.0),
                                              ("flat_stack", 0.02 * EPS),
                                              ("perturbed_stack", 0.06)])
    def test_signature_verdict_equals_tuple_sort(self, t_plane, kind,
                                                 spacing, level):
        # the array signatures against the tuple sort they replaced, on a
        # nucleated pair and on copies of the nucleated mesh that differ from
        # it outside U_2eps in one vertex, one corner, one multiplicity or
        # only in the sign of zero coordinates
        radius = 2 * EPS
        v0 = make_fixture(kind, 2, level, radius=4 * EPS, spacing=spacing)
        va = nucleate(v0, t_plane, EPS)
        outside = np.linalg.norm(va.vertices, axis=1) > radius
        far = np.flatnonzero(np.all(outside[va.faces], axis=1))

        def remade(vertices=va.vertices, faces=va.faces,
                   mult=va.multiplicity):
            return DiscreteVarifold(vertices, faces, mult, va.boundary)

        moved = va.vertices.copy()
        moved[np.flatnonzero(outside)[0], 0] += 1e-3 * EPS
        bumped = va.multiplicity.copy()
        bumped[far[len(far) // 2]] += 1
        # a face takes another outside vertex as one corner: the vertex
        # multiset is unchanged, the face multiset is not
        f = far[0]
        c0, c1 = va.vertices[va.faces[f, :2]]
        spare = next(i for i in np.flatnonzero(outside)
                     if i not in va.faces[f] and np.linalg.norm(
                         np.cross(c1 - c0, va.vertices[i] - c0)) > 0.0)
        recorner = va.faces.copy()
        recorner[f, 2] = spare
        signed = va.vertices.copy()
        signed[outside] = np.where(signed[outside] == 0.0, -0.0,
                                   signed[outside])
        # the coarsest nucleation moves corners of faces that reach outside
        # U_2eps, so the first pair's verdict is only compared
        pairs = [(v0, va, None), (va, remade(vertices=signed), True),
                 (va, remade(vertices=moved), False),
                 (va, remade(faces=recorner), False),
                 (va, remade(mult=bumped), False)]
        for a, b, same in pairs:
            new_a, new_b = (_outside_signature(a, radius),
                            _outside_signature(b, radius))
            old = _tuple_signature(a, radius) == _tuple_signature(b, radius)
            assert _signature_lists(new_a, 3) == _tuple_signature(a, radius)
            assert _same_signature(new_a, new_b) is old
            assert same is None or old is same
        assert np.any(np.signbit(signed[outside]) & (signed[outside] == 0.0))

    def test_support_of_difference_is_local(self, t_plane):
        v0 = make_fixture("flat_stack", 2, 4, radius=4 * EPS,
                          spacing=0.02 * EPS)
        va = nucleate(v0, t_plane, EPS)
        moved = []
        before = {tuple(x): i for i, x in enumerate(v0.vertices)}
        for x in va.vertices:
            if tuple(x) not in before:
                moved.append(x)
        assert moved and np.all(
            np.linalg.norm(np.asarray(moved), axis=1) <= 2 * EPS)

    def test_normal_coordinate_shrinks(self, t_plane):
        v0 = make_fixture("flat_stack", 2, 4, radius=4 * EPS,
                          spacing=0.02 * EPS)
        va = nucleate(v0, t_plane, EPS)
        assert np.max(np.abs(va.vertices[:, 2])) <= np.max(
            np.abs(v0.vertices[:, 2])) + 1e-18

    def test_per_face_area_bound(self, t_plane):
        # squashing is 2-Lipschitz, so no face area grows by more than 4x
        v0 = make_fixture("flat_stack", 2, 4, radius=4 * EPS,
                          spacing=0.02 * EPS)
        va = nucleate(v0, t_plane, EPS)
        assert va.total_mass() <= 4.0 * v0.total_mass()
        rep = verify_nucleation(v0, va, t_plane, EPS,
                             GrowthEnvelope(alpha=0.51, r0=0.1), 2)
        assert rep["prop4_ok"]

    def test_no_op_nucleation_fails_hole_bound(self, t_plane):
        # skipping the surgery leaves mass ~ Q omega eps^n in the cylinder
        v0 = make_fixture("flat_stack", 2, 4, radius=4 * EPS, spacing=0.0)
        rep = verify_nucleation(v0, v0, t_plane, EPS,
                             GrowthEnvelope(alpha=0.51, r0=0.1), 2)
        assert not rep["prop5_ok"]

    def test_single_sheet_q1(self, t_plane):
        v0 = make_fixture("flat_stack", 1, 4, radius=4 * EPS)
        va = nucleate(v0, t_plane, EPS)
        rep = verify_nucleation(v0, va, t_plane, EPS,
                             GrowthEnvelope(alpha=0.51, r0=0.1), 1)
        assert rep["prop4_ok"] and rep["prop5_ok"] and rep["prop1_local"]


def _loop_nucleate(v, t_plane, eps):
    """``nucleate`` with its coincident-face merge as the per-face loop it
    replaced: a dict keyed by each collapsed face's sorted corner tuples on
    the tol grid keeps the first face of each key."""
    scaled = v.vertices / eps
    squashed = squash_points(SquashMap(), t_plane, scaled)
    changed = np.any(squashed != scaled, axis=1)
    new_verts = v.vertices.copy()
    new_verts[changed] = eps * squashed[changed]
    tol = MERGE_TOL * eps
    on_plane = t_plane.normal_norm(new_verts) <= tol
    in_cyl = t_plane.tangential_norm(new_verts) <= eps * (1.0 + MERGE_TOL)
    face_collapsed = np.all((on_plane & in_cyl)[v.faces], axis=1)
    keep = np.ones(v.num_faces, dtype=bool)
    mult = v.multiplicity.copy()
    seen = {}
    for fi in np.flatnonzero(face_collapsed):
        key = tuple(sorted(
            tuple(int(c) for c in np.round(new_verts[vi] / tol))
            for vi in v.faces[fi]))
        if key in seen:
            keep[fi] = False
        else:
            seen[key] = fi
            mult[fi] = 1
    return compact(new_verts, v.faces[keep], mult[keep], v.boundary)


@pytest.mark.parametrize("kind,spacing", [("flat_stack", 0.0),
                                          ("perturbed_stack", 0.06)])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_equals_face_loop(t_plane, kind, spacing, level, seed):
    # the vectorized merge against the loop, on stacks rotated about the
    # normal by a seed-drawn angle (seed 0: none) as the benchmark does
    v0 = make_fixture(kind, 2, level, radius=4 * EPS, spacing=spacing)
    if seed:
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        v0 = v0.with_vertices(v0.vertices @ rot.T)
    got = nucleate(v0, t_plane, EPS)
    want = _loop_nucleate(v0, t_plane, EPS)
    assert got.num_faces < v0.num_faces  # coincident faces were merged
    for name in ("faces", "multiplicity", "vertices", "boundary"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


class TestFixtures:
    def test_flat_stack_density(self, t_plane, stack_q2_level5):
        from holeflow.varifold import density_ratio
        assert density_ratio(stack_q2_level5, np.zeros(3), 0.1) == pytest.approx(
            2.0, rel=0.02)

    def test_face_count_growth(self):
        counts = [make_fixture("flat_stack", 1, lvl, radius=1.0).num_faces
                  for lvl in (2, 3, 4)]
        assert counts[1] == 4 * counts[0] and counts[2] == 4 * counts[1]

    def test_invalid_kind_and_q(self):
        with pytest.raises(ValueError):
            make_fixture("nope", 2, 3)
        with pytest.raises(ValueError):
            make_fixture("flat_stack", 0, 3)
