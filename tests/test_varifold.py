import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holeflow.fixtures import disk_triangulation, icosphere, make_fixture
from holeflow.remesh import remesh
from holeflow.flow import (DISP_CAP, FRESH_BUILD_DIRTY_FRACTION,
                           MOVING_SET_SHARE, REST_FLOOR, _median_holds,
                           _StepWorkspace)
from holeflow import flow, varifold
from holeflow.varifold import (DiscreteVarifold, _column_face_pass,
                               _face_pass, _median, _stacked_face_pass,
                               area_gradient,
                               density_ratio,
                               first_variation, interpolate_vertex_field,
                               mean_curvature,
                               parabolic_rescale,
                               vertex_masses, weight_measure,
                               weighted_first_variation,
                               weighted_first_variation_perp)

from helpers import (bump_test_field, circle_mesh, cylinder_tube,
                     perpendicularity_defect, plateau_test_field,
                     random_test_field, square_sheet)

# Riesz-consistency regression bound, measured over the fixture battery and
# frozen with 1.5x headroom (see test_first_variation_riesz_consistency).
RIESZ_BOUND = 36.0


def unit_square_pair(mult=1):
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return DiscreteVarifold(verts, faces, np.full(2, mult, dtype=np.int64),
                            np.zeros(4, dtype=bool))


def test_weight_measure_area_and_multiplicity():
    one = lambda p: np.ones(len(p))
    assert weight_measure(unit_square_pair(1), one) == pytest.approx(1.0)
    assert weight_measure(unit_square_pair(3), one) == pytest.approx(3.0)


def test_weight_measure_disk_polar_integral():
    # integral of |x'|^2 over the unit disk is pi/2
    pts, faces, rim = disk_triangulation(1.0, 5)
    v = DiscreteVarifold(np.column_stack([pts, np.zeros(len(pts))]), faces,
                         np.ones(len(faces), dtype=np.int64), rim)
    got = weight_measure(v, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, 3)
    assert got == pytest.approx(np.pi / 2, rel=5e-3)


def test_weight_measure_additive_and_linear():
    v = unit_square_pair(1)
    one = lambda p: np.ones(len(p))
    part1 = DiscreteVarifold(v.vertices, v.faces[:1], v.multiplicity[:1],
                             v.boundary)
    part2 = DiscreteVarifold(v.vertices, v.faces[1:], v.multiplicity[1:],
                             v.boundary)
    assert (weight_measure(part1, one) + weight_measure(part2, one)
            == weight_measure(v, one))


_STACKS = {}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(level=st.integers(2, 4), subdiv=st.integers(0, 2),
       x=st.floats(-0.25, 0.25), y=st.floats(-0.25, 0.25),
       radius=st.floats(0.005, 0.3), kind=st.sampled_from(["cos", "ball"]))
def test_keep_mask_keeps_the_bits(level, subdiv, x, y, radius, kind):
    # an integrand that is +0.0 off a ball: the sum that evaluates only
    # the faces that can reach it equals the sum over every face, bit for
    # bit
    if level not in _STACKS:
        _STACKS[level] = make_fixture("flat_stack", 2, level, radius=0.2)
    v = _STACKS[level]
    centre = np.array([x, y, 0.0])

    def phi(p):
        d = np.linalg.norm(p - centre, axis=1)
        return np.where(d < radius, np.cos(d) if kind == "cos" else 1.0,
                        0.0)

    keep = varifold._faces_reaching(
        v, np.linalg.norm(v.vertices - centre, axis=1), radius)
    want = weight_measure(v, phi, subdiv=subdiv)
    _assert_same_bits(weight_measure(v, phi, subdiv=subdiv, keep=keep),
                      want)
    if kind == "ball":
        _assert_same_bits(varifold.ball_mass(v, centre, radius, subdiv),
                          want)


def test_degenerate_face_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        DiscreteVarifold(verts, np.array([[0, 1, 2]]), np.array([1]),
                         np.zeros(3, dtype=bool))


def test_density_ratio_plane_stack_empty():
    sq = square_sheet(2.0, 5)
    assert density_ratio(sq, np.zeros(3), 0.5) == pytest.approx(1.0, rel=1e-2)
    stack = make_fixture("flat_stack", 2, 5, radius=1.0, spacing=0.005)
    assert density_ratio(stack, np.zeros(3), 0.5) == pytest.approx(2.0, rel=1e-2)
    empty = DiscreteVarifold(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64),
                             np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    assert density_ratio(empty, np.zeros(3), 0.5) == 0.0


def test_density_ratio_monotone_in_radius():
    stack = make_fixture("flat_stack", 2, 5, radius=1.0, spacing=0.0)
    radii = np.linspace(0.1, 0.9, 9)
    vals = [density_ratio(stack, np.zeros(3), r, subdiv=3) for r in radii]
    assert all(b >= a * (1 - 0.01) for a, b in zip(vals, vals[1:]))


def test_first_variation_flat_plane_and_zero_field(flat_square, rng):
    g = random_test_field(rng, 3, radius=0.8)
    assert abs(first_variation(flat_square, g)) <= 1e-3
    zero = bump_test_field([0, 0, 0], 1.0, np.zeros((3, 3)), np.zeros(3))
    assert first_variation(flat_square, zero) == 0.0


def test_first_variation_sphere_identity(sphere4):
    # div^S x = 2 on a surface, so the identity field gives 2 * area
    g = plateau_test_field([0, 0, 0], 2.0, 0.3, np.eye(3), np.zeros(3))
    assert first_variation(sphere4, g) == pytest.approx(
        2.0 * sphere4.total_mass(), rel=1e-12)
    assert first_variation(sphere4, g) == pytest.approx(8 * np.pi, rel=5e-3)


def test_mean_curvature_flat_plane(flat_square):
    h = mean_curvature(flat_square)
    assert np.max(np.abs(h)) <= 1e-10


def test_mean_curvature_sphere(sphere4):
    h = mean_curvature(sphere4)
    hn = np.linalg.norm(h, axis=1)
    m = vertex_masses(sphere4)
    rel = np.abs(hn - 2.0) / 2.0
    # the 12 valence-5 corners carry an O(1) lumped-mass bias; accuracy is
    # asserted on the regular vertices and in the mass-weighted mean
    assert np.sum(rel > 0.02) <= 12
    assert float(np.sum(m * rel) / np.sum(m)) <= 0.02
    inward = -np.sum(h * sphere4.vertices, axis=1)
    assert np.all(inward > 0)


def test_mean_curvature_circle():
    c = circle_mesh(4)
    hn = np.linalg.norm(mean_curvature(c), axis=1)
    assert np.max(np.abs(hn - 1.0)) <= 0.01
    toward_center = -np.sum(mean_curvature(c) * c.vertices, axis=1)
    assert np.all(toward_center > 0)


def test_mean_curvature_isolated_vertex():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]])
    v = DiscreteVarifold(verts, np.array([[0, 1, 2]]), np.array([1]),
                         np.zeros(4, dtype=bool))
    with pytest.raises(ValueError, match="isolated vertex"):
        mean_curvature(v)


def test_mean_curvature_boundary_vertex_without_face():
    # remesh keeps boundary vertices that lose every face; their h is an
    # exact +0.0, and the 0 / 0 behind it raises no warning
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]])
    v = DiscreteVarifold(verts, np.array([[0, 1, 2]]), np.array([1]),
                         np.array([False, False, True, True]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = mean_curvature(v)
    assert np.all(h[2:] == 0.0) and not np.any(np.signbit(h[2:]))
    assert np.all(np.isfinite(h)) and np.any(h[:2] != 0.0)


def test_first_variation_riesz_consistency(rng):
    fixtures = [icosphere(3), icosphere(4), square_sheet(2.0, 4),
                cylinder_tube(3), make_fixture("branched_disk", 2, 4, radius=1.0)]
    for v in fixtures:
        h = mean_curvature(v)
        m = vertex_masses(v)
        size = v.median_edge_length()
        for _ in range(4):
            g = random_test_field(rng, 3, radius=2.5)
            lhs = first_variation(v, g)
            rhs = -float(np.sum(m[:, None] * g.value_fn(v.vertices) * h))
            pts = v.vertices
            c1 = (np.linalg.norm(g.value_fn(pts), axis=1).max()
                  + np.linalg.norm(g.jacobian_fn(pts).reshape(len(pts), -1),
                                   axis=1).max())
            assert abs(lhs - rhs) <= RIESZ_BOUND * size * c1


def test_perpendicularity_defect_refinement():
    defects = []
    for level in (2, 3, 4):
        s = icosphere(level)
        defects.append(perpendicularity_defect(s, mean_curvature(s)))
    assert defects[2] < defects[0]
    assert defects[2] <= 0.01
    c = cylinder_tube(4)
    assert perpendicularity_defect(c, mean_curvature(c)) <= 0.1
    sq = square_sheet(2.0, 3)
    assert perpendicularity_defect(sq, mean_curvature(sq)) == 0.0


def test_weighted_first_variation_zero_h(flat_square):
    h = np.zeros_like(flat_square.vertices)
    one = lambda p: np.ones(len(p))
    zero_grad = lambda p: np.zeros_like(p)
    assert weighted_first_variation(flat_square, one, zero_grad, h) == 0.0


def test_weighted_first_variation_sphere(sphere4):
    # phi = 1 on a plateau containing the sphere: value is -int |h|^2
    from holeflow.kernels import make_profile
    prof = make_profile(0.3)

    def phi(p):
        return prof.value(np.linalg.norm(p, axis=1) / 2.0)

    def grad(p):
        r = np.linalg.norm(p, axis=1)
        out = np.zeros_like(p)
        nz = r > 0
        out[nz] = (prof.d1(r[nz] / 2.0) / (2.0 * r[nz]))[:, None] * p[nz]
        return out

    h = mean_curvature(sphere4)
    got = weighted_first_variation(sphere4, phi, grad, h)
    assert got == pytest.approx(-4.0 * 4.0 * np.pi, rel=0.05)


def test_weighted_first_variation_gradient_orthogonal_to_h():
    # tube h is radial; a z-only test function has gradient orthogonal to h
    tube = cylinder_tube(4)
    h = mean_curvature(tube)

    def phi(p):
        return np.exp(-p[:, 2] ** 2)

    def grad(p):
        out = np.zeros_like(p)
        out[:, 2] = -2.0 * p[:, 2] * np.exp(-p[:, 2] ** 2)
        return out

    got = weighted_first_variation(tube, phi, grad, h)
    expected = -weight_measure(
        tube, lambda p: np.exp(-p[:, 2] ** 2), 3)  # |h| = 1 on the unit tube
    assert got == pytest.approx(expected, rel=0.05)


def test_weighted_first_variation_perp_matches_on_smooth_mesh(sphere4, rng):
    # away from junctions the projected-gradient form agrees with the plain one
    h = mean_curvature(sphere4)
    g = random_test_field(rng, 3, radius=2.5)

    def phi(p):
        return np.sum(g.value_fn(p) ** 2, axis=1)

    def grad(p):
        val = g.value_fn(p)
        jac = g.jacobian_fn(p)
        return 2.0 * np.einsum("ma,mab->mb", val, jac)

    a = weighted_first_variation(sphere4, phi, grad, h)
    b = weighted_first_variation_perp(sphere4, phi, grad, h)
    assert b == pytest.approx(a, abs=5e-3 * (abs(a) + 1.0))


def test_parabolic_rescale_laws(sphere4):
    same = parabolic_rescale(sphere4, 1.0)
    assert np.array_equal(same.vertices, sphere4.vertices)
    half = parabolic_rescale(sphere4, 2.0)
    assert half.total_mass() == pytest.approx(sphere4.total_mass() / 4.0,
                                              rel=1e-12)
    pts, faces, rim = disk_triangulation(1.0, 3)
    disk = DiscreteVarifold(np.column_stack([pts, np.zeros(len(pts))]), faces,
                            np.ones(len(faces), dtype=np.int64), rim)
    quarter = parabolic_rescale(disk, 2.0)
    assert quarter.total_mass() == pytest.approx(disk.total_mass() / 4, rel=1e-12)
    back = parabolic_rescale(parabolic_rescale(sphere4, 1.7), 1 / 1.7)
    assert np.max(np.abs(back.vertices - sphere4.vertices)) <= 1e-12


def test_interpolate_vertex_field(sphere4):
    pts, bary, w = sphere4.quad_points(3)
    field = sphere4.vertices.copy()  # linear field: interpolation is exact
    interp = interpolate_vertex_field(sphere4, field, bary)
    assert np.max(np.abs(interp - pts)) <= 1e-12


def _direct_geometry(v):
    """The cached geometry recomputed with the direct formulas it replaced."""
    c = v.vertices[v.faces]
    tangents = None
    if v.surface_dim == 1:
        measures = np.linalg.norm(c[:, 1] - c[:, 0], axis=1)
        edges, altitudes, normals = measures, measures, None
        edge_lengths = measures[:, None]
        tangents = (c[:, 1] - c[:, 0]) / edge_lengths
    else:
        n = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        measures = 0.5 * np.linalg.norm(n, axis=1)
        normals = n / np.linalg.norm(n, axis=1, keepdims=True)
        per_edge = [np.linalg.norm(c[:, 1] - c[:, 0], axis=1),
                    np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                    np.linalg.norm(c[:, 0] - c[:, 2], axis=1)]
        edges = np.concatenate(per_edge)
        edge_lengths = np.stack(per_edge, axis=1)
        altitudes = 2.0 * measures / np.max(np.stack(per_edge), axis=0)
    contrib = v.multiplicity * measures / v.ambient_dim
    masses = np.bincount(v.faces.ravel(),
                         weights=np.repeat(contrib, v.ambient_dim),
                         minlength=v.num_vertices)
    return {"measures": measures, "normals": normals, "tangents": tangents,
            "edge_lengths": edge_lengths, "min_edge": float(np.min(edges)),
            "median_edge": float(np.median(edges)),
            "altitudes": altitudes, "masses": masses}


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
       repeat=st.integers(1, 3), cols=st.sampled_from([None, 1, 3]))
@example(values=[0.5], repeat=1, cols=None)
@example(values=[-0.0], repeat=1, cols=1)
@example(values=[0.25, 0.5], repeat=1, cols=None)
@example(values=[0.25, 0.5], repeat=1, cols=1)
def test_median_equals_np_median(values, repeat, cols):
    # repeats: an edge shared by two faces has the same length, bit for bit,
    # in both; cols 1 and 3 are the edge-length arrays of segment and
    # triangle meshes, filled cyclically with the values
    a = np.repeat(np.asarray(values), repeat)
    if cols is not None:
        a = np.resize(a, (-(-len(a) // cols), cols))
    _assert_same_bits(_median(a), float(np.median(a)))


def _assert_cached_geometry_matches(v):
    ref = _direct_geometry(v)
    _assert_same_bits(v.face_measures(), ref["measures"])
    if ref["normals"] is not None:
        _assert_same_bits(v._cache["normals"], ref["normals"])
    _assert_same_bits(v.min_edge_length(), ref["min_edge"])
    _assert_same_bits(v.median_edge_length(), ref["median_edge"])
    _assert_same_bits(v.face_altitudes(), ref["altitudes"])
    _assert_same_bits(vertex_masses(v), ref["masses"])


@pytest.fixture(scope="module")
def nucleated_stack():
    from holeflow.geom import coordinate_plane
    from holeflow.nucleation import nucleate
    v0 = make_fixture("perturbed_stack", 2, 3, radius=0.2, spacing=0.06)
    return nucleate(v0, coordinate_plane([0, 1], 3), 0.05)


@pytest.mark.parametrize("kind", ["circle", "sphere", "nucleated"])
def test_cached_geometry_equals_direct_formulas(kind, nucleated_stack):
    v = {"circle": lambda: circle_mesh(4),
         "sphere": lambda: icosphere(3),
         "nucleated": lambda: nucleated_stack}[kind]()
    _assert_cached_geometry_matches(v)


@pytest.mark.parametrize("kind", ["circle", "sphere", "nucleated"])
def test_face_pass_equals_independent_formulas(kind, nucleated_stack):
    # np.cross and the norm of each edge in column order 0-1, 1-2, 2-0, bit
    # for bit, from the helper and from the arrays a mesh builds with it
    v = {"circle": lambda: circle_mesh(4),
         "sphere": lambda: icosphere(2),
         "nucleated": lambda: nucleated_stack}[kind]()
    ref = _direct_geometry(v)
    keep = np.arange(v.num_faces) % 3 == 1
    _assert_same_bits(v.face_corners(), v.vertices[v.faces])
    _assert_same_bits(v.face_corners(keep), v.vertices[v.faces][keep])
    for rows in (_face_pass(v.vertices, v.faces), v._cache):
        _assert_same_bits(rows["measures"], ref["measures"])
        _assert_same_bits(rows["edge_lengths"], ref["edge_lengths"])
        if ref["normals"] is None:
            assert "normals" not in rows
            _assert_same_bits(rows["tangents"], ref["tangents"])
        else:
            assert "tangents" not in rows
            _assert_same_bits(rows["normals"], ref["normals"])


def _direct_gradient_terms(v):
    """(nf, d, corners) per-corner area-gradient terms from the direct
    formulas: 0.5 m (c_a - c_b) x normal for (a, b) in (1, 2), (2, 0),
    (0, 1) on triangles, -m t and m t on segments."""
    c = v.vertices[v.faces]
    m = v.multiplicity.astype(float)[:, None]
    if v.surface_dim == 1:
        e = c[:, 1] - c[:, 0]
        t = e / np.linalg.norm(e, axis=1, keepdims=True)
        per_corner = np.stack([-m * t, m * t], axis=1)
    else:
        n = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        nu = n / np.linalg.norm(n, axis=1, keepdims=True)
        per_corner = np.stack([0.5 * m * np.cross(c[:, a] - c[:, b], nu)
                               for a, b in [(1, 2), (2, 0), (0, 1)]], axis=1)
    return np.ascontiguousarray(per_corner.transpose(0, 2, 1))


@pytest.mark.parametrize("kind", ["circle", "sphere", "nucleated"])
@pytest.mark.parametrize("patched", [True, False])
def test_gradient_terms_equal_direct_formula(kind, patched, nucleated_stack):
    # the terms a flow's step workspace holds, patched in place or formed
    # in full, and those the helper forms, are the direct formula's bit for
    # bit, signed zeros included: the moves keep z, so the flat sheets of
    # the nucleated stack keep their zero z differences
    v = {"circle": lambda: circle_mesh(4),
         "sphere": lambda: icosphere(2),
         "nucleated": lambda: nucleated_stack}[kind]()
    rng = np.random.default_rng(7)
    ws = _StepWorkspace(v, v.median_edge_length())
    terms = ws.terms
    moved = np.flatnonzero(rng.random(v.num_vertices)
                           < (0.05 if patched else 1.0))
    jitter = 1e-3 * v.median_edge_length() * rng.uniform(-1.0, 1.0,
                                                         v.vertices.shape)
    jitter[:, 2:] = 0.0
    ws.vertices[moved] += jitter[moved]
    ws.refresh(moved)
    assert (ws.terms is terms) == patched
    child = DiscreteVarifold(ws.vertices.copy(), v.faces, v.multiplicity,
                             v.boundary)
    ref = _direct_gradient_terms(child)
    if kind == "nucleated":
        assert np.any((ref == 0.0) & np.signbit(ref))
    _assert_same_bits(ws.terms, ref)
    _assert_same_bits(_face_pass(child.vertices, child.faces,
                                 child.multiplicity)["corner_gradients"], ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), nf=st.integers(1, 40),
       nv=st.integers(3, 12))
def test_stacked_face_pass_equals_column_pass(seed, nf, nv):
    # the two forms of the face pass give the same bits: coordinates drawn
    # from a few values with both signed zeros, so edges, normals and terms
    # hit -0.0 and +0.0 and repeated corners give degenerate faces
    rng = np.random.default_rng(seed)
    verts = rng.choice([-0.0, 0.0, 0.5, -1.25, 3.0], size=(nv, 3))
    faces = np.array([rng.choice(nv, 3, replace=bool(k % 5 == 0))
                      for k in range(nf)], dtype=np.int64)
    mult = rng.integers(1, 4, nf)
    stacked = _stacked_face_pass(verts, faces, mult)
    column = _column_face_pass(verts, faces, mult)
    assert sorted(stacked) == sorted(column)
    for key, row in column.items():
        assert stacked[key].flags.c_contiguous, key
        _assert_same_bits(stacked[key], row)


def test_stacked_face_pass_keeps_signed_zeros(nucleated_stack):
    # the flat sheets of a nucleated stack give -0.0 terms and normal
    # components, which both forms keep
    v = nucleated_stack
    stacked, column = (form(v.vertices, v.faces, v.multiplicity)
                       for form in (_stacked_face_pass, _column_face_pass))
    for key in ("normals", "corner_gradients"):
        assert np.any((column[key] == 0.0) & np.signbit(column[key])), key
    for key, row in column.items():
        _assert_same_bits(stacked[key], row)


def test_face_pass_form_follows_face_count(monkeypatch):
    # the stacked form takes at most STACKED_PASS_FACES triangles, the
    # column form every other pass; the rows are the same either way
    v = icosphere(2)
    calls = []
    real = varifold._stacked_face_pass
    monkeypatch.setattr(varifold, "_stacked_face_pass",
                        lambda *a: calls.append(len(a[1])) or real(*a))
    for limit in (v.num_faces, v.num_faces - 1):
        monkeypatch.setattr(varifold, "STACKED_PASS_FACES", limit)
        rows = _face_pass(v.vertices, v.faces, v.multiplicity)
        _assert_same_bits(rows["normals"], v._cache["normals"])
    assert calls == [v.num_faces]


def test_meshes_compare_by_identity():
    v = icosphere(1)
    twin = DiscreteVarifold(v.vertices, v.faces, v.multiplicity, v.boundary)
    assert v == v and v != twin
    assert len({v, twin, v}) == 2


def test_with_vertices_recomputes_geometry():
    v = icosphere(2)
    _assert_cached_geometry_matches(v)
    child = v.with_vertices(v.vertices * [1.0, 1.0, 0.5])
    assert child._cache is not v._cache
    _assert_cached_geometry_matches(child)
    assert child.min_edge_length() != v.min_edge_length()
    assert not np.array_equal(vertex_masses(child), vertex_masses(v))


@pytest.mark.parametrize("kind", ["sphere", "nucleated"])
def test_mesh_is_never_written_after_construction(kind, monkeypatch):
    # every public reader leaves the cached rows' keys and bytes as
    # construction left them; no field can be reassigned and no array
    # written
    if kind == "sphere":
        v = icosphere(2)
    else:
        from holeflow.geom import coordinate_plane
        from holeflow.nucleation import nucleate
        v = nucleate(make_fixture("flat_stack", 2, 4, radius=0.2),
                     coordinate_plane([0, 1], 3), 0.05)
    rows = {key: row.tobytes() for key, row in v._cache.items()}
    v.total_mass()
    v.min_edge_length()
    v.median_edge_length()
    v.face_altitudes()
    v.face_projectors()
    v.quad_points(3, 2)
    vertex_masses(v)
    mean_curvature(v)
    area_gradient(v)
    assert {key: row.tobytes() for key, row in v._cache.items()} == rows
    for name in ("vertices", "faces", "multiplicity", "boundary", "_cache"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, getattr(v, name))
    with pytest.raises(TypeError):
        v._cache["measures"] = v.face_measures()
    for a in (v.vertices, v.faces, v.multiplicity, v.boundary,
              *v._cache.values()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]

    # nor is a mesh that the flow's step workspace hands out: a snapshot
    # taken before a remesh pass and the mesh the pass returns keep their
    # bytes across the updates that follow, which write the workspace's
    # rows in place (a pulled vertex) or rebuild them (the steps)
    returned, real = [], flow.remesh

    def spy(*args):
        out = real(*args)
        returned.append((out[0], _frozen(out[0])))
        return out

    monkeypatch.setattr(flow, "remesh", spy)
    ws = _StepWorkspace(v, v.median_edge_length())
    _pull_vertex(ws, v)
    before = ws.snapshot()
    frozen = _frozen(before)
    assert ws.remesh() != 0.0
    [(out, out_frozen)] = returned
    _pull_vertex(ws, out)
    for _ in range(3):
        ws.move(1e-3 * ws.e0**2)
    for mesh, bytes_ in ((before, frozen), (out, out_frozen)):
        _assert_unchanged(mesh, bytes_)
        for a in (mesh.vertices, *mesh._cache.values()):
            assert not a.flags.writeable


def _pull_vertex(ws, v):
    """Move an interior vertex of the workspace's mesh v most of the way to
    a neighbour, so that the next remesh pass collapses the short edge;
    returns the vertex."""
    i = int(np.flatnonzero(~v.boundary)[v.num_vertices // 3])
    j = next(int(k) for k in v.faces[np.any(v.faces == i, axis=1)][0]
             if k != i)
    ws.vertices[i] = 0.2 * v.vertices[i] + 0.8 * v.vertices[j]
    ws.refresh(np.array([i]))
    return i


@pytest.mark.parametrize("kind", ["circle", "sphere", "nucleated"])
def test_area_gradient_equals_summed_face_pass_terms(kind, nucleated_stack):
    # the reference is a second face pass with the multiplicities, whose
    # per-corner terms are summed per vertex in face order
    v = {"circle": lambda: circle_mesh(4),
         "sphere": lambda: icosphere(3),
         "nucleated": lambda: nucleated_stack}[kind]()
    terms = _face_pass(v.vertices, v.faces,
                       v.multiplicity)["corner_gradients"]
    ref = np.column_stack([np.bincount(v.faces.ravel(), row.ravel(),
                                       v.num_vertices)
                           for row in terms.transpose(1, 0, 2)])
    _assert_same_bits(area_gradient(v), ref)


def test_with_vertices_shares_read_only_topology():
    v = icosphere(2)
    child = v.with_vertices(v.vertices + 0.1)
    assert child.faces is v.faces
    assert child.multiplicity is v.multiplicity
    assert child.boundary is v.boundary
    for a in (child.vertices, child.faces, child.multiplicity, child.boundary,
              *child._cache.values()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def _assert_workspace_matches_fresh(ws):
    """Every array of the step workspace, and of a snapshot of it, is
    bitwise that of a mesh built fresh at its vertices; h, |h| and the step
    caps follow the flow's rest rule from the fresh mean curvature.  Every
    array is C-contiguous and equals that of a workspace built in full on
    the fresh mesh, and the faces it finds at random vertex sets are those
    with a corner in the set.  A row the snapshot holds is read-only in the
    workspace as well."""
    fresh = DiscreteVarifold(ws.vertices.copy(), ws.faces, ws.mult,
                             ws.boundary)
    h = mean_curvature(ws)
    assert h is ws.h
    ref_h = mean_curvature(fresh)
    ref_hn = np.linalg.norm(ref_h, axis=1)
    rest = ref_hn * ws.e0 <= REST_FLOOR
    ref_h[rest] = 0.0
    ref_hn[rest] = 0.0
    _assert_same_bits(h, ref_h)
    _assert_same_bits(ws.hn, ref_hn)
    if fresh.num_faces:
        face_h = np.max(ref_hn[fresh.faces], axis=1)
        _assert_same_bits(ws.min_edge, fresh.min_edge_length())
        # the median tests at thresholds on and next to the median
        edges = fresh._edge_lengths()
        mid = _median(edges)
        for x in (mid, np.nextafter(mid, 0.0), np.nextafter(mid, np.inf)):
            for pred in (lambda e: e >= x, lambda e: x < e):
                assert (_median_holds(ws.rows["edge_lengths"], pred)
                        == bool(pred(mid)))
        alt, active = fresh.face_altitudes(), face_h > 0.0
        with np.errstate(divide="ignore"):
            caps = np.minimum(ws.c_stab * alt**2, DISP_CAP * alt / face_h)
        _assert_same_bits(ws.alt, np.where(active, alt, np.inf))
        _assert_same_bits(ws.caps, np.where(active, caps, np.inf))
    _assert_same_bits(ws.masses, vertex_masses(fresh))
    _assert_same_bits(ws.mass_h2, vertex_masses(fresh) * ref_hn * ref_hn)
    _assert_same_bits(ws.gradient, area_gradient(fresh))
    _assert_same_bits(ws.terms, _direct_gradient_terms(fresh))
    _assert_same_bits(ws.face_mass,
                      fresh.multiplicity * fresh.face_measures())
    _assert_same_bits(ws.total_mass(), fresh.total_mass())
    built = _StepWorkspace(fresh, ws.e0, ws.c_stab)
    mean_curvature(built)
    arrays = {key: getattr(ws, key) for key in _WORKSPACE_ARRAYS}
    arrays.update({"row " + key: row for key, row in ws.rows.items()})
    assert sorted(ws.rows) == sorted(built.rows)
    for key, a in arrays.items():
        assert a.flags.c_contiguous, key
        ref = (built.rows[key[4:]] if key.startswith("row ")
               else getattr(built, key))
        _assert_same_bits(a, ref)
    rng = np.random.default_rng(ws.num_faces)
    nv = len(ws.vertices)
    for size in (0, 1, 3, nv // 10, nv // 2, nv):
        idx = np.sort(rng.choice(nv, size, replace=False))
        assert not ws._vertex_mark.any()
        _assert_same_bits(ws._faces_at(idx),
                          np.isin(ws.faces, idx).any(axis=1).nonzero()[0])
        assert not ws._vertex_mark.any()
    snap = ws.snapshot()
    rows = _face_pass(fresh.vertices, fresh.faces)
    assert sorted(snap._cache) == sorted(rows)
    for key, row in rows.items():
        _assert_same_bits(snap._cache[key], row)
        # the workspace copies a row a mesh holds before it writes it
        assert (not np.shares_memory(snap._cache[key], ws.rows[key])
                or not ws.rows[key].flags.writeable)
    assert not np.shares_memory(snap.vertices, ws.vertices)
    _assert_same_bits(snap.vertices, fresh.vertices)
    _assert_same_bits(vertex_masses(snap), vertex_masses(fresh))
    _assert_same_bits(snap.median_edge_length(), fresh.median_edge_length())
    _assert_same_bits(snap.face_altitudes(), fresh.face_altitudes())
    return snap


# the step workspace's arrays (its face rows aside)
_WORKSPACE_ARRAYS = ("vertices", "terms", "face_mass", "masses", "gradient",
                     "h", "hn", "mass_h2", "alt", "caps")


def _frozen(v):
    """Copies of every array a mesh holds, to check later that none moved."""
    return [a.copy() for a in (v.vertices, v.faces, v.multiplicity,
                               v.boundary, *v._cache.values())]


def _assert_unchanged(v, frozen):
    for a, b in zip(_frozen(v), frozen, strict=True):
        _assert_same_bits(a, b)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["sphere", "circle", "nucleated"]),
       seed=st.integers(0, 2**31 - 1), frac=st.floats(0.0, 0.1),
       masks=st.lists(st.sampled_from(["changed", "empty", "superset", "all",
                                       "remesh"]),
                      min_size=3, max_size=4))
def test_incremental_geometry_equals_fresh_build(kind, seed, frac, masks,
                                                 nucleated_stack):
    # a chain of updates of a flow's step workspace, each bitwise a fresh
    # build: moves patched in place, or rebuilt in full when most faces are
    # dirty, and remesh passes.  The snapshots taken along the chain keep
    # their bits while the workspace goes on.
    v = {"circle": lambda: circle_mesh(4),
         "sphere": lambda: icosphere(2),
         "nucleated": lambda: nucleated_stack}[kind]()
    rng = np.random.default_rng(seed)
    ws = _StepWorkspace(v, v.median_edge_length())
    snaps = [_assert_workspace_matches_fresh(ws)]
    for mask in masks:
        terms = ws.terms
        if mask == "remesh":
            faces = ws.faces
            snap = ws.snapshot()
            out, delta, _ = remesh(snap)
            _assert_same_bits(ws.remesh(), delta)
            assert (ws.faces is faces) == (out is snap)
            assert (ws.terms is terms) == (out is snap)
            # patched onto the mesh the pass returns; the check below
            # compares it with a workspace built on that mesh
            _assert_same_bits(ws.vertices, out.vertices)
            _assert_same_bits(ws.faces, out.faces)
        else:
            nv = len(ws.vertices)
            moved = rng.random(nv) < (0.0 if mask == "empty" else frac)
            jitter = 1e-3 * ws.e0 * rng.uniform(-1.0, 1.0,
                                                ws.vertices.shape)
            new = np.where(moved[:, None], ws.vertices + jitter, ws.vertices)
            changed = {"changed": moved, "empty": moved,
                       "superset": moved | (rng.random(nv) < 0.05),
                       "all": np.ones(nv, dtype=bool)}[mask]
            dirty = np.mean(np.any(changed[ws.faces], axis=1))
            ws.vertices[changed] = new[changed]
            ws.refresh(np.flatnonzero(changed))
            # patched rows are written in place; a full build replaces them
            assert (ws.terms is terms) == (dirty
                                           <= FRESH_BUILD_DIRTY_FRACTION)
        snap = _assert_workspace_matches_fresh(ws)
        snaps.append((snap, _frozen(snap)))
    for snap, frozen in snaps[1:]:
        _assert_unchanged(snap, frozen)


@pytest.mark.parametrize("kind", ["circle", "sphere"])
def test_workspace_chain_through_remesh(kind):
    # a vertex pulled most of the way to a neighbour leaves a short edge: the
    # next remesh pass collapses it and the workspace is built again on the
    # new mesh; the pass after that changes nothing and the workspace is
    # kept.  Every step, before and after, is bitwise a fresh build.
    v = circle_mesh(4) if kind == "circle" else icosphere(2)
    ws = _StepWorkspace(v, v.median_edge_length())
    _pull_vertex(ws, v)
    _assert_workspace_matches_fresh(ws)
    faces = ws.faces
    assert ws.remesh() != 0.0
    assert ws.faces is not faces
    assert ws.num_faces < v.num_faces
    _assert_workspace_matches_fresh(ws)
    for step in range(3):
        if step == 1:
            faces, terms = ws.faces, ws.terms
            assert ws.remesh() == 0.0
            assert ws.faces is faces and ws.terms is terms
        ws.move(1e-3 * ws.e0**2)
        _assert_workspace_matches_fresh(ws)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.4, 0.8))
def test_workspace_patch_on_jittered_sheets(seed, amp):
    # a sheet whose interior vertices move by up to amp grid spacings: the
    # pass collapses next to the rim and drops near-degenerate faces, some
    # of which it carried, so their corners lose a face and gain none
    sheet = square_sheet(2.0, 3)
    rng = np.random.default_rng(seed)
    verts = sheet.vertices.copy()
    inner = ~sheet.boundary
    verts[inner] += 0.25 * amp * rng.uniform(-1.0, 1.0, (inner.sum(), 3)) \
        * [1.0, 1.0, 0.3]
    try:
        v = sheet.with_vertices(verts)
    except ValueError:  # a jittered face came out degenerate
        return
    ws = _StepWorkspace(v, v.median_edge_length())
    ws.remesh()
    _assert_workspace_matches_fresh(ws)


def test_move_refreshes_signed_zeros_at_rest():
    # a resting vertex has h = +0.0, and x + dt * 0.0 turns its -0.0
    # coordinates into +0.0: the bits change although the value does not,
    # and the terms of its faces (0.5 m (c0 - c1) x normal) change sign
    sheet = square_sheet(2.0, 3)
    verts = sheet.vertices.copy()
    verts[np.flatnonzero(~sheet.boundary)[::2], 2] = -0.0
    v = DiscreteVarifold(verts, sheet.faces, sheet.multiplicity,
                         sheet.boundary)
    ws = _StepWorkspace(v, v.median_edge_length())
    assert not np.any(mean_curvature(ws))
    ws.move(1e-3)
    assert not np.any(np.signbit(ws.vertices[:, 2]))
    _assert_workspace_matches_fresh(ws)

    # a vertex that keeps a -0.0 coordinate while it moves (its h is -0.0
    # there) and then comes to rest is stepped once more, which turns it
    # into +0.0, although ``move`` adds only to the moving set: every step
    # leaves the vertices a full add x + dt * h gives
    sheet = square_sheet(2.0, 4)
    verts = sheet.vertices.copy()
    verts[verts == 0.0] = -0.0
    centre = int(np.argmin(np.linalg.norm(verts, axis=1)))
    verts[centre, 2] = 0.05
    v = DiscreteVarifold(verts, sheet.faces, sheet.multiplicity,
                         sheet.boundary)
    ws = _StepWorkspace(v, v.median_edge_length())
    h = mean_curvature(ws)
    active = np.flatnonzero(ws.hn)
    kept = [(j, k) for j in active if j != centre for k in range(3)
            if ws.vertices[j, k] == 0.0 and np.signbit(ws.vertices[j, k])
            and h[j, k] == 0.0 and np.signbit(h[j, k])]
    assert kept
    # small enough a set for ``move`` to add to it alone
    assert 2 * len(active) <= MOVING_SET_SHARE * len(ws.vertices)

    def step():
        want = ws.vertices + 1e-4 * mean_curvature(ws)
        ws.move(1e-4)
        _assert_same_bits(ws.vertices, want)
        _assert_workspace_matches_fresh(ws)

    step()  # the first step on a mesh adds to every vertex
    j, k = kept[0]
    assert np.signbit(ws.vertices[j, k])
    # the sheet, flattened but for that -0.0, comes to rest
    lifted = np.flatnonzero(ws.vertices[:, 2] != 0.0)
    ws.vertices[lifted, 2] = 0.0
    ws.refresh(lifted)
    assert not np.any(mean_curvature(ws))
    step()  # adds to the vertices that moved at the last step
    assert not np.signbit(ws.vertices[j, k])
    step()  # adds to none


def test_first_step_after_patched_remesh_adds_to_every_vertex():
    # the moving set is kept in the numbering of the mesh it was taken on,
    # so the first step after a remesh pass that changed the mesh, as the
    # first after a build, adds to every vertex: a resting vertex holding
    # -0.0 turns into +0.0 there, as in a full add x + dt * 0.0
    sheet = square_sheet(2.0, 5)
    verts = sheet.vertices.copy()
    centre = int(np.argmin(np.linalg.norm(verts, axis=1)))
    verts[centre, 2] = 0.05
    v = DiscreteVarifold(verts, sheet.faces, sheet.multiplicity,
                         sheet.boundary)
    ws = _StepWorkspace(v, v.median_edge_length())
    for _ in range(2):
        ws.move(1e-4)
    # small enough a set for ``move`` to add to it alone
    assert 2 * np.count_nonzero(ws.hn) <= MOVING_SET_SHARE * len(ws.hn)
    # far from the centre and from the pulled vertex
    far = np.flatnonzero(~ws.boundary & (ws.hn == 0.0)
                         & (ws.vertices[:, 0] < -0.5)
                         & (ws.vertices[:, 1] > 0.5))
    ws.vertices[far, 2] = -0.0
    ws.refresh(far)
    faces = ws.faces
    _pull_vertex(ws, v)
    ws.remesh()
    assert ws.faces is not faces
    h = mean_curvature(ws)
    assert np.any(np.signbit(ws.vertices[:, 2]) & (ws.hn == 0.0))
    want = ws.vertices + 1e-4 * h
    ws.move(1e-4)
    _assert_same_bits(ws.vertices, want)
    assert not np.any(np.signbit(ws.vertices[:, 2]) & (ws.hn == 0.0))
    _assert_workspace_matches_fresh(ws)


def test_workspace_keeps_the_mesh_checks():
    # the step workspace raises where a mesh built fresh would: on a
    # recomputed face whose measure is not positive, and on an interior
    # vertex with no face
    v = icosphere(2)
    ws = _StepWorkspace(v, v.median_edge_length())
    i, j = (int(k) for k in v.faces[0][:2])
    ws.vertices[i] = v.vertices[j]
    with pytest.raises(ValueError, match="degenerate face"):
        ws.refresh(np.array([i]))
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]])
    lonely = DiscreteVarifold(verts, np.array([[0, 1, 2]]), np.array([1]),
                              np.zeros(4, dtype=bool))
    with pytest.raises(ValueError, match="isolated vertex"):
        mean_curvature(_StepWorkspace(lonely, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=30),
       repeat=st.integers(1, 3), pick=st.integers(0, 10**6),
       scale=st.sampled_from([0.35, 1.0]), below=st.booleans())
def test_median_holds_equals_test_of_median(values, repeat, pick, scale,
                                            below):
    # thresholds at the entries themselves, where counting is most likely
    # to go wrong: the two middle entries of an even count and their mean
    a = np.repeat(np.asarray(values), repeat)
    cands = np.concatenate([a, [_median(a)], np.nextafter(a, 0.0)])
    x = float(cands[pick % len(cands)])
    pred = ((lambda e: e >= x) if below
            else (lambda e: x < scale * e))
    assert _median_holds(a, pred) == bool(pred(_median(a)))


def test_construction_leaves_caller_arrays_writeable():
    v = icosphere(2)
    verts = v.vertices.copy()
    child = v.with_vertices(verts)
    verts[0] = 0.0
    assert not np.array_equal(child.vertices[0], verts[0])
    faces = v.faces.copy()
    DiscreteVarifold(v.vertices, faces, v.multiplicity, v.boundary)
    faces[0] = faces[0]
