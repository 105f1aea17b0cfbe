import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holeflow.fixtures import (circle_mesh, cylinder_tube, disk_triangulation,
                               icosphere, make_fixture, square_sheet)
from holeflow.varifold import (FRESH_BUILD_DIRTY_FRACTION, DiscreteVarifold,
                               area_gradient, density_ratio, first_variation,
                               interpolate_vertex_field, mean_curvature,
                               parabolic_rescale, perpendicularity_defect,
                               vertex_masses, weight_measure,
                               weighted_first_variation,
                               weighted_first_variation_perp)
from holeflow.testfunctions import (bump_test_field, plateau_test_field,
                                    random_test_field)

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
    if v.surface_dim == 1:
        measures = np.linalg.norm(c[:, 1] - c[:, 0], axis=1)
        edges, altitudes, normals = measures, measures, None
    else:
        n = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        measures = 0.5 * np.linalg.norm(n, axis=1)
        normals = n / np.linalg.norm(n, axis=1, keepdims=True)
        per_edge = [np.linalg.norm(c[:, 1] - c[:, 0], axis=1),
                    np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                    np.linalg.norm(c[:, 0] - c[:, 2], axis=1)]
        edges = np.concatenate(per_edge)
        altitudes = 2.0 * measures / np.max(np.stack(per_edge), axis=0)
    contrib = v.multiplicity * measures / v.ambient_dim
    masses = np.bincount(v.faces.ravel(),
                         weights=np.repeat(contrib, v.ambient_dim),
                         minlength=v.num_vertices)
    return {"measures": measures, "normals": normals,
            "min_edge": float(np.min(edges)),
            "median_edge": float(np.median(edges)),
            "altitudes": altitudes, "masses": masses}


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_cached_geometry_matches(v):
    ref = _direct_geometry(v)
    # twice: the first call fills the cache, the second reads it
    for _ in range(2):
        _assert_same_bits(v.face_measures(), ref["measures"])
        if ref["normals"] is not None:
            _assert_same_bits(v.face_normals(), ref["normals"])
        _assert_same_bits(v.min_edge_length(), ref["min_edge"])
        _assert_same_bits(v.median_edge_length(), ref["median_edge"])
        _assert_same_bits(v.face_altitudes(), ref["altitudes"])
        keep = np.arange(v.num_faces) % 3 == 1
        _assert_same_bits(v.face_altitudes(keep), ref["altitudes"][keep])
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


def test_with_vertices_recomputes_geometry():
    v = icosphere(2)
    _assert_cached_geometry_matches(v)
    child = v.with_vertices(v.vertices * [1.0, 1.0, 0.5])
    assert child._cache is not v._cache
    _assert_cached_geometry_matches(child)
    assert child.min_edge_length() != v.min_edge_length()
    assert not np.array_equal(vertex_masses(child), vertex_masses(v))


def test_with_vertices_shares_read_only_topology():
    v = icosphere(2)
    child = v.with_vertices(v.vertices + 0.1)
    assert child.faces is v.faces
    assert child.multiplicity is v.multiplicity
    assert child.boundary is v.boundary
    for a in (child.vertices, child.faces, child.multiplicity, child.boundary,
              vertex_masses(child)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def _step_parent(v):
    """v as a flow step holds it: patched from a copy of itself, so with
    its per-corner area-gradient terms, and with its edge lengths cached."""
    p = v.with_vertices(v.vertices, np.zeros(v.num_vertices, dtype=bool))
    p.median_edge_length()
    return p


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["sphere", "circle", "nucleated"]),
       seed=st.integers(0, 2**31 - 1), frac=st.floats(0.0, 0.1),
       masks=st.lists(st.sampled_from(["changed", "empty", "superset", "all"]),
                      min_size=3, max_size=3),
       drop=st.integers(0, 3))
def test_incremental_geometry_equals_fresh_build(kind, seed, frac, masks, drop,
                                                 nucleated_stack):
    # a chain of steps, each bitwise a fresh build; before step `drop` (none
    # when 3) the parent drops its gradient terms, as a recorded snapshot
    # does.  The terms are patched in place, so a parent must give them up:
    # its area gradient may not change once its child exists.
    v = {"circle": lambda: circle_mesh(4),
         "sphere": lambda: icosphere(2),
         "nucleated": lambda: nucleated_stack}[kind]()
    rng = np.random.default_rng(seed)
    parent = _step_parent(v)
    for step, mask in enumerate(masks):
        if step == drop:
            parent._leave_step_chain()
        moved = rng.random(v.num_vertices) < (0.0 if mask == "empty" else frac)
        jitter = 1e-3 * v.median_edge_length() * rng.uniform(
            -1.0, 1.0, v.vertices.shape)
        new = np.where(moved[:, None], parent.vertices + jitter,
                       parent.vertices)
        changed = {"changed": moved, "empty": moved,
                   "superset": moved | (rng.random(v.num_vertices) < 0.05),
                   "all": np.ones(v.num_vertices, dtype=bool)}[mask]
        before = area_gradient(parent)
        child = parent.with_vertices(new, changed)
        assert "corner_gradients" not in parent._cache
        assert "altitudes" not in parent._cache
        _assert_same_bits(area_gradient(parent), before)
        patched = (np.mean(np.any(changed[v.faces], axis=1))
                   <= FRESH_BUILD_DIRTY_FRACTION)
        # only a copied cache holds edge lengths before they are asked for
        assert ("edge_lengths" in child._cache) == patched

        fresh = DiscreteVarifold(new, v.faces, v.multiplicity, v.boundary)
        _assert_same_bits(child.face_corners(), fresh.face_corners())
        _assert_same_bits(child.face_measures(), fresh.face_measures())
        if v.surface_dim == 2:
            _assert_same_bits(child.face_normals(), fresh.face_normals())
        _assert_same_bits(child._edge_lengths(), fresh._edge_lengths())
        _assert_same_bits(child.min_edge_length(), fresh.min_edge_length())
        _assert_same_bits(child.median_edge_length(),
                          fresh.median_edge_length())
        _assert_same_bits(child.face_altitudes(), fresh.face_altitudes())
        _assert_same_bits(vertex_masses(child), vertex_masses(fresh))
        _assert_same_bits(area_gradient(child), area_gradient(fresh))
        _assert_same_bits(mean_curvature(child), mean_curvature(fresh))
        # a patched step holds the gradient terms for the next; a mesh
        # built fresh does not, and area_gradient stores none
        assert ("corner_gradients" in child._cache) == patched
        assert "corner_gradients" not in fresh._cache
        parent = child


def test_construction_leaves_caller_arrays_writeable():
    v = icosphere(2)
    verts = v.vertices.copy()
    child = v.with_vertices(verts)
    verts[0] = 0.0
    assert not np.array_equal(child.vertices[0], verts[0])
    faces = v.faces.copy()
    DiscreteVarifold(v.vertices, faces, v.multiplicity, v.boundary)
    faces[0] = faces[0]
