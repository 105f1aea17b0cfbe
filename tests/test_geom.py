import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from holeflow import verify
from holeflow.geom import (Plane, coordinate_plane, dot_last, grassmann_gap,
                           make_plane, norm_last, operator_norm)


def gram_schmidt_projector(basis):
    """Independent construction of the orthogonal projector."""
    ortho = []
    for v in basis:
        w = np.array(v, dtype=float)
        for u in ortho:
            w = w - (w @ u) * u
        ortho.append(w / np.linalg.norm(w))
    return sum(np.outer(u, u) for u in ortho)


def test_coordinate_plane_projector():
    p = make_plane([[1, 0, 0], [0, 1, 0]])
    assert np.allclose(p.proj, np.diag([1.0, 1.0, 0.0]))


def test_make_plane_idempotent_symmetric():
    p = make_plane([[1, 0, 0], [0, 1, 1]])
    assert np.max(np.abs(p.proj @ p.proj - p.proj)) <= 1e-12
    assert np.max(np.abs(p.proj - p.proj.T)) <= 1e-12
    assert abs(np.trace(p.proj) - 2.0) <= 1e-12


def test_make_plane_matches_gram_schmidt():
    th = np.pi / 4
    basis = [[1, 0, 0], [0, np.cos(th), np.sin(th)]]
    p = make_plane(basis)
    assert abs(np.trace(p.proj) - 2.0) <= 1e-12
    assert np.max(np.abs(p.proj - gram_schmidt_projector(basis))) <= 1e-12


def test_make_plane_degenerate():
    with pytest.raises(ValueError, match="degenerate basis"):
        make_plane([[1, 0, 0], [2, 0, 0]])


def test_plane_construction_leaves_caller_proj_writeable():
    proj = np.diag([1.0, 1.0, 0.0])
    plane = Plane(2, 3, proj)
    proj[2, 2] = 1.0  # the caller's array stays its own
    assert plane.proj[2, 2] == 0.0
    assert not plane.proj.flags.writeable
    listed = Plane(2, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert listed.proj.dtype == float and not listed.proj.flags.writeable
    assert listed.normal_norm(np.array([3.0, 4.0, -2.0])) == 2.0


def test_operator_norm_matches_svd(rng):
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        assert abs(operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) <= 1e-9
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_gap_identical_planes():
    p = make_plane([[1, 0, 0], [0, 1, 0]])
    g = grassmann_gap(p, p)
    assert g["perp_dot"] == 0.0
    assert g["hs_norm_sq"] == 0.0
    assert g["op_norm"] == 0.0


def test_gap_coordinate_planes():
    s = coordinate_plane([0, 2], 3)  # xz
    t = coordinate_plane([0, 1], 3)  # xy
    g = grassmann_gap(s, t)
    assert abs(g["perp_dot"] - 1.0) <= 1e-14  # k - S.T = 2 - 1


@pytest.mark.parametrize("th", [0.1, 0.5, np.pi / 4, 1.2])
def test_gap_rotated_plane(th):
    # rotating the xy-plane about e1 by th: S_perp . T = sin^2(th), derived
    # from the trace of the product of the two projectors
    s = make_plane([[1, 0, 0], [0, np.cos(th), np.sin(th)]])
    t = coordinate_plane([0, 1], 3)
    g = grassmann_gap(s, t)
    assert abs(g["perp_dot"] - np.sin(th) ** 2) <= 1e-12
    assert abs(g["op_norm"] - abs(np.sin(th))) <= 1e-9


def test_gap_dimension_mismatch():
    s = coordinate_plane([0], 3)
    t = coordinate_plane([0, 1], 3)
    with pytest.raises(ValueError):
        grassmann_gap(s, t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_projection_inequalities_random(seed):
    ok, m = verify.grassmann(1, seed)
    assert ok, m


# signed zeros, subnormals, and magnitudes whose squares overflow to inf
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                               -1e-160, 1e155, -1e200, 1.7e308, -1.7e308])
COORDS = st.one_of(st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False),
                   EDGE_FLOATS)
COLUMN_SHAPES = st.one_of(
    st.tuples(st.integers(0, 9), st.sampled_from([2, 3])),
    st.tuples(st.integers(1, 4), st.integers(1, 5), st.just(3)),
    st.tuples(st.sampled_from([2, 3])),
    st.tuples(st.integers(1, 5), st.sampled_from([1, 4])))  # the fallback


def same_bits(a, b) -> bool:
    """Bitwise equality of float arrays or scalars, any NaN matching NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.int64),
                                   b[~nan].view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=COLUMN_SHAPES)
def test_column_helpers_equal_reductions_bitwise(data, shape):
    a = data.draw(hnp.arrays(np.float64, shape, elements=COORDS))
    b = data.draw(hnp.arrays(np.float64, shape, elements=COORDS))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert same_bits(norm_last(a), np.linalg.norm(a, axis=-1))
        assert same_bits(dot_last(a, b), np.sum(a * b, axis=-1))
        assert same_bits(dot_last(a, a), np.sum(a * a, axis=-1))
        if a.ndim == 1:  # one point gives a scalar, as the reductions do
            assert np.ndim(norm_last(a)) == 0 == np.ndim(dot_last(a, b))


@pytest.mark.parametrize("shape", [(5000, 2), (5000, 3), (40, 96, 3)])
def test_column_helpers_equal_reductions_on_random_points(shape):
    # comparable magnitudes, where the order of the additions shows
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    assert same_bits(norm_last(a), np.linalg.norm(a, axis=-1))
    assert same_bits(dot_last(a, b), np.sum(a * b, axis=-1))


def test_dot_of_negative_zero_terms_is_positive_zero():
    a = np.array([[-0.0, 0.0, -0.0], [1.0, -1.0, -0.0]])
    b = np.array([[1.0, -1.0, 2.0], [0.0, 0.0, 1.0]])
    got = dot_last(a, b)
    assert same_bits(got, np.sum(a * b, axis=-1))
    assert not np.any(np.signbit(got))
