import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holeflow import verify
from holeflow.geom import (Plane, coordinate_plane, grassmann_gap, make_plane,
                           operator_norm, random_plane, tangential_divergence)


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


def test_tangential_divergence_identity_and_zero():
    s = coordinate_plane([0, 1], 3)
    assert tangential_divergence(np.eye(3), s) == pytest.approx(2.0)
    assert tangential_divergence(np.zeros((3, 3)), s) == 0.0


def test_tangential_divergence_rank_one(rng):
    # J = u (x) v has div^S = S(v) . u; oracle is the explicit index sum
    s = random_plane(2, 3, rng)
    for _ in range(10):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        jac = np.outer(u, v)
        direct = sum(s.proj[i, j] * jac[i, j] for i in range(3) for j in range(3))
        assert tangential_divergence(jac, s) == pytest.approx(direct, abs=1e-14)
        assert tangential_divergence(jac, s) == pytest.approx(
            float(s.apply(v) @ u), abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**31 - 1))
def test_projection_inequalities_random(seed):
    ok, m = verify.grassmann(1, seed)
    assert ok, m
