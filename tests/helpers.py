"""Meshes, test functions and diagnostics that only the tests use.

- Compactly supported smooth test functions with analytic derivatives,
  built from the standard bump  exp(1 - 1/(1 - rho^2))  of the normalized
  squared distance rho = |x - c| / r, so values, gradients and Jacobians
  are exact (the tests difference them to validate the formulas).
- A flat square sheet, a unit circle and a unit tube, beside the library's
  disk stacks and spheres.
- The perpendicularity defect of a discrete mean curvature field.

Pytest puts this directory on ``sys.path``, so test modules and
``conftest.py`` import it as ``helpers``.
"""

from __future__ import annotations

import numpy as np

from holeflow.geom import dot_last
from holeflow.kernels import make_profile, radial_cutoff
from holeflow.varifold import (DiscreteVarifold, ScalarTest, TestField,
                               _scatter_add)


def _bump_and_gradient(points: np.ndarray, center: np.ndarray, radius: float):
    dx = np.asarray(points, dtype=float) - center
    rho_sq = dot_last(dx, dx) / radius**2
    w = 1.0 - rho_sq
    val = np.zeros_like(rho_sq)
    grad = np.zeros_like(dx)
    pos = w > 1e-12
    with np.errstate(under="ignore"):
        val[pos] = np.exp(1.0 - 1.0 / w[pos])
    grad[pos] = val[pos, None] * (-2.0 * dx[pos] / (radius**2 * w[pos, None] ** 2))
    return val, grad


def bump_test_field(center, radius: float, matrix, offset) -> TestField:
    """g(x) = bump(x) * (A (x - c) + b), with exact Jacobian."""
    center = np.asarray(center, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float)

    def value(p):
        val, _ = _bump_and_gradient(p, center, radius)
        lin = (p - center) @ matrix.T + offset
        return val[:, None] * lin

    def jacobian(p):
        val, grad = _bump_and_gradient(p, center, radius)
        lin = (p - center) @ matrix.T + offset
        return lin[:, :, None] * grad[:, None, :] + val[:, None, None] * matrix

    return TestField(value_fn=value, jacobian_fn=jacobian)


def random_test_field(rng: np.random.Generator, dim: int,
                      radius: float = 1.0) -> TestField:
    """Bump field at the origin with a random affine part."""
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal(dim)
    return bump_test_field(np.zeros(dim), radius, a, b)


def plateau_test_field(center, radius: float, zeta: float, matrix,
                       offset) -> TestField:
    """g(x) = chi(|x - c|/R) * (A (x - c) + b) with chi = 1 inside (1-zeta)R.

    Exactly equals the affine field on the plateau, so first-variation
    identities for surfaces inside the plateau hold without cutoff error.
    """
    center = np.asarray(center, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    offset = np.asarray(offset, dtype=float)
    prof = make_profile(zeta)

    def value(p):
        _, chi, _ = radial_cutoff(prof, p - center, radius)
        lin = (p - center) @ matrix.T + offset
        return chi[:, None] * lin

    def jacobian(p):
        _, chi, grad = radial_cutoff(prof, p - center, radius)
        lin = (p - center) @ matrix.T + offset
        return lin[:, :, None] * grad[:, None, :] + chi[:, None, None] * matrix

    return TestField(value_fn=value, jacobian_fn=jacobian)


def bump_scalar_test(center, radius: float, base: float,
                     slope: float) -> ScalarTest:
    """phi(x, t) = bump(x) * (base + slope * t); caller keeps it nonnegative."""
    center = np.asarray(center, dtype=float)

    def value(p, t):
        val, _ = _bump_and_gradient(p, center, radius)
        return val * (base + slope * t)

    def gradient(p, t):
        _, grad = _bump_and_gradient(p, center, radius)
        return grad * (base + slope * t)

    def time_derivative(p, t):
        val, _ = _bump_and_gradient(p, center, radius)
        return val * slope

    return ScalarTest(value_fn=value, gradient_fn=gradient,
                      time_derivative_fn=time_derivative)


def random_scalar_test(rng: np.random.Generator, dim: int,
                       span: tuple = (0.0, 1.0),
                       radius: float = 2.0) -> ScalarTest:
    """Random bump scalar test at the origin, nonnegative on the given time
    span."""
    base = rng.uniform(0.5, 2.0)
    worst = max(abs(span[0]), abs(span[1]))
    slope_cap = 0.9 * base / worst if worst > 0 else 1.0
    slope = rng.uniform(-slope_cap, slope_cap)
    return bump_scalar_test(np.zeros(dim), radius, base, slope)


def square_sheet(side: float, level: int, height: float = 0.0) -> DiscreteVarifold:
    """Flat square patch [-side/2, side/2]^2 x {height}, rim fixed."""
    m = 2 ** level
    xs = np.linspace(-side / 2, side / 2, m + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(),
                             np.full((m + 1) ** 2, float(height))])
    faces = []
    for i in range(m):
        for j in range(m):
            a = i * (m + 1) + j
            b = a + 1
            c = a + (m + 1)
            d = c + 1
            faces.append((a, b, c))
            faces.append((b, d, c))
    bnd = (np.abs(np.abs(verts[:, 0]) - side / 2) < 1e-15) | \
          (np.abs(np.abs(verts[:, 1]) - side / 2) < 1e-15)
    f = np.asarray(faces, dtype=np.int64)
    return DiscreteVarifold(verts, f, np.ones(len(f), dtype=np.int64), bnd)


def circle_mesh(level: int) -> DiscreteVarifold:
    """Closed polygon in R^2 approximating the unit circle (n = 1)."""
    n = 6 * 2 ** level
    ang = 2.0 * np.pi * np.arange(n) / n
    verts = np.column_stack([np.cos(ang), np.sin(ang)])
    faces = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    return DiscreteVarifold(verts, faces, np.ones(n, dtype=np.int64),
                            np.zeros(n, dtype=bool))


def cylinder_tube(level: int) -> DiscreteVarifold:
    """Unit tube around the z-axis over z in [-1, 1], with fixed end rings."""
    seg = 6 * 2 ** level
    rows = 2 ** level + 1
    zs = np.linspace(-1.0, 1.0, rows)
    ang = 2.0 * np.pi * np.arange(seg) / seg
    verts = []
    for z in zs:
        verts.append(np.column_stack([np.cos(ang), np.sin(ang),
                                      np.full(seg, z)]))
    verts = np.vstack(verts)
    faces = []
    for i in range(rows - 1):
        for j in range(seg):
            a = i * seg + j
            b = i * seg + (j + 1) % seg
            c = a + seg
            d = b + seg
            faces.append((a, b, c))
            faces.append((b, d, c))
    bnd = np.zeros(len(verts), dtype=bool)
    bnd[:seg] = True
    bnd[-seg:] = True
    f = np.asarray(faces, dtype=np.int64)
    return DiscreteVarifold(verts, f, np.ones(len(f), dtype=np.int64), bnd)


def vertex_projectors(v: DiscreteVarifold) -> np.ndarray:
    """Averaged tangent projector per vertex.

    Mass-weighted mean of adjacent face projectors, re-projected to the
    nearest rank-n orthogonal projector via eigendecomposition.
    """
    d = v.ambient_dim
    fw = v.multiplicity * v.face_measures()
    idx = v.faces.ravel()
    wfp = np.repeat(fw[:, None, None] * v.face_projectors(), d, axis=0)
    acc = np.zeros((v.num_vertices, d, d))
    for a in range(d):
        for b in range(d):
            acc[:, a, b] = _scatter_add(idx, wfp[:, a, b], v.num_vertices)
    wsum = _scatter_add(idx, np.repeat(fw, d), v.num_vertices)
    out = np.zeros_like(acc)
    ok = wsum > 0
    acc[ok] /= wsum[ok, None, None]
    vecs = np.linalg.eigh(acc[ok]).eigenvectors
    # top n eigenvectors span the averaged tangent plane
    top = vecs[:, :, 1:]  # eigh sorts ascending; keep largest d-1 = n
    out[ok] = np.einsum("vik,vjk->vij", top, top)
    return out


def perpendicularity_defect(v: DiscreteVarifold, h_field: np.ndarray) -> float:
    """max over vertices of |S(h)| / (|h| + 1e-30), S the averaged vertex
    tangent.

    Diagnostic for the perpendicularity of the discrete mean curvature;
    exact schemes would give 0, discrete ones converge under refinement.
    """
    proj = vertex_projectors(v)
    tang = np.einsum("vij,vj->vi", proj, h_field)
    num = np.linalg.norm(tang, axis=1)
    den = np.linalg.norm(h_field, axis=1) + 1e-30
    return float(np.max(num / den)) if len(num) else 0.0
