"""Compactly supported smooth test functions with analytic derivatives.

Built from the standard bump  exp(1 - 1/(1 - rho^2))  of the normalized
squared distance rho = |x - c| / r, so values, gradients, and Jacobians are
exact (no finite differencing in the library; tests difference them to
validate the formulas).
"""

from __future__ import annotations

import numpy as np

from .geom import dot_last
from .kernels import make_profile, radial_cutoff
from .varifold import ScalarTest, TestField


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
                      center=None, radius: float = 1.0) -> TestField:
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    a = rng.standard_normal((dim, dim))
    b = rng.standard_normal(dim)
    return bump_test_field(center, radius, a, b)


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
                       span: tuple = (0.0, 1.0), radius: float = 2.0,
                       center=None) -> ScalarTest:
    """Random bump scalar test, nonnegative on the given time span."""
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    base = rng.uniform(0.5, 2.0)
    worst = max(abs(span[0]), abs(span[1]))
    slope_cap = 0.9 * base / worst if worst > 0 else 1.0
    slope = rng.uniform(-slope_cap, slope_cap)
    return bump_scalar_test(center, radius, base, slope)
