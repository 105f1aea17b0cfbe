"""Euclidean and Grassmannian primitives.

Planes are stored as dense orthogonal projection matrices (the ambient
dimension is small).  The module also provides the five projection-operator
inequalities relating two planes (idempotence, trace gap, Hilbert-Schmidt vs
operator norm, and the two mixed-projection vector bounds) that the excess
estimates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Volume of the unit n-ball, used to normalize density ratios.
UNIT_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}


def column_norm(x: list) -> np.ndarray:
    """Euclidean norm from a list of 2 or 3 coordinate columns: the squares
    added in the order ``np.linalg.norm``'s ``np.add.reduce`` adds them over
    a last axis, so bitwise that norm."""
    s = x[0] * x[0]
    s += x[1] * x[1]
    if len(x) == 3:
        s += x[2] * x[2]
    return np.sqrt(s)


def norm_last(a) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)`` of a float array, bit for bit.

    A last axis of length 2 or 3 is read as coordinate columns
    (``column_norm``), which skips numpy's reduction machinery over a short
    axis; other lengths call the norm itself.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] not in (2, 3):
        return np.linalg.norm(a, axis=-1)
    return column_norm([a[..., i] for i in range(a.shape[-1])])


def dot_last(a, b) -> np.ndarray:
    """``np.sum(a * b, axis=-1)`` of float arrays of one shape, bit for bit.

    For a last axis of length 2 or 3 the column products are added in the
    reduction's order, starting from its identity +0.0 (so a sum of -0.0
    terms is +0.0); other lengths call the sum itself.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1] not in (2, 3):
        return np.sum(a * b, axis=-1)
    s = 0.0 + a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    return s if a.shape[-1] == 2 else s + a[..., 2] * b[..., 2]


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix (the spectral norm)."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


@dataclass(frozen=True)
class Plane:
    """A k-dimensional linear subspace of R^d, identified with its projector.

    Attributes
    ----------
    k : int
        Dimension of the subspace, 1 <= k <= d - 1 in all uses here.
    ambient_dim : int
        Dimension d of the ambient space.
    proj : np.ndarray
        (d, d) symmetric idempotent matrix projecting onto the subspace.
        The plane keeps its own read-only float copy of the given matrix.
    """

    k: int
    ambient_dim: int
    proj: np.ndarray

    def __post_init__(self):
        proj = np.array(self.proj, dtype=float)
        proj.setflags(write=False)
        object.__setattr__(self, "proj", proj)

    @property
    def perp(self) -> np.ndarray:
        """Projector onto the orthogonal complement."""
        return np.eye(self.ambient_dim) - self.proj

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Project points onto the plane; x has shape (..., d)."""
        return np.asarray(x) @ self.proj.T

    def apply_perp(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.perp.T

    def tangential_norm(self, x: np.ndarray) -> np.ndarray:
        """|P(x)| for points of shape (..., d)."""
        return norm_last(self.apply(x))

    def normal_norm(self, x: np.ndarray) -> np.ndarray:
        """|P_perp(x)|, the distance of x from the plane (for linear x)."""
        return norm_last(self.apply_perp(x))

    def unit_normal(self) -> np.ndarray:
        """A unit vector spanning the 1-d orthogonal complement.

        Only meaningful for hypersurface planes (k = ambient_dim - 1).
        Sign convention: largest-magnitude component is positive.
        """
        if self.k != self.ambient_dim - 1:
            raise ValueError("unit_normal requires a codimension-1 plane")
        w, vecs = np.linalg.eigh(self.perp)
        nu = vecs[:, np.argmax(w)]
        i = int(np.argmax(np.abs(nu)))
        if nu[i] < 0:
            nu = -nu
        return nu


def make_plane(basis) -> Plane:
    """Orthogonal projector onto the span of the given basis vectors.

    Raises ValueError("degenerate basis") when the vectors are linearly
    dependent (numerical rank below len(basis)).
    """
    b = np.array([np.asarray(v, dtype=float) for v in basis]).T  # (d, k)
    if b.ndim != 2 or b.shape[1] == 0:
        raise ValueError("degenerate basis")
    d, k = b.shape
    if k > d:
        raise ValueError("degenerate basis")
    q, r = np.linalg.qr(b)
    if np.min(np.abs(np.diag(r))) <= 1e-12 * max(1.0, np.max(np.abs(b))):
        raise ValueError("degenerate basis")
    proj = q @ q.T
    proj = 0.5 * (proj + proj.T)  # enforce exact symmetry
    return Plane(k=k, ambient_dim=d, proj=proj)


def coordinate_plane(axes, ambient_dim: int) -> Plane:
    """Plane spanned by the listed coordinate axes (exact 0/1 projector)."""
    proj = np.zeros((ambient_dim, ambient_dim))
    for i in axes:
        proj[i, i] = 1.0
    return Plane(k=len(axes), ambient_dim=ambient_dim, proj=proj)


def grassmann_gap(s: Plane, t: Plane) -> dict:
    """Gap quantities between two planes of equal dimension.

    Returns a dict with
      perp_dot   : S_perp . T  (= k - S . T, trace pairing)
      hs_norm_sq : (S - T) . (S - T), squared Hilbert-Schmidt norm
      op_norm    : ||S - T||, operator norm
    """
    if s.k != t.k or s.ambient_dim != t.ambient_dim:
        raise ValueError("plane dimension mismatch")
    diff = s.proj - t.proj
    perp_dot = float(np.sum(s.perp * t.proj))
    hs_norm_sq = float(np.sum(diff * diff))
    return {
        "perp_dot": perp_dot,
        "hs_norm_sq": hs_norm_sq,
        "op_norm": operator_norm(diff),
    }


def tangential_divergence(g_jacobian: np.ndarray, s: Plane) -> float:
    """div^S g = sum_ij S_ij dg_i/dx_j for a Jacobian J_ij = dg_i/dx_j."""
    return float(np.sum(np.asarray(g_jacobian) * s.proj))


def random_plane(k: int, ambient_dim: int, rng: np.random.Generator) -> Plane:
    """Random plane from orthonormalized Gaussian vectors (test sampling)."""
    while True:
        try:
            return make_plane(rng.standard_normal((k, ambient_dim)))
        except ValueError:
            continue
