"""Quadrature rules on simplices (segments for n=1, triangles for n=2).

Rules are given in barycentric coordinates with weights summing to one, so
the integral over a face is  face_measure * sum_i w_i f(x_i).  Order q is
exact for polynomials of degree <= q; the triangle order-3 rule is the
6-point degree-4 rule, the segment order-2/3 rule is 2-point Gauss.

An optional uniform subdivision level refines each simplex into 2^s (edges)
or 4^s (triangles) congruent children for quadrature only; this sharpens
integrals of functions with sub-mesh features (cutoff transitions, ball and
cylinder indicators) without touching the mesh.
"""

from __future__ import annotations

import functools

import numpy as np

# degree-4 six-point triangle rule (two symmetric orbits)
_TRI6_A = 0.445948490915965
_TRI6_B = 0.091576213509771
_TRI6_WA = 0.223381589678011
_TRI6_WB = 0.109951743655322

_GAUSS2 = 0.5 - 0.5 / np.sqrt(3.0)

_RULES = {
    # (n, order) -> (bary (m, n+1), weights (m,))
    (1, 1): (np.array([[0.5, 0.5]]), np.array([1.0])),
    (1, 2): (np.array([[_GAUSS2, 1 - _GAUSS2], [1 - _GAUSS2, _GAUSS2]]),
             np.array([0.5, 0.5])),
    (2, 1): (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    (2, 2): (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
             np.array([1 / 3, 1 / 3, 1 / 3])),
    (2, 3): (np.array([
        [1 - 2 * _TRI6_A, _TRI6_A, _TRI6_A],
        [_TRI6_A, 1 - 2 * _TRI6_A, _TRI6_A],
        [_TRI6_A, _TRI6_A, 1 - 2 * _TRI6_A],
        [1 - 2 * _TRI6_B, _TRI6_B, _TRI6_B],
        [_TRI6_B, 1 - 2 * _TRI6_B, _TRI6_B],
        [_TRI6_B, _TRI6_B, 1 - 2 * _TRI6_B],
    ]), np.array([_TRI6_WA, _TRI6_WA, _TRI6_WA, _TRI6_WB, _TRI6_WB, _TRI6_WB])),
}
_RULES[(1, 3)] = _RULES[(1, 2)]


def _subdivide_segment(bary: np.ndarray, weights: np.ndarray, levels: int):
    for _ in range(levels):
        half0 = np.column_stack([0.5 + 0.5 * bary[:, 0], 0.5 * bary[:, 1]])
        half1 = np.column_stack([0.5 * bary[:, 0], 0.5 + 0.5 * bary[:, 1]])
        bary = np.vstack([half0, half1])
        weights = np.concatenate([weights, weights]) * 0.5
    return bary, weights


def _subdivide_triangle(bary: np.ndarray, weights: np.ndarray, levels: int):
    # corners of the four children of the reference triangle, in barycentric
    # coordinates of the parent
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    m01, m12, m02 = (e0 + e1) / 2, (e1 + e2) / 2, (e0 + e2) / 2
    children = [(e0, m01, m02), (m01, e1, m12), (m02, m12, e2), (m01, m12, m02)]
    for _ in range(levels):
        parts = []
        for c in children:
            corners = np.array(c)  # (3, 3): child corner -> parent bary
            parts.append(bary @ corners)
        bary = np.vstack(parts)
        weights = np.tile(weights, 4) * 0.25
    return bary, weights


@functools.lru_cache(maxsize=None)
def simplex_rule(n: int, order: int, subdiv: int = 0):
    """Cached, read-only barycentric points and weights for an n-simplex rule.

    order in {1, 2, 3}; subdiv >= 0 uniform refinement levels for quadrature.
    """
    if (n, order) not in _RULES:
        raise ValueError(f"no quadrature rule for n={n}, order={order}")
    bary, weights = _RULES[(n, order)]
    if subdiv:
        if n == 1:
            bary, weights = _subdivide_segment(bary, weights, subdiv)
        else:
            bary, weights = _subdivide_triangle(bary, weights, subdiv)
    bary.setflags(write=False)
    weights.setflags(write=False)
    return bary, weights
