"""Hole nucleation: slow-growth envelope, squash map, and mesh surgery.

The squash map collapses the slab {|x_N| <= delta/2} of the unit cylinder
onto the reference plane, stretches the bands delta/2 <= |x_N| <= delta by a
factor of two, interpolates through a double cone over the annulus
1 <= |x'| <= 1 + delta, and is the identity outside.  Its Lipschitz constant
is 2.  Nucleation applies the map at scale eps and merges the sheets that
land on the plane into a single multiplicity-one sheet: the "hole".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import UNIT_BALL_VOLUME, Plane, norm_last
from .varifold import (MEASUREMENT_SUBDIV, DiscreteVarifold, _corner_max,
                       _faces_reaching, ball_mass, compact, weight_measure)

HEIGHT_BOUND_FRACTION = 1.0 / 20.0  # admissible height inside U_2 at unit scale
MERGE_TOL = 1e-9  # coincidence tolerance, relative to eps


@dataclass(frozen=True)
class GrowthEnvelope:
    """Radial envelope s -> s / log(1/s)^alpha, alpha > 1/2."""

    alpha: float
    r0: float

    def __post_init__(self):
        if self.alpha <= 0.5:
            raise ValueError("envelope exponent must exceed 1/2")
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("r0 must lie in (0, 1)")


def envelope_value(e: GrowthEnvelope, s):
    """g(s) = s * log(1/s)^(-alpha) for 0 < s < 1; g(0) = 0 by continuity."""
    s = np.asarray(s, dtype=float)
    if np.any(s >= 1.0) or np.any(s < 0.0):
        raise ValueError("envelope defined for 0 <= s < 1")
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = s[pos] * np.log(1.0 / s[pos]) ** (-e.alpha)
    return out if out.ndim else float(out)


def envelope_check(v: DiscreteVarifold, e: GrowthEnvelope, t_plane: Plane):
    """Check every vertex in C(T,0,r0) with |x_N| < r0 against the envelope,
    r0 the envelope's own.

    Returns (ok, worst_excess); excess is max(|x_N| - g(|x'|), 0) over the
    checked region.
    """
    r0 = e.r0
    tang = t_plane.tangential_norm(v.vertices)
    norm = t_plane.normal_norm(v.vertices)
    region = (tang < r0) & (norm < r0)
    if not np.any(region):
        return True, 0.0
    g = envelope_value(e, tang[region])
    excess = float(np.max(norm[region] - g))
    return excess <= 0.0, max(excess, 0.0)


@dataclass(frozen=True)
class SquashMap:
    """Piecewise collapse of the unit-cylinder slab onto the plane."""

    delta: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def squash_points(m: SquashMap, t_plane: Plane, x: np.ndarray) -> np.ndarray:
    """Apply the squash map to points of shape (k, d).

    Points outside the affected region are returned bitwise unchanged.
    Works for hypersurface planes (codimension 1) through the signed normal
    coordinate; the map is odd in that coordinate.
    """
    x = np.asarray(x, dtype=float)
    nu = t_plane.unit_normal()
    d = m.delta
    h = x @ nu
    xt = x - h[:, None] * nu[None, :]
    r = np.linalg.norm(xt, axis=1)

    new_h = h.copy()
    ah = np.abs(h)
    sgn = np.sign(h)

    cyl = (r <= 1.0) & (ah < d)
    flat = cyl & (ah <= d / 2.0)
    stretch = cyl & (ah > d / 2.0)
    new_h[flat] = 0.0
    new_h[stretch] = sgn[stretch] * (2.0 * ah[stretch] - d)

    ann = (r > 1.0) & (r <= 1.0 + d) & (ah < d)
    a = r - 1.0
    cone = ann & (ah > a) & (ah <= a / 2.0 + d / 2.0)
    band = ann & (ah > a / 2.0 + d / 2.0)
    new_h[cone] = sgn[cone] * a[cone]
    new_h[band] = sgn[band] * (2.0 * ah[band] - d)

    changed = new_h != h
    out = x.copy()
    out[changed] = xt[changed] + new_h[changed, None] * nu[None, :]
    return out


def validate_nucleation_scale(v: DiscreteVarifold, t_plane: Plane,
                              eps: float) -> None:
    """Height-bound precondition: inside U_2eps the surface stays within
    eps/20 of the plane; otherwise eps is too large for the surgery."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    near = np.linalg.norm(v.vertices, axis=1) < 2.0 * eps
    if not np.any(near):
        return
    height = t_plane.normal_norm(v.vertices[near])
    worst = float(np.max(height))
    if worst > HEIGHT_BOUND_FRACTION * eps * (1.0 + 1e-12):
        raise ValueError(
            "nucleation height bound violated: surface reaches "
            f"{worst:.3e} > eps/20 = {HEIGHT_BOUND_FRACTION * eps:.3e} "
            "inside U_2eps; choose a smaller eps")


def nucleate(v: DiscreteVarifold, t_plane: Plane, eps: float,
             m: SquashMap | None = None) -> DiscreteVarifold:
    """Open a hole of scale eps at the origin.

    Vertices are mapped by x -> eps * squash(x / eps).  Faces that land on
    the plane inside the unit cylinder (at scale eps) and coincide with
    another such face are merged into a single multiplicity-one face; the
    collapsed central sheet always carries multiplicity one.  The mesh
    outside U_2eps is untouched.
    """
    m = m or SquashMap()
    validate_nucleation_scale(v, t_plane, eps)
    scaled = v.vertices / eps
    squashed = squash_points(m, t_plane, scaled)
    changed = np.any(squashed != scaled, axis=1)
    new_verts = v.vertices.copy()
    new_verts[changed] = eps * squashed[changed]

    tol = MERGE_TOL * eps
    tang = t_plane.tangential_norm(new_verts)
    norm = t_plane.normal_norm(new_verts)
    on_plane = norm <= tol
    in_cyl = tang <= eps * (1.0 + MERGE_TOL)
    face_collapsed = np.all((on_plane & in_cyl)[v.faces], axis=1)

    keep = np.ones(v.num_faces, dtype=bool)
    mult = v.multiplicity.copy()
    fis = np.flatnonzero(face_collapsed)
    if len(fis):
        # a face's key is its corners on the tol grid, as a sorted triple of
        # their ranks among all collapsed corners; the first face of each
        # key is kept, and the hole sheet carries multiplicity one
        d = v.ambient_dim
        grid = np.round(new_verts[v.faces[fis]] / tol).astype(np.int64)
        rank = np.unique(grid.reshape(-1, d), axis=0, return_inverse=True)[1]
        keys = np.sort(rank.reshape(-1, d), axis=1)
        first = fis[np.unique(keys, axis=0, return_index=True)[1]]
        keep[fis] = False
        keep[first] = True
        mult[first] = 1

    return compact(new_verts, v.faces[keep], mult[keep], v.boundary)


def _outside_signature(v: DiscreteVarifold, radius: float):
    """Multisets describing the mesh outside the closed ball of given
    radius, as arrays of rows in lexicographic order: the vertices outside
    it, and per face with a corner outside it the face's corners in
    lexicographic order followed by its multiplicity.  Two meshes agree
    outside the ball when ``_same_signature`` holds for their signatures."""
    d = v.ambient_dim
    outside = norm_last(v.vertices) > radius
    far = _corner_max(outside, v.faces)
    corners = v.face_corners(far).reshape(-1, d)
    owner = np.repeat(np.arange(len(corners) // d), d)
    corners = corners[np.lexsort((*corners.T[::-1], owner))]
    faces = np.column_stack([corners.reshape(-1, d * d), v.multiplicity[far]])
    return _lex_rows(v.vertices[outside]), _lex_rows(faces)


def _lex_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array in lexicographic order (stable)."""
    return a[np.lexsort(a.T[::-1])]


def _same_signature(a, b) -> bool:
    """Equal multisets: equal row counts and equal values, so -0.0 == 0.0."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def verify_nucleation(v_before: DiscreteVarifold, v_after: DiscreteVarifold,
                      t_plane: Plane, eps: float, e: GrowthEnvelope,
                      q: int) -> dict:
    """Measure the nucleation properties on a before/after pair.

    Checks locality (1), the envelope inclusion (3), the coarse mass bound
    (4), and the hole mass bound (5); the open-partition property (2) has no
    mesh counterpart and is reported as not checked.  Set containment of the
    squashed surface in the image of the original is assumed by
    construction.
    """
    n = v_before.surface_dim
    omega = UNIT_BALL_VOLUME[n]

    sig_before = _outside_signature(v_before, 2.0 * eps)
    sig_after = _outside_signature(v_after, 2.0 * eps)
    prop1 = _same_signature(sig_before, sig_after)

    inside = norm_last(v_after.vertices) < 2.0 * eps
    if np.any(inside):
        tang = t_plane.tangential_norm(v_after.vertices[inside])
        norm = t_plane.normal_norm(v_after.vertices[inside])
        g = envelope_value(e, np.minimum(tang, 1.0 - 1e-12))
        excess3 = float(np.max(norm - g))
    else:
        excess3 = 0.0
    prop3 = excess3 <= 1e-12 * eps

    mass4 = ball_mass(v_after, 0.0, 2.0 * eps)
    bound4 = (4.0 * eps) ** n * omega * (q + 1)

    def hole_ind(p):
        in_ball = norm_last(p) < 2.0 * eps
        in_cyl = t_plane.tangential_norm(p) < eps
        return (in_ball & in_cyl).astype(float)

    def hole_mass(v):
        # hole_ind is +0.0 outside U_2eps
        return weight_measure(v, hole_ind, subdiv=MEASUREMENT_SUBDIV,
                              keep=_faces_reaching(v, norm_last(v.vertices),
                                                   2.0 * eps))

    mass5, mass5_before = hole_mass(v_after), hole_mass(v_before)
    bound5 = omega * eps ** n

    return {
        "prop1_local": bool(prop1),
        "prop2": "not checked (open partition out of scope)",
        "prop3_envelope": bool(prop3),
        "prop3_excess": excess3,
        "prop4_mass": mass4,
        "prop4_bound": bound4,
        "prop4_ok": bool(mass4 <= bound4),
        "prop5_mass": mass5,
        "prop5_bound": bound5,
        "prop5_ok": bool(mass5 <= bound5 * 1.02),
        "hole_mass_before": mass5_before,
        "containment": "assumed by construction",
    }


def nucleation_passes(report: dict) -> bool:
    """The surgery verdict of a verify_nucleation report: properties 1, 3,
    4 and 5 all hold."""
    return (report["prop1_local"] and report["prop3_envelope"]
            and report["prop4_ok"] and report["prop5_ok"])
