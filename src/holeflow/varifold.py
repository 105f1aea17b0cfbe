"""Integer-multiplicity discrete varifolds.

A surface is a simplicial mesh (segments in R^2 for n=1, triangles in R^3
for n=2) with a positive integer multiplicity per face and a boundary flag
per vertex.  Integrals against the weight measure are face-wise quadrature
sums; the generalized mean curvature is the lumped-mass area gradient, which
for triangle meshes coincides with the cotangent discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

import numpy as np

from .geom import UNIT_BALL_VOLUME, column_norm, dot_last, norm_last
from .quadrature import simplex_rule

# The rule of every certified integral: the 6-point degree-4 triangle rule
# (2-point Gauss on segments), and the virtual refinement of clipped and
# cutoff integrals.
QUAD_ORDER = 3
MEASUREMENT_SUBDIV = 2

# Most quadrature points ``_quad_sums`` places at a time.  A window_l4 call
# (2-core x86-64, median of 8) took 0.757 / 0.746 / 0.820 / 0.816 s at 2^12
# / 2^13 / 2^14 / 2^15 points per block and 0.819 s in one block, with 9k /
# 17k / 97k / 103k / 105k page faults: past 2^13 each block refaults pages.
QUAD_BLOCK_POINTS = 2 ** 13

CULL_SLACK = 1e-9  # relative margin on the radius of ``_faces_reaching``

# Most triangles ``_face_pass`` takes on stacked coordinate rows
# (``_stacked_face_pass``) rather than on coordinate columns.  Timed with
# the multiplicities on faces drawn from a level-5 icosphere (best of 7 x
# 100 on a 2-core x86-64), stacked / column, the median of three runs: 0.46
# at 100 faces, 0.55 at 226, 0.78 at 474, 0.95 at 1000, 1.05 at 1500, 1.09
# at 2000 and 1.07 at 3000.  Past about 1000 faces the stacked rows'
# temporaries cost more than the calls they save.  A flow step's dirty
# faces (226 per step on flow_l5 on average) and a remesh pass's computed
# faces take the stacked form.
STACKED_PASS_FACES = 1024


@dataclass(frozen=True, eq=False)
class DiscreteVarifold:
    """Triangulated surface with per-face integer multiplicity.

    vertices : (nv, d) float array, d = ambient dimension (2 or 3)
    faces    : (nf, d) int array of vertex indices (n-simplices, n = d - 1)
    multiplicity : (nf,) positive int array
    boundary : (nv,) bool array; flagged vertices are fixed by every flow step

    Instances are immutable: the fields cannot be reassigned, surgeries
    return new objects and nothing is written to a mesh after
    ``__post_init__``.  Meshes compare by identity and hash by id.  All
    four arrays are read-only; a writeable input is copied, never frozen
    in place.  A copy made by ``with_vertices`` shares
    ``faces``, ``multiplicity`` and ``boundary`` with its parent.

    Construction keeps in ``_cache``, a read-only mapping, the rows of one
    face pass (``_face_pass``): face measures, unit normals (n = 2) or
    tangents (n = 1) and edge lengths, and marks them read-only; ``compact``,
    ``read_dvar`` and the flow's snapshots hand a mesh fresh rows instead,
    which it freezes in place.  A mesh holds only these rows: edge
    statistics, vertex masses, face corners, projectors, altitudes,
    area-gradient terms and quadrature points are formed on each call.  A
    mesh holds no flow-step state; ``flow.evolve`` keeps that in its own
    step workspace, whose snapshots are meshes holding copies of its rows.
    """

    vertices: np.ndarray
    faces: np.ndarray
    multiplicity: np.ndarray
    boundary: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("vertices", float), ("faces", np.int64),
                            ("multiplicity", np.int64), ("boundary", bool)):
            object.__setattr__(self, name,
                               _owned_read_only(getattr(self, name), dtype))
        if self.faces.ndim != 2 or self.faces.shape[1] != self.ambient_dim:
            raise ValueError("faces must be (nf, ambient_dim) simplices")
        if (self.multiplicity < 1).any():
            raise ValueError("multiplicities must be >= 1")
        # the face rows handed over, or a face pass when none were
        rows = dict(self._cache) or _face_pass(self.vertices, self.faces)
        for row in rows.values():
            row.setflags(write=False)
        object.__setattr__(self, "_cache", MappingProxyType(rows))
        _require_positive_measures(self.face_measures())

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def surface_dim(self) -> int:
        return self.ambient_dim - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]

    def face_corners(self, keep=None) -> np.ndarray:
        """(nk, d, d) corner coordinates of all faces or of the faces that
        ``keep`` (a boolean mask or an index) selects.  Not cached."""
        return np.take(self.vertices,
                       self.faces if keep is None else self.faces[keep], axis=0)

    def face_measures(self) -> np.ndarray:
        """Area (n=2) or length (n=1) of each face."""
        return self._cache["measures"]

    def face_projectors(self, keep=None) -> np.ndarray:
        """(nk, d, d) orthogonal projectors onto the tangent planes of all
        faces or of the faces ``keep`` selects: t t (n = 1) or I - nu nu
        (n = 2) from the cached rows.  Not cached."""
        key = "tangents" if self.surface_dim == 1 else "normals"
        u = self._cache[key] if keep is None else self._cache[key][keep]
        uu = u[:, :, None] * u[:, None, :]
        return uu if self.surface_dim == 1 else np.eye(3)[None, :, :] - uu

    def total_mass(self) -> float:
        return float(np.sum(self.multiplicity * self.face_measures()))

    def _edge_lengths(self) -> np.ndarray:
        """(nf, edges per face) edge lengths (see ``_face_pass``)."""
        return self._cache["edge_lengths"]

    def min_edge_length(self) -> float:
        return float(np.min(self._edge_lengths()))

    def face_altitudes(self) -> np.ndarray:
        """Smallest altitude per face: 2 area / longest edge (length for n=1).

        The honest stiffness scale: a sliver with moderate edges but tiny
        height is as stiff as a uniformly tiny triangle.  Not cached: it
        reads the cached measures and edge lengths.
        """
        return _face_altitudes(self.face_measures(), self._edge_lengths())

    def median_edge_length(self) -> float:
        return _median(self._edge_lengths())

    def quad_points(self, quad_order: int, subdiv: int = 0, keep=None):
        """(points (nk, m, d), bary (m, d), weights (m,)) of the rule on the
        faces that ``keep`` (a boolean mask or an index) selects, all faces
        when None.  Not cached: ``_quad_sums`` places one block at a time."""
        bary, w = simplex_rule(self.surface_dim, quad_order, subdiv)
        return bary @ self.face_corners(keep), bary, w

    def with_vertices(self, new_vertices: np.ndarray) -> "DiscreteVarifold":
        """Same topology at new vertex positions, built fresh: the read-only
        topology arrays are shared, no cached geometry is."""
        return DiscreteVarifold(new_vertices, self.faces, self.multiplicity,
                                self.boundary)


@dataclass(frozen=True)
class TestField:
    """C^1 compactly supported vector field with its exact Jacobian.

    value_fn(points (m, d)) -> (m, d);  jacobian_fn(points) -> (m, d, d)
    with J[i, a, b] = d g_a / d x_b at point i.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarTest:
    """Nonnegative C^1 scalar test function of space and time.

    value_fn(points, t) -> (m,); gradient_fn(points, t) -> (m, d);
    time_derivative_fn(points, t) -> (m,).  Compactly supported in space.
    """

    value_fn: Callable
    gradient_fn: Callable
    time_derivative_fn: Callable


def weight_measure(v: DiscreteVarifold, phi, quad_order: int = QUAD_ORDER,
                   subdiv: int = 0, keep=None) -> float:
    """Integral of phi against the weight measure of v.

    phi maps an (m, d) array of points to (m,) values; exact for face-wise
    polynomials of degree <= quad_order.  ``keep`` (``_faces_reaching``)
    masks every face where phi may be other than +0.0; phi is evaluated
    there only, and the sum keeps its bits (``_quad_sums``).
    """
    def integrand(pts, bary, sel):
        return [phi(pts.reshape(-1, v.ambient_dim)).reshape(pts.shape[:2])]

    return _quad_sums(v, quad_order, subdiv, integrand, keep)[0]


def ball_mass(v: DiscreteVarifold, center, r: float,
              subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """||V||(U_r(center)), clipped at quadrature points; 0.0: the origin.
    Only the faces that can reach the ball are evaluated."""
    center = np.asarray(center, dtype=float)

    def indicator(p):
        return (norm_last(p - center) < r).astype(float)

    return weight_measure(v, indicator, subdiv=subdiv,
                          keep=_faces_reaching(
                              v, norm_last(v.vertices - center), r))


def density_ratio(v: DiscreteVarifold, center, r: float,
                  subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """||V||(U_r(center)) / (omega_n r^n), clipped at quadrature points."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return (ball_mass(v, center, r, subdiv)
            / (UNIT_BALL_VOLUME[v.surface_dim] * r ** v.surface_dim))


def first_variation(v: DiscreteVarifold, g: TestField) -> float:
    """delta V(g) = integral of div^S g over the varifold."""
    def integrand(pts, bary, sel):
        jac = g.jacobian_fn(pts.reshape(-1, v.ambient_dim))
        jac = jac.reshape(pts.shape + (v.ambient_dim,))
        return [np.einsum("fmab,fab->fm", jac, v.face_projectors(sel))]

    return _quad_sums(v, QUAD_ORDER, 0, integrand)[0]


def _quad_sums(v: DiscreteVarifold, quad_order: int, subdiv: int, integrand,
               keep=None) -> list:
    """Face-weighted quadrature sums of k integrands, evaluated on the
    faces of the boolean mask ``keep`` (all faces when None) one block of
    faces at a time: ``integrand(points (b, m, d), bary (m, d), sel)``,
    ``sel`` the block's faces as an index, returns k (b, m) arrays of
    values at the points ``v.quad_points(quad_order, subdiv, sel)`` placed.
    Sum j is sum_f mult_f measure_f sum_i w_i vals_j[f, i].

    A block holds at most ``QUAD_BLOCK_POINTS`` points and at least one
    face.  Each face's rule sum is numpy's reduction of that face's own row
    (``einsum``, not the BLAS product ``vals @ w``), and the weighted sum
    runs over all faces, those off ``keep`` at +0.0.  So a sum has the
    same bits whatever the blocks, the BLAS kernel or the mask, as long as
    the mask holds every face where an integrand is other than +0.0.
    """
    idx = np.arange(v.num_faces) if keep is None else np.flatnonzero(keep)
    m = len(simplex_rule(v.surface_dim, quad_order, subdiv)[1])
    step = max(1, QUAD_BLOCK_POINTS // m)
    per = None  # (k, faces): sum_i w_i vals_j[f, i]
    for lo in range(0, len(idx), step) or [0]:  # [0]: no face is kept
        sel = idx[lo:lo + step]
        pts, bary, w = v.quad_points(quad_order, subdiv, sel)
        sums = [np.einsum("fm,m->f", vals, w)
                for vals in integrand(pts, bary, sel)]
        if per is None:
            per = np.zeros((len(sums), v.num_faces))
        per[:, sel] = sums
    fw = v.multiplicity * v.face_measures()
    return [float(np.sum(fw * row)) for row in per]


def _faces_reaching(v: DiscreteVarifold, vertex_dist: np.ndarray,
                    radius: float) -> np.ndarray:
    """Mask of the faces whose closed simplex may reach dist < radius.

    vertex_dist is a 1-Lipschitz function (|T x| or |x|) at the vertices.
    On a face it stays above its smallest corner value minus the longest
    edge, so a face whose bound reaches radius holds no such point and
    contributes exactly zero to an integrand supported in {dist < radius}.
    The slack keeps roundoff in the quadrature points from breaking that.
    """
    longest = _row_max(v._edge_lengths())
    lower = np.min(vertex_dist[v.faces], axis=1) - longest
    return lower < radius * (1.0 + CULL_SLACK)


def compact(vertices: np.ndarray, faces: np.ndarray, multiplicity: np.ndarray,
            boundary: np.ndarray) -> DiscreteVarifold:
    """The mesh on the vertices that some face uses or that are flagged
    boundary, renumbered in their order (the others are dropped)."""
    fresh = _compacted(vertices, faces, boundary)[:3]
    for a in fresh:
        a.setflags(write=False)  # fresh: hand them over uncopied
    return DiscreteVarifold(fresh[0], fresh[1], multiplicity, fresh[2])


def _compacted(vertices: np.ndarray, faces: np.ndarray,
               boundary: np.ndarray):
    """``compact``'s arrays: (vertices, faces, boundary, the new index of
    each old vertex, the used mask)."""
    used = boundary.copy()
    used[faces.ravel()] = True
    rank = used.cumsum()
    rank -= 1
    return (vertices.compress(used, axis=0), rank.take(faces),
            boundary.compress(used), rank, used)


def _scatter_add(idx: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    return np.bincount(idx, weights=weights, minlength=size)


def _median(a: np.ndarray) -> float:
    """``np.median`` of all entries of a (none NaN), bit for bit: one
    single-kth partition instead of three, and for an even count the
    largest entry below the kth and the mean of the two, (a + b) / 2 as
    ``np.mean`` forms it.  The mean of one entry adds it to +0.0, which
    turns -0.0 into 0.0."""
    flat = a.ravel()
    if flat.size == 0:
        return float(np.median(flat))
    k = flat.size // 2
    part = np.partition(flat, k)
    if flat.size % 2:
        return float(part[k] + 0.0)
    return float((part[:k].max() + part[k]) / 2)


def _corner_max(values: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Largest of the per-vertex ``values`` over each face's corners (any,
    for booleans): ``_row_max(values[faces])``, gathered one corner column
    at a time instead of as an (nf, corners) array."""
    out = values[faces[:, 0]]
    for k in range(1, faces.shape[1]):
        np.maximum(out, values[faces[:, k]], out=out)
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each row of an (m, k) array with few columns, k - 1
    column-wise ``np.maximum`` calls: the values of ``np.max(a, axis=1)``
    (``np.any`` for booleans), several times faster."""
    out = a[:, 0].copy()
    for k in range(1, a.shape[1]):
        np.maximum(out, a[:, k], out=out)
    return out


def _owned_read_only(a, dtype) -> np.ndarray:
    """a as a contiguous read-only array.  An unconverted writeable input
    is the caller's, so it is copied before it is frozen; a read-only one
    (such as the topology ``with_vertices`` passes on, or a fresh vertex
    array its maker froze to hand it over) is shared."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.flags.writeable:
        if out is a:
            out = out.copy()
        out.setflags(write=False)
    return out


def _face_pass(vertices: np.ndarray, faces: np.ndarray, mult=None) -> dict:
    """Face rows keyed as ``_cache``: measures, unit normals (n = 2) or
    tangents (n = 1), edge lengths (nf, edges per face) in columns 0-1,
    1-2, 2-0 and, given the multiplicities ``mult``, the per-corner
    area-gradient terms (``_corner_terms``).  A degenerate face's measure
    is not positive.

    Works on coordinate columns (strided views of the corners), or, for at
    most ``STACKED_PASS_FACES`` triangles, on stacked coordinate rows
    (``_stacked_face_pass``), which give the same bits in fewer calls.  The
    rows take c1 - c0, c2 - c0 and c1 - c2, each formed once and never as a
    negation, so signed zeros match; norms add the squares in
    ``np.linalg.norm``'s order and cross products take ``np.cross``'s
    products, so every row is bitwise the direct formula's.
    """
    if faces.shape[1] == 3 and len(faces) <= STACKED_PASS_FACES:
        return _stacked_face_pass(vertices, faces, mult)
    return _column_face_pass(vertices, faces, mult)


def _column_face_pass(vertices: np.ndarray, faces: np.ndarray,
                      mult=None) -> dict:
    """``_face_pass`` on coordinate columns, segments or triangles."""
    x = _corner_columns(vertices, faces)
    e01 = _edge(x, 1, 0)
    if len(x) == 2:
        length = column_norm(e01)
        with np.errstate(invalid="ignore"):
            units = [e / length for e in e01]
        rows = {"measures": length, "tangents": np.stack(units, axis=1),
                "edge_lengths": length[:, None]}
    else:
        e02, e12 = _edge(x, 2, 0), _edge(x, 1, 2)
        n = _cross(e01, e02)
        area2 = column_norm(n)
        with np.errstate(invalid="ignore", divide="ignore"):
            units = [na / area2 for na in n]
        rows = {"measures": 0.5 * area2, "normals": np.stack(units, axis=1),
                "edge_lengths": np.stack([column_norm(e01), column_norm(e12),
                                          column_norm(e02)], 1)}
    if mult is not None:
        rows["corner_gradients"] = _corner_terms(
            x, units, mult, None if len(x) == 2 else [e12, e02])
    return rows


# the corners whose differences c_i - c_j are a stacked face pass's edges:
# c1 - c0, c1 - c2, c2 - c0 (the edge-length columns) and c0 - c1
_EDGE_I, _EDGE_J = np.array([1, 1, 2, 0]), np.array([0, 2, 0, 1])


def _stacked_face_pass(vertices: np.ndarray, faces: np.ndarray,
                       mult=None) -> dict:
    """``_face_pass`` of triangles, bit for bit, on stacked rows: each
    corner, edge and unit normal is one (5, nf) array of rows x, y, z, x,
    y, so a cross product a x b is the three rows a[1:4] b[2:5] -
    a[2:5] b[1:4], ``np.cross``'s products in one call each."""
    n = len(faces)
    x = np.empty((3, 5, n))  # corner, row, face
    x[:, :3] = vertices.take(faces, axis=0).transpose(1, 2, 0)
    x[:, 3:] = x[:, :2]
    # the normal (rows x, y, z), then the edges _EDGE_I - _EDGE_J
    e = np.empty((5, 5, n))
    np.subtract(x.take(_EDGE_I, axis=0), x.take(_EDGE_J, axis=0), out=e[1:])
    normal = e[0, :3]
    np.multiply(e[1, 1:4], e[3, 2:5], out=normal)
    normal -= e[1, 2:5] * e[3, 1:4]
    norms = _row_norm(e[:4, :3])  # twice the area, then the edge lengths
    units = np.empty((5, n))
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(normal, norms[0], out=units[:3])
    units[3:] = units[:2]
    lengths, normals = np.empty((n, 3)), np.empty((n, 3))
    lengths.T[...] = norms[1:]
    normals.T[...] = units[:3]
    rows = {"measures": 0.5 * norms[0], "normals": normals,
            "edge_lengths": lengths}
    if mult is not None:
        # 0.5 m (c_a - c_b) x normal at the corner opposite edge a-b
        edge = e[2:5]
        g = edge[:, 1:4] * units[2:5]
        g -= edge[:, 2:5] * units[1:4]
        terms = np.empty((n, 3, 3))
        np.multiply(mult * 0.5, g.transpose(1, 0, 2),
                    out=terms.transpose(1, 2, 0))
        rows["corner_gradients"] = terms
    return rows


def _row_norm(a: np.ndarray) -> np.ndarray:
    """``column_norm`` of the rows x, y, z on the second-to-last axis."""
    sq = a * a
    s = sq[..., 0, :] + sq[..., 1, :]
    s += sq[..., 2, :]
    return np.sqrt(s, out=s)


def _corner_terms(x: list, units: list, mult: np.ndarray,
                  edges=None) -> np.ndarray:
    """Per-corner area-gradient terms (nf, d, corners), face-major, so that
    the terms of a set of faces are a row gather, from the corner columns
    ``x`` (``_corner_columns``) and the columns of the faces' unit normals
    or tangents: 0.5 m (c_a - c_b) x normal at the corner opposite edge
    a-b (c1 - c2, c2 - c0 and c0 - c1, each formed directly; ``edges``
    holds the first two when the caller has them), -m t and m t on a
    segment."""
    d, m = len(x), mult.astype(float)
    g = np.empty((len(m), d, d))
    if d == 2:
        for a in range(d):
            g[:, a, 0], g[:, a, 1] = -m * units[a], m * units[a]
        return g
    half_m = 0.5 * m
    if edges is None:
        edges = [_edge(x, 1, 2), _edge(x, 2, 0)]
    for k, edge in enumerate([*edges, _edge(x, 0, 1)]):
        for a, ga in enumerate(_cross(edge, units)):
            np.multiply(half_m, ga, out=g[:, a, k])
    return g


def _corner_columns(vertices: np.ndarray, faces: np.ndarray) -> list:
    """x[k][a]: coordinate a of corner k of every face, a strided view."""
    c = np.take(vertices, faces, axis=0)
    d = c.shape[2]
    return [[c[:, k, a] for a in range(d)] for k in range(d)]


def _edge(x: list, i: int, j: int) -> list:
    return [xi - xj for xi, xj in zip(x[i], x[j])]


def _cross(a: list, b: list) -> list:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _require_positive_measures(measures: np.ndarray) -> None:
    if (measures <= 0.0).any():
        raise ValueError("degenerate face")


def _face_altitudes(measures: np.ndarray, edge_lengths: np.ndarray):
    """Smallest altitude of each face from its measure and (nf, edges per
    face) edge lengths: the measure itself for segments."""
    if edge_lengths.shape[1] == 1:
        return measures
    return 2.0 * measures / _row_max(edge_lengths)


def _lumped_masses(faces: np.ndarray, mult: np.ndarray,
                   measures: np.ndarray, nv: int) -> np.ndarray:
    """Adjacent multiplicity-weighted measure / (n + 1) per vertex, each
    vertex's terms added in face order."""
    contrib = mult * measures / faces.shape[1]
    return _scatter_add(faces.ravel(), np.repeat(contrib, faces.shape[1]), nv)


def _gradient_keys(faces: np.ndarray) -> np.ndarray:
    """The ``bincount`` keys of the terms (nf, d, corners) of ``faces``,
    flattened: each corner's vertex times d plus the coordinate."""
    d = faces.shape[1]
    keys = np.tile(d * faces, d)  # each face's corners once per coordinate
    keys += np.repeat(np.arange(d), d)
    return keys.ravel()


def _gradient_sums(faces: np.ndarray, terms: np.ndarray, nv: int,
                   keys=None) -> np.ndarray:
    """(nv, d) sums of the per-corner area-gradient terms (nf, d, corners),
    each vertex's terms in face order: one ``bincount`` on the keys
    (``_gradient_keys`` of ``faces``, formed here when None), which meets
    the terms of one key in the order of a per-coordinate ``bincount``."""
    if keys is None:
        keys = _gradient_keys(faces)
    d = faces.shape[1]
    return _scatter_add(keys, terms.ravel(), nv * d).reshape(nv, d)


def vertex_masses(v: DiscreteVarifold) -> np.ndarray:
    """Lumped vertex masses: adjacent multiplicity-weighted measure / (n+1).
    Not cached."""
    return _lumped_masses(v.faces, v.multiplicity, v.face_measures(),
                          v.num_vertices)


def _gradient_terms(v: DiscreteVarifold) -> np.ndarray:
    """The per-corner area-gradient terms (``_corner_terms``) of a mesh,
    from its cached unit normals or tangents."""
    units = v._cache["tangents" if v.surface_dim == 1 else "normals"]
    return _corner_terms(_corner_columns(v.vertices, v.faces),
                         [units[:, a] for a in range(v.ambient_dim)],
                         v.multiplicity)


def area_gradient(v: DiscreteVarifold) -> np.ndarray:
    """Gradient of total (multiplicity-weighted) mass wrt vertex positions,
    from the per-corner terms of the cached rows.  Not cached."""
    return _gradient_sums(v.faces, _gradient_terms(v), v.num_vertices)


def _curvature(gradient: np.ndarray, masses: np.ndarray,
               boundary: np.ndarray) -> np.ndarray:
    """h = -area gradient / lumped mass per vertex, 0 on boundary vertices.

    Raises on an interior vertex with no adjacent face (isolated vertex),
    whose mass would vanish.
    """
    if masses.all():
        h = -gradient / masses[:, None]
    else:
        if ((masses == 0.0) & ~boundary).any():
            raise ValueError("isolated vertex")
        # a boundary vertex with no face divides 0 by 0; its row is reset
        # below
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -gradient / masses[:, None]
    h[boundary] = 0.0
    return h


def mean_curvature(v: DiscreteVarifold) -> np.ndarray:
    """Generalized mean curvature at vertices (``_curvature``): -area
    gradient / lumped mass, h = 0 on boundary vertices.

    Raises on interior vertices with no adjacent face.  Given a flow's step
    workspace (``flow._StepWorkspace``) instead of a mesh, it returns the
    workspace's h, formed again where the last step moved.
    """
    if not isinstance(v, DiscreteVarifold):
        return v.mean_curvature()
    if v.ambient_dim not in (2, 3):
        raise ValueError("mean curvature implemented for ambient dim 2 and 3")
    return _curvature(area_gradient(v), vertex_masses(v), v.boundary)


def interpolate_vertex_field(v: DiscreteVarifold, field: np.ndarray,
                             bary: np.ndarray, keep=None) -> np.ndarray:
    """Barycentric interpolation of a per-vertex vector field (nv, k) to
    quadrature points: (nk, m, k) on the faces that keep (a boolean mask or
    an index) selects, all faces when None."""
    return bary @ np.take(field, v.faces if keep is None else v.faces[keep],
                          axis=0)


def _normal_part(v: DiscreteVarifold, vecs: np.ndarray, keep=None):
    """S_perp applied to per-point vectors (nk, m, d) on the faces of keep."""
    perp = np.eye(v.ambient_dim) - v.face_projectors(keep)
    return vecs @ perp.transpose(0, 2, 1)


def _weighted_variation(v, phi_value, phi_gradient, h_field, quad_order,
                        subdiv, project) -> float:
    """integral of (-phi |h|^2 + h . G) d||V||, G = grad phi or S_perp of it."""
    def integrand(pts, bary, sel):
        flat = pts.reshape(-1, v.ambient_dim)
        phi = phi_value(flat).reshape(pts.shape[:2])
        grad = phi_gradient(flat).reshape(pts.shape)
        if project:
            grad = _normal_part(v, grad, sel)
        hq = interpolate_vertex_field(v, h_field, bary, sel)
        return [-phi * dot_last(hq, hq) + dot_last(hq, grad)]

    return _quad_sums(v, quad_order, subdiv, integrand)[0]


def weighted_first_variation(v: DiscreteVarifold, phi_value, phi_gradient,
                             h_field: np.ndarray, quad_order: int = QUAD_ORDER,
                             subdiv: int = 0) -> float:
    """delta(V, phi)(h) = integral of (-phi |h|^2 + h . grad phi) d||V||."""
    return _weighted_variation(v, phi_value, phi_gradient, h_field,
                               quad_order, subdiv, project=False)


def weighted_first_variation_perp(v: DiscreteVarifold, phi_value, phi_gradient,
                                  h_field: np.ndarray,
                                  quad_order: int = QUAD_ORDER,
                                  subdiv: int = 0) -> float:
    """Weighted first variation in the pre-perpendicularity form.

    Evaluates  integral of (-phi |h|^2 + h . S_perp(grad phi)) dV  with S
    the face tangent projector.  Identical to the plain form when h is
    perpendicular to the tangent planes; at mesh junctions the lumped h has
    spurious tangential components, and projecting the gradient onto S_perp
    reproduces the continuum mechanism faithfully.
    """
    return _weighted_variation(v, phi_value, phi_gradient, h_field,
                               quad_order, subdiv, project=True)


def parabolic_rescale(v: DiscreteVarifold, lam: float) -> DiscreteVarifold:
    """Push-forward under y -> y / lam; mass scales by lam^{-n}."""
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    scaled = v.vertices / lam
    scaled.setflags(write=False)  # fresh: hand it over uncopied
    return v.with_vertices(scaled)
