"""Integer-multiplicity discrete varifolds.

A surface is a simplicial mesh (segments in R^2 for n=1, triangles in R^3
for n=2) with a positive integer multiplicity per face and a boundary flag
per vertex.  Integrals against the weight measure are face-wise quadrature
sums; the generalized mean curvature is the lumped-mass area gradient, which
for triangle meshes coincides with the cotangent discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geom import UNIT_BALL_VOLUME
from .quadrature import simplex_rule

MEASUREMENT_SUBDIV = 2  # default virtual refinement for clipped/cutoff integrals

# ``with_vertices`` builds a moved mesh fresh, rather than copying its
# parent's clean face rows and recomputing the others, when more than this
# share of the faces has a moved corner.  Copying costs a pass over every
# cached per-face array on top of the recomputed rows; on nucleated level-4
# and level-5 stacks it stops paying at 60-70 % dirty faces, so half keeps
# mostly-dirty steps (a perturbed stack moves 99.6 % of its faces) on the
# fresh build.
FRESH_BUILD_DIRTY_FRACTION = 0.5


@dataclass
class DiscreteVarifold:
    """Triangulated surface with per-face integer multiplicity.

    vertices : (nv, d) float array, d = ambient dimension (2 or 3)
    faces    : (nf, d) int array of vertex indices (n-simplices, n = d - 1)
    multiplicity : (nf,) positive int array
    boundary : (nv,) bool array; flagged vertices are fixed by every flow step

    Instances are treated as immutable; flow steps and surgeries return new
    objects.  All four arrays are read-only; a writeable input is copied,
    never frozen in place.  A copy made by ``with_vertices`` shares
    ``faces``, ``multiplicity`` and ``boundary`` with its parent.  Derived
    geometry is computed once, on first use, and kept in ``_cache``:

    - face corners, ``(nf, d, d)``;
    - face measures and, for n = 2, unit normals, both from one cross
      product per face (the degenerate-face check reads the measures);
    - edge lengths, ``(nf, edges per face)``, and their minimum and median;
    - face projectors, when asked for;
    - lumped vertex masses (``vertex_masses``).

    Every per-face array has one row per face.  Face altitudes are not
    kept: a flow step asks for those of its moving faces only.  Edge
    vectors and raw cross products are not kept either: trajectories hold
    many snapshots, and those arrays would add to every one of them.  A
    copy that ``with_vertices`` patched from its parent also holds the
    per-corner area-gradient terms (see there) until its own step, or a
    recorded snapshot, drops them; no other mesh holds them.
    """

    vertices: np.ndarray
    faces: np.ndarray
    multiplicity: np.ndarray
    boundary: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = _owned_read_only(self.vertices, float)
        self.faces = _owned_read_only(self.faces, np.int64)
        self.multiplicity = _owned_read_only(self.multiplicity, np.int64)
        self.boundary = _owned_read_only(self.boundary, bool)
        if self.faces.ndim != 2 or self.faces.shape[1] != self.ambient_dim:
            raise ValueError("faces must be (nf, ambient_dim) simplices")
        if np.any(self.multiplicity < 1):
            raise ValueError("multiplicities must be >= 1")
        if np.any(self.face_measures() <= 0.0):
            raise ValueError("degenerate face")

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

    def face_corners(self) -> np.ndarray:
        """(nf, d, d) array: corner coordinates of each face."""
        if "corners" not in self._cache:
            self._cache["corners"] = self.vertices[self.faces]
        return self._cache["corners"]

    def face_measures(self) -> np.ndarray:
        """Area (n=2) or length (n=1) of each face."""
        if "measures" not in self._cache:
            m, nu = _face_measures_normals(self.face_corners())
            self._cache["measures"], self._cache["normals"] = m, nu
        return self._cache["measures"]

    def face_normals(self) -> np.ndarray:
        """Unit normals (n=2 only), orientation per stored vertex order."""
        if self.surface_dim != 2:
            raise ValueError("face normals need surface dimension 2")
        self.face_measures()
        return self._cache["normals"]

    def face_projectors(self) -> np.ndarray:
        """(nf, d, d) orthogonal projectors onto face tangent planes."""
        if "projectors" in self._cache:
            return self._cache["projectors"]
        if self.surface_dim == 1:
            c = self.face_corners()
            t = c[:, 1] - c[:, 0]
            t /= np.linalg.norm(t, axis=1, keepdims=True)
            p = t[:, :, None] * t[:, None, :]
        else:
            nu = self.face_normals()
            p = np.eye(3)[None, :, :] - nu[:, :, None] * nu[:, None, :]
        self._cache["projectors"] = p
        return p

    def total_mass(self) -> float:
        return float(np.sum(self.multiplicity * self.face_measures()))

    def _edge_lengths(self) -> np.ndarray:
        """(nf, edges per face) edge lengths (see ``_face_edge_lengths``)."""
        if "edge_lengths" not in self._cache:
            self._cache["edge_lengths"] = _face_edge_lengths(self.face_corners())
        return self._cache["edge_lengths"]

    def min_edge_length(self) -> float:
        if "min_edge" not in self._cache:
            self._cache["min_edge"] = float(np.min(self._edge_lengths()))
        return self._cache["min_edge"]

    def face_altitudes(self, keep=None) -> np.ndarray:
        """Smallest altitude per face: 2 area / longest edge (length for n=1),
        on all faces or on the faces of the boolean mask ``keep``.

        The honest stiffness scale: a sliver with moderate edges but tiny
        height is as stiff as a uniformly tiny triangle.  Not cached: it
        reads the cached measures and edge lengths.
        """
        m, e = self.face_measures(), self._edge_lengths()
        if keep is not None:
            m, e = m[keep], e[keep]
        return _face_altitudes(m, e)

    def median_edge_length(self) -> float:
        if "median_edge" not in self._cache:
            self._cache["median_edge"] = float(np.median(self._edge_lengths()))
        return self._cache["median_edge"]

    def quad_points(self, quad_order: int, subdiv: int = 0, keep=None):
        """Quadrature points and rule weights on all faces or a face mask.

        Returns (points (nk, m, d), bary (m, d), weights (m,)) for the nk
        faces selected by the boolean mask ``keep`` (all faces when None);
        the integral of f is ``_face_sum(v, f(points), weights, keep)``.
        Not cached: placing the points is one matmul.
        """
        bary, w = simplex_rule(self.surface_dim, quad_order, subdiv)
        c = self.face_corners()
        return bary @ (c if keep is None else c[keep]), bary, w

    def with_vertices(self, new_vertices: np.ndarray,
                      changed=None) -> "DiscreteVarifold":
        """Same topology at new vertex positions.

        The read-only topology arrays are shared.  Without ``changed`` the
        copy shares none of this mesh's cached geometry.

        ``changed`` is a boolean mask over the vertices that must include
        every vertex whose coordinates differ, bit for bit, from this
        mesh's; a flow step passes it.  This mesh then gives up its
        per-corner area-gradient terms.  When more than
        ``FRESH_BUILD_DIRTY_FRACTION`` of the faces have a changed corner
        the copy is built as without ``changed``.  Otherwise its faces with
        no changed corner take their rows of every per-face array this mesh
        has cached, the other faces are recomputed by the same row-wise
        helpers a fresh mesh uses, and every per-vertex sum is still formed
        over all faces in face order.  This patched copy holds the gradient
        terms too: this mesh's, patched in place, or formed in full when it
        had none.  So its geometry is bitwise equal to a fresh mesh's.
        """
        cache = {}
        if changed is not None:
            new_vertices = _owned_read_only(new_vertices, float)
            terms = self._leave_step_chain()
            dirty = np.flatnonzero(_row_max(changed[self.faces]))
            if len(dirty) <= FRESH_BUILD_DIRTY_FRACTION * self.num_faces:
                cache = self._patched_rows(new_vertices, dirty, terms)
        return DiscreteVarifold(new_vertices, self.faces, self.multiplicity,
                                self.boundary, cache)

    def _leave_step_chain(self):
        """Give up the per-corner gradient terms (None when absent): the
        next flow step patches them, and a recorded snapshot or a mesh
        about to be remeshed must not hold them."""
        return self._cache.pop("corner_gradients", None)

    def _patched_rows(self, new_vertices: np.ndarray, dirty: np.ndarray,
                      terms) -> dict:
        """The cache of a flow step: every per-face array this mesh has
        cached, with the rows of the faces ``dirty`` (indices) recomputed
        at ``new_vertices``, and the gradient terms ``terms`` patched in
        place (formed in full when None)."""
        c = new_vertices[self.faces[dirty]]
        rows = {"corners": c}
        rows["measures"], rows["normals"] = _face_measures_normals(c)
        rows["edge_lengths"] = _face_edge_lengths(c)
        out = {}
        for key, new in rows.items():
            if self._cache.get(key) is not None:
                out[key] = self._cache[key].copy()
                out[key][dirty] = new
        if terms is None:
            terms = _corner_gradients(out["corners"], out.get("normals"),
                                      self.multiplicity)
        else:
            terms[dirty] = _corner_gradients(c, rows["normals"],
                                             self.multiplicity[dirty])
        out["corner_gradients"] = terms
        return out


@dataclass(frozen=True)
class TestField:
    """C^1 compactly supported vector field with its exact Jacobian.

    value_fn(points (m, d)) -> (m, d);  jacobian_fn(points) -> (m, d, d)
    with J[i, a, b] = d g_a / d x_b at point i.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    center: np.ndarray = None


@dataclass(frozen=True)
class ScalarTest:
    """Nonnegative C^1 scalar test function of space and time.

    value_fn(points, t) -> (m,); gradient_fn(points, t) -> (m, d);
    time_derivative_fn(points, t) -> (m,).  Compactly supported in space.
    """

    value_fn: Callable
    gradient_fn: Callable
    time_derivative_fn: Callable
    support_radius: float


def weight_measure(v: DiscreteVarifold, phi, quad_order: int = 3,
                   subdiv: int = 0) -> float:
    """Integral of phi against the weight measure of v.

    phi maps an (m, d) array of points to (m,) values; exact for face-wise
    polynomials of degree <= quad_order.
    """
    if v.num_faces == 0:
        return 0.0
    pts, _, w = v.quad_points(quad_order, subdiv)
    vals = phi(pts.reshape(-1, v.ambient_dim)).reshape(v.num_faces, -1)
    return _face_sum(v, vals, w)


def density_ratio(v: DiscreteVarifold, center, r: float,
                  quad_order: int = 3, subdiv: int = MEASUREMENT_SUBDIV) -> float:
    """||V||(U_r(center)) / (omega_n r^n), clipped at quadrature points."""
    if r <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)

    def indicator(p):
        return (np.linalg.norm(p - center, axis=1) < r).astype(float)

    mass = weight_measure(v, indicator, quad_order, subdiv)
    return mass / (UNIT_BALL_VOLUME[v.surface_dim] * r ** v.surface_dim)


def first_variation(v: DiscreteVarifold, g: TestField, quad_order: int = 3) -> float:
    """delta V(g) = integral of div^S g over the varifold."""
    if v.num_faces == 0:
        return 0.0
    pts, _, w = v.quad_points(quad_order)
    jac = g.jacobian_fn(pts.reshape(-1, v.ambient_dim))
    jac = jac.reshape(v.num_faces, -1, v.ambient_dim, v.ambient_dim)
    div = np.einsum("fmab,fab->fm", jac, v.face_projectors())
    return _face_sum(v, div, w)


def _face_sum(v: DiscreteVarifold, vals: np.ndarray, w: np.ndarray,
              keep=None) -> float:
    """sum_f mult_f measure_f sum_i w_i vals[f, i], vals (nk, m) given on
    the faces of the boolean mask keep (all faces when None)."""
    fw = v.multiplicity * v.face_measures()
    return float(np.sum((fw if keep is None else fw[keep]) * (vals @ w)))


def _scatter_add(idx: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    return np.bincount(idx, weights=weights, minlength=size)


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


def _face_measures_normals(c: np.ndarray):
    """Measures and unit normals (None for n = 1) of faces with corners c
    (nf, d, d), from one cross product per triangle.  A degenerate
    triangle gets a nan normal and a measure that is not positive."""
    if c.shape[1] == 2:
        return np.linalg.norm(c[:, 1] - c[:, 0], axis=1), None
    n = _cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
    norm = np.linalg.norm(n, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return 0.5 * norm, n / norm[:, None]


def _face_edge_lengths(c: np.ndarray) -> np.ndarray:
    """(nf, edges per face) edge lengths of faces with corners c: columns
    0-1, 1-2 and 2-0 for triangles, one column for segments."""
    if c.shape[1] == 2:
        return np.linalg.norm(c[:, 1] - c[:, 0], axis=1)[:, None]
    return np.stack([np.linalg.norm(c[:, 1] - c[:, 0], axis=1),
                     np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                     np.linalg.norm(c[:, 0] - c[:, 2], axis=1)], axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two (m, 3) arrays.

    The same products and differences as ``np.cross``, so the results are
    bitwise equal, without its per-call shape handling.
    """
    return np.column_stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]])


def _face_altitudes(measures: np.ndarray, edge_lengths: np.ndarray):
    """Smallest altitude of each face from its measure and (nf, edges per
    face) edge lengths: the measure itself for segments."""
    if edge_lengths.shape[1] == 1:
        return measures
    return 2.0 * measures / _row_max(edge_lengths)


def _corner_gradients(c: np.ndarray, normals, mult: np.ndarray):
    """(nf, d, d) gradient of each face's weighted measure with respect to
    each of its corners c (nf, d, d); normals as ``_face_measures_normals``
    returns them, mult the faces' multiplicities."""
    mult = mult.astype(float)[:, None]
    if c.shape[1] == 2:
        t = c[:, 1] - c[:, 0]
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        return np.stack([-mult * t, mult * t], axis=1)
    # d(area)/d(corner j) = 0.5 * (opposite edge as seen from j) x normal
    return np.stack([0.5 * mult * _cross(c[:, a] - c[:, b], normals)
                     for a, b in [(1, 2), (2, 0), (0, 1)]], axis=1)


def vertex_masses(v: DiscreteVarifold) -> np.ndarray:
    """Lumped vertex masses: adjacent multiplicity-weighted measure / (n+1).

    Cached on ``v`` and returned read-only.
    """
    if "vertex_masses" not in v._cache:
        contrib = v.multiplicity * v.face_measures() / v.ambient_dim
        m = _scatter_add(v.faces.ravel(),
                         np.repeat(contrib, v.ambient_dim), v.num_vertices)
        m.setflags(write=False)
        v._cache["vertex_masses"] = m
    return v._cache["vertex_masses"]


def area_gradient(v: DiscreteVarifold) -> np.ndarray:
    """Gradient of total (multiplicity-weighted) mass wrt vertex positions.

    Reads the per-corner terms a flow step patched into ``v``
    (``with_vertices``); on any other mesh, such as a snapshot being
    measured, they are formed and not kept.
    """
    per_corner = v._cache.get("corner_gradients")
    if per_corner is None:
        per_corner = _corner_gradients(
            v.face_corners(),
            v.face_normals() if v.surface_dim == 2 else None, v.multiplicity)
    idx = v.faces.ravel()
    return np.column_stack([
        _scatter_add(idx, per_corner[:, :, k].ravel(), v.num_vertices)
        for k in range(v.ambient_dim)])


def mean_curvature(v: DiscreteVarifold) -> np.ndarray:
    """Generalized mean curvature at vertices: -area gradient / lumped mass.

    Boundary vertices get h = 0.  Raises on interior vertices with no
    adjacent face (isolated vertex), whose mass would vanish.
    """
    if v.ambient_dim not in (2, 3):
        raise ValueError("mean curvature implemented for ambient dim 2 and 3")
    masses = vertex_masses(v)
    if np.any((masses == 0.0) & ~v.boundary):
        raise ValueError("isolated vertex")
    # a boundary vertex with no face divides 0 by 0; its row is reset below
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -area_gradient(v) / masses[:, None]
    h[v.boundary] = 0.0
    return h


def vertex_projectors(v: DiscreteVarifold) -> np.ndarray:
    """Averaged tangent projector per vertex.

    Mass-weighted mean of adjacent face projectors, re-projected to the
    nearest rank-n orthogonal projector via eigendecomposition.
    """
    d = v.ambient_dim
    fw = v.multiplicity * v.face_measures()
    fp = v.face_projectors()
    idx = v.faces.ravel()
    wfp = np.repeat(fw[:, None, None] * fp, d, axis=0)
    acc = np.zeros((v.num_vertices, d, d))
    for a in range(d):
        for b in range(d):
            acc[:, a, b] = _scatter_add(idx, wfp[:, a, b], v.num_vertices)
    wsum = _scatter_add(idx, np.repeat(fw, d), v.num_vertices)
    out = np.zeros_like(acc)
    ok = wsum > 0
    acc[ok] /= wsum[ok, None, None]
    w, vecs = np.linalg.eigh(acc[ok])
    # top n eigenvectors span the averaged tangent plane
    top = vecs[:, :, 1:]  # eigh sorts ascending; keep largest d-1 = n
    out[ok] = np.einsum("vik,vjk->vij", top, top)
    return out


def perpendicularity_defect(v: DiscreteVarifold, h_field: np.ndarray,
                            floor: float = 1e-30) -> float:
    """max_vertices |S(h)| / (|h| + floor), S the averaged vertex tangent.

    Diagnostic for the perpendicularity of the discrete mean curvature;
    exact schemes would give 0, discrete ones converge under refinement.
    """
    proj = vertex_projectors(v)
    tang = np.einsum("vij,vj->vi", proj, h_field)
    num = np.linalg.norm(tang, axis=1)
    den = np.linalg.norm(h_field, axis=1) + floor
    return float(np.max(num / den)) if len(num) else 0.0


def interpolate_vertex_field(v: DiscreteVarifold, field: np.ndarray,
                             bary: np.ndarray, keep=None) -> np.ndarray:
    """Barycentric interpolation of a per-vertex vector field (nv, k) to
    quadrature points: (nk, m, k) on the faces of the boolean mask keep
    (all faces when None)."""
    return bary @ field[v.faces if keep is None else v.faces[keep]]


def _normal_part(v: DiscreteVarifold, vecs: np.ndarray, keep=None):
    """S_perp applied to per-point vectors (nk, m, d) on the faces of keep."""
    p = v.face_projectors()
    perp = np.eye(v.ambient_dim) - (p if keep is None else p[keep])
    return vecs @ perp.transpose(0, 2, 1)


def _weighted_variation(v, phi_value, phi_gradient, h_field, quad_order,
                        subdiv, project) -> float:
    """integral of (-phi |h|^2 + h . G) d||V||, G = grad phi or S_perp of it."""
    if v.num_faces == 0:
        return 0.0
    pts, bary, w = v.quad_points(quad_order, subdiv)
    flat = pts.reshape(-1, v.ambient_dim)
    phi = phi_value(flat).reshape(v.num_faces, -1)
    grad = phi_gradient(flat).reshape(v.num_faces, -1, v.ambient_dim)
    if project:
        grad = _normal_part(v, grad)
    hq = interpolate_vertex_field(v, h_field, bary)
    return _face_sum(v, -phi * np.sum(hq * hq, axis=2)
                     + np.sum(hq * grad, axis=2), w)


def weighted_first_variation(v: DiscreteVarifold, phi_value, phi_gradient,
                             h_field: np.ndarray, quad_order: int = 3,
                             subdiv: int = 0) -> float:
    """delta(V, phi)(h) = integral of (-phi |h|^2 + h . grad phi) d||V||."""
    return _weighted_variation(v, phi_value, phi_gradient, h_field,
                               quad_order, subdiv, project=False)


def weighted_first_variation_perp(v: DiscreteVarifold, phi_value, phi_gradient,
                                  h_field: np.ndarray, quad_order: int = 3,
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
