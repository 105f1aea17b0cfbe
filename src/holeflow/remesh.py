"""Edge-length equalization: split long edges, collapse short ones.

Used periodically during evolution so that advancing free rims do not
exhaust the time-step policy.  Boundary vertices are never moved, merged
away, or deleted; the net mass change of each pass is returned so the flow
ledger can account for it.  Candidate detection is vectorized; only the
accepted edges are touched in Python.

A pass also reports what it changed (``RemeshChange``).  A face's rows and
per-corner area-gradient terms depend only on its corners' coordinates, in
stored order, and its multiplicity, so a face that the pass leaves whole
carries its input rows, bit for bit, and only the faces the pass computes
(split children, and faces at an end of a collapsed edge) get a face pass.
The flow's step workspace patches itself from the report instead of being
built again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .varifold import (DiscreteVarifold, _corner_max, _face_altitudes,
                       _face_pass, _used_vertices, compact)

SPLIT_FACTOR = 2.0
COLLAPSE_FACTOR = 0.5
DEGENERATE_REL = 1e-12


def _edges_of(faces: np.ndarray, keep: np.ndarray):
    """Sorted vertex-pair edges with owning face ids (duplicates kept) of
    the edges that ``keep``, an (nf, edges per face) boolean mask, selects,
    in the order of a mesh's ``_edge_lengths().ravel(order="F")``."""
    owners, column = _selected(keep)
    order = np.argsort(column, kind="stable")
    owners, column = owners[order], column[order]
    return _edge_pairs(faces, owners, column), owners


def _selected(keep: np.ndarray):
    """(faces, columns) of the True entries of an (nf, k) mask, face by
    face: ``np.nonzero(keep)``, which is several times slower on 2-D."""
    return np.divmod(np.flatnonzero(keep), keep.shape[1])


def _edge_pairs(faces: np.ndarray, owners: np.ndarray,
                column: np.ndarray) -> np.ndarray:
    """The edge in ``column`` (0-1, 1-2 or 2-0, as the edge-length columns)
    of each face of ``owners``, as the minimum and maximum of its ends."""
    a = faces[owners, column]
    b = faces[owners, (column + 1) % faces.shape[1]]
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)


@dataclass(frozen=True, eq=False)
class RemeshChange:
    """What a pass that changed the mesh did, in the returned mesh's
    numbering.

    face_source   : (nf,) the input face each face carries, -1 for a face
                    the pass computed (a split child, or a face at an end
                    of a collapsed edge); a carried face has its source's
                    corners in stored order and its multiplicity
    vertex_source : (nv,) the input vertex each vertex was, -1 for a split
                    midpoint; a collapse may have moved it, and then every
                    face of it was computed
    terms         : (d, computed faces, corners) per-corner area-gradient
                    terms of the computed faces, in face order
    """

    face_source: np.ndarray
    vertex_source: np.ndarray
    terms: np.ndarray


def _split_pass(verts, faces, mult, boundary, median, lengths):
    """Split the long edges (``lengths``: the faces' (nf, edges per face)
    edge lengths) at their midpoints, which are appended to the vertices:
    (vertices, faces, multiplicities, boundary, source), the faces left
    whole first, in order, then the children, and ``source`` the input
    face of each whole face and -1 for each child; None when no edge is
    split."""
    long_edges = lengths > SPLIT_FACTOR * median
    if not long_edges.any():
        return None
    pairs, owners = _edges_of(faces, long_edges)
    adj = {}
    for pair, owner in zip(map(tuple, pairs.tolist()), owners.tolist()):
        adj.setdefault(pair, []).append(owner)
    replaced = np.zeros(len(faces), dtype=bool)
    extra_pts = []
    out_faces, out_mult = [], []
    next_idx = len(verts)
    for (a, b) in sorted(adj):
        fids = adj[(a, b)]
        if any(replaced[f] for f in fids):
            continue
        extra_pts.append(0.5 * (verts[a] + verts[b]))
        mid = next_idx
        next_idx += 1
        for fi in fids:
            replaced[fi] = True
            face = faces[fi]
            if len(face) == 2:
                out_faces += [(a, mid), (mid, b)]
            else:
                c = [x for x in face if x not in (a, b)][0]
                out_faces += [(a, mid, c), (mid, b, c)]
            out_mult += [mult[fi], mult[fi]]
    if not extra_pts:
        return None
    verts = np.vstack([verts, np.asarray(extra_pts)])
    boundary = np.concatenate([boundary, np.zeros(len(extra_pts), dtype=bool)])
    faces = np.vstack([faces.compress(~replaced, axis=0),
                       np.asarray(out_faces, dtype=np.int64)])
    mult = np.concatenate([mult[~replaced], np.asarray(out_mult, dtype=np.int64)])
    source = np.concatenate([np.flatnonzero(~replaced),
                             np.full(len(out_faces), -1)])
    return verts, faces, mult, boundary, source


def _thin_face_edges(faces, rows, median):
    """Shortest edges of faces (``rows``: their ``_face_pass``) whose
    altitude is far below the median.

    Caps (nearly collinear triangles with moderate edges) are invisible to
    pure edge-length criteria but make the stiffness scale collapse; their
    shortest edge is offered as a collapse candidate.
    """
    if faces.shape[1] == 2 or len(faces) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    alt = _face_altitudes(rows["measures"], rows["edge_lengths"])
    thin = alt < COLLAPSE_FACTOR * median
    if not np.any(thin):
        return np.zeros((0, 2), dtype=np.int64)
    thin = np.flatnonzero(thin)
    return _edge_pairs(faces, thin,
                       np.argmin(rows["edge_lengths"].take(thin, axis=0),
                                 axis=1))


def _unique_pairs(pairs: np.ndarray, nv: int):
    """``np.unique(pairs, axis=0, return_index=True)``, pairs a < b < nv.

    Sorts the 1-D keys a * nv + b, which order the pairs lexicographically,
    instead of the rows themselves.
    """
    key, first = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_index=True)
    return np.stack([key // nv, key % nv], axis=1), first


def _collapse_pass(verts, faces, mult, boundary, median, rows, source):
    """Collapse short edges and the shortest edges of thin faces, given the
    faces' ``_face_pass`` ``rows`` and each face's ``source`` (see
    ``RemeshChange``): (vertices, faces, multiplicities, source), the faces
    at an end of a collapsed edge marked -1 in ``source``; None when
    nothing collapses."""
    lengths = rows["edge_lengths"]
    # an edge's length is the same, bit for bit, in every face that has it,
    # so the short edges are found before the pairs are made unique, and
    # only they are sorted, by the length of any of their occurrences
    short = lengths < COLLAPSE_FACTOR * median
    pairs, first = _unique_pairs(_edge_pairs(faces, *_selected(short)),
                                 len(verts))
    cand = pairs[np.argsort(lengths[short][first], kind="stable")]
    thin = _thin_face_edges(faces, rows, median)
    if len(thin):
        cand = np.vstack([cand, thin])
    if len(cand) == 0:
        return None
    locked = np.zeros(len(verts), dtype=bool)
    remap = np.arange(len(verts), dtype=np.int64)
    for a, b in cand.tolist():
        if locked[a] or locked[b]:
            continue
        if boundary[a] and boundary[b]:
            continue
        if boundary[b]:
            a, b = b, a
        remap[b] = a  # a survives
        locked[a] = locked[b] = True
    if not locked.any():
        return None
    # interior-interior pairs meet at the midpoint
    merged = (remap != np.arange(len(verts))).nonzero()[0]
    merged = merged[~boundary[remap[merged]]]
    verts = verts.copy()
    verts[remap[merged]] = 0.5 * (verts[remap[merged]] + verts[merged])
    # both ends of a collapsed edge are locked: b is remapped, a kept or
    # moved; only the faces at them change
    touched = np.flatnonzero(_corner_max(locked, faces))
    source = source.copy()
    source[touched] = -1
    new = remap[faces.take(touched, axis=0)]
    faces = faces.copy()
    faces[touched] = new
    ok = np.ones(len(faces), dtype=bool)
    if faces.shape[1] == 2:
        ok[touched] = new[:, 0] != new[:, 1]
    else:
        ok[touched] = ((new[:, 0] != new[:, 1]) & (new[:, 1] != new[:, 2])
                       & (new[:, 2] != new[:, 0]))
    return verts, faces.compress(ok, axis=0), mult[ok], source[ok]


def _carried_rows(rows, source, verts, faces, mult=None):
    """The ``_face_pass`` rows of ``faces``: each face with a source takes
    that face's row of the input ``rows``, and the others (``source`` -1)
    get a face pass, with their terms when ``mult`` is given: (rows, terms
    or None)."""
    computed = np.flatnonzero(source < 0)
    new = _face_pass(verts, faces.take(computed, axis=0),
                     None if mult is None else mult[computed])
    terms = new.pop("corner_gradients", None)
    gather = np.maximum(source, 0)
    out = {}
    for key, row in rows.items():
        out[key] = row.take(gather, axis=0)
        out[key][computed] = new[key]
    return out, terms


def _drop_degenerate(faces, mult, source, rows, terms, median):
    """The non-degenerate faces: their faces, multiplicities, sources, rows
    and the terms of those among them with no source."""
    ok = rows["measures"] > DEGENERATE_REL * median ** (faces.shape[1] - 1)
    if ok.all():
        return faces, mult, source, rows, terms
    return (faces.compress(ok, axis=0), mult[ok], source[ok],
            {key: row.compress(ok, axis=0) for key, row in rows.items()},
            terms.compress(ok[source < 0], axis=1))


def remesh(v: DiscreteVarifold):
    """One equalization pass: (new varifold, mass delta, change), the change
    a ``RemeshChange``; (v, 0.0, None) when the pass changes nothing."""
    median = v.median_edge_length()
    # no pass writes its inputs: each returns new arrays or v's own
    verts, faces, mult, bnd = v.vertices, v.faces, v.multiplicity, v.boundary
    source, rows = np.arange(v.num_faces), v._cache
    split = _split_pass(verts, faces, mult, bnd, median, v._edge_lengths())
    if split is not None:
        verts, faces, mult, bnd, source = split
        rows, _ = _carried_rows(v._cache, source, verts, faces)
    collapse = _collapse_pass(verts, faces, mult, bnd, median, rows, source)
    if collapse is None and split is None:
        return v, 0.0, None
    if collapse is not None:
        verts, faces, mult, source = collapse
    rows, terms = _carried_rows(v._cache, source, verts, faces, mult)
    faces, mult, source, rows, terms = _drop_degenerate(
        faces, mult, source, rows, terms, median)
    out = compact(verts, faces, mult, bnd, rows)
    kept = np.flatnonzero(_used_vertices(faces, bnd))
    kept[kept >= v.num_vertices] = -1  # the split midpoints
    change = RemeshChange(source, kept, terms)
    return out, out.total_mass() - v.total_mass(), change
