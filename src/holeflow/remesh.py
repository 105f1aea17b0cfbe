"""Edge-length equalization: split long edges, collapse short ones.

Used periodically during evolution so that advancing free rims do not
exhaust the time-step policy.  Boundary vertices are never moved, merged
away, or deleted; the net mass change of each pass is returned so the flow
ledger can account for it.  Candidate detection is vectorized; only the
candidate edges are walked in Python.

A pass decides everything on its input's rows first, then forms the face
map and the vertex map of its output once and moves each array through
them once.  It also reports the maps (``RemeshChange``).  A face's rows and
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

from .varifold import (DiscreteVarifold, _compacted, _corner_max,
                       _face_altitudes, _face_pass)

SPLIT_FACTOR = 2.0
COLLAPSE_FACTOR = 0.5
DEGENERATE_REL = 1e-12


def _edges_of(faces: np.ndarray, keep: np.ndarray):
    """Sorted vertex-pair edges with owning face ids (duplicates kept) of
    the edges that ``keep``, an (nf, edges per face) boolean mask, selects,
    in the order of a mesh's ``_edge_lengths().ravel(order="F")``."""
    # np.nonzero(keep), several times faster on a 2-D mask
    owners, column = np.divmod(np.flatnonzero(keep), keep.shape[1])
    order = np.argsort(column, kind="stable")
    owners, column = owners[order], column[order]
    return _edge_pairs(faces, owners, column), owners


def _edge_pairs(faces: np.ndarray, owners: np.ndarray,
                column: np.ndarray) -> np.ndarray:
    """The edge in ``column`` (0-1, 1-2 or 2-0, as the edge-length columns)
    of each face of ``owners``, as the minimum and maximum of its ends."""
    w = faces.shape[1]
    first = owners * w
    a = faces.take(first + column)
    b = faces.take(first + (column + 1) % w)
    pairs = np.empty((len(a), 2), dtype=np.int64)
    np.minimum(a, b, out=pairs[:, 0])
    np.maximum(a, b, out=pairs[:, 1])
    return pairs


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
    terms         : (computed faces, d, corners) per-corner area-gradient
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


def _collapse_candidates(faces, boundary, lengths, measures, cut):
    """The edges a collapse tries, in order, as (vertex pair, boundary flags
    of its ends): the edges shorter than ``cut``, each once, shortest first
    (ties by vertex pair), then the shortest edge of each face whose
    altitude is below ``cut``, in face order.  Caps (nearly collinear
    triangles with moderate edges) are invisible to pure edge-length
    criteria but make the stiffness scale collapse."""
    short = (lengths < cut).ravel().nonzero()[0]
    owners, column = np.divmod(short, lengths.shape[1])
    short = lengths.take(short).tolist()
    if faces.shape[1] == 3:
        thin = (_face_altitudes(measures, lengths) < cut).nonzero()[0]
        owners = np.concatenate([owners, thin])
        column = np.concatenate([column, lengths.take(thin, axis=0)
                                 .argmin(axis=1)])
    pairs = _edge_pairs(faces, owners, column)
    ends = list(zip(map(tuple, pairs.tolist()),
                    map(tuple, boundary.take(pairs).tolist())))
    # an edge's length is the same, bit for bit, in every face that has it
    return [end for _, end in sorted(set(zip(short, ends)))] \
        + ends[len(short):]


def _collapse_pass(verts, faces, boundary, median, lengths, measures):
    """Collapse the candidate edges (``_collapse_candidates``, given the
    faces' edge ``lengths`` and ``measures``) that share no end with an
    edge collapsed before them: (touched, corners, moved), the faces at an
    end of a collapsed edge with their corners after it, and the (survivor,
    merged) pairs whose survivor moves to their midpoint; None when nothing
    collapses."""
    locked, moved, gone = set(), [], {}
    for (a, b), (ba, bb) in _collapse_candidates(
            faces, boundary, lengths, measures, COLLAPSE_FACTOR * median):
        if a in locked or b in locked or (ba and bb):
            continue
        if bb:
            a, b = b, a
        gone[b] = a  # a survives
        if not (ba or bb):  # interior-interior pairs meet at the midpoint
            moved.append((a, b))
        locked.update((a, b))
    if not gone:
        return None
    remap = np.arange(len(verts), dtype=np.int64)
    remap[list(gone)] = list(gone.values())
    is_locked = np.zeros(len(verts), dtype=bool)
    is_locked[list(locked)] = True
    # both ends of a collapsed edge are locked: b is remapped, a kept or
    # moved; only the faces at them change
    touched = _corner_max(is_locked, faces).nonzero()[0]
    return (touched, remap.take(faces.take(touched, axis=0)),
            np.array(moved, dtype=np.int64).reshape(-1, 2))


def _carried_rows(rows, source, verts, faces, mult=None):
    """The ``_face_pass`` rows of ``faces``: each face with a source takes
    that face's row of the input ``rows``, and the others (``source`` -1)
    get a face pass, with their terms when ``mult`` is given: (rows, terms
    or None)."""
    computed = (source < 0).nonzero()[0]
    new = _face_pass(verts, faces.take(computed, axis=0),
                     None if mult is None else mult[computed])
    terms = new.pop("corner_gradients", None)
    gather = np.maximum(source, 0)
    out = {}
    for key, row in rows.items():
        out[key] = row.take(gather, axis=0)
        out[key][computed] = new[key]
    return out, terms


def remesh(v: DiscreteVarifold, mass=None):
    """One equalization pass: (new varifold, mass delta, change), the change
    a ``RemeshChange``; (v, 0.0, None) when the pass changes nothing.
    ``mass`` is v's total mass when the caller holds it (bitwise
    ``v.total_mass()``), which is then not summed again.

    The decisions (split, collapse, degenerate faces, unused vertices) are
    made on v's rows; then the face map and the vertex map are formed once
    and each array moves through them with one ``take`` or ``compress``.
    Only the computed faces get a face pass.  No array of v is written.
    """
    median = v.median_edge_length()
    verts, faces, mult, bnd = v.vertices, v.faces, v.multiplicity, v.boundary
    lengths, measures = v._edge_lengths(), v.face_measures()
    source = None  # each face's input face, -1 for a child; None: itself
    split = _split_pass(verts, faces, mult, bnd, median, lengths)
    if split is not None:
        verts, faces, mult, bnd, source = split
        # the collapse reads only lengths and measures; every row is
        # carried from v once, below
        rows, _ = _carried_rows({key: v._cache[key] for key in
                                 ("measures", "edge_lengths")},
                                source, verts, faces)
        lengths, measures = rows["edge_lengths"], rows["measures"]
    collapse = _collapse_pass(verts, faces, bnd, median, lengths, measures)
    if collapse is None and split is None:
        return v, 0.0, None
    keep = np.ones(len(faces), dtype=bool)
    if collapse is not None:
        touched, corners, moved = collapse
        whole = corners[:, 0] != corners[:, -1]
        for k in range(1, faces.shape[1]):
            whole &= corners[:, k - 1] != corners[:, k]
        keep[touched[~whole]] = False
        touched, corners = touched[whole], corners[whole]
    kept = keep.nonzero()[0]
    faces, mult = faces.take(kept, axis=0), mult.take(kept)
    source = kept if source is None else source.take(kept)
    if collapse is not None:
        at = np.searchsorted(kept, touched)
        faces[at] = corners
        source[at] = -1
    out_verts, faces, out_bnd, rank, used = _compacted(verts, faces, bnd)
    vsrc = used.nonzero()[0]
    if collapse is not None:
        a, b = moved[used.take(moved[:, 0])].T
        out_verts[rank.take(a)] = 0.5 * (verts.take(a, axis=0)
                                         + verts.take(b, axis=0))
    rows, terms = _carried_rows(v._cache, source, out_verts, faces, mult)
    ok = rows["measures"] > DEGENERATE_REL * median ** (faces.shape[1] - 1)
    if not ok.all():  # the degenerate faces go, and maybe some vertices
        terms = terms.compress(ok[source < 0], axis=0)
        faces, mult, source = faces[ok], mult[ok], source[ok]
        rows = {key: row.compress(ok, axis=0) for key, row in rows.items()}
        out_verts, faces, out_bnd, _, used = _compacted(out_verts, faces,
                                                        out_bnd)
        vsrc = vsrc[used]
    if split is not None:
        vsrc[vsrc >= v.num_vertices] = -1  # the split midpoints
    for a in (out_verts, faces, mult, out_bnd):
        a.setflags(write=False)  # fresh: hand them over uncopied
    out = DiscreteVarifold(out_verts, faces, mult, out_bnd, rows)
    if mass is None:
        mass = v.total_mass()
    return out, out.total_mass() - mass, RemeshChange(source, vsrc, terms)
