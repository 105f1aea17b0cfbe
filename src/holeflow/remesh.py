"""Edge-length equalization: split long edges, collapse short ones.

Used periodically during evolution so that advancing free rims do not
exhaust the time-step policy.  Boundary vertices are never moved, merged
away, or deleted; the net mass change of each pass is returned so the flow
ledger can account for it.  Candidate detection is vectorized; only the
accepted edges are touched in Python.
"""

from __future__ import annotations

import numpy as np

from .varifold import DiscreteVarifold, _face_altitudes, _face_pass, compact

SPLIT_FACTOR = 2.0
COLLAPSE_FACTOR = 0.5
DEGENERATE_REL = 1e-12


def _edges_of(faces: np.ndarray):
    """Sorted vertex-pair edges with owning face ids (duplicates kept), in
    the order of a mesh's ``_edge_lengths().ravel(order="F")``.  Each pair
    is sorted as the minimum and maximum of its ends, not by a row sort."""
    if faces.shape[1] == 2:
        a, b = faces[:, 0], faces[:, 1]
        owners = np.arange(len(faces))
    else:
        a = faces.ravel(order="F")
        b = np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])
        owners = np.tile(np.arange(len(faces)), 3)
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1), owners


def _split_pass(verts, faces, mult, boundary, median, lengths):
    long_mask = lengths > SPLIT_FACTOR * median
    if not np.any(long_mask):
        return verts, faces, mult, boundary, False
    pairs, owners = _edges_of(faces)
    adj = {}
    for i in np.flatnonzero(long_mask):
        adj.setdefault((int(pairs[i, 0]), int(pairs[i, 1])), []).append(int(owners[i]))
    touched = np.zeros(len(faces), dtype=bool)
    replaced = np.zeros(len(faces), dtype=bool)
    extra_pts = []
    out_faces, out_mult = [], []
    next_idx = len(verts)
    for (a, b) in sorted(adj):
        fids = adj[(a, b)]
        if any(touched[f] for f in fids):
            continue
        extra_pts.append(0.5 * (verts[a] + verts[b]))
        mid = next_idx
        next_idx += 1
        for fi in fids:
            touched[fi] = True
            replaced[fi] = True
            face = faces[fi]
            if len(face) == 2:
                out_faces += [(a, mid), (mid, b)]
            else:
                c = [x for x in face if x not in (a, b)][0]
                out_faces += [(a, mid, c), (mid, b, c)]
            out_mult += [mult[fi], mult[fi]]
    if not extra_pts:
        return verts, faces, mult, boundary, False
    verts = np.vstack([verts, np.asarray(extra_pts)])
    boundary = np.concatenate([boundary, np.zeros(len(extra_pts), dtype=bool)])
    faces = np.vstack([faces[~replaced], np.asarray(out_faces, dtype=np.int64)])
    mult = np.concatenate([mult[~replaced], np.asarray(out_mult, dtype=np.int64)])
    return verts, faces, mult, boundary, True


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
    corner_pairs = np.array([[0, 1], [1, 2], [2, 0]])
    shortest = np.argmin(rows["edge_lengths"][thin], axis=1)
    sel = faces[thin]
    out = np.stack([sel[np.arange(len(sel)), corner_pairs[shortest, 0]],
                    sel[np.arange(len(sel)), corner_pairs[shortest, 1]]], axis=1)
    return np.sort(out, axis=1)


def _unique_pairs(pairs: np.ndarray, nv: int):
    """``np.unique(pairs, axis=0, return_index=True)``, pairs a < b < nv.

    Sorts the 1-D keys a * nv + b, which order the pairs lexicographically,
    instead of the rows themselves.
    """
    key, first = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_index=True)
    return np.stack([key // nv, key % nv], axis=1), first


def _collapse_pass(verts, faces, mult, boundary, median, rows=None):
    """Collapse short edges and the shortest edges of thin faces; ``rows``
    is the faces' ``_face_pass`` when the caller holds it."""
    if rows is None:
        rows = _face_pass(verts, faces)
    pairs, _ = _edges_of(faces)
    lengths = rows["edge_lengths"].ravel(order="F")
    # an edge's length is the same, bit for bit, in every face that has it,
    # so the short edges are found before the pairs are made unique, and
    # only they are sorted
    short = lengths < COLLAPSE_FACTOR * median
    pairs, first = _unique_pairs(pairs[short], len(verts))
    cand = pairs[np.argsort(lengths[short][first], kind="stable")]
    thin = _thin_face_edges(faces, rows, median)
    if len(thin):
        cand = np.vstack([cand, thin])
    if len(cand) == 0:
        return verts, faces, mult, boundary, False
    verts = verts.copy()
    locked = np.zeros(len(verts), dtype=bool)
    remap = np.arange(len(verts), dtype=np.int64)
    any_done = False
    for a, b in cand:
        a, b = int(a), int(b)
        if locked[a] or locked[b]:
            continue
        if boundary[a] and boundary[b]:
            continue
        if boundary[b]:
            a, b = b, a
        # a survives; interior-interior pairs meet at the midpoint
        if not boundary[a]:
            verts[a] = 0.5 * (verts[a] + verts[b])
        remap[b] = a
        locked[a] = locked[b] = True
        any_done = True
    if not any_done:
        return verts, faces, mult, boundary, False
    faces = remap[faces]
    if faces.shape[1] == 2:
        ok = faces[:, 0] != faces[:, 1]
    else:
        ok = ((faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2])
              & (faces[:, 2] != faces[:, 0]))
    return verts, faces[ok], mult[ok], boundary, True


def _drop_degenerate(verts, faces, mult, median):
    """Non-degenerate faces, their multiplicities and ``_face_pass`` rows."""
    rows = _face_pass(verts, faces)
    ok = rows["measures"] > DEGENERATE_REL * median ** (faces.shape[1] - 1)
    rows = {key: row.compress(ok, axis=0) for key, row in rows.items()}
    return faces[ok], mult[ok], rows


def remesh(v: DiscreteVarifold):
    """One equalization pass; returns (new_varifold, mass_delta)."""
    median = v.median_edge_length()
    # no pass writes its inputs: each returns new arrays or v's own
    verts, faces, mult, bnd, did_split = _split_pass(
        v.vertices, v.faces, v.multiplicity, v.boundary, median,
        v._edge_lengths().ravel(order="F"))
    # unsplit, the faces are v's, whose rows v holds
    rows = None if did_split else v._cache
    verts, faces, mult, bnd, did_collapse = _collapse_pass(
        verts, faces, mult, bnd, median, rows)
    if not (did_split or did_collapse):
        return v, 0.0
    faces, mult, rows = _drop_degenerate(verts, faces, mult, median)
    out = compact(verts, faces, mult, bnd, rows)
    return out, out.total_mass() - v.total_mass()
