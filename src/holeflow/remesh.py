"""Edge-length equalization: split long edges, collapse short ones.

Used periodically during evolution so that advancing free rims do not
exhaust the time-step policy.  Boundary vertices are never moved, merged
away, or deleted; the net mass change of each pass is returned so the flow
ledger can account for it.  Candidate detection is vectorized; only the
accepted edges are touched in Python.
"""

from __future__ import annotations

import numpy as np

from .varifold import (DiscreteVarifold, _face_altitudes,
                       _face_edge_lengths, _face_measures_normals)

SPLIT_FACTOR = 2.0
COLLAPSE_FACTOR = 0.5
DEGENERATE_REL = 1e-12


def _edges_of(faces: np.ndarray):
    """Sorted vertex-pair edges with owning face ids (duplicates kept)."""
    if faces.shape[1] == 2:
        pairs = faces
        owners = np.arange(len(faces))
    else:
        pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                faces[:, [2, 0]]])
        owners = np.tile(np.arange(len(faces)), 3)
    return np.sort(pairs, axis=1), owners


def _split_pass(verts, faces, mult, boundary, median):
    pairs, owners = _edges_of(faces)
    lengths = np.linalg.norm(verts[pairs[:, 0]] - verts[pairs[:, 1]], axis=1)
    long_mask = lengths > SPLIT_FACTOR * median
    if not np.any(long_mask):
        return verts, faces, mult, boundary, False
    adj = {}
    for i in np.flatnonzero(long_mask):
        adj.setdefault((int(pairs[i, 0]), int(pairs[i, 1])), []).append(int(owners[i]))
    touched = np.zeros(len(faces), dtype=bool)
    replaced = np.zeros(len(faces), dtype=bool)
    new_verts = [verts]
    new_bnd = [boundary]
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


def _thin_face_edges(verts, faces, median):
    """Shortest edges of faces whose altitude is far below the median.

    Caps (nearly collinear triangles with moderate edges) are invisible to
    pure edge-length criteria but make the stiffness scale collapse; their
    shortest edge is offered as a collapse candidate.
    """
    if faces.shape[1] == 2 or len(faces) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    c = verts[faces]
    e = _face_edge_lengths(c)
    alt = _face_altitudes(_face_measures_normals(c)[0], e)
    thin = alt < COLLAPSE_FACTOR * median
    if not np.any(thin):
        return np.zeros((0, 2), dtype=np.int64)
    corner_pairs = np.array([[0, 1], [1, 2], [2, 0]])
    shortest = np.argmin(e[thin], axis=1)
    sel = faces[thin]
    out = np.stack([sel[np.arange(len(sel)), corner_pairs[shortest, 0]],
                    sel[np.arange(len(sel)), corner_pairs[shortest, 1]]], axis=1)
    return np.sort(out, axis=1)


def _unique_pairs(pairs: np.ndarray, nv: int) -> np.ndarray:
    """``np.unique(pairs, axis=0)`` for sorted pairs a < b < nv.

    Sorts the 1-D keys a * nv + b, which order the pairs lexicographically,
    instead of the rows themselves.
    """
    key = np.unique(pairs[:, 0] * nv + pairs[:, 1])
    return np.stack([key // nv, key % nv], axis=1)


def _collapse_pass(verts, faces, mult, boundary, median):
    pairs, _ = _edges_of(faces)
    pairs = _unique_pairs(pairs, len(verts))
    lengths = np.linalg.norm(verts[pairs[:, 0]] - verts[pairs[:, 1]], axis=1)
    short_mask = lengths < COLLAPSE_FACTOR * median
    cand = pairs[short_mask][np.argsort(lengths[short_mask], kind="stable")]
    thin = _thin_face_edges(verts, faces, median)
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
    if len(faces) == 0:
        return faces, mult
    area = _face_measures_normals(verts[faces])[0]
    ok = area > DEGENERATE_REL * median ** (faces.shape[1] - 1)
    return faces[ok], mult[ok]


def remesh(v: DiscreteVarifold):
    """One equalization pass; returns (new_varifold, mass_delta)."""
    median = v.median_edge_length()
    verts = v.vertices.copy()
    faces = v.faces.copy()
    mult = v.multiplicity.copy()
    bnd = v.boundary.copy()
    verts, faces, mult, bnd, did_split = _split_pass(verts, faces, mult, bnd, median)
    verts, faces, mult, bnd, did_collapse = _collapse_pass(verts, faces, mult, bnd, median)
    if not (did_split or did_collapse):
        return v, 0.0
    faces, mult = _drop_degenerate(verts, faces, mult, median)
    used = np.zeros(len(verts), dtype=bool)
    if len(faces):
        used[faces.ravel()] = True
    used |= bnd
    remap = -np.ones(len(verts), dtype=np.int64)
    remap[used] = np.arange(int(np.sum(used)))
    out = DiscreteVarifold(verts[used], remap[faces], mult, bnd[used])
    return out, out.total_mass() - v.total_mass()
