"""Fixture surfaces: sheet stacks, branched disks and spheres.

Stacked-disk fixtures stand in for stationary surfaces with a flat
multiplicity-Q tangent at the origin; they are built from a common polar
disk triangulation so that sheets are vertex-aligned (required by the
coincidence detection in hole nucleation).  The outer rim is flagged as
fixed boundary.  Face counts grow by 4 per mesh level.
"""

from __future__ import annotations

import numpy as np

from .varifold import DiscreteVarifold

FIXTURE_KINDS = ("flat_stack", "branched_disk", "perturbed_stack")
BRANCH_COEF = 0.5         # branched_disk: outermost sheet height coefficient
BRANCH_BETA = 1.0 / 3.0   # branched_disk: heights grow as r^(1 + beta)


def disk_triangulation(radius: float, level: int):
    """Polar triangulation of a planar disk.

    Rings i = 0..m at radius * i/m with 6i vertices on ring i (m = 2^level);
    returns (points (nv, 2), faces (nf, 3), rim_mask).  Ring radii are exact
    binary fractions of `radius`, so circles at radius * i/m are mesh rings.
    """
    if level < 1:
        raise ValueError("mesh level must be >= 1")
    m = 2 ** level
    pts = [np.zeros(2)]
    offsets = [0]
    for i in range(1, m + 1):
        offsets.append(len(pts))
        ang = 2.0 * np.pi * np.arange(6 * i) / (6 * i)
        r = radius * (i / m)
        pts.extend(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
    faces = []
    for i in range(1, m + 1):
        no, ni = 6 * i, 6 * (i - 1)
        for s in range(6):
            outer = [offsets[i] + (s * i + t) % no for t in range(i + 1)]
            if i == 1:
                faces.append((outer[0], outer[1], 0))
                continue
            inner = [offsets[i - 1] + (s * (i - 1) + t) % ni for t in range(i)]
            for t in range(i):
                faces.append((outer[t], outer[t + 1], inner[t]))
            for t in range(i - 1):
                faces.append((inner[t], outer[t + 1], inner[t + 1]))
    rim = np.zeros(len(pts), dtype=bool)
    rim[offsets[m]:] = True
    return np.asarray(pts), np.asarray(faces, dtype=np.int64), rim


def _stack_sheets(points2d, faces2d, rim, heights_per_sheet):
    """Assemble q sheets over a common planar mesh into one varifold."""
    nv = len(points2d)
    verts, faces, bnd = [], [], []
    for i, hz in enumerate(heights_per_sheet):
        verts.append(np.column_stack([points2d, hz]))
        faces.append(faces2d + i * nv)
        bnd.append(rim.copy())
    v = np.vstack(verts)
    f = np.vstack(faces)
    b = np.concatenate(bnd)
    return DiscreteVarifold(v, f, np.ones(len(f), dtype=np.int64), b)


def make_fixture(kind: str, q: int, mesh_level: int, radius: float = 1.0,
                 spacing: float = 0.0) -> DiscreteVarifold:
    """Build a Q-sheet fixture over a disk of the given radius.

    flat_stack      : parallel sheets at constant heights spacing*(i-(Q-1)/2)
                      (spacing 0 gives Q coincident sheets).
    branched_disk   : sheets at heights c_i * r^(1+beta), pinched at the
                      origin; stays inside the slow-growth envelope.
    perturbed_stack : sheets with linear-in-r heights modulated by a radial
                      wave; envelope-compatible for small spacing.
    """
    if q < 1:
        raise ValueError("Q must be >= 1")
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    pts, faces, rim = disk_triangulation(radius, mesh_level)
    r = np.linalg.norm(pts, axis=1)
    lin = np.arange(q) - (q - 1) / 2.0
    heights = []
    for c in lin:
        if kind == "flat_stack":
            heights.append(np.full(len(pts), c * spacing))
        elif kind == "branched_disk":
            scale = BRANCH_COEF * (c / max((q - 1) / 2.0, 0.5) if q > 1 else 1.0)
            heights.append(scale * r ** (1.0 + BRANCH_BETA))
        else:
            amp = c * spacing * 0.5
            heights.append(amp * r * (1.0 + 0.5 * np.sin(3.0 * np.pi * r / radius)))
    return _stack_sheets(pts, faces, rim, heights)


def icosphere(level: int, radius: float = 1.0) -> DiscreteVarifold:
    """Subdivided icosahedron projected to the sphere; closed, no boundary."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    for _ in range(level):
        verts_list = list(verts)
        midpoint = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                p = verts_list[a] + verts_list[b]
                p = p / np.linalg.norm(p)
                midpoint[key] = len(verts_list)
                verts_list.append(p)
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc),
                              (ab, bc, ca)])
        verts = np.asarray(verts_list)
        faces = np.asarray(new_faces, dtype=np.int64)
    verts = verts * radius
    return DiscreteVarifold(verts, faces, np.ones(len(faces), dtype=np.int64),
                            np.zeros(len(verts), dtype=bool))
