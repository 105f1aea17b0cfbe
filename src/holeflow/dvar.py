"""ASCII mesh format "DVAR 1" for discrete varifolds.

Layout:
    DVAR 1 <ambient_dim>
    v x y [z]          one line per vertex, 17 significant digits
    f i j [k] m        0-based vertex indices plus integer multiplicity
    b i                boundary flag for vertex i

Parse errors carry the offending line number.  Coordinates must be finite
and every face must have positive measure.
"""

from __future__ import annotations

import math

import numpy as np

from .varifold import DiscreteVarifold, _face_pass


class DvarParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_dvar(v: DiscreteVarifold, path) -> None:
    d = v.ambient_dim
    with open(path, "w") as fh:
        fh.write(f"DVAR 1 {d}\n")
        for row in v.vertices:
            fh.write("v " + " ".join(f"{x:.17g}" for x in row) + "\n")
        for face, m in zip(v.faces, v.multiplicity):
            fh.write("f " + " ".join(str(i) for i in face) + f" {m}\n")
        for i in np.flatnonzero(v.boundary):
            fh.write(f"b {i}\n")


def read_dvar(path) -> DiscreteVarifold:
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise DvarParseError(1, "empty file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "DVAR" or head[1] != "1":
        raise DvarParseError(1, "expected header 'DVAR 1 <dim>'")
    try:
        dim = int(head[2])
    except ValueError:
        raise DvarParseError(1, f"bad ambient dimension {head[2]!r}") from None
    if dim not in (2, 3):
        raise DvarParseError(1, f"unsupported ambient dimension {dim}")

    vertices, faces, mults, bnd_idx = [], [], [], []
    face_lines, bnd_lines = [], []
    for no, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag = parts[0]
        if tag == "v":
            if len(parts) != dim + 1:
                raise DvarParseError(no, f"vertex needs {dim} coordinates")
            try:
                coords = [float(x) for x in parts[1:]]
            except ValueError:
                raise DvarParseError(no, "bad vertex coordinate") from None
            if not all(map(math.isfinite, coords)):
                raise DvarParseError(no, "non-finite vertex coordinate")
            vertices.append(coords)
        elif tag == "f":
            if len(parts) != dim + 2:
                raise DvarParseError(no, f"face needs {dim} indices and a multiplicity")
            try:
                idx = [int(x) for x in parts[1:-1]]
                m = int(parts[-1])
            except ValueError:
                raise DvarParseError(no, "bad face entry") from None
            if not 1 <= m < 2 ** 63:
                raise DvarParseError(no, "multiplicity must be in [1, 2^63)")
            faces.append(idx)
            mults.append(m)
            face_lines.append(no)
        elif tag == "b":
            if len(parts) != 2:
                raise DvarParseError(no, "boundary flag needs one index")
            try:
                bnd_idx.append(int(parts[1]))
            except ValueError:
                raise DvarParseError(no, "bad boundary index") from None
            bnd_lines.append(no)
        else:
            raise DvarParseError(no, f"unknown record {tag!r}")

    nv = len(vertices)
    for no, idx in zip(face_lines, faces):
        if min(idx) < 0 or max(idx) >= nv:
            raise DvarParseError(no, "face index out of range")
    verts = np.asarray(vertices, dtype=float).reshape(nv, dim)
    face_arr = np.asarray(faces, dtype=np.int64).reshape(len(faces), dim)
    rows = _face_pass(verts, face_arr)  # handed to the mesh, not redone
    degenerate = np.flatnonzero(~(rows["measures"] > 0.0))
    if len(degenerate):
        raise DvarParseError(face_lines[degenerate[0]], "degenerate face")
    boundary = np.zeros(nv, dtype=bool)
    for no, i in zip(bnd_lines, bnd_idx):
        if not 0 <= i < nv:
            raise DvarParseError(no, f"boundary index {i} out of range")
        boundary[i] = True
    return DiscreteVarifold(verts, face_arr, np.asarray(mults, dtype=np.int64),
                            boundary, rows)
