"""Mesh and atom file formats.

OFF is the native mesh format (triangles only); OBJ import is accepted
read-only as a convenience (v/f lines, 1-based indices). Atom files are
plain text with one ``x y z q r_vdw`` record per line and ``#``
comments. Floats are written with full precision so parse/serialize
round trips are lossless.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .gb import Atom
from .mesh import TriangleMesh, validate


def _content_lines(text):
    """Yield (line_number, stripped_line), skipping blanks and comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _floats(tokens, n, lineno, what):
    if len(tokens) != n:
        raise ParseError(f"expected {n} {what} fields, got {len(tokens)}", lineno)
    out = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise ParseError(f"bad number {tok!r}", lineno) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value {tok!r}", lineno)
        out.append(v)
    return out


def parse_off(text, validate_mesh=True) -> TriangleMesh:
    """Parse OFF text into a TriangleMesh, preserving vertex order.

    Accepts only triangular faces. By default the mesh is validated
    (closed manifold); pass ``validate_mesh=False`` to parse a mesh you
    intend to inspect or repair.
    """
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty file") from None
    if header != "OFF":
        raise ParseError(f"expected OFF header, got {header!r}", lineno)
    try:
        lineno, counts = next(lines)
    except StopIteration:
        raise ParseError("missing counts line") from None
    parts = counts.split()
    if len(parts) != 3:
        raise ParseError("counts line must be 'V F E'", lineno)
    try:
        n_verts, n_faces = int(parts[0]), int(parts[1])
        int(parts[2])  # edge count is carried but ignored
    except ValueError:
        raise ParseError("counts must be integers", lineno) from None
    if n_verts < 0 or n_faces < 0:
        raise ParseError("negative counts", lineno)

    # a header may claim more rows than the file holds; check before
    # allocating arrays of the claimed size
    rows = list(lines)
    if len(rows) < n_verts + n_faces:
        raise ParseError(
            f"header claims {n_verts} vertices and {n_faces} faces, "
            f"but {len(rows)} lines follow it", lineno,
        )
    if len(rows) > n_verts + n_faces:
        lineno, line = rows[n_verts + n_faces]
        raise ParseError(f"unexpected trailing content {line!r}", lineno)

    verts = np.empty((n_verts, 3))
    for k in range(n_verts):
        lineno, line = rows[k]
        verts[k] = _floats(line.split(), 3, lineno, "coordinate")

    faces = np.empty((n_faces, 3), dtype=np.int64)
    for k in range(n_faces):
        lineno, line = rows[n_verts + k]
        parts = line.split()
        if not parts:
            raise ParseError("empty face line", lineno)
        try:
            nv = int(parts[0])
        except ValueError:
            raise ParseError(f"bad face vertex count {parts[0]!r}", lineno) from None
        if nv != 3:
            raise ParseError(f"only triangles supported, face has {nv} vertices", lineno)
        if len(parts) != 4:
            raise ParseError("face line must be '3 i j k'", lineno)
        try:
            idx = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError("face indices must be integers", lineno) from None
        for i in idx:
            if i < 0 or i >= n_verts:
                raise ParseError(f"vertex index {i} out of range", lineno)
        faces[k] = idx
    del rows  # free the lines before the mesh build, the memory peak of a parse

    mesh = TriangleMesh(verts, faces)
    if validate_mesh:
        validate(mesh)
    return mesh


def write_off(mesh: TriangleMesh) -> str:
    """Serialize to OFF, compacting retired vertex and triangle slots.

    Live vertices keep their relative order, so a mesh that never saw a
    collapse round-trips with identical indices. Coordinates use repr
    precision (lossless on reparse).
    """
    live = mesh.live_vertex_ids()
    remap = np.empty(len(mesh.vertices), dtype=np.int64)
    remap[live] = np.arange(len(live))
    faces = remap[mesh.live_triangle_array()].tolist()
    out = ["OFF", f"{len(live)} {len(faces)} 0"]
    for (x, y, z) in mesh.vertices[live].tolist():
        out.append(f"{x!r} {y!r} {z!r}")
    for (a, b, c) in faces:
        out.append(f"3 {a} {b} {c}")
    return "\n".join(out) + "\n"


def parse_obj(text, validate_mesh=True) -> TriangleMesh:
    """Read-only OBJ convenience import: v/f lines, 1-based indices.

    Face entries may carry texture/normal slashes; only the vertex index
    is used. Everything except v and f lines is ignored.
    """
    verts = []
    faces = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            verts.append(_floats(parts[1:], 3, lineno, "coordinate"))
        elif tag == "f":
            if len(parts) != 4:
                raise ParseError(
                    f"only triangles supported, face has {len(parts) - 1} vertices",
                    lineno,
                )
            idx = []
            for p in parts[1:]:
                head = p.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    raise ParseError(f"bad face index {p!r}", lineno) from None
                if i < 1 or i > len(verts):
                    raise ParseError(f"vertex index {i} out of range", lineno)
                idx.append(i - 1)
            faces.append(idx)
    if not verts:
        raise ParseError("no vertices found")
    mesh = TriangleMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64).reshape(-1, 3))
    if validate_mesh:
        validate(mesh)
    return mesh


def parse_atoms(text):
    """Parse atom records: one ``x y z q r_vdw`` line per atom."""
    atoms = []
    for lineno, line in _content_lines(text):
        x, y, z, q, rvdw = _floats(line.split(), 5, lineno, "atom")
        atoms.append(Atom(center=(x, y, z), charge=q, vdw_radius=rvdw))
    return atoms


def write_atoms(atoms) -> str:
    out = ["# x y z charge r_vdw"]
    for a in atoms:
        x, y, z = np.asarray(a.center, dtype=float).tolist()
        out.append(
            f"{x!r} {y!r} {z!r} {float(a.charge)!r} {float(a.vdw_radius)!r}"
        )
    return "\n".join(out) + "\n"


def load_mesh(path, validate_mesh=True) -> TriangleMesh:
    """Load a mesh file by extension (.off or .obj)."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.lower().endswith(".obj"):
        return parse_obj(text, validate_mesh=validate_mesh)
    return parse_off(text, validate_mesh=validate_mesh)


def save_mesh(mesh, path):
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(write_off(mesh))


def load_atoms(path):
    with open(str(path), "r", encoding="utf-8") as fh:
        return parse_atoms(fh.read())


def save_atoms(atoms, path):
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(write_atoms(atoms))
