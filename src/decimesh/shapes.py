"""Closed synthetic test surfaces: platonic solids and sphere meshes."""

from __future__ import annotations

import math

import numpy as np

from .mesh import TriangleMesh


def tetrahedron(scale=1.0):
    """Regular tetrahedron with outward CCW orientation."""
    s = float(scale)
    verts = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) * s
    faces = [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)]
    return TriangleMesh(verts, faces)


def octahedron(scale=1.0):
    s = float(scale)
    verts = np.array(
        [
            [s, 0, 0], [-s, 0, 0],
            [0, s, 0], [0, -s, 0],
            [0, 0, s], [0, 0, -s],
        ],
        dtype=float,
    )
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return TriangleMesh(verts, faces)


def icosahedron(radius=1.0):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts = raw * (radius / np.linalg.norm(raw[0]))
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    return TriangleMesh(verts, faces)


def icosphere(level, radius=1.0, center=(0.0, 0.0, 0.0)):
    """Subdivided icosahedron projected to a sphere; 20 * 4**level faces."""
    mesh = icosahedron(1.0)
    verts = [tuple(v) for v in mesh.vertices]
    faces = mesh.triangles.tolist()
    for _ in range(level):
        midpoint = {}

        def split(i, j):
            key = (i, j) if i < j else (j, i)
            idx = midpoint.get(key)
            if idx is None:
                a, b = verts[i], verts[j]
                m = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                inv = 1.0 / math.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
                verts.append((m[0] * inv, m[1] * inv, m[2] * inv))
                idx = len(verts) - 1
                midpoint[key] = idx
            return idx

        new_faces = []
        for (i, j, k) in faces:
            ij, jk, ki = split(i, j), split(j, k), split(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = new_faces
    arr = np.asarray(verts, dtype=float)
    arr /= np.linalg.norm(arr, axis=1)[:, None]
    arr = arr * radius + np.asarray(center, dtype=float)
    return TriangleMesh(arr, faces)


def uv_sphere(segments, rings, radius=1.0, center=(0.0, 0.0, 0.0)):
    """Latitude/longitude sphere with exactly 2 * segments * (rings - 1) faces.

    Useful when a test needs an exact face count no icosphere level hits.
    """
    if segments < 3 or rings < 2:
        raise ValueError("need segments >= 3 and rings >= 2")
    cx, cy, cz = center
    verts = [(cx, cy, cz + radius)]
    for r in range(1, rings):
        theta = math.pi * r / rings
        st, ct = math.sin(theta), math.cos(theta)
        for s in range(segments):
            phi = 2.0 * math.pi * s / segments
            verts.append(
                (
                    cx + radius * st * math.cos(phi),
                    cy + radius * st * math.sin(phi),
                    cz + radius * ct,
                )
            )
    verts.append((cx, cy, cz - radius))
    south = len(verts) - 1

    def ring_vertex(r, s):
        return 1 + (r - 1) * segments + (s % segments)

    faces = []
    for s in range(segments):
        faces.append((0, ring_vertex(1, s), ring_vertex(1, s + 1)))
    for r in range(1, rings - 1):
        for s in range(segments):
            a = ring_vertex(r, s)
            b = ring_vertex(r, s + 1)
            c = ring_vertex(r + 1, s)
            d = ring_vertex(r + 1, s + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    for s in range(segments):
        faces.append((south, ring_vertex(rings - 1, s + 1), ring_vertex(rings - 1, s)))
    return TriangleMesh(np.asarray(verts, dtype=float), faces)
