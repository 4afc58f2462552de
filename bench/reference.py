"""Generalized Born energetics written apart from the program.

These evaluate the same formulas as ``decimesh.gb`` from the raw
vertex, triangle and atom arrays, blocked over atoms so memory stays
bounded, and are what the output checks compare the program against.
"""

from __future__ import annotations

import math

import numpy as np

# barycentric nodes and area fractions of the 1-point and 3-point rules
RULES = {
    "1pt": (((1 / 3, 1 / 3, 1 / 3),), (1.0,)),
    "3pt": (
        ((2 / 3, 1 / 6, 1 / 6), (1 / 6, 2 / 3, 1 / 6), (1 / 6, 1 / 6, 2 / 3)),
        (1 / 3, 1 / 3, 1 / 3),
    ),
}

BLOCK = 128


def quadrature(vertices, triangles, rule):
    """Nodes, weights and unit normals of a triangle surface."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    n = np.cross(b - a, c - a)
    double_area = np.sqrt((n * n).sum(axis=1))
    normals = n / double_area[:, None]
    nodes, weights = [], []
    for (wa, wb, wc), frac in zip(*RULES[rule]):
        nodes.append(wa * a + wb * b + wc * c)
        weights.append(frac * 0.5 * double_area)
    return np.concatenate(nodes), np.concatenate(weights), np.tile(normals, (len(nodes), 1))


def born_radii(vertices, triangles, centers, rule="1pt"):
    """Effective Born radii: 4 pi / (flux of (r - x) . n / |r - x|^4)."""
    nodes, weights, normals = quadrature(vertices, triangles, rule)
    out = np.empty(len(centers))
    for s in range(0, len(centers), BLOCK):
        d = nodes[None, :, :] - centers[s:s + BLOCK, None, :]
        r2 = (d * d).sum(axis=2)
        flux = ((d * normals[None]).sum(axis=2) * weights[None]) / (r2 * r2)
        out[s:s + BLOCK] = 4.0 * math.pi / flux.sum(axis=1)
    return out


def g_pol(centers, charges, radii, eps_p=1.0, eps_w=80.0):
    """Screened pairwise polarization energy, row block by row block so
    no N x N array is ever held; blocks are summed pairwise, their sums
    exactly."""
    tau = 1.0 / eps_p - 1.0 / eps_w
    sums = []
    for s in range(0, len(centers), BLOCK):
        d = centers[s:s + BLOCK, None, :] - centers[None, :, :]
        r2 = (d * d).sum(axis=2)
        rr = radii[s:s + BLOCK, None] * radii[None, :]
        f = np.sqrt(r2 + rr * np.exp(-r2 / (4.0 * rr)))
        sums.append(float((charges[s:s + BLOCK, None] * charges[None, :] / f).sum()))
    return -0.5 * tau * math.fsum(sums)


def rel_err(got, want):
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)
