"""Periodic triangulations of the unit square.

The coarsest mesh splits [0,1]^2 along the diagonal (0,0)-(1,1) into two
triangles; uniform refinement quadrisects every triangle at the edge
midpoints ("red" refinement).  Opposite boundary sides are identified, so
every logical edge joins exactly two element sides and carries the
translation that maps the far side's trace onto the edge geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Periodic side matching compares canonical midpoint coordinates to this
# absolute tolerance.  All vertex coordinates in the refinement hierarchy
# are dyadic rationals, so matches are exact in practice.
PAIRING_TOL = 1e-10


@dataclass(frozen=True)
class Edge:
    """A logical mesh edge joining two element sides.

    Geometry (endpoints, normal) is stored on the left side, where "left"
    is the adjacent element with the smaller index.  The normal points out
    of the left element.  For a periodic edge, ``offset`` is the translation
    in {0,+-1}^2 that carries the right element's physical trace onto the
    stored segment; it is (0,0) for interior edges.
    """

    v0: np.ndarray
    v1: np.ndarray
    length: float
    normal: np.ndarray
    left: int
    left_side: int
    right: int
    right_side: int
    offset: np.ndarray


@dataclass(frozen=True)
class TriangularMesh:
    """Conforming periodic triangulation of the unit square.

    vertices: (nv, 2) coordinates; triangles: (ne, 3) CCW vertex indices;
    edges: logical edges (each references two element sides); element_areas:
    (ne,) positive areas summing to 1; level: number of uniform refinements
    applied to the two-triangle base mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: tuple[Edge, ...]
    element_areas: np.ndarray
    level: int

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    @property
    def h_max(self) -> float:
        return max(e.length for e in self.edges)

    def jacobians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine maps x = v0 + J xhat per element.

        Returns (origins, J, detJ) with shapes (ne,2), (ne,2,2), (ne,).
        """
        v = self.vertices[self.triangles]
        origins = v[:, 0]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        return origins, J, detJ


def _signed_areas(vertices, triangles):
    v = vertices[triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _side_key(va, vb):
    """Canonical matching key for an element side.

    Interior sides key on their midpoint; boundary sides key on the
    midpoint with the periodic coordinate folded to 0, so that paired
    sides on opposite boundaries collide.
    """
    mid = 0.5 * (va + vb)
    on_line = [
        abs(va[i] - c) < PAIRING_TOL and abs(vb[i] - c) < PAIRING_TOL
        for i in (0, 1)
        for c in (0.0, 1.0)
    ]
    kx, ky = mid
    if on_line[0] or on_line[1]:  # x = 0 or x = 1
        kx = 0.0
    if on_line[2] or on_line[3]:  # y = 0 or y = 1
        ky = 0.0
    return (round(kx / PAIRING_TOL), round(ky / PAIRING_TOL))


def _build_edges(vertices, triangles):
    groups: dict[tuple, list] = {}
    for k, tri in enumerate(triangles):
        for s in range(3):
            va = vertices[tri[s]]
            vb = vertices[tri[(s + 1) % 3]]
            groups.setdefault(_side_key(va, vb), []).append((k, s, va, vb))

    edges = []
    for key in sorted(groups):
        sides = groups[key]
        if len(sides) != 2:
            raise ValueError(f"side group of size {len(sides)} at key {key}")
        sides.sort(key=lambda t: (t[0], t[1]))
        (kl, sl, va, vb), (kr, sr, wa, wb) = sides
        if kl == kr:
            raise ValueError("edge pairs an element with itself")
        tangent = vb - va
        length = float(np.hypot(*tangent))
        normal = np.array([tangent[1], -tangent[0]]) / length
        offset = np.round(0.5 * (va + vb) - 0.5 * (wa + wb))
        edges.append(
            Edge(
                v0=va,
                v1=vb,
                length=length,
                normal=normal,
                left=kl,
                left_side=sl,
                right=kr,
                right_side=sr,
                offset=offset,
            )
        )
    edges.sort(key=lambda e: (e.left, e.left_side))
    return tuple(edges)


def _make_mesh(vertices, triangles, level):
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    areas = _signed_areas(vertices, triangles)
    if np.any(areas <= 0):
        raise ValueError("triangle with non-positive signed area")
    return TriangularMesh(
        vertices=vertices,
        triangles=triangles,
        edges=_build_edges(vertices, triangles),
        element_areas=areas,
        level=level,
    )


def build_base_mesh() -> TriangularMesh:
    """Two-triangle mesh of the periodic unit square, split along (0,0)-(1,1)."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    triangles = [(0, 1, 2), (0, 2, 3)]
    return _make_mesh(vertices, triangles, level=0)


def refine_uniform(mesh: TriangularMesh) -> TriangularMesh:
    """Quadrisect every triangle at its edge midpoints."""
    vertices = [tuple(v) for v in mesh.vertices]
    index = {(round(x / PAIRING_TOL), round(y / PAIRING_TOL)): i for i, (x, y) in enumerate(vertices)}

    def midpoint(i, j):
        m = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        key = (round(m[0] / PAIRING_TOL), round(m[1] / PAIRING_TOL))
        if key not in index:
            index[key] = len(vertices)
            vertices.append(tuple(m))
        return index[key]

    triangles = []
    for a, b, c in mesh.triangles:
        mab = midpoint(a, b)
        mbc = midpoint(b, c)
        mca = midpoint(c, a)
        triangles.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    return _make_mesh(vertices, triangles, level=mesh.level + 1)
