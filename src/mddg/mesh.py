"""Periodic triangulations of the unit square.

The coarsest mesh splits [0,1]^2 along the diagonal (0,0)-(1,1) into two
triangles; uniform refinement quadrisects every triangle at the edge
midpoints ("red" refinement).  Opposite boundary sides are identified, so
every logical edge joins exactly two element sides and carries the
translation that maps the far side's trace onto the edge geometry.  The
edges are stored as one table of parallel arrays, built by sorting the
element sides on a canonical midpoint key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Periodic side matching compares canonical midpoint coordinates to this
# absolute tolerance.  All vertex coordinates in the refinement hierarchy
# are dyadic rationals, so matches are exact in practice.
PAIRING_TOL = 1e-10
# the base mesh's lower (shape 0) and upper (shape 1) triangle of the unit cell, from vertex 0
BASE_TRIANGLES = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]], dtype=float)


@dataclass(frozen=True)
class EdgeTable:
    """The logical mesh edges as parallel arrays, one entry per edge.

    Edge i joins side ``left_side[i]`` of element ``left[i]`` to side
    ``right_side[i]`` of element ``right[i]``, where "left" is the element
    with the smaller index (side s of a triangle runs from its vertex s to
    vertex s + 1).  The geometry is stored on the left side: endpoints
    ``v0``, ``v1`` (E, 2), unit ``normal`` (E, 2) pointing out of the left
    element, and ``length`` (E,).  For a periodic edge, ``offset`` (E, 2)
    is the translation in {0,+-1}^2 that carries the right element's
    physical trace onto the stored segment; it is (0,0) for interior edges.
    Edges are ordered by (left, left_side).
    """

    left: np.ndarray
    left_side: np.ndarray
    right: np.ndarray
    right_side: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    normal: np.ndarray
    length: np.ndarray
    offset: np.ndarray

    def __len__(self) -> int:
        return len(self.left)


@dataclass(frozen=True)
class TriangularMesh:
    """Conforming periodic triangulation of the unit square.

    vertices: (nv, 2) coordinates; triangles: (ne, 3) CCW vertex indices;
    edges: the 3 ne / 2 logical edges, each joining two element sides;
    element_areas: (ne,) positive areas summing to 1; level: number of
    uniform refinements applied to the two-triangle base mesh.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: EdgeTable
    element_areas: np.ndarray
    level: int

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    @property
    def h_max(self) -> float:
        return float(self.edges.length.max())

    def grid_size(self) -> int:
        """N = 2^level, once checked exactly (on dyadic coordinates) that element e is slot e of
        the N x N grid: ``BASE_TRIANGLES[e % 2]``, vertex order included, moved to cell
        e // 2 = iy N + ix at (ix, iy) / N.  Raises ValueError otherwise."""
        N, e = 2**self.level, np.arange(self.n_elements)
        iy, ix = np.divmod(e // 2, N)
        expected = BASE_TRIANGLES[e % 2] + np.stack([ix, iy], axis=1)[:, None, :]
        if len(e) != 2 * N * N or not np.array_equal(self.vertices[self.triangles] * N, expected):
            raise ValueError("mesh elements are not the grid's translated base triangles in slot order")
        return N

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


def _build_edges(vertices, triangles) -> EdgeTable:
    """Pair the 3 ne element sides into edges with one sort.

    Side s of element k sits at flat index 3k + s.  Each side keys on its
    midpoint, with the periodic coordinate folded to 0 for sides on the
    boundary lines x = 0, 1 or y = 0, 1, so that paired sides on opposite
    boundaries collide.  A stable sort on the rounded key puts the two
    sides of an edge next to each other, the left one first.
    """
    va = vertices[triangles].reshape(-1, 2)
    vb = vertices[np.roll(triangles, -1, axis=1)].reshape(-1, 2)
    mid = 0.5 * (va + vb)
    lines = np.array([0.0, 1.0])
    on_line = (
        (np.abs(va[..., None] - lines) < PAIRING_TOL) & (np.abs(vb[..., None] - lines) < PAIRING_TOL)
    ).any(axis=-1)
    key = np.round(np.where(on_line, 0.0, mid) / PAIRING_TOL)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key = key[order]
    starts = np.flatnonzero(np.r_[True, np.any(key[1:] != key[:-1], axis=1)])
    sizes = np.diff(np.r_[starts, len(order)])
    if np.any(sizes != 2):
        bad = np.flatnonzero(sizes != 2)[0]
        raise ValueError(f"side group of size {sizes[bad]} at key {tuple(key[starts[bad]])}")
    first, second = order[starts], order[starts + 1]
    if np.any(first // 3 == second // 3):
        raise ValueError("edge pairs an element with itself")
    by_left = np.argsort(first)
    first, second = first[by_left], second[by_left]
    v0, v1 = va[first], vb[first]
    tangent = v1 - v0
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    return EdgeTable(
        left=first // 3,
        left_side=first % 3,
        right=second // 3,
        right_side=second % 3,
        v0=v0,
        v1=v1,
        normal=np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / length[:, None],
        length=length,
        offset=np.round(mid[first] - mid[second]),
    )


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
    """Quadrisect every triangle at its edge midpoints.

    Each side's midpoint becomes one new vertex, shared by the two triangles
    that meet there; new vertices are numbered in order of first use,
    triangle by triangle and side by side.  Each child then starts at its
    lower-left vertex (least x + y), so every element is a translate of a
    base triangle, vertex order included, and the children are numbered in
    slot order (see ``TriangularMesh.grid_size``), as the base mesh is.
    """
    tri = mesh.triangles
    nv = len(mesh.vertices)
    mid = 0.5 * (mesh.vertices[tri] + mesh.vertices[np.roll(tri, -1, axis=1)])  # ab, bc, ca
    mid = mid.reshape(-1, 2)
    _, first, inverse = np.unique(
        np.round(mid / PAIRING_TOL), axis=0, return_index=True, return_inverse=True
    )
    by_use = np.argsort(first)
    number = np.empty(len(first), dtype=np.int64)
    number[by_use] = np.arange(nv, nv + len(first))
    mab, mbc, mca = number[inverse].reshape(-1, 3).T
    a, b, c = tri.T
    # children (a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)
    triangles = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca], axis=1)
    triangles = triangles.reshape(-1, 3)
    vertices = np.concatenate([mesh.vertices, mid[first[by_use]]])
    start = np.argmin(vertices[triangles].sum(axis=2), axis=1)
    triangles = np.take_along_axis(triangles, (start[:, None] + np.arange(3)) % 3, axis=1)
    N, v = 2 ** (mesh.level + 1), vertices[triangles]  # slot: vertex 0 at (ix, iy) / N, shape
    slots = 2 * (np.round(v[:, 0, 1] * N) * N + np.round(v[:, 0, 0] * N)) + (v[:, 1, 1] > v[:, 0, 1])
    return _make_mesh(vertices, triangles[np.argsort(slots)], level=mesh.level + 1)
