"""The periodic grid meshes of the unit square.

Level L cuts [0,1]^2 into an N x N grid of cells, N = 2^L, and every cell
along its diagonal (x, y) -> (x + h, y + h), h = 1/N, into a lower and an
upper triangle: the two-triangle base mesh refined L times by edge
midpoints.  Element e is ``BASE_TRIANGLES[e % 2]``, vertex order included,
scaled by h and moved to cell e // 2 = iy N + ix at (ix, iy) h.  Opposite
boundary sides are identified.  All coordinates are dyadic rationals, so
the geometry is exact.  With constant coefficients the DG operator
commutes with the grid's translations (Hemker, Hoffmann & van Raalte,
SISC 25, 2003), so assembly reads only the edges that touch cell 0, and
those are the edges a mesh holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the base mesh's lower (shape 0) and upper (shape 1) triangle of the unit cell, from vertex 0
BASE_TRIANGLES = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]], dtype=float)
# the sides of cell 0 as (element, side, cell offset (dx, dy) of the element across it, that
# element's shape, its side): the lower triangle's bottom, right and diagonal, then the upper
# triangle's top and left, which for N = 1 are the bottom and right seen from across
_CELL0_SIDES = (
    (0, 0, (0, -1), 1, 1),
    (0, 1, (1, 0), 1, 2),
    (0, 2, (0, 0), 1, 0),
    (1, 1, (0, 1), 0, 0),
    (1, 2, (-1, 0), 0, 1),
)


@dataclass(frozen=True)
class EdgeTable:
    """Mesh edges as parallel arrays, one entry per edge.

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


def _cell0_edges(N: int) -> EdgeTable:
    """The edges that touch elements 0 and 1 of the N x N grid: 5, or 3 for N = 1."""
    rows = _CELL0_SIDES[: 3 if N == 1 else 5]
    left, left_side, shift, shape, right_side = (np.array(column) for column in zip(*rows))
    ix, iy = (shift % N).T
    v0 = BASE_TRIANGLES[left, left_side] / N
    v1 = BASE_TRIANGLES[left, (left_side + 1) % 3] / N
    tangent = v1 - v0
    length = np.hypot(tangent[:, 0], tangent[:, 1])
    return EdgeTable(
        left=left,
        left_side=left_side,
        right=2 * (iy * N + ix) + shape,
        right_side=right_side,
        v0=v0,
        v1=v1,
        normal=np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / length[:, None],
        length=length,
        offset=(shift - shift % N) / N,
    )


class TriangularMesh:
    """Level ``level`` of the periodic grid hierarchy: N = 2^level, 2 N^2 elements, and
    ``edges``, the <= 5 edges that touch elements 0 and 1 (cell 0)."""

    def __init__(self, level: int):
        if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 0:
            raise ValueError(f"mesh level must be a non-negative integer, got {level!r}")
        self.level = int(level)
        self.N = 2**self.level
        self.edges = _cell0_edges(self.N)

    @property
    def n_elements(self) -> int:
        return 2 * self.N * self.N

    @property
    def h_max(self) -> float:
        return float(self.edges.length.max())  # the diagonal, an edge of cell 0

    def element_vertices(self, elements) -> np.ndarray:
        """(k, 3, 2) vertices of ``elements``: ``BASE_TRIANGLES[e % 2]`` moved to cell e // 2."""
        e = np.asarray(elements)
        iy, ix = np.divmod(e // 2, self.N)
        return (BASE_TRIANGLES[e % 2] + np.stack([ix, iy], axis=-1)[..., None, :]) / self.N

    def jacobians(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Affine maps x = v0 + J xhat per element.

        Returns (origins, J, detJ) with shapes (ne,2), (ne,2,2), (ne,).
        """
        v = self.element_vertices(np.arange(self.n_elements))
        origins = v[:, 0]
        J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        return origins, J, detJ
