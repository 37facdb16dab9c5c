import numpy as np
import pytest

from mddg.mesh import EdgeTable, TriangularMesh
from mddg.operator import _shape_jacobians

from conftest import grid_jacobians, reference_jacobians, reference_mesh


@pytest.fixture(scope="module")
def hierarchy():
    return [TriangularMesh(level) for level in range(4)]


def _all_vertices(mesh):
    return mesh.element_vertices(np.arange(mesh.n_elements))


def test_base_mesh_counts():
    m = TriangularMesh(0)
    assert m.n_elements == 2
    assert len(m.edges) == 3
    assert m.level == 0 and m.N == 1


def test_base_mesh_areas():
    _, _, detJ = grid_jacobians(TriangularMesh(0))
    assert np.allclose(0.5 * detJ, [0.5, 0.5])


def test_edges_join_distinct_elements(hierarchy):
    for m in hierarchy:
        e = m.edges
        assert np.all(e.left < e.right)


def test_refinement_counts(hierarchy):
    for level, m in enumerate(hierarchy):
        assert m.n_elements == 2 * 4**level
        assert m.level == level and m.N == 2**level
        # the edges that touch cell 0 hold each of its six element sides once
        e = m.edges
        assert len(e) == (3 if level == 0 else 5)
        sides = [(k, s) for k, s in zip(e.left, e.left_side)]
        sides += [(k, s) for k, s in zip(e.right, e.right_side) if k <= 1]
        assert sorted(sides) == [(k, s) for k in (0, 1) for s in range(3)]


def test_area_partition_preserved(hierarchy):
    assert abs(0.5 * grid_jacobians(hierarchy[3])[2].sum() - 1.0) < 1e-12
    for m in hierarchy:
        assert np.all(grid_jacobians(m)[2] > 0)


def test_positive_signed_area(hierarchy):
    for m in hierarchy:
        v = _all_vertices(m)
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.all(cross > 0)


def test_refinement_nested(hierarchy):
    # every child's parent, the one coarse triangle around its centroid, holds all of
    # the child's vertices (inside or on its boundary), and every parent has four children
    for coarse, fine in zip(hierarchy, hierarchy[1:]):
        children = np.zeros(coarse.n_elements, dtype=int)
        coarse_vertices = _all_vertices(coarse)
        for vc in _all_vertices(fine):
            parents = []
            for kp, vp in enumerate(coarse_vertices):
                T = np.column_stack([vp[1] - vp[0], vp[2] - vp[0]])
                bary = np.linalg.solve(T, (vc.mean(axis=0) - vp[0]))
                if np.all(bary > 0) and bary.sum() < 1:
                    parents.append(kp)
            [kp] = parents
            vp = coarse_vertices[kp]
            T = np.column_stack([vp[1] - vp[0], vp[2] - vp[0]])
            bary = np.linalg.solve(T, (vc - vp[0]).T).T
            assert np.all(bary >= -1e-12)
            assert np.all(bary.sum(axis=1) <= 1 + 1e-12)
            children[kp] += 1
        assert np.all(children == 4)


def test_edge_normals_unit(hierarchy):
    for m in hierarchy:
        e = m.edges
        assert np.all(np.abs(np.linalg.norm(e.normal, axis=1) - 1.0) < 1e-14)
        assert np.all(e.length > 0)


def _dot(a, b):
    return np.einsum("ea,ea->e", a, b)


def test_normal_points_out_of_left_element(hierarchy):
    for m in hierarchy:
        e = m.edges
        centroid = m.element_vertices(e.left).mean(axis=1)
        mid = 0.5 * (e.v0 + e.v1)
        assert np.all(_dot(mid - centroid, e.normal) > 0)


def test_periodic_offset_maps_right_trace_onto_edge(hierarchy):
    for m in hierarchy:
        e = m.edges
        v = m.element_vertices(e.right)
        rows = np.arange(len(e))
        a = v[rows, e.right_side]
        b = v[rows, (e.right_side + 1) % 3]
        for pt in (a, b, 0.5 * (a + b)):
            mapped = pt + e.offset
            along = _dot(mapped - e.v0, e.v1 - e.v0) / e.length**2
            perp = np.abs(_dot(mapped - e.v0, e.normal))
            assert np.all(perp < 1e-12)
            assert np.all((-1e-12 <= along) & (along <= 1 + 1e-12))


def test_offset_values_in_unit_set(hierarchy):
    for m in hierarchy:
        assert set(np.unique(m.edges.offset)) <= {-1.0, 0.0, 1.0}


def test_edge_lengths_halve(hierarchy):
    for coarse, fine in zip(hierarchy, hierarchy[1:]):
        coarse_lengths = np.unique(np.round(coarse.edges.length, 12))
        fine_lengths = np.unique(np.round(fine.edges.length, 12))
        assert np.allclose(2 * fine_lengths, coarse_lengths, atol=1e-12)
        assert abs(fine.h_max - 0.5 * coarse.h_max) < 1e-12


def test_base_mesh_has_diagonal_edge():
    e = TriangularMesh(0).edges
    diag = np.all(np.isclose(np.abs(e.normal), np.sqrt(0.5)), axis=1)
    assert np.count_nonzero(diag) == 1
    assert np.all(e.offset[diag] == 0.0)


@pytest.mark.parametrize("level", range(7))
def test_grid_mesh_matches_reference_bitwise(level):
    # the oracle refines the base triangulation with a midpoint dictionary and pairs its
    # sides periodically; the grid mesh must give its element vertices, h_max and its edge
    # rows that touch elements 0 and 1, and its two shapes every element's Jacobian, bit for bit
    m, ref = TriangularMesh(level), reference_mesh(level)
    pairs = {"element vertices": (_all_vertices(m), ref.vertices[ref.triangles])}
    shape = np.arange(m.n_elements) % 2
    for name, got, expected in zip(("J", "detJ"), _shape_jacobians(m), reference_jacobians(ref)[1:]):
        pairs[name] = (got[shape], expected)
    touching = (ref.edges["left"] <= 1) | (ref.edges["right"] <= 1)
    for name in EdgeTable.__dataclass_fields__:
        pairs[name] = (getattr(m.edges, name), ref.edges[name][touching])
    pairs["h_max"] = (np.float64(m.h_max), ref.edges["length"].max())
    for name, (got, expected) in pairs.items():
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def test_elements_are_translates_of_the_base_triangles():
    # every element starts at its lower-left vertex, and element e is slot e: the lower
    # (e even) or upper (e odd) triangle of cell e // 2 of the N x N grid
    for level in range(7):
        m = TriangularMesh(level)
        N, h = 2**level, 2.0**-level
        v = _all_vertices(m)
        assert np.all(np.argmin(v.sum(axis=2), axis=1) == 0)
        assert m.N == N and m.n_elements == 2 * N * N
        cell, upper = np.divmod(np.arange(m.n_elements), 2)
        iy, ix = np.divmod(cell, N)
        assert np.array_equal(v[:, 0], h * np.stack([ix, iy], axis=1))
        shapes = h * np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
        assert np.array_equal(v - v[:, :1], shapes[upper])


@pytest.mark.parametrize(
    "level", [-1, True, False, 1.0, 2.5, np.float64(2.0), "2", None], ids=repr
)
def test_level_must_be_a_non_negative_integer(level):
    # a negative level would give N = 2^-1, a fraction of a cell
    with pytest.raises(ValueError, match="mesh level must be a non-negative integer"):
        TriangularMesh(level)


def test_numpy_integer_level_accepted():
    m = TriangularMesh(np.int64(2))
    assert type(m.level) is int and m.N == 4 and m.n_elements == 32
