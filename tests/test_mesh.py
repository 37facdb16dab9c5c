import numpy as np
import pytest

from mddg.mesh import build_base_mesh, refine_uniform


@pytest.fixture(scope="module")
def hierarchy():
    meshes = [build_base_mesh()]
    for _ in range(3):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def test_base_mesh_counts():
    m = build_base_mesh()
    assert len(m.vertices) == 4
    assert m.n_elements == 2
    assert len(m.edges) == 3
    assert m.level == 0


def test_base_mesh_areas():
    m = build_base_mesh()
    assert np.allclose(m.element_areas, [0.5, 0.5])


def test_base_mesh_edges_join_distinct_sides():
    m = build_base_mesh()
    for e in m.edges:
        assert (e.left, e.left_side) != (e.right, e.right_side)
        assert e.left < e.right or (e.left == e.right and e.left_side != e.right_side)


def test_refinement_counts(hierarchy):
    m1 = hierarchy[1]
    assert m1.n_elements == 8
    assert len(m1.edges) == 12  # 3 * 8 / 2 on a periodic mesh
    for level, m in enumerate(hierarchy):
        assert m.n_elements == 2 * 4**level
        assert len(m.edges) == 3 * m.n_elements // 2
        assert m.level == level


def test_area_partition_preserved(hierarchy):
    assert abs(hierarchy[3].element_areas.sum() - 1.0) < 1e-12
    for m in hierarchy:
        assert np.all(m.element_areas > 0)


def test_positive_signed_area(hierarchy):
    for m in hierarchy:
        v = m.vertices[m.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.all(cross > 0)


def test_refinement_nested(hierarchy):
    # every child vertex lies inside (or on the boundary of) its parent
    for coarse, fine in zip(hierarchy, hierarchy[1:]):
        for kp, tri in enumerate(coarse.triangles):
            vp = coarse.vertices[tri]
            T = np.column_stack([vp[1] - vp[0], vp[2] - vp[0]])
            for kc in range(4 * kp, 4 * kp + 4):
                vc = fine.vertices[fine.triangles[kc]]
                bary = np.linalg.solve(T, (vc - vp[0]).T).T
                assert np.all(bary >= -1e-12)
                assert np.all(bary.sum(axis=1) <= 1 + 1e-12)


def test_edge_normals_unit(hierarchy):
    for m in hierarchy:
        for e in m.edges:
            assert abs(np.linalg.norm(e.normal) - 1.0) < 1e-14
            assert e.length > 0


def test_normal_points_out_of_left_element(hierarchy):
    for m in hierarchy:
        for e in m.edges:
            centroid = m.vertices[m.triangles[e.left]].mean(axis=0)
            mid = 0.5 * (e.v0 + e.v1)
            assert (mid - centroid) @ e.normal > 0


def test_periodic_offset_maps_right_trace_onto_edge(hierarchy):
    for m in hierarchy[:3]:
        for e in m.edges:
            tri = m.triangles[e.right]
            a = m.vertices[tri[e.right_side]]
            b = m.vertices[tri[(e.right_side + 1) % 3]]
            for pt in (a, b, 0.5 * (a + b)):
                mapped = pt + e.offset
                along = (mapped - e.v0) @ (e.v1 - e.v0) / e.length**2
                perp = abs((mapped - e.v0) @ e.normal)
                assert perp < 1e-12
                assert -1e-12 <= along <= 1 + 1e-12


def test_offset_values_in_unit_set(hierarchy):
    for m in hierarchy:
        for e in m.edges:
            assert set(np.unique(e.offset)) <= {-1.0, 0.0, 1.0}


def test_edge_lengths_halve(hierarchy):
    for coarse, fine in zip(hierarchy, hierarchy[1:]):
        coarse_lengths = sorted({round(e.length, 12) for e in coarse.edges})
        fine_lengths = sorted({round(e.length, 12) for e in fine.edges})
        assert np.allclose([2 * x for x in fine_lengths], coarse_lengths, atol=1e-12)
        assert abs(fine.h_max - 0.5 * coarse.h_max) < 1e-12


def test_base_mesh_has_diagonal_edge():
    m = build_base_mesh()
    diag = [e for e in m.edges if np.allclose(np.abs(e.normal), np.sqrt(0.5))]
    assert len(diag) == 1
    assert np.allclose(diag[0].offset, 0.0)
