import numpy as np
import pytest

from mddg.mesh import PAIRING_TOL, EdgeTable, _make_mesh, build_base_mesh, refine_uniform


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
    e = build_base_mesh().edges
    assert np.all(e.left < e.right)


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
    # every child's parent, the one coarse triangle around its centroid, holds all of
    # the child's vertices (inside or on its boundary), and every parent has four children
    for coarse, fine in zip(hierarchy, hierarchy[1:]):
        children = np.zeros(coarse.n_elements, dtype=int)
        for tri in fine.triangles:
            vc = fine.vertices[tri]
            parents = []
            for kp, ptri in enumerate(coarse.triangles):
                vp = coarse.vertices[ptri]
                T = np.column_stack([vp[1] - vp[0], vp[2] - vp[0]])
                bary = np.linalg.solve(T, (vc.mean(axis=0) - vp[0]))
                if np.all(bary > 0) and bary.sum() < 1:
                    parents.append(kp)
            [kp] = parents
            vp = coarse.vertices[coarse.triangles[kp]]
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
        centroid = m.vertices[m.triangles[e.left]].mean(axis=1)
        mid = 0.5 * (e.v0 + e.v1)
        assert np.all(_dot(mid - centroid, e.normal) > 0)


def test_periodic_offset_maps_right_trace_onto_edge(hierarchy):
    for m in hierarchy[:3]:
        e = m.edges
        tri = m.triangles[e.right]
        rows = np.arange(len(e))
        a = m.vertices[tri[rows, e.right_side]]
        b = m.vertices[tri[rows, (e.right_side + 1) % 3]]
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
    e = build_base_mesh().edges
    diag = np.all(np.isclose(np.abs(e.normal), np.sqrt(0.5)), axis=1)
    assert np.count_nonzero(diag) == 1
    assert np.all(e.offset[diag] == 0.0)


def reference_refine(mesh):
    """Per-triangle refinement with a midpoint dictionary: the oracle for ``refine_uniform``."""
    vertices = [tuple(v) for v in mesh.vertices]
    index = {(round(x / PAIRING_TOL), round(y / PAIRING_TOL)): i for i, (x, y) in enumerate(vertices)}

    def midpoint(i, j):
        m = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        key = (round(m[0] / PAIRING_TOL), round(m[1] / PAIRING_TOL))
        if key not in index:
            index[key] = len(vertices)
            vertices.append(tuple(m))
        return index[key]

    def from_lower_left(tri):
        # the cyclic rotation that starts at the vertex of least x + y
        start = min(range(3), key=lambda i: sum(vertices[tri[i]]))
        return tri[start:] + tri[:start]

    N = 2 ** (mesh.level + 1)

    def slot(tri):
        # 2 (iy N + ix) + shape: vertex 0 is (ix, iy) / N, the upper shape has vertex 1 above it
        (x0, y0), (_, y1) = vertices[tri[0]], vertices[tri[1]]
        return 2 * (round(y0 * N) * N + round(x0 * N)) + (y1 > y0)

    triangles = []
    for a, b, c in mesh.triangles:
        mab = midpoint(a, b)
        mbc = midpoint(b, c)
        mca = midpoint(c, a)
        for child in ((a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)):
            triangles.append(from_lower_left(child))
    return _make_mesh(vertices, sorted(triangles, key=slot), level=mesh.level + 1)


def test_refinement_matches_reference_bitwise():
    m = build_base_mesh()
    for level in range(1, 7):
        ref = reference_refine(m)
        m = refine_uniform(m)
        assert m.level == ref.level == level
        pairs = {"vertices": (m.vertices, ref.vertices), "triangles": (m.triangles, ref.triangles)}
        for name in EdgeTable.__dataclass_fields__:
            pairs[name] = (getattr(m.edges, name), getattr(ref.edges, name))
        for name, (got, expected) in pairs.items():
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name


def test_elements_are_translates_of_the_base_triangles():
    # every element starts at its lower-left vertex, and element e is slot e: the lower
    # (e even) or upper (e odd) triangle of cell e // 2 of the N x N grid
    m = build_base_mesh()
    for level in range(7):
        if level:
            m = refine_uniform(m)
        N, h = 2**level, 2.0**-level
        v = m.vertices[m.triangles]
        assert np.all(np.argmin(v.sum(axis=2), axis=1) == 0)
        assert m.grid_size() == N and m.n_elements == 2 * N * N
        cell, upper = np.divmod(np.arange(m.n_elements), 2)
        iy, ix = np.divmod(cell, N)
        assert np.array_equal(v[:, 0], h * np.stack([ix, iy], axis=1))
        shapes = h * np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
        assert np.array_equal(v - v[:, :1], shapes[upper])


def _side_key(va, vb):
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


def reference_edges(vertices, triangles):
    """Per-side dictionary matching: the oracle for the sorted edge table.

    Returns the edge fields as a dict of arrays, in (left, left_side) order.
    """
    groups = {}
    for k, tri in enumerate(triangles):
        for s in range(3):
            va = vertices[tri[s]]
            vb = vertices[tri[(s + 1) % 3]]
            groups.setdefault(_side_key(va, vb), []).append((k, s, va, vb))
    edges = []
    for key in sorted(groups):
        sides = groups[key]
        assert len(sides) == 2
        sides.sort(key=lambda t: (t[0], t[1]))
        (kl, sl, va, vb), (kr, sr, wa, wb) = sides
        tangent = vb - va
        length = float(np.hypot(*tangent))
        edges.append(
            dict(
                left=kl,
                left_side=sl,
                right=kr,
                right_side=sr,
                v0=va,
                v1=vb,
                normal=np.array([tangent[1], -tangent[0]]) / length,
                length=length,
                offset=np.round(0.5 * (va + vb) - 0.5 * (wa + wb)),
            )
        )
    edges.sort(key=lambda e: (e["left"], e["left_side"]))
    return {name: np.array([e[name] for e in edges]) for name in edges[0]}


def test_edge_table_matches_reference_bitwise():
    m = build_base_mesh()
    for level in range(6):
        if level:
            m = refine_uniform(m)
        ref = reference_edges(m.vertices, m.triangles)
        assert len(m.edges) == len(ref["left"]) == 3 * m.n_elements // 2
        for name, expected in ref.items():
            got = getattr(m.edges, name)
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize(
    "vertices, triangles",
    [
        # a lone triangle is not periodic: none of its sides has a partner
        ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)]),
        # a repeated triangle puts three sides on (0,0)-(1,1)
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], [(0, 1, 2), (0, 2, 3), (0, 1, 2)]),
    ],
    ids=["unpaired", "overfull"],
)
def test_sides_that_do_not_pair_rejected(vertices, triangles):
    with pytest.raises(ValueError, match="side group of size [13] "):
        _make_mesh(vertices, triangles, level=0)


def _swapped(mesh, a, b):
    triangles = mesh.triangles.copy()
    triangles[[a, b]] = triangles[[b, a]]
    return _make_mesh(mesh.vertices, triangles, mesh.level)


def _moved(mesh, vertex, shift):
    vertices = mesh.vertices.copy()
    vertices[vertex] += shift
    return _make_mesh(vertices, mesh.triangles, mesh.level)


def test_grid_size_rejects_meshes_off_the_grid(hierarchy):
    # the check is exact: one interior vertex moved by 2^-40 or two elements swapped (of
    # one shape, so every element is still a translate of its base triangle) fail it
    m = hierarchy[2]
    interior = np.flatnonzero(np.all((m.vertices > 0) & (m.vertices < 1), axis=1))
    for bad in (_moved(m, interior[0], (2.0**-40, 0.0)), _swapped(m, 0, 2), _swapped(m, 1, 2)):
        with pytest.raises(ValueError, match="not the grid's translated base triangles in slot order"):
            bad.grid_size()
    assert _make_mesh(m.vertices, m.triangles, m.level).grid_size() == 4
