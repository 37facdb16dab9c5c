import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import mddg.operator
from mddg.basis import BasisSet, edge_rule, make_basis, triangle_rule
from mddg.mesh import EdgeTable, TriangularMesh
from mddg.operator import (
    ASSEMBLY_DEGREE_MARGIN,
    Problem,
    _edge_traces,
    _shape_jacobians,
    assemble,
    l2_error,
    project_l2,
    reference_tables,
)
from mddg.sparse import CsrMatrix, StencilOperator
from mddg.harness import (
    default_eta,
    make_problem,
    problem_convection,
    problem_convection_diffusion,
)

from conftest import grid_jacobians, reference_jacobians, reference_mesh, source_at


@pytest.fixture(scope="module")
def meshes():
    return [TriangularMesh(level) for level in range(4)]


@pytest.fixture(scope="module")
def deep_meshes(meshes):
    """The mesh hierarchy to level 5."""
    return meshes + [TriangularMesh(level) for level in (4, 5)]


def reference_assemble(mesh, basis, problem, eta):
    """The weak form over every element and every edge of the mesh: the oracle for ``assemble``.

    It reads the oracle triangulation of the mesh's level (``conftest.reference_mesh``) and
    its full periodic edge table.  Unlike ``assemble`` it evaluates the basis at each edge's
    quadrature points mapped into each side element's frame, integrates cell terms with
    physical gradients, stores all four blocks of every edge, zero or not, and sums them
    all by scipy's COO-to-CSR conversion.  Edge points are taken relative to the element's
    vertex 0 before they are mapped, so the reference coordinates carry no cancellation
    error on fine meshes.
    """
    eps = problem.epsilon
    c = problem.velocity
    nm = basis.n_modes
    ne = mesh.n_elements
    degree = 2 * basis.p + ASSEMBLY_DEGREE_MARGIN
    cell_rule = triangle_rule(degree)
    ref_mesh = reference_mesh(mesh.level)
    origins, J, detJ = reference_jacobians(ref_mesh)
    Jinv = np.linalg.inv(J)
    sqrtJ = np.sqrt(detJ)
    gphys = basis.grad(cell_rule.points)[None] @ Jinv[:, None]  # (ne, nq, nm, 2)
    wgrad = cell_rule.weights[None, :, None, None] * gphys
    blocks = [(wgrad @ c).transpose(0, 2, 1) @ basis.eval(cell_rule.points)]
    if eps > 0:
        blocks[0] = blocks[0] - eps * (
            wgrad.transpose(0, 2, 1, 3).reshape(ne, nm, -1)
            @ gphys.transpose(0, 1, 3, 2).reshape(ne, -1, nm)
        )
    rows, cols = [np.arange(ne)], [np.arange(ne)]

    erule = edge_rule(degree)
    E = EdgeTable(**ref_mesh.edges)
    traces = []
    for k, start in ((E.left, E.v0), (E.right, E.v0 - E.offset)):
        rel = (start - origins[k])[:, None] + erule.points[None, :, None] * (E.v1 - E.v0)[:, None]
        ref = (rel @ Jinv[k].transpose(0, 2, 1)).reshape(-1, 2)
        shape = (len(E), len(erule.points), nm)
        v = basis.eval(ref).reshape(shape) / sqrtJ[k][:, None, None]
        g = basis.grad(ref).reshape(shape + (2,))
        gn = (g @ (Jinv[k] @ E.normal[:, :, None])[:, None])[..., 0] / sqrtJ[k][:, None, None]
        traces.append((v, gn))
    wq = (erule.weights[None, :] * E.length[:, None])[:, :, None]
    cn = E.normal @ c
    sign = (1.0, -1.0)
    up = np.where(cn >= 0.0, 0, 1)
    for si in (0, 1):
        for sj in (0, 1):
            (vi, gi), (vj, gj) = traces[si], traces[sj]
            test = (wq * vi).transpose(0, 2, 1)
            mass = test @ vj
            block = -(np.where((up == sj) & (cn != 0.0), cn, 0.0) * sign[si])[:, None, None] * mass
            if eps > 0:
                block = block + 0.5 * eps * sign[si] * (test @ gj)
                block = block - (eps * eta / E.length * sign[si] * sign[sj])[:, None, None] * mass
                block = block + 0.5 * eps * sign[sj] * ((wq * gi).transpose(0, 2, 1) @ vj)
            rows.append((E.left, E.right)[si])
            cols.append((E.left, E.right)[sj])
            blocks.append(block)

    rows, cols, blocks = (np.concatenate(a) for a in (rows, cols, blocks))
    entry_rows = rows[:, None, None] * nm + np.arange(nm)[:, None] + np.zeros((1, 1, nm), dtype=int)
    entry_cols = cols[:, None, None] * nm + np.arange(nm) + np.zeros((1, nm, 1), dtype=int)
    return scipy.sparse.csr_matrix(
        (blocks.ravel(), (entry_rows.ravel(), entry_cols.ravel())), shape=(ne * nm, ne * nm)
    )


def entrywise_csr(block_rows, block_cols, blocks, shape):
    """(data, indices, indptr) of the entry-wise triplet build the block builder replaced.

    Every scalar entry of every block gets its own (row, column) key in emission
    order; a stable lexsort of the keys and left-to-right sums of equal keys give
    the CSR arrays.  This is the summation order ``assemble`` must keep.
    """
    _, R, C = blocks.shape
    rows = np.asarray(block_rows)[:, None, None] * R + np.arange(R)[:, None]
    cols = np.asarray(block_cols)[:, None, None] * C + np.arange(C)
    rows = np.broadcast_to(rows, blocks.shape).ravel()
    cols = np.broadcast_to(cols, blocks.shape).ravel()
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], blocks.ravel()[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    indptr = np.searchsorted(rows[starts], np.arange(shape[0] + 1))
    return np.add.reduceat(vals, starts), cols[starts], indptr


class TestAssemble:
    def test_constants_are_steady_states(self, meshes):
        prob = problem_convection()
        for p in (0, 1, 2):
            basis = make_basis(p)
            op = assemble(meshes[1], basis, prob, eta=20.0)
            const = project_l2(meshes[1], basis, lambda x, y: np.ones_like(x))
            assert np.max(np.abs(op.matrix.matvec(const))) < 1e-12

    def test_coercivity_sampled(self, meshes):
        prob = problem_convection_diffusion()
        basis = make_basis(1)
        op = assemble(meshes[0], basis, prob, eta=20.0)
        rng = np.random.default_rng(21)
        worst = -np.inf
        for _ in range(100):
            v = rng.normal(size=op.n_dof)
            worst = max(worst, (v @ op.matrix.matvec(v)) / (v @ v))
        assert worst < 0.0

    def test_rejects_bad_eta(self, meshes):
        with pytest.raises(ValueError):
            assemble(meshes[0], make_basis(1), problem_convection(), eta=0.0)

    @pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_eta_not_finite_and_positive(self, meshes, eta):
        # a nan or infinite penalty would give a non-finite diffusion operator
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            assemble(meshes[1], make_basis(1), problem_convection_diffusion(), eta=eta)

    def test_rejects_eta_that_overflows_the_operator(self, meshes):
        # finite, but at level 0 the row sums of the penalty blocks (||A||_inf) overflow and
        # from level 1 on the blocks themselves: refused without a numpy warning (which the
        # test settings would raise)
        for mesh in meshes[:3]:
            with pytest.raises(ValueError, match=r"eta = 1e\+308 overflows the operator"):
                assemble(mesh, make_basis(1), problem_convection_diffusion(), eta=1e308)

    def test_rejects_p0_diffusion(self, meshes):
        with pytest.raises(ValueError):
            assemble(meshes[0], make_basis(0), problem_convection_diffusion(), eta=20.0)

    def test_pure_convection_allows_p0(self, meshes):
        op = assemble(meshes[1], make_basis(0), problem_convection(), eta=20.0)
        assert op.n_dof == meshes[1].n_elements

    def test_consistency_with_gradient(self, meshes):
        # A applied to the projection of a smooth field approximates -c.grad w
        prob = problem_convection()
        p = 2
        basis = make_basis(p)
        errs = []
        for mesh in meshes[1:]:
            op = assemble(mesh, basis, prob, eta=20.0)
            w = project_l2(mesh, basis, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
            lhs = op.matrix.matvec(w)
            rhs = project_l2(
                mesh,
                basis,
                lambda x, y: -2 * np.pi * (
                    np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
                    + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
                ),
            )
            errs.append(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
        rate = np.log2(errs[-2] / errs[-1])
        assert rate > p - 0.5  # O(h^p) consistency

    def test_linearity(self, meshes):
        prob = problem_convection_diffusion()
        op = assemble(meshes[1], make_basis(2), prob, eta=20.0)
        rng = np.random.default_rng(22)
        w1 = rng.normal(size=op.n_dof)
        w2 = rng.normal(size=op.n_dof)
        lhs = op.matrix.matvec(1.5 * w1 - 2.5 * w2)
        rhs = 1.5 * op.matrix.matvec(w1) - 2.5 * op.matrix.matvec(w2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize(
        "name, p",
        [("convection", p) for p in range(6)] + [("convection_diffusion", p) for p in range(1, 6)],
    )
    def test_matches_reference_assembler(self, deep_meshes, name, p, level):
        # the stencil tiled over the grid (the CSR itself at p = 0) is the full-mesh weak
        # form: to 1e-15 in norm, and entry by entry to 1e-14 of the largest entry
        basis = make_basis(p)
        prob = make_problem(name)
        A = assemble(deep_meshes[level], basis, prob, default_eta(p)).matrix.tocsr()
        R = reference_assemble(deep_meshes[level], basis, prob, default_eta(p))
        assert scipy.sparse.linalg.norm(A - R) <= 1e-15 * scipy.sparse.linalg.norm(R)
        assert abs(A - R).max() <= 1e-14 * abs(R).max()

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize(
        "name, p",
        [("convection", p) for p in range(1, 6)] + [("convection_diffusion", p) for p in range(1, 6)],
    )
    def test_stencil_product_matches_its_csr(self, deep_meshes, name, p, level):
        # the grid product on the wrap-filled copy, on grids of N = 1 to 32 cells; a later
        # product leaves an earlier one's result alone, although both reuse one buffer
        op = assemble(deep_meshes[level], make_basis(p), make_problem(name), default_eta(p))
        assert isinstance(op.matrix, StencilOperator) and op.matrix is op.stencil
        A = op.matrix.tocsr()
        assert op.matrix.nnz == A.nnz
        xs = np.random.default_rng(level).normal(size=(2, op.n_dof))
        for x, y in zip(xs, [op.matrix.matvec(x) for x in xs]):
            expected = A @ x
            assert np.linalg.norm(y - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "name, p",
        [("convection", p) for p in range(6)] + [("convection_diffusion", p) for p in range(1, 6)],
    )
    def test_bitwise_equal_to_entrywise_build(self, meshes, monkeypatch, name, p, level):
        # the block builder sums every entry in the same order as one triplet per entry
        emitted = []
        build = CsrMatrix.from_blocks

        def spy(*args, **kwargs):
            emitted.append((args, kwargs))
            return build(*args, **kwargs)

        monkeypatch.setattr(CsrMatrix, "from_blocks", spy)
        A = assemble(meshes[level], make_basis(p), make_problem(name), default_eta(p)).matrix.tocsr()
        [(args, kwargs)] = emitted
        data, indices, indptr = entrywise_csr(*args, **kwargs)
        assert np.array_equal(A.data, data)
        assert np.array_equal(A.indices, indices)
        assert np.array_equal(A.indptr, indptr)

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_pure_convection_stores_upwind_blocks_only(self, meshes, p):
        # c = (1,1) is tangential to the diagonal edges: they couple nothing, and every
        # other edge couples only its upwind element into its downwind one
        mesh = meshes[2]
        prob = problem_convection()
        A = assemble(mesh, make_basis(p), prob, eta=20.0).matrix.tocsr()
        edges = reference_mesh(mesh.level).edges
        crossing = np.count_nonzero(edges["normal"] @ prob.velocity != 0.0)
        assert crossing < len(edges["normal"])
        nm = make_basis(p).n_modes
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        block_keys = rows // nm * mesh.n_elements + A.indices // nm
        stored = np.unique(block_keys)
        assert len(stored) == mesh.n_elements + crossing
        assert np.array_equal(stored, np.unique(block_keys[A.data != 0.0]))  # none all zero

    def test_stencil_compactness(self, meshes):
        # block graph of A equals the mesh edge-adjacency graph
        mesh = meshes[2]
        basis = make_basis(1)
        op = assemble(mesh, basis, problem_convection_diffusion(), eta=20.0)
        nm = basis.n_modes
        adj = {k: {k} for k in range(mesh.n_elements)}
        edges = reference_mesh(mesh.level).edges
        for left, right in zip(edges["left"], edges["right"]):
            adj[left].add(right)
            adj[right].add(left)
        A = op.matrix.tocsr()
        for k in range(mesh.n_elements):
            cols = set()
            for row in range(k * nm, (k + 1) * nm):
                cols.update(int(c) // nm for c in A.indices[A.indptr[row] : A.indptr[row + 1]])
            assert cols <= adj[k]

    @staticmethod
    def _flip(mesh, mask, translate):
        """A copy of the mesh with the sides of the edges in ``mask`` swapped, moved into
        the right element's frame when ``translate`` is set: the cell-0 table that
        ``assemble`` reads."""
        e = mesh.edges

        def pick(kept, flipped):
            return np.where(mask.reshape((-1,) + (1,) * (kept.ndim - 1)), flipped, kept)

        shift = e.offset if translate else 0.0
        edges = dataclasses.replace(
            e,
            v0=pick(e.v0, e.v0 - shift),
            v1=pick(e.v1, e.v1 - shift),
            normal=pick(e.normal, -e.normal),
            left=pick(e.left, e.right),
            left_side=pick(e.left_side, e.right_side),
            right=pick(e.right, e.left),
            right_side=pick(e.right_side, e.left_side),
            offset=pick(e.offset, -e.offset),
        )
        flipped = copy.copy(mesh)
        flipped.edges = edges
        return flipped

    def test_orientation_independence_interior_bitwise(self, meshes):
        # flipping interior edge normals together with the -/+ side labels
        # leaves the assembled matrix bit-for-bit unchanged
        mesh = meshes[1]
        interior = np.all(mesh.edges.offset == 0.0, axis=1)
        assert 0 < np.count_nonzero(interior) < len(mesh.edges)
        flipped = self._flip(mesh, interior, translate=False)
        for prob in (problem_convection(), problem_convection_diffusion()):
            basis = make_basis(2)
            a = assemble(mesh, basis, prob, eta=20.0).matrix.tocsr()
            b = assemble(flipped, basis, prob, eta=20.0).matrix.tocsr()
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_orientation_independence_periodic(self, meshes):
        # periodic edges must carry their trace to the far frame when
        # flipped; the operator is unchanged up to roundoff
        mesh = meshes[1]
        flipped = self._flip(mesh, np.ones(len(mesh.edges), dtype=bool), translate=True)
        for prob in (problem_convection(), problem_convection_diffusion()):
            basis = make_basis(2)
            a = assemble(mesh, basis, prob, eta=20.0).matrix.tocsr()
            b = assemble(flipped, basis, prob, eta=20.0).matrix.tocsr()
            assert np.array_equal(a.indices, b.indices)
            scale = np.max(np.abs(a.data))
            assert np.max(np.abs(a.data - b.data)) < 1e-12 * scale

    def test_conservation(self, meshes):
        # total of the constant modes is conserved: 1^T M^(1/2) A w = 0
        mesh = meshes[1]
        for prob in (problem_convection(), problem_convection_diffusion()):
            for p in (1, 2):
                basis = make_basis(p)
                op = assemble(mesh, basis, prob, eta=20.0)
                weights = np.zeros(op.n_dof)
                weights[:: basis.n_modes] = np.sqrt(0.5 * grid_jacobians(mesh)[2])
                rng = np.random.default_rng(23)
                for _ in range(5):
                    w = rng.normal(size=op.n_dof)
                    assert abs(weights @ op.matrix.matvec(w)) < 1e-12 * np.linalg.norm(w)

    def test_determinism(self, meshes):
        prob = problem_convection_diffusion()
        a = assemble(meshes[1], make_basis(2), prob, eta=20.0).matrix
        b = assemble(meshes[1], make_basis(2), prob, eta=20.0).matrix
        assert np.array_equal(a.K, b.K)
        assert np.array_equal(a.tocsr().data, b.tocsr().data)


class TestReferenceData:
    """Assembly reads every basis value from reference data built once per degree."""

    @staticmethod
    def _clear_caches():
        for cached in (make_basis, triangle_rule, edge_rule, reference_tables):
            cached.cache_clear()

    @pytest.mark.parametrize("name", ["convection", "convection_diffusion"])
    def test_warm_assembly_evaluates_no_basis(self, meshes, monkeypatch, name):
        mesh = TriangularMesh(4)
        prob = make_problem(name)
        assemble(mesh, make_basis(2), prob, default_eta(2))
        calls = []
        for attr in ("eval", "grad"):
            original = getattr(BasisSet, attr)

            def counted(self, pts, original=original):
                calls.append(len(pts))
                return original(self, pts)

            monkeypatch.setattr(BasisSet, attr, counted)
        assemble(mesh, make_basis(2), prob, default_eta(2))
        assert calls == []
        self._clear_caches()  # the counter does see a cold build, at reference points only
        assemble(mesh, make_basis(2), prob, default_eta(2))
        assert calls and max(calls) < mesh.n_elements

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_side_tables_match_mapped_traces(self, meshes, p):
        # every edge side's table trace equals the basis at its edge points mapped through
        # J^-1, for the cell-0 table as assembly reads it and flipped
        flip = TestAssemble._flip
        every = [flip(m, np.ones(len(m.edges), dtype=bool), True) for m in meshes]
        interior = [flip(m, np.all(m.edges.offset == 0.0, axis=1), False) for m in meshes]
        basis, degree = make_basis(p), 2 * p + ASSEMBLY_DEGREE_MARGIN
        points = edge_rule(degree).points
        for mesh in meshes + interior + every:
            e = mesh.edges
            J, detJ = _shape_jacobians(mesh)
            Jinv, sqrtJ = np.linalg.inv(J), np.sqrt(detJ)  # per shape, as assembly reads them
            traces = _edge_traces(mesh, reference_tables(p, degree), Jinv, sqrtJ, True)
            xq = e.v0[:, None, :] + points[None, :, None] * (e.v1 - e.v0)[:, None, :]
            sides = zip(traces, (e.left, e.right), (xq, xq - e.offset[:, None]))
            for (values, derivs), k, pts in sides:
                v = mesh.element_vertices(k)  # each side element's own affine map
                Jk = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
                Jinv_k, scale = np.linalg.inv(Jk), np.sqrt(np.linalg.det(Jk))[:, None, None]
                ref = np.einsum("eab,eqb->eqa", Jinv_k, pts - v[:, :1]).reshape(-1, 2)
                expected = basis.eval(ref).reshape(values.shape)
                assert np.max(np.abs(values * scale - expected)) <= 1e-13 * np.max(np.abs(expected))
                grads = basis.grad(ref).reshape(values.shape + (2,))
                expected = np.einsum("eqib,eba,ea->eqi", grads, Jinv_k, e.normal)
                assert np.max(np.abs(derivs * scale - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["convection", "convection_diffusion"])
    def test_cold_and_warm_assembly_bitwise_equal(self, meshes, name):
        prob = make_problem(name)
        self._clear_caches()
        cold = assemble(meshes[2], make_basis(3), prob, default_eta(3)).matrix.tocsr()
        warm = assemble(meshes[2], make_basis(3), prob, default_eta(3)).matrix.tocsr()
        assert np.array_equal(cold.indptr, warm.indptr)
        assert np.array_equal(cold.indices, warm.indices)
        assert np.array_equal(cold.data, warm.data)

    def test_tables_are_read_only(self):
        tables = reference_tables(2, 2 * 2 + ASSEMBLY_DEGREE_MARGIN)
        assert tables is reference_tables(2, 2 * 2 + ASSEMBLY_DEGREE_MARGIN)
        for table in tables:
            with pytest.raises(ValueError):
                table.flat[0] = 0.0


class TestSourceVector:
    def test_zero_source(self, meshes):
        op = assemble(meshes[1], make_basis(2), problem_convection(), eta=20.0)
        for m in range(4):
            assert np.array_equal(op.source_vector(0.3, m), np.zeros(op.n_dof))

    def test_constant_source_hits_constant_mode(self, meshes):
        mesh = meshes[1]
        basis = make_basis(2)
        prob = Problem(
            velocity=np.array([1.0, 1.0]),
            epsilon=0.0,
            initial=lambda x, y: np.zeros_like(x),
            source=((0.0, lambda x, y: np.ones_like(x)),),
        )
        op = assemble(mesh, basis, prob, eta=20.0)
        b = op.source_vector(0.0, 0).reshape(mesh.n_elements, basis.n_modes)
        assert np.max(np.abs(b[:, 1:])) < 1e-12
        assert np.allclose(b[:, 0], np.sqrt(0.5 * grid_jacobians(mesh)[2]), atol=1e-13)
        assert np.array_equal(op.source_vector(0.7, 1), np.zeros(op.n_dof))

    def test_matches_projection_of_pointwise_source(self, meshes):
        # the projected modes equal the projection of g = (8 pi^2 eps - 1) u at t
        mesh, basis = meshes[2], make_basis(3)
        prob = problem_convection_diffusion()
        factor = 8.0 * np.pi**2 * prob.epsilon - 1.0
        op = assemble(mesh, basis, prob, eta=20.0)
        for t in (0.0, 0.3, 0.55, 1.0):
            ref = project_l2(mesh, basis, lambda x, y: factor * prob.exact(x, y, t))
            b = op.source_vector(t, 0)
            assert np.linalg.norm(b - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, meshes, m):
        op = assemble(meshes[1], make_basis(2), problem_convection_diffusion(), eta=20.0)
        t, h = 0.4, 1e-5
        fd = (op.source_vector(t + h, m - 1) - op.source_vector(t - h, m - 1)) / (2 * h)
        exact = op.source_vector(t, m)
        assert np.linalg.norm(exact - fd) <= 1e-7 * np.linalg.norm(exact)

    def test_manufactured_source_projection(self, meshes):
        # projected source reconstructs the pointwise manufactured g
        mesh = meshes[2]
        basis = make_basis(3)
        prob = problem_convection_diffusion()
        op = assemble(mesh, basis, prob, eta=20.0)
        b = op.source_vector(0.0, 0)
        rng = np.random.default_rng(24)
        lam = rng.dirichlet([2, 2, 2], size=20)
        ref = np.column_stack([lam[:, 1], lam[:, 2]])
        origins, J, detJ = grid_jacobians(mesh)
        coeffs = b.reshape(mesh.n_elements, basis.n_modes)
        for k in (0, 7, 20):
            recon = basis.eval(ref) @ coeffs[k] / np.sqrt(detJ[k])
            phys = origins[k] + ref @ J[k].T
            exact = source_at(prob, phys[:, 0], phys[:, 1], 0.0)
            assert np.max(np.abs(recon - exact)) < 6e-2  # projection error at p=3

    def test_invalid_derivative(self, meshes):
        op = assemble(meshes[0], make_basis(1), problem_convection_diffusion(), eta=20.0)
        with pytest.raises(ValueError):
            op.source_vector(0.0, -1)


class TestSigmaTau:
    def test_steady_state_gives_zero_sigma(self, meshes):
        op = assemble(meshes[1], make_basis(1), problem_convection(), eta=20.0)
        const = project_l2(meshes[1], make_basis(1), lambda x, y: np.ones_like(x))
        assert np.max(np.abs(op.matrix.matvec(const) + op.source_vector(0.0, 0))) < 1e-12

    def test_sigma_is_matvec_without_source(self, meshes):
        op = assemble(meshes[1], make_basis(2), problem_convection(), eta=20.0)
        w = np.random.default_rng(25).normal(size=op.n_dof)
        assert np.array_equal(op.matrix.matvec(w) + op.source_vector(0.2, 0), op.matrix.matvec(w))

    def test_tau_is_a_squared(self, meshes):
        op = assemble(meshes[0], make_basis(1), problem_convection(), eta=20.0)
        A = op.matrix.tocsr().toarray()
        w = np.random.default_rng(26).normal(size=op.n_dof)
        sigma = op.matrix.matvec(w) + op.source_vector(0.0, 0)
        tau = op.matrix.matvec(sigma) + op.source_vector(0.0, 1)
        assert np.max(np.abs(tau - A @ A @ w)) < 1e-12

    def test_sigma_matches_exact_trajectory(self, meshes):
        # sigma equals the time derivative of the exactly integrated system
        op = assemble(meshes[0], make_basis(1), problem_convection(), eta=20.0)
        A = op.matrix.tocsr().toarray()
        w0 = np.random.default_rng(27).normal(size=op.n_dof)
        sigma = op.matrix.matvec(w0) + op.source_vector(0.0, 0)
        for delta in (1e-4, 5e-5):
            wp = scipy.linalg.expm(delta * A) @ w0
            wm = scipy.linalg.expm(-delta * A) @ w0
            fd = (wp - wm) / (2 * delta)
            assert np.max(np.abs(sigma - fd)) < 10 * delta**2 * np.linalg.norm(A @ A @ A @ w0)

    def test_tau_matches_second_difference(self, meshes):
        op = assemble(meshes[0], make_basis(1), problem_convection(), eta=20.0)
        A = op.matrix.tocsr().toarray()
        w0 = np.random.default_rng(28).normal(size=op.n_dof)
        sigma = op.matrix.matvec(w0) + op.source_vector(0.0, 0)
        tau = op.matrix.matvec(sigma) + op.source_vector(0.0, 1)
        delta = 1e-4
        wp = scipy.linalg.expm(delta * A) @ w0
        wm = scipy.linalg.expm(-delta * A) @ w0
        fd = (wp - 2 * w0 + wm) / delta**2
        assert np.max(np.abs(tau - fd)) < 1e-4


class TestProjectionAndError:
    def test_zero_function(self, meshes):
        w = project_l2(meshes[1], make_basis(2), lambda x, y: np.zeros_like(x))
        assert np.array_equal(w, np.zeros_like(w))

    def test_reproduces_polynomials(self, meshes):
        rng = np.random.default_rng(29)
        for p in (1, 3):
            basis = make_basis(p)
            coeffs = rng.normal(size=(p + 1, p + 1))

            def poly(x, y):
                return sum(
                    coeffs[m, n] * x**m * y**n
                    for m in range(p + 1)
                    for n in range(p + 1 - m)
                )

            w = project_l2(meshes[2], basis, poly)
            err = l2_error(meshes[2], basis, w, lambda x, y, t: poly(x, y), 0.0)
            assert err < 1e-12

    def test_projection_order(self, meshes):
        p = 2
        basis = make_basis(p)
        f = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        errs = [
            l2_error(m, basis, project_l2(m, basis, f), lambda x, y, t: f(x, y), 0.0)
            for m in meshes[1:]
        ]
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(rates[-1] - (p + 1)) < 0.2

    def test_error_of_shifted_constant(self, meshes):
        basis = make_basis(1)
        exact = lambda x, y, t: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        w = project_l2(meshes[2], basis, lambda x, y: exact(x, y, 0.0) + 1.0)
        err = l2_error(meshes[2], basis, w, exact, 0.0)
        assert abs(err - 1.0) < 1e-2  # unit offset on a unit-area domain

    def test_projection_error_rate_p3(self, meshes):
        basis = make_basis(3)
        f = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        errs = [
            l2_error(m, basis, project_l2(m, basis, f), lambda x, y, t: f(x, y), 0.0)
            for m in meshes
        ]
        ratio = errs[-2] / errs[-1]
        assert abs(ratio - 16.0) < 0.15 * 16.0

    @pytest.mark.parametrize("elements", [1, 3])
    @pytest.mark.parametrize("p", range(6))
    @pytest.mark.parametrize("name", ["convection", "convection_diffusion"])
    def test_chunk_size_changes_no_value(self, meshes, monkeypatch, name, p, elements):
        # projections, the error and the projected source modes are element by element, so
        # chunks of one or a few elements change nothing beyond round-off
        prob, basis = make_problem(name), make_basis(p)

        def results(mesh):
            w = project_l2(mesh, basis, prob.initial)
            out = [w, np.array([l2_error(mesh, basis, w, prob.exact, 0.3)])]
            if prob.epsilon == 0 or p > 0:
                out += [P for _, P in assemble(mesh, basis, prob, default_eta(p)).source_modes]
            return out

        default = [results(mesh) for mesh in meshes]
        step = len(triangle_rule(2 * p + ASSEMBLY_DEGREE_MARGIN).weights)
        monkeypatch.setattr(mddg.operator, "CHUNK_POINTS", elements * step)
        for mesh, ref in zip(meshes, default):
            got = results(mesh)
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


def traced_peak(fn):
    """tracemalloc peak in bytes of one call of ``fn`` after a warm-up call, and its result."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """Mesh-sized quadrature and assembly stay bounded on the study meshes."""

    @pytest.fixture(scope="class")
    def level6(self):
        return TriangularMesh(6)

    def test_projection_and_error_at_level_6(self, level6):
        basis, prob = make_basis(0), problem_convection()
        peak, w = traced_peak(lambda: project_l2(level6, basis, prob.initial))
        assert peak < 4e6
        peak, _ = traced_peak(lambda: l2_error(level6, basis, w, prob.exact, 1.0))
        assert peak < 4e6

    @pytest.mark.parametrize("name", ["convection", "convection_diffusion"])
    def test_assembly_peak_within_four_operators(self, meshes, name):
        # the CSR build, which a p = 0 assembly runs and a p >= 1 one no longer does, tiles
        # the stencil within four times the matrix it returns
        mesh = TriangularMesh(4)
        stencil = assemble(mesh, make_basis(5), make_problem(name), default_eta(5)).matrix
        peak, A = traced_peak(stencil.tocsr)
        assert peak < 4 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)

    @pytest.mark.parametrize("level", [4, 5])
    @pytest.mark.parametrize("name", ["convection", "convection_diffusion"])
    def test_stencil_assembly_peak_bounded(self, deep_meshes, name, level):
        # a p >= 1 assembly holds no matrix: its peak is the mesh-sized geometry and source
        # projections, 1.32 and 2.35 MB for convection-diffusion at p = 5, levels 4 and 5,
        # against 33 and 132 MB while it built the CSR
        basis, prob = make_basis(5), make_problem(name)
        peak, op = traced_peak(lambda: assemble(deep_meshes[level], basis, prob, default_eta(5)))
        assert isinstance(op.matrix, StencilOperator)
        assert peak < 2.6e6


class TestProblemDefinitions:
    def test_convection_exact_periodic_return(self):
        prob = problem_convection()
        rng = np.random.default_rng(30)
        x, y = rng.random(50), rng.random(50)
        assert np.max(np.abs(prob.exact(x, y, 1.0) - prob.initial(x, y))) < 1e-12

    def test_convection_peak_value(self):
        prob = problem_convection()
        assert abs(prob.exact(0.25, 0.25, 0.0) - 1.0) < 1e-15

    def test_convection_no_source(self):
        assert problem_convection().source == ()

    def test_manufactured_source_value(self):
        prob = problem_convection_diffusion()
        expected = 0.8 * np.pi**2 - 1.0
        assert abs(source_at(prob, 0.25, 0.25, 0.0) - expected) < 1e-12

    def test_manufactured_residual_vanishes(self):
        # u_t + div(c u - eps grad u) - g = 0 via finite differences
        prob = problem_convection_diffusion()
        rng = np.random.default_rng(31)
        x, y, t = rng.random(100), rng.random(100), rng.random(100)
        h = 1e-5
        u = prob.exact
        u_t = (u(x, y, t + h) - u(x, y, t - h)) / (2 * h)
        u_x = (u(x + h, y, t) - u(x - h, y, t)) / (2 * h)
        u_y = (u(x, y + h, t) - u(x, y - h, t)) / (2 * h)
        u_xx = (u(x + h, y, t) - 2 * u(x, y, t) + u(x - h, y, t)) / h**2
        u_yy = (u(x, y + h, t) - 2 * u(x, y, t) + u(x, y - h, t)) / h**2
        residual = u_t + u_x + u_y - prob.epsilon * (u_xx + u_yy) - source_at(prob, x, y, t)
        assert np.max(np.abs(residual)) < 1e-5

    def test_source_time_derivatives_match_fd(self):
        # the mode rates give the time derivatives of g = (8 pi^2 eps - 1) u
        prob = problem_convection_diffusion()
        factor = 8.0 * np.pi**2 * prob.epsilon - 1.0
        rng = np.random.default_rng(32)
        x, y, t = rng.random(60), rng.random(60), rng.random(60)
        g = lambda tt: factor * prob.exact(x, y, tt)
        h = 1e-6
        fd1 = (g(t + h) - g(t - h)) / (2 * h)
        rel1 = np.max(np.abs(source_at(prob, x, y, t, 1) - fd1)) / np.max(np.abs(fd1))
        assert rel1 < 1e-6
        h = 1e-4
        fd2 = (g(t + h) - 2 * g(t) + g(t - h)) / h**2
        rel2 = np.max(np.abs(source_at(prob, x, y, t, 2) - fd2)) / np.max(np.abs(fd2))
        assert rel2 < 1e-5

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            Problem(velocity=np.array([1.0, 0.0]), epsilon=-0.1, initial=lambda x, y: x)

    @pytest.mark.parametrize(
        "field, velocity, epsilon",
        [
            ("epsilon", [1.0, 0.0], np.nan),
            ("epsilon", [1.0, 0.0], np.inf),
            ("velocity", [np.nan, 1.0], 0.0),
            ("velocity", [1.0, -np.inf], 0.01),
            ("velocity", [1.0], 0.0),
            ("velocity", [1.0, 1.0, 0.0], 0.0),
        ],
    )
    def test_non_finite_or_malformed_field_rejected(self, field, velocity, epsilon):
        with pytest.raises(ValueError, match=field):
            Problem(velocity=velocity, epsilon=epsilon, initial=lambda x, y: x)
