"""Upwind / interior-penalty DG semi-discretization of the convection-diffusion
equation on a periodic triangulation.

With the per-element orthonormal basis the mass matrix is the identity, so
the method of lines reads  dw/dt = A w + b(t)  where A is the assembled
operator and b projects the source.  The integrator builds the first and
second time derivatives of the solution, the auxiliary coefficient vectors
sigma = A w + b and tau = A sigma + b', from ``matrix.matvec`` and
``source_vector``.

The mesh is the periodic N x N grid of cells, element e the translated
base triangle e % 2 in cell e // 2 (``mddg.mesh``), and the coefficients
are constant, so A is block circulant: it is its stencil, the blocks that
couple grid cell 0 (elements 0 and 1) to its neighbours (a
``StencilOperator``), and assembly forms only those, from the two base
Jacobians.  Every cell block is a fixed combination of a few
reference-element matrices and every edge trace is one of six reference
tables (three sides, two directions), all built once per degree; the
blocks of the <= 5 edges that touch cell 0, the mesh's edge table, are
batched, so assembly has no per-element or per-edge Python loop.  Only the
blocks the weak form couples are stored: for pure convection these are the
cell blocks and one block per edge with c.n != 0, which couples the
downwind element to the upwind one.  The blocks are summed into the
stencil cells first and then edge by edge, which fixes the order in which
every entry sums its contributions.  Mesh-sized cell quadrature
(projections, sources and the error) runs over element chunks of at most
``CHUNK_POINTS`` points, so no (ne, nq) array is ever built.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from mddg.basis import BasisSet, edge_rule, make_basis, triangle_rule
from mddg.mesh import TriangularMesh
from mddg.sparse import StencilOperator

ASSEMBLY_DEGREE_MARGIN = 2  # cell/edge quadrature degree 2p + 2
ERROR_DEGREE_MARGIN = 4  # error quadrature degree 2p + 4
CHUNK_POINTS = 16384  # cell quadrature points per element chunk of a mesh-sized projection or error
# Largest ||A||_inf an operator may have.  A step forms up to the third power of A on the
# source, and its residual checks square such terms, so a larger norm would leave the float
# range (a convection-diffusion operator at the default penalty has ||A||_inf < 1e7).
MAX_OPERATOR_NORM = 1e40

# side s of the reference triangle (0,0), (1,0), (0,1) runs from its vertex s to vertex s + 1
_SIDE_ENDS = np.array([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]])
ReferenceTables = namedtuple("ReferenceTables", "values G K side_values side_grads")


@dataclass
class Problem:
    """Constant-velocity linear convection-diffusion problem on [0,1]^2.

    ``source`` is a tuple of exponential modes (mu_k, phi_k): the source is
    g(x, y, t) = Re sum_k exp(mu_k t) phi_k(x, y), with complex rates mu_k
    and phi_k taking (x, y) arrays, so every time derivative is exact; ``()``
    means no source.  ``exact``, when available, is the reference solution
    used for error measurement.
    """

    velocity: np.ndarray
    epsilon: float
    initial: Callable
    source: tuple = ()
    exact: Optional[Callable] = None
    t_end: float = 1.0
    name: str = ""

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float)
        if self.velocity.shape != (2,) or not np.all(np.isfinite(self.velocity)):
            raise ValueError(f"velocity must be two finite components, got {self.velocity}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon}")


class DgOperator:
    """Assembled DG operator: its grid ``stencil``, which is also the ``matrix`` it applies at
    every degree (no CSR is tiled), and the projected source modes.  ``integrate`` marches it
    in frequency space through the stencil's symbol (``timeint.FrequencyStep``)."""

    def __init__(self, mesh, basis, problem, eta, stencil, source_modes):
        self.mesh = mesh
        self.basis = basis
        self.problem = problem
        self.eta = eta
        self.stencil = stencil
        self.matrix = stencil
        # (mu_k, P_k): the rate and complex modal projection of each source mode
        self.source_modes = source_modes

    @property
    def n_dof(self) -> int:
        return self.matrix.shape[0]

    def source_vector(self, t: float, derivative: int = 0) -> np.ndarray:
        """Modal projection of the source's m-th time derivative, m = ``derivative``:
        Re sum_k mu_k^m exp(mu_k t) P_k."""
        if derivative < 0:
            raise ValueError("source derivative must be non-negative")
        b = np.zeros(self.n_dof)
        for mu, P in self.source_modes:
            b += (mu**derivative * np.exp(mu * t) * P).real
        return b


@functools.cache
def reference_tables(p: int, degree: int) -> ReferenceTables:
    """Read-only reference data of the degree-p basis under quadrature degree ``degree``:
    ``values`` (nq, nm) at the triangle rule, the cell-term matrices G_b = (d_b phi_i, phi_j)
    and K_ab = (d_a phi_i, d_b phi_j), and ``side_values`` (3, 2, nqe, nm) and ``side_grads``
    (3, 2, nqe, nm, 2) at the edge rule on side s, run from vertex s (direction 0) or s + 1."""
    basis = make_basis(p)
    rule = triangle_rule(degree)
    values, grads = basis.eval(rule.points), basis.grad(rule.points)
    w_grads = grads * rule.weights[:, None, None]
    start = _SIDE_ENDS[:, :, None, :]  # (side, direction, 1, 2)
    t = edge_rule(degree).points[:, None]
    side_pts = (start + t * (start[:, ::-1] - start)).reshape(-1, 2)
    tables = ReferenceTables(
        values,
        np.einsum("qib,qj->bij", w_grads, values),
        np.einsum("qia,qjb->abij", w_grads, grads),
        basis.eval(side_pts).reshape(3, 2, len(t), -1),
        basis.grad(side_pts).reshape(3, 2, len(t), -1, 2),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _shape_jacobians(mesh):
    """(J (2, 2, 2), det J (2,)) of x = v0 + J xhat on elements 0 and 1, the two shapes."""
    v = mesh.element_vertices([0, 1])
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
    return J, J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]


def _cell_chunks(mesh, rule):
    """Yield (elements, points (k, nq, 2), sqrt(det J)-scaled weights (nq,)) for consecutive
    element slices of at most CHUNK_POINTS quadrature points (one element at least); the
    points are mapped once per shape and moved to each element's vertex 0, det J = h^2."""
    J, detJ = _shape_jacobians(mesh)
    shape_points = rule.points @ J.transpose(0, 2, 1)  # (2, nq, 2)
    weights = rule.weights * np.sqrt(detJ[0])
    step = max(1, CHUNK_POINTS // len(rule.weights))
    for start in range(0, mesh.n_elements, step):
        e = np.arange(start, min(start + step, mesh.n_elements))
        yield slice(start, start + step), mesh.element_vertices(e)[:, :1] + shape_points[e % 2], weights


def _edge_traces(mesh, ref, Jinv, sqrtJ, with_derivs):
    """Left and right (values, normal derivatives or None) traces of ``mesh.edges``, each
    (E, nq, nm), from the (2, 2, 2) inverse Jacobians and (2,) sqrt(det J) of the two shapes.

    Each trace is a reference side table at the element's side and the direction whose
    first vertex is nearer to where ``v0`` lands in the element's frame (they lie >= 1 apart).
    """
    e = mesh.edges
    for k, side, v0 in ((e.left, e.left_side, e.v0), (e.right, e.right_side, e.v0 - e.offset)):
        v0_ref = np.einsum("eab,eb->ea", Jinv[k % 2], v0 - mesh.element_vertices(k)[:, 0])
        direction = np.argmin(np.linalg.norm(v0_ref[:, None] - _SIDE_ENDS[side], axis=2), axis=1)
        scale = sqrtJ[k % 2][:, None, None]
        derivs = None
        if with_derivs:  # grad(phi) . n = grad_ref(phi) . (J^-1 n)
            along = np.einsum("eab,eb->ea", Jinv[k % 2], e.normal)
            derivs = np.einsum("eqib,eb->eqi", ref.side_grads[side, direction], along) / scale
        yield ref.side_values[side, direction] / scale, derivs


def _stencil(mesh, ref, Jinv, sqrtJ, problem, eta, degree):
    """The ``StencilOperator`` read off the block rows of elements 0 and 1, cell 0 of the grid.

    Their cell blocks come first, then those of the mesh's <= 5 edges, edge-major
    and in (test side, trial side) order: for test side 0 or 1, all four for eps > 0, else
    those whose trial side is upwind, each batch formed for its storing edges only.  Each
    is added, in that order, to K_d at the offset d from its test element's cell to its
    trial element's: their cells' difference plus N times the edge's periodic offset.
    """
    c, eps, N, edges = problem.velocity, problem.epsilon, mesh.N, mesh.edges
    nm = ref.values.shape[1]
    left, right, normal, length = edges.left, edges.right, edges.normal, edges.length
    cn = normal[:, 0] * c[0] + normal[:, 1] * c[1]
    upwind = (cn > 0.0, cn < 0.0)  # trial sides (left, right) the convective flux couples
    sign = (1.0, -1.0)  # jump factor for (left, right)
    sides = (left, right)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))  # (test side, trial side)
    emitted = np.stack([(upwind[sj] | (eps > 0)) & (sides[si] <= 1) for si, sj in pairs], axis=1)
    slot = 1 + np.cumsum(emitted).reshape(emitted.shape)
    blocks = np.empty((2 + np.count_nonzero(emitted), nm, nm))

    # cell terms: + (c phi_j, grad phi_i) - eps (grad phi_j, grad phi_i), that is
    # sum_b (J^-1 c)_b G_b and sum_ab (J^-1 J^-T)_ab K_ab per element
    cell = np.einsum("kb,bij->kij", Jinv @ c, ref.G, out=blocks[:2])
    if eps > 0:
        cell -= eps * np.einsum("kab,abij->kij", Jinv @ Jinv.transpose(0, 2, 1), ref.K)

    # edge terms, batched over the edges
    wq = (edge_rule(degree).weights[None, :] * length[:, None])[:, :, None]  # (E, nq, 1)
    traces = list(_edge_traces(mesh, ref, Jinv, sqrtJ, eps > 0))
    for t, (si, sj) in enumerate(pairs):
        e = emitted[:, t]  # the edges that store this pair's block
        (vi, gi), (vj, gj) = traces[si], traces[sj]
        test = (wq[e] * vi[e]).transpose(0, 2, 1)
        mass = test @ vj[e]  # sum_q wq phi_i phi_j
        # convective upwind flux: -(c.n) w_up (phi- - phi+)
        block = np.where(upwind[sj][e], -cn[e] * sign[si], 0.0)[:, None, None] * mass
        if eps > 0:
            # consistency: + eps ({grad w}.n) (phi- - phi+)
            block += (0.5 * eps * sign[si]) * (test @ gj[e])
            # penalty: - eps (eta/h) [w][phi]
            block -= (eps * eta / length[e] * (sign[si] * sign[sj]))[:, None, None] * mass
            # symmetry: + eps [w] ({grad phi}.n)
            block += (0.5 * eps * sign[sj]) * ((wq[e] * gi[e]).transpose(0, 2, 1) @ vj[e])
        blocks[slot[e, t]] = block

    iy, ix = np.divmod(np.stack(sides) // 2, N)
    d = np.stack([iy[1] - iy[0], ix[1] - ix[0]], axis=1) + np.round(N * edges.offset[:, ::-1])
    d = np.concatenate([np.zeros((2, 2)), np.stack([(sj - si) * d for si, sj in pairs], 1)[emitted]])
    K, stored = np.zeros((3, 3, 2 * nm, 2 * nm)), np.zeros((3, 3, 2, 2), dtype=bool)
    trial = np.r_[0, 1, np.stack([sides[sj] for _, sj in pairs], axis=1)[emitted]] % 2
    test = np.r_[0, 1, np.stack([sides[si] for si, _ in pairs], axis=1)[emitted]]
    for s, t, (dy, dx), block in zip(test, trial, d.astype(int) + 1, blocks):
        K[dy, dx, s * nm : (s + 1) * nm, t * nm : (t + 1) * nm] += block
        stored[dy, dx, s, t] = True
    return StencilOperator(K, stored, N)


def _project_cells(chunks, values, f):
    """Element-wise modal L2 projection of f(x, y), one cell chunk at a time."""
    return np.concatenate(
        [(np.asarray(f(pts[..., 0], pts[..., 1])) * w) @ values for _, pts, w in chunks]
    ).ravel()


def assemble(mesh: TriangularMesh, basis: BasisSet, problem: Problem, eta: float) -> DgOperator:
    """Assemble the method-of-lines operator on a grid mesh.

    Cell terms integrate (c w - eps grad w) . grad(test); edge terms apply
    the upwind convective flux and, for eps > 0, the symmetric interior
    penalty treatment of diffusion with penalty eta / h_e.  For eps = 0 an
    edge stores only its upwind element's column, and nothing where c.n = 0.
    An eta that overflows the operator (||A||_inf not finite) or puts ||A||_inf above
    ``MAX_OPERATOR_NORM`` raises ValueError.
    """
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"penalty parameter eta must be finite and positive, got {eta!r}")
    if problem.epsilon > 0 and basis.p == 0:
        raise ValueError("interior-penalty diffusion requires polynomial degree p >= 1")

    degree = 2 * basis.p + ASSEMBLY_DEGREE_MARGIN
    ref = reference_tables(basis.p, degree)
    cell_rule = triangle_rule(degree)
    source_modes = tuple(
        (mu, _project_cells(_cell_chunks(mesh, cell_rule), ref.values, phi)) for mu, phi in problem.source
    )
    J, detJ = _shape_jacobians(mesh)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        stencil = _stencil(mesh, ref, np.linalg.inv(J), np.sqrt(detJ), problem, eta, degree)
        norm = np.abs(stencil.K).sum(axis=(0, 1, 3)).max()  # ||A||_inf, not finite if a block overflowed
    if not np.isfinite(norm):
        raise ValueError(f"penalty parameter eta = {eta!r} overflows the operator: ||A||_inf = {norm}")
    if norm > MAX_OPERATOR_NORM:
        raise ValueError(
            f"penalty parameter eta = {eta!r} makes ||A||_inf = {norm:.3g}, "
            f"above MAX_OPERATOR_NORM = {MAX_OPERATOR_NORM:g}"
        )
    return DgOperator(mesh, basis, problem, eta, stencil, source_modes)


def project_l2(mesh: TriangularMesh, basis: BasisSet, f: Callable) -> np.ndarray:
    """Element-wise modal L2 projection of f(x, y)."""
    degree = 2 * basis.p + ASSEMBLY_DEGREE_MARGIN
    chunks = _cell_chunks(mesh, triangle_rule(degree))
    return _project_cells(chunks, reference_tables(basis.p, degree).values, f)


def l2_error(mesh: TriangularMesh, basis: BasisSet, w: np.ndarray, exact: Callable, t: float) -> float:
    """Global L2 distance between the modal solution and a reference field."""
    degree = 2 * basis.p + ERROR_DEGREE_MARGIN
    rule, values = triangle_rule(degree), reference_tables(basis.p, degree).values
    detJ = _shape_jacobians(mesh)[1][0]  # the same for both shapes
    coeffs = w.reshape(mesh.n_elements, basis.n_modes)
    per_elem = np.empty(mesh.n_elements)
    for k, pts, _ in _cell_chunks(mesh, rule):
        wh = (coeffs[k] @ values.T) / np.sqrt(detJ)  # (k, nq)
        diff = wh - np.asarray(exact(pts[..., 0], pts[..., 1], t), dtype=float)
        per_elem[k] = (diff**2 * rule.weights[None, :]).sum(axis=1) * detJ
    return float(np.sqrt(per_elem.sum()))
