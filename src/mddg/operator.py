"""Upwind / interior-penalty DG semi-discretization of the convection-diffusion
equation on a periodic triangulation.

With the per-element orthonormal basis the mass matrix is the identity, so
the method of lines reads  dw/dt = A w + b(t)  where A is the assembled
sparse operator and b projects the source.  The first and second time
derivatives of the solution are carried as auxiliary coefficient vectors:
sigma = A w + b  and  tau = A sigma + b'.

On affine triangles every cell block is a fixed combination of a few
reference-element matrices, and the edge blocks are batched over all edges,
so assembly has no per-element or per-edge Python loop.  Only the blocks the
weak form couples are stored: for pure convection these are the cell blocks
and one block per edge with c.n != 0, which couples the downwind element to
the upwind one.  ``CsrMatrix.from_blocks`` builds the matrix from one
(element, element) key per block, cells first and then edge by edge, which
fixes the order in which every entry sums its contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from mddg.basis import BasisSet, edge_rule, triangle_rule
from mddg.mesh import TriangularMesh
from mddg.sparse import CsrMatrix

ASSEMBLY_DEGREE_MARGIN = 2  # cell/edge quadrature degree 2p + 2
ERROR_DEGREE_MARGIN = 4  # error quadrature degree 2p + 4


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
        if self.epsilon < 0:
            raise ValueError("diffusion coefficient must be non-negative")


class DgOperator:
    """Assembled DG operator: sparse matrix plus the projected source modes."""

    def __init__(self, mesh, basis, problem, eta, matrix, source_modes):
        self.mesh = mesh
        self.basis = basis
        self.problem = problem
        self.eta = eta
        self.matrix = matrix
        # (mu_k, P_k): the rate and complex modal projection of each source mode
        self._source_modes = source_modes

    @property
    def n_dof(self) -> int:
        return self.matrix.shape[0]

    def source_vector(self, t: float, derivative: int = 0) -> np.ndarray:
        """Modal projection of the source's m-th time derivative, m = ``derivative``:
        Re sum_k mu_k^m exp(mu_k t) P_k."""
        if derivative < 0:
            raise ValueError("source derivative must be non-negative")
        b = np.zeros(self.n_dof)
        for mu, P in self._source_modes:
            b += (mu**derivative * np.exp(mu * t) * P).real
        return b

    def compute_sigma(self, w: np.ndarray, t: float) -> np.ndarray:
        """First time derivative of the modal solution: A w + b(t)."""
        return self.matrix.matvec(w) + self.source_vector(t, 0)

    def compute_tau(self, sigma: np.ndarray, t: float) -> np.ndarray:
        """Second time derivative from sigma: A sigma + b'(t)."""
        return self.matrix.matvec(sigma) + self.source_vector(t, 1)


def _cell_geometry(mesh, basis, degree):
    rule = triangle_rule(degree)
    origins, J, detJ = mesh.jacobians()
    pts = origins[:, None, :] + rule.points @ J.transpose(0, 2, 1)
    sqrtJ = np.sqrt(detJ)
    scaled_w = rule.weights[None, :] * sqrtJ[:, None]
    values = basis.eval(rule.points)
    return rule, pts, scaled_w, values, J, detJ


def _project_cells(pts, scaled_w, values, f):
    """Element-wise modal L2 projection of f(x, y) from the cell geometry's quadrature."""
    vals = np.asarray(f(pts[..., 0], pts[..., 1]))
    return np.einsum("kq,qi->ki", vals * scaled_w, values).ravel()


def assemble(mesh: TriangularMesh, basis: BasisSet, problem: Problem, eta: float) -> DgOperator:
    """Assemble the sparse method-of-lines operator.

    Cell terms integrate (c w - eps grad w) . grad(test); edge terms apply
    the upwind convective flux and, for eps > 0, the symmetric interior
    penalty treatment of diffusion with penalty eta / h_e.  For eps = 0 an
    edge stores only its upwind element's column, and nothing where c.n = 0.
    """
    if eta <= 0:
        raise ValueError("penalty parameter eta must be positive")
    eps = problem.epsilon
    if eps > 0 and basis.p == 0:
        raise ValueError("interior-penalty diffusion requires polynomial degree p >= 1")
    c = problem.velocity
    nm = basis.n_modes
    ne = mesh.n_elements

    degree = 2 * basis.p + ASSEMBLY_DEGREE_MARGIN
    cell_rule, cell_pts, cell_scaled_w, cell_vals, J, detJ = _cell_geometry(mesh, basis, degree)
    source_modes = tuple(
        (mu, _project_cells(cell_pts, cell_scaled_w, cell_vals, phi)) for mu, phi in problem.source
    )
    origins = mesh.vertices[mesh.triangles[:, 0]]
    Jinv = np.linalg.inv(J)
    sqrtJ = np.sqrt(detJ)

    # cell terms: + (c phi_j, grad phi_i) - eps (grad phi_j, grad phi_i).  With the reference
    # matrices G_b = (d_b phi_i, phi_j) and K_ab = (d_a phi_i, d_b phi_j) they are
    # sum_b (J^-1 c)_b G_b and sum_ab (J^-1 J^-T)_ab K_ab per element.
    grads_ref = basis.grad(cell_rule.points)  # (nq, nm, 2)
    w_grads = grads_ref * cell_rule.weights[:, None, None]
    G = np.einsum("qib,qj->bij", w_grads, cell_vals)
    cell = np.einsum("kb,bij->kij", Jinv @ c, G)
    if eps > 0:
        K = np.einsum("qia,qjb->abij", w_grads, grads_ref)
        cell -= eps * np.einsum("kab,abij->kij", Jinv @ Jinv.transpose(0, 2, 1), K)

    # edge terms, batched over all edges of the mesh's edge table
    edges = mesh.edges
    left, right, normal, length = edges.left, edges.right, edges.normal, edges.length
    erule = edge_rule(degree)
    xq = edges.v0[:, None, :] + erule.points[None, :, None] * (edges.v1 - edges.v0)[:, None, :]
    wq = (erule.weights[None, :] * length[:, None])[:, :, None]  # (E, nq, 1)
    traces = []  # (values, normal derivatives or None), each (E, nq, nm), per side
    for k, pts in ((left, xq), (right, xq - edges.offset[:, None, :])):
        ref = ((pts - origins[k][:, None, :]) @ Jinv[k].transpose(0, 2, 1)).reshape(-1, 2)
        scale = sqrtJ[k][:, None, None]
        trace = basis.eval(ref).reshape(xq.shape[:2] + (nm,)) / scale
        derivs = None
        if eps > 0:  # grad(phi) . n = grad_ref(phi) . (J^-1 n)
            along = np.einsum("eab,eb->ea", Jinv[k], normal)
            grads = basis.grad(ref).reshape(xq.shape[:2] + (nm, 2))
            derivs = np.einsum("eqib,eb->eqi", grads, along) / scale
        traces.append((trace, derivs))
    cn = normal[:, 0] * c[0] + normal[:, 1] * c[1]
    upwind = (cn > 0.0, cn < 0.0)  # trial sides (left, right) the convective flux couples
    sign = (1.0, -1.0)  # jump factor for (left, right)
    pairs = ((0, 0), (0, 1), (1, 0), (1, 1))  # (test side, trial side)
    blocks = np.empty((len(edges), len(pairs), nm, nm))
    for t, (si, sj) in enumerate(pairs):
        (vi, gi), (vj, gj) = traces[si], traces[sj]
        test = (wq * vi).transpose(0, 2, 1)
        mass = test @ vj  # sum_q wq phi_i phi_j
        # convective upwind flux: -(c.n) w_up (phi- - phi+)
        block = np.where(upwind[sj], -cn * sign[si], 0.0)[:, None, None] * mass
        if eps > 0:
            # consistency: + eps ({grad w}.n) (phi- - phi+)
            block += (0.5 * eps * sign[si]) * (test @ gj)
            # penalty: - eps (eta/h) [w][phi]
            block -= (eps * eta / length * (sign[si] * sign[sj]))[:, None, None] * mass
            # symmetry: + eps [w] ({grad phi}.n)
            block += (0.5 * eps * sign[sj]) * ((wq * gi).transpose(0, 2, 1) @ vj)
        blocks[:, t] = block
    emitted = np.stack([upwind[sj] | (eps > 0) for _, sj in pairs], axis=1)

    # cell blocks first, then the edges' blocks edge-major: every entry sums in edge order
    sides = (left, right)
    test_elem = np.stack([sides[si] for si, _ in pairs], axis=1)[emitted]
    trial_elem = np.stack([sides[sj] for _, sj in pairs], axis=1)[emitted]
    matrix = CsrMatrix.from_blocks(
        np.concatenate([np.arange(ne), test_elem]),
        np.concatenate([np.arange(ne), trial_elem]),
        np.concatenate([cell, blocks[emitted]]),
        shape=(ne * nm, ne * nm),
    )
    return DgOperator(mesh, basis, problem, eta, matrix, source_modes)


def project_l2(mesh: TriangularMesh, basis: BasisSet, f: Callable) -> np.ndarray:
    """Element-wise modal L2 projection of f(x, y)."""
    degree = 2 * basis.p + ASSEMBLY_DEGREE_MARGIN
    _, pts, scaled_w, values, _, _ = _cell_geometry(mesh, basis, degree)
    return _project_cells(pts, scaled_w, values, f)


def l2_error(mesh: TriangularMesh, basis: BasisSet, w: np.ndarray, exact: Callable, t: float) -> float:
    """Global L2 distance between the modal solution and a reference field."""
    rule, pts, _, values, _, detJ = _cell_geometry(mesh, basis, 2 * basis.p + ERROR_DEGREE_MARGIN)
    coeffs = w.reshape(mesh.n_elements, basis.n_modes)
    wh = (coeffs @ values.T) / np.sqrt(detJ)[:, None]  # (ne, nq)
    diff = wh - np.asarray(exact(pts[..., 0], pts[..., 1], t), dtype=float)
    per_elem = (diff**2 * rule.weights[None, :]).sum(axis=1) * detJ
    return float(np.sqrt(per_elem.sum()))

