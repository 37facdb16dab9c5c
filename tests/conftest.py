"""Shared fixtures, small linear-ODE operators for integrator tests,
config-file strategies for property tests and the general-triangulation
oracles of the grid meshes."""

from __future__ import annotations

import dataclasses
import functools
import os
import subprocess
import sys
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import strategies as st

import mddg
import mddg.sparse
import mddg.timeint
from mddg.harness import PROBLEMS, SOLVER_KINDS, RunConfig, method_registry
from mddg.sparse import CsrMatrix

CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
config_values = st.one_of(
    st.integers(-10, 10).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "true", "False", "yes", "off"]),
    st.sampled_from([*PROBLEMS, *method_registry(), *SOLVER_KINDS]),
    st.text(max_size=12),
)
config_lines = st.one_of(
    st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=8)), config_values).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    st.text(max_size=20),
)


def source_at(problem, x, y, t, derivative=0):
    """Pointwise m-th time derivative of a problem's exponential-mode source,
    Re sum_k mu_k^m exp(mu_k t) phi_k(x, y)."""
    terms = ((mu**derivative * np.exp(mu * t) * phi(x, y)).real for mu, phi in problem.source)
    return sum(terms, np.zeros(np.broadcast(x, y, t).shape))


def applied(system):
    """The dense matrix of a linear operator, one ``matvec`` per identity column."""
    return np.column_stack([system.matvec(e) for e in np.eye(system.shape[1])])


class LinearOde:
    """Minimal method-of-lines operator: dy/dt = A y + b(t).

    Mirrors the operator interface the steppers rely on (``matrix`` and
    ``source_vector``); used to drive the integrators on small dense
    systems with known solutions.
    """

    def __init__(self, A, source=None, source_t=None, source_tt=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        self.matrix = CsrMatrix(A)
        self._sources = (source, source_t, source_tt)

    def source_vector(self, t, derivative=0):
        fn = self._sources[derivative]
        if fn is None:
            return np.zeros(self.matrix.shape[0])
        return np.atleast_1d(np.asarray(fn(t), dtype=float))


@pytest.fixture
def no_physical_solves(monkeypatch):
    """Fail the test on any ``PreparedSystem.solve`` or ``MdrkWorkspace.step``: a grid
    operator's study marches in frequency space and solves no step system."""

    def refuse(*args, **kwargs):
        raise AssertionError("a grid-operator study solved a physical step system")

    monkeypatch.setattr(mddg.sparse.PreparedSystem, "solve", refuse)
    monkeypatch.setattr(mddg.timeint.MdrkWorkspace, "step", refuse)


@pytest.fixture
def scalar_op():
    def make(lam):
        return LinearOde([[lam]])

    return make


@pytest.fixture
def rotation_op():
    """Real 2x2 block representing lambda = -1 + 2i."""
    return LinearOde([[-1.0, -2.0], [2.0, -1.0]])


def run_fresh(code):
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout's mddg."""
    src = os.path.dirname(os.path.dirname(mddg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


# the oracles match midpoints to this absolute tolerance; grid coordinates are dyadic, so
# matches are exact
PAIRING_TOL = 1e-10
ReferenceMesh = namedtuple("ReferenceMesh", "vertices triangles edges")


def reference_refine(vertices, triangles, level):
    """Per-triangle refinement of the level-``level`` triangulation with a midpoint
    dictionary: (vertices, triangles) of level + 1, children numbered in slot order."""
    coords = np.asarray(vertices, dtype=float)
    vertices = [tuple(v) for v in coords]
    index = {(round(x / PAIRING_TOL), round(y / PAIRING_TOL)): i for i, (x, y) in enumerate(vertices)}

    def midpoint(i, j):
        m = 0.5 * (coords[i] + coords[j])
        key = (round(m[0] / PAIRING_TOL), round(m[1] / PAIRING_TOL))
        if key not in index:
            index[key] = len(vertices)
            vertices.append(tuple(m))
        return index[key]

    def from_lower_left(tri):
        # the cyclic rotation that starts at the vertex of least x + y
        start = min(range(3), key=lambda i: sum(vertices[tri[i]]))
        return tri[start:] + tri[:start]

    N = 2 ** (level + 1)

    def slot(tri):
        # 2 (iy N + ix) + shape: vertex 0 is (ix, iy) / N, the upper shape has vertex 1 above it
        (x0, y0), (_, y1) = vertices[tri[0]], vertices[tri[1]]
        return 2 * (round(y0 * N) * N + round(x0 * N)) + (y1 > y0)

    children = []
    for a, b, c in triangles:
        mab = midpoint(a, b)
        mbc = midpoint(b, c)
        mca = midpoint(c, a)
        for child in ((a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)):
            children.append(from_lower_left(child))
    return np.array(vertices, dtype=float), np.array(sorted(children, key=slot), dtype=np.int64)


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
    """Per-side dictionary matching of a periodic triangulation: every logical edge's
    fields (those of ``mddg.mesh.EdgeTable``) as a dict of arrays, in (left, left_side) order.
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


@functools.cache
def reference_mesh(level):
    """The level-``level`` triangulation built by the oracles from the two-triangle base mesh:
    vertices, triangles and the full periodic edge table."""
    vertices = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    triangles = np.array([(0, 1, 2), (0, 2, 3)], dtype=np.int64)
    for coarse in range(level):
        vertices, triangles = reference_refine(vertices, triangles, coarse)
    return ReferenceMesh(vertices, triangles, reference_edges(vertices, triangles))


def affine_maps(v):
    """(origins, J, detJ) of triangles with (k, 3, 2) vertices ``v``, x = v0 + J xhat."""
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
    return v[:, 0], J, J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]


def grid_jacobians(mesh):
    """(origins, J, detJ) of every element of a ``TriangularMesh``, from its vertices."""
    return affine_maps(mesh.element_vertices(np.arange(mesh.n_elements)))


def reference_jacobians(mesh):
    """(origins, J, detJ) of a ``ReferenceMesh``'s elements, x = v0 + J xhat."""
    return affine_maps(mesh.vertices[mesh.triangles])
