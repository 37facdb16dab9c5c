"""Shared fixtures, small linear-ODE operators for integrator tests and
config-file strategies for property tests."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import mddg
from mddg.harness import PROBLEMS, RunConfig, method_registry
from mddg.sparse import SOLVER_KINDS, CsrMatrix

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
