"""Shared fixtures and small linear-ODE operators for integrator tests."""

from __future__ import annotations

import numpy as np
import pytest

from mddg.sparse import CsrMatrix


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
