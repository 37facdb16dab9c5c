"""Discontinuous Galerkin solver for the 2-D linear convection-diffusion
equation with implicit multiderivative time integration.

Space: upwind / symmetric interior penalty DG on a periodic triangulation
of the unit square, orthonormal modal basis per element.  Time: two-point
multiderivative collocation schemes (orders 3-6), a sixth-order two-derivative
three-stage collocation method, and a Gauss-Legendre baseline.  The implicit
block systems keep the compact DG stencil by carrying the first and second
time derivatives as auxiliary unknowns.
"""

__version__ = "0.1.0"
