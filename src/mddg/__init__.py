"""Discontinuous Galerkin solver for the 2-D linear convection-diffusion
equation with implicit multiderivative time integration.

Space: upwind / symmetric interior penalty DG on a periodic triangulation
of the unit square, orthonormal modal basis per element.  Time: two-point
multiderivative collocation schemes (orders 3-6), a sixth-order two-derivative
three-stage collocation method, and a Gauss-Legendre baseline.  The implicit
block systems keep the compact DG stencil by carrying the first and second
time derivatives as auxiliary unknowns.
"""

from mddg.mesh import TriangularMesh, build_base_mesh, refine_uniform
from mddg.basis import BasisSet, QuadratureRule, make_basis, triangle_rule, edge_rule
from mddg.operator import (
    Problem,
    DgOperator,
    assemble,
    project_l2,
    l2_error,
)
from mddg.sparse import (
    CsrMatrix,
    IluFactors,
    SolveStats,
    LinearSolver,
    SolverFailure,
    ilu_factor,
    gmres_solve,
)
from mddg.timeint import (
    TwoPointScheme,
    MdrkTableau,
    derive_two_point_coefficients,
    builtin_two_point_schemes,
    builtin_mdrk6,
    builtin_gauss_legendre6,
    mdrk_step,
    integrate,
)
from mddg.stability import (
    RationalFunction,
    StabilityReport,
    stability_function_two_point,
    stability_function_mdrk,
    a_stability_scan,
)
from mddg.harness import (
    RunConfig,
    ConvergenceReport,
    problem_convection,
    problem_convection_diffusion,
    run_convergence,
)

__version__ = "0.1.0"
