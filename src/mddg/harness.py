"""Experiment definitions and refinement studies.

Two problems are built in: pure convection of a sine product with velocity
(1,1), and a convection-diffusion problem (eps = 0.1) whose source is
manufactured so that u = exp(-t) sin(2 pi (x-t)) sin(2 pi (y-t)) is the
exact solution.  Its source is given as two exponential modes in time, so an
operator projects it once and every time derivative is exact.  A convergence
run refines mesh and time step together, halving dt per level, and records
the final-time L2 error and the observed order between consecutive levels.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from mddg.basis import MAX_DEGREE, make_basis
from mddg.mesh import TriangularMesh
from mddg.operator import Problem, assemble, l2_error, project_l2
from mddg.sparse import SolverFailure
from mddg.timeint import (
    BlowUpError,
    builtin_gauss_legendre6,
    builtin_mdrk6,
    builtin_two_point_schemes,
    integrate,
)

TWO_PI = 2.0 * math.pi

SOLVER_KINDS = ("gmres", "direct")  # accepted ``solver`` values; both solve directly
MAX_STEPS = 10**6  # most time steps a study's finest level may take; the shipped studies take <= 256
# Deepest mesh level a run may reach; the shipped studies reach level 6.  Level L has
# 2 * 4^L triangles: level 7 holds 32768, at p = 5 688k unknowns per stage and an
# operator of about 0.7 GB, and every further level quadruples both, so a deeper run
# would end in a MemoryError or an out-of-memory kill rather than a result.
MAX_LEVEL = 7


def default_eta(p: int) -> float:
    """Interior-penalty default, above the coercivity threshold per degree.

    On the diagonal-split right-triangle hierarchy the threshold sits just
    above p (p + 1), so 20 covers p <= 3 but p = 4 needs more than 21 and
    p = 5 more than 31; below it the operator loses negative
    semi-definiteness and implicit runs can amplify.
    """
    if p <= 3:
        return 20.0
    return 30.0 if p == 4 else 40.0


def problem_convection() -> Problem:
    """Constant advection of sin(2 pi x) sin(2 pi y) with c = (1,1), eps = 0.

    The exact solution is the initial condition transported along c; after
    one time unit it returns to the initial state.
    """

    def exact(x, y, t):
        return np.sin(TWO_PI * (x - t)) * np.sin(TWO_PI * (y - t))

    return Problem(
        velocity=np.array([1.0, 1.0]),
        epsilon=0.0,
        initial=lambda x, y: exact(x, y, 0.0),
        exact=exact,
        t_end=1.0,
        name="convection",
    )


def _decaying_wave(x, y, t):
    return np.exp(-t) * np.sin(TWO_PI * (x - t)) * np.sin(TWO_PI * (y - t))


def problem_convection_diffusion(epsilon: float = 0.1) -> Problem:
    """Manufactured convection-diffusion problem, c = (1,1).

    With u = exp(-t) sin(2 pi (x-t)) sin(2 pi (y-t)) one has
    u_t + c.grad u = -u and laplace u = -8 pi^2 u, so the source closes to
    g = f u with f = 8 pi^2 eps - 1.  Since
    u = 1/2 exp(-t) [cos 2 pi (x-y) - cos 2 pi (x+y-2t)], g has the modes
    mu = -1, phi = f/2 cos 2 pi (x-y) and mu = -1 - 4 pi i,
    phi = -f/2 exp(2 pi i (x+y)).
    """
    factor = 8.0 * math.pi**2 * epsilon - 1.0
    return Problem(
        velocity=np.array([1.0, 1.0]),
        epsilon=epsilon,
        initial=lambda x, y: _decaying_wave(x, y, 0.0),
        source=(
            (-1.0, lambda x, y: 0.5 * factor * np.cos(TWO_PI * (x - y))),
            (-1.0 - 2j * TWO_PI, lambda x, y: -0.5 * factor * np.exp(1j * TWO_PI * (x + y))),
        ),
        exact=_decaying_wave,
        t_end=1.0,
        name="convection_diffusion",
    )


PROBLEMS = {"convection": problem_convection, "convection_diffusion": problem_convection_diffusion}


def make_problem(name: str) -> Problem:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}")
    return PROBLEMS[name]()


@functools.cache
def method_registry() -> dict:
    """Registered time integrators keyed by CLI name."""
    methods = {s.label: s for s in builtin_two_point_schemes()}
    methods["mdrk6"] = builtin_mdrk6()
    methods["gl6"] = builtin_gauss_legendre6()
    return methods


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass
class RunConfig:
    """Settings of one study: problem, discretization, method.

    ``solver`` must name one of ``SOLVER_KINDS`` but changes nothing: there is one
    solver, and every level marches in frequency space (``timeint.FrequencyStep``).
    """

    problem: str = "convection"
    p: int = 1
    method: str = "tp3"
    dt0: float = 0.25
    levels: int = 5
    eta: Optional[float] = None
    solver: str = "gmres"
    level: int = 0  # single-run level for `solve`
    output: Optional[str] = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.method not in method_registry():
            raise ConfigError(f"unknown method {self.method!r}")
        if self.solver not in SOLVER_KINDS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if not 0 <= self.p <= MAX_DEGREE:
            raise ConfigError(f"p must lie in 0..{MAX_DEGREE}")
        if self.problem == "convection_diffusion" and self.p == 0:
            raise ConfigError("convection_diffusion needs p >= 1 (interior-penalty diffusion)")
        for name in ("dt0", "eta"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        for name, least in (("levels", 1), ("level", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        finest = max(self.levels - 1, self.level)
        if finest > MAX_LEVEL:
            raise ConfigError(
                f"levels = {self.levels} and level = {self.level} put the finest mesh "
                f"at level {finest}, deeper than MAX_LEVEL = {MAX_LEVEL}"
            )
        dt = math.ldexp(self.dt0, -finest)  # dt0 / 2^finest, without forming 2^finest
        # an inf or nan step count fails the comparison too
        if not (dt > 0 and make_problem(self.problem).t_end / dt <= MAX_STEPS):
            raise ConfigError(
                f"dt0 = {self.dt0!r} leaves too many time steps at level {finest} "
                f"(more than MAX_STEPS = {MAX_STEPS})"
            )

    def resolved_eta(self) -> float:
        return self.eta if self.eta is not None else default_eta(self.p)


# the type each config key's text parses to: its RunConfig annotation, Optional[T] as T
_CONFIG_TYPES = {
    key: (typing.get_args(hint) or (hint,))[0] for key, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_text(text: str) -> RunConfig:
    """Parse `key = value` lines; `#` starts a comment; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8 text
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


@dataclass
class ReportRow:
    level: int
    h: float
    dt: float
    ndof: int
    l2_error: float
    observed_order: Optional[float]
    note: str = ""


@dataclass
class ConvergenceReport:
    """Per-level errors and observed orders of one refinement study."""

    config: RunConfig
    rows: list = field(default_factory=list)
    solver_stats: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def final_order(self) -> Optional[float]:
        orders = [r.observed_order for r in self.rows if r.observed_order is not None]
        return orders[-1] if orders else None

    @property
    def errors(self) -> list:
        return [r.l2_error for r in self.rows]


def mesh_hierarchy(levels: int):
    return [TriangularMesh(level) for level in range(levels)]


def run_level(cfg: RunConfig, mesh, level: int, stats: list) -> float:
    """Solve one study level on ``mesh`` with dt = dt0 / 2^level; return the L2 error at t_end.

    The stats of every linear solve are appended to ``stats``.  A
    SolverFailure or BlowUpError propagates, leaving the stats of the
    solves already made in ``stats``; an operator the config cannot
    assemble (an eta that overflows it) raises ConfigError.
    """
    problem = make_problem(cfg.problem)
    basis = make_basis(cfg.p)
    try:
        op = assemble(mesh, basis, problem, cfg.resolved_eta())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    w0 = project_l2(mesh, basis, problem.initial)
    w = integrate(
        op,
        method_registry()[cfg.method],
        w0,
        0.0,
        problem.t_end,
        cfg.dt0 / 2**level,
        stats_out=stats,
    )
    return l2_error(mesh, basis, w, problem.exact, problem.t_end)


def run_convergence(cfg: RunConfig) -> ConvergenceReport:
    """Refinement study: level L uses mesh level L and dt = dt0 / 2^L.

    Solver failures and blow-ups abort the affected level with a diagnostic
    row (NaN error) and are listed in the report's failures.
    """
    n_modes = make_basis(cfg.p).n_modes
    report = ConvergenceReport(config=cfg)
    prev_error = None
    for level, mesh in enumerate(mesh_hierarchy(cfg.levels)):
        stats = []
        try:
            err = run_level(cfg, mesh, level, stats)
            note = ""
        except (SolverFailure, BlowUpError) as exc:
            err = float("nan")
            note = f"{type(exc).__name__}: {exc}"
            report.failures.append((level, exc))
        report.solver_stats.append(stats)
        order = None
        if prev_error is not None and math.isfinite(err) and err > 0 and prev_error > 0:
            order = math.log2(prev_error / err)
        report.rows.append(
            ReportRow(
                level=level,
                h=mesh.h_max,
                dt=cfg.dt0 / 2**level,
                ndof=mesh.n_elements * n_modes,
                l2_error=err,
                observed_order=order,
                note=note,
            )
        )
        prev_error = err if math.isfinite(err) else None
    return report


CSV_HEADER = "level,h,dt,ndof,l2_error,observed_order"


def format_report(report: ConvergenceReport) -> str:
    """CSV with 17-significant-digit values; the order cell is empty on level 0."""
    lines = [CSV_HEADER]
    for r in report.rows:
        order = "" if r.observed_order is None else f"{r.observed_order:.17g}"
        lines.append(f"{r.level},{r.h:.17g},{r.dt:.17g},{r.ndof},{r.l2_error:.17g},{order}")
    return "\n".join(lines) + "\n"
