"""Periodic cell problems: homogenized matrices and p-power cell energies.

The homogenized matrix is computed column by column: per basis direction a
periodic corrector solve on the torus, then the field average of
coefficient * (basis + corrector gradient). Symmetric problems go through CG
on the mean-zero subspace and are cross-checked against the variational
energy; nonsymmetric coefficients use the BiCGStab weak form, where only the
flux representation is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import MatrixField, ScalarField, eval_matrix, eval_scalar
from .numerics import (
    TORUS,
    PEnergyProblem,
    build_grid,
    element_ops,
    minimize_p_energy,
    solve_corrector,
)

_CROSS_CHECK_TOL = 1e-8


@dataclass
class HomogenizedResult:
    """Homogenized matrix (or sampled p-energy values) plus solve metadata.

    Exactly one of ``matrix`` / ``energy_samples`` is set.
    ``solver_iterations`` and ``residuals`` record the iteration count and
    final solver residual per corrector direction (or per sample).
    ``extension_constant`` widens the admissible eigenvalue window to
    [alpha / C^2, beta] for perforated problems; plain fields use C = 1.
    Construction checks symmetry and the eigenvalue window of a matrix.
    """

    matrix: np.ndarray | None
    resolution: int
    symmetric_input: bool
    solver_iterations: tuple[int, ...]
    residuals: tuple[float, ...]
    bounds_alpha: float
    bounds_beta: float
    energy_samples: tuple[tuple[tuple[float, ...], float], ...] | None = None
    extension_constant: float = 1.0

    def __post_init__(self):
        if (self.matrix is None) == (self.energy_samples is None):
            raise ValueError("result must hold either a matrix or energy samples")
        if self.matrix is None:
            return
        self.matrix = np.asarray(self.matrix, dtype=float)
        d = self.matrix.shape[0]
        if self.matrix.shape != (d, d):
            raise ValueError("homogenized matrix must be square")
        if self.symmetric_input:
            defect = np.max(np.abs(self.matrix - self.matrix.T))
            scale = max(np.max(np.abs(self.matrix)), 1e-300)
            if defect > _CROSS_CHECK_TOL * scale:
                raise RuntimeError(
                    f"symmetric input produced asymmetric output (defect {defect:.3e})")
        eigs = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))
        lo = self.bounds_alpha / self.extension_constant ** 2
        slack = 1e-9 * max(self.bounds_beta, 1.0)
        if eigs.min() < lo - slack or eigs.max() > self.bounds_beta + slack:
            raise RuntimeError(
                f"homogenized eigenvalues {eigs} escape [{lo:.6g}, {self.bounds_beta:.6g}]")


def homogenized_quadratic_form(result: HomogenizedResult, xi) -> float:
    if result.matrix is None:
        raise ValueError("result holds energy samples, not a matrix")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (result.matrix.shape[0],):
        raise ValueError(f"xi must have shape ({result.matrix.shape[0]},)")
    return float(xi @ result.matrix @ xi)


def _field_period_and_alignment(field) -> tuple[float, int]:
    if isinstance(field, MatrixField):
        parts = [field.entries[i][j] for i in range(field.dim) for j in range(field.dim)]
    else:
        parts = [field]
    periods = []
    for part in parts:
        p = part.period
        if p is None:
            raise ValueError("field is not periodic; use the window estimator instead")
        q = int(round(p))
        if abs(p - q) > 1e-12 or q < 1:
            raise ValueError(f"unsupported non-integer period {p}")
        periods.append(q)
    return (float(math.lcm(*periods)),
            math.lcm(*(part.alignment_divisor for part in parts)))


def _check_alignment(resolution: int, divisor: int):
    if resolution % divisor != 0:
        raise ValueError(f"resolution {resolution} must be a multiple of {divisor} "
                         "so phase boundaries land on element boundaries")


def homogenize_matrix(field: ScalarField | MatrixField,
                      resolution: int) -> HomogenizedResult:
    """Homogenized matrix of a periodic quadratic energy at the given
    cells-per-unit resolution."""
    period, divisor = _field_period_and_alignment(field)
    _check_alignment(resolution, divisor)
    dim = field.dim
    cells = int(round(period * resolution))
    grid = build_grid(dim, cells, (0.0,) * dim, period, TORUS)
    ops = element_ops(grid)
    centers = grid.element_centers()
    if isinstance(field, MatrixField):
        coeff = eval_matrix(field, centers)
        symmetric = field.symmetric
    else:
        coeff = eval_scalar(field, centers)
        symmetric = True

    volume = period ** dim
    matrix = np.empty((dim, dim))
    iters = []
    residuals = []
    basis = np.eye(dim)
    solves = solve_corrector(grid, coeff, basis, symmetric=symmetric)
    for i, (e_i, (w, stats)) in enumerate(zip(basis, solves)):
        iters.append(stats.iterations)
        residuals.append(stats.residual)
        column = ops.flux_average(w, coeff, e_i)
        if symmetric:
            energy = ops.energy_quadratic(w, coeff, e_i) / volume
            scale = max(abs(energy), 1.0)
            if abs(energy - column[i]) > _CROSS_CHECK_TOL * scale:
                raise RuntimeError(
                    f"energy/flux cross-check failed in direction {i}: "
                    f"energy {energy:.12g} vs flux {column[i]:.12g}")
        matrix[:, i] = column
    b = field.bounds
    return HomogenizedResult(matrix, resolution, symmetric, tuple(iters),
                             tuple(residuals), b.alpha, b.beta)


def homogenize_p_energy(coeff: ScalarField, p: float, xi,
                        resolution: int) -> float:
    """Homogenized p-power energy density at direction xi (periodic fields)."""
    value, _, _ = _p_energy_solve(coeff, p, xi, resolution)
    return value


def p_energy_result(coeff: ScalarField, p: float, xis,
                    resolution: int) -> HomogenizedResult:
    """Sampled homogenized p-energies at several directions, as one result."""
    samples = []
    iters = []
    residuals = []
    for xi in xis:
        value, its, res = _p_energy_solve(coeff, p, xi, resolution)
        samples.append((tuple(float(c) for c in np.asarray(xi, dtype=float)), value))
        iters.append(its)
        residuals.append(res)
    return HomogenizedResult(None, resolution, True, tuple(iters),
                             tuple(residuals), coeff.bounds.alpha,
                             coeff.bounds.beta, energy_samples=tuple(samples))


def _p_energy_solve(coeff: ScalarField, p: float, xi,
                    resolution: int) -> tuple[float, int, float]:
    period, divisor = _field_period_and_alignment(coeff)
    _check_alignment(resolution, divisor)
    dim = coeff.dim
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dim,):
        raise ValueError(f"xi must have shape ({dim},)")
    cells = int(round(period * resolution))
    grid = build_grid(dim, cells, (0.0,) * dim, period, TORUS)
    a_e = eval_scalar(coeff, grid.element_centers())
    problem = PEnergyProblem(grid, a_e, p, xi)
    x0 = None
    if p != 2.0:
        # continuation from the quadratic corrector with the same coefficient
        [(x0, _)] = solve_corrector(grid, a_e, [xi])
    u, stats = minimize_p_energy(problem, x0=x0)
    value = problem.value(u) / period ** dim
    b = coeff.bounds
    xi_norm = float(np.linalg.norm(xi))
    if value < b.alpha * xi_norm ** p - 1e-9 or value > b.beta * (1.0 + xi_norm ** p) + 1e-9:
        raise RuntimeError(f"cell energy {value:.6g} escapes the growth sandwich")
    return value, stats.iterations, stats.residual
