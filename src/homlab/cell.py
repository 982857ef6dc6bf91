"""Periodic cell problems: homogenized matrices and p-power cell energies.

Every homogenized matrix in the package comes from one torus core,
``homogenize_coefficients``: per basis direction a periodic corrector solve,
then the field average of coefficient * (basis + corrector gradient), both
read off by ``numerics.corrector_response``. It cross-checks each column of
a symmetric problem against the variational energy; nonsymmetric
coefficients use the BiCGStab weak form, where only the flux representation
is meaningful. p-power cell energies come from the same function and are
checked against the growth sandwich (``numerics.check_growth``).
Besides ``homogenize_matrix`` (one period of a periodic field), the core
serves the perforated cell (``perforation.masked_cell_matrix``, a zero
coefficient on the holes) and the stochastic trials (``stability``, one
realization on a torus of the trial size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldBounds, MatrixField, ScalarField, element_coefficients
from .numerics import (
    HOM_EIGEN_RTOL,
    HOM_SYMMETRY_RTOL,
    TORUS,
    GuardError,
    Grid,
    build_grid,
    cells_across,
    check_growth,
    corrector_response,
    is_symmetric,
    nearest_integer,
)


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
            if not defect <= HOM_SYMMETRY_RTOL * scale:
                raise GuardError(
                    f"symmetric input produced asymmetric output (defect {defect:.3e})")
        # eigvalsh reads a NaN diagonal as finite eigenvalues ([0, -0] for
        # diag(NaN, 1)), so a non-finite entry is refused before it runs
        if not np.isfinite(self.matrix).all():
            raise GuardError(f"homogenized matrix has a non-finite entry: "
                             f"{self.matrix.tolist()}")
        eigs = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))
        lo = self.bounds_alpha / self.extension_constant ** 2
        slack = HOM_EIGEN_RTOL * max(self.bounds_beta, 1.0)
        if not (eigs.min() >= lo - slack and eigs.max() <= self.bounds_beta + slack):
            raise GuardError(
                f"homogenized eigenvalues {eigs} escape [{lo:.6g}, {self.bounds_beta:.6g}]")


def homogenized_quadratic_form(result: HomogenizedResult, xi) -> float:
    if result.matrix is None:
        raise ValueError("result holds energy samples, not a matrix")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (result.matrix.shape[0],):
        raise ValueError(f"xi must have shape ({result.matrix.shape[0]},)")
    return float(xi @ result.matrix @ xi)


def _field_period_and_alignment(field) -> tuple[int, int]:
    parts = ([part for row in field.entries for part in row]
             if isinstance(field, MatrixField) else [field])
    periods = []
    for part in parts:
        p = part.period
        if p is None:
            raise ValueError("field is not periodic; use the window estimator instead")
        q = nearest_integer(p)
        if q is None or q < 1:
            raise ValueError(f"unsupported non-integer period {p}")
        periods.append(q)
    return (math.lcm(*periods),
            math.lcm(*(part.alignment_divisor for part in parts)))


def is_periodic(field: ScalarField | MatrixField) -> bool:
    """Whether cell solves apply: every part has an integer period."""
    try:
        _field_period_and_alignment(field)
    except ValueError:
        return False
    return True


def torus_grid(field: ScalarField | MatrixField, resolution: int) -> Grid:
    """One period of a periodic field as a torus at ``resolution`` cells per
    unit. ValueError when the field is not periodic or a phase boundary
    would fall inside an element."""
    period, divisor = _field_period_and_alignment(field)
    if resolution % divisor != 0:
        raise ValueError(f"resolution {resolution} must be a multiple of {divisor} "
                         "so phase boundaries land on element boundaries")
    return build_grid(field.dim, cells_across(period, resolution),
                      (0.0,) * field.dim, period, TORUS)


def homogenize_matrix(field: ScalarField | MatrixField,
                      resolution: int) -> HomogenizedResult:
    """Homogenized matrix of a periodic quadratic energy at the given
    cells-per-unit resolution."""
    grid = torus_grid(field, resolution)
    return homogenize_coefficients(grid, element_coefficients(field, grid),
                                   field.bounds)


def homogenize_coefficients(grid: Grid, coeff: np.ndarray, bounds: FieldBounds,
                            *, extension_constant: float = 1.0) -> HomogenizedResult:
    """Homogenized matrix of per-element coefficients on a torus grid.

    Column i is the flux average of coeff * (e_i + grad w_i), read off the
    corrector of each basis direction by ``numerics.corrector_response``
    (which cross-checks it against the cell energy for symmetric
    coefficients). Elements where ``coeff`` is zero are Neumann holes;
    ``bounds`` and ``extension_constant`` set the eigenvalue window that
    ``HomogenizedResult`` checks.
    """
    responses = corrector_response(grid, coeff, np.eye(grid.dim))
    matrix = np.column_stack([flux for _, flux, _ in responses])
    return HomogenizedResult(matrix, is_symmetric(coeff),
                             tuple(stats.iterations for *_, stats in responses),
                             tuple(stats.residual for *_, stats in responses),
                             bounds.alpha, bounds.beta,
                             extension_constant=extension_constant)


def homogenize_p_energy(coeff: ScalarField, p: float, xi,
                        resolution: int) -> float:
    """Homogenized p-power energy density at direction xi (periodic fields)."""
    [(_, value)] = p_energy_result(coeff, p, (xi,), resolution).energy_samples
    return value


def p_energy_result(coeff: ScalarField, p: float, xis,
                    resolution: int) -> HomogenizedResult:
    """Sampled homogenized p-energies at several directions, as one result.

    One period of the field is built and evaluated once; each direction's
    energy is then read off its corrector (``numerics.corrector_response``:
    L-BFGS at p != 2) and checked against the growth sandwich
    (``numerics.check_growth``).
    """
    grid = torus_grid(coeff, resolution)
    b = coeff.bounds
    responses = corrector_response(grid, element_coefficients(coeff, grid), xis, p)
    samples = []
    for xi, (value, _, _) in zip(xis, responses):
        check_growth(value, b.alpha, b.beta, p, xi)
        samples.append((tuple(float(c) for c in xi), value))
    return HomogenizedResult(None, True,
                             tuple(stats.iterations for *_, stats in responses),
                             tuple(stats.residual for *_, stats in responses),
                             b.alpha, b.beta, energy_samples=tuple(samples))
