"""Cell-problem tests: exact constants, layered closed forms, checkerboard
duality, Voigt-Reuss bounds, and p-energy consistency."""

import numpy as np
import pytest

from homlab.cell import (
    HomogenizedResult,
    _field_period_and_alignment,
    homogenize_coefficients,
    homogenize_matrix,
    homogenize_p_energy,
    homogenized_quadratic_form,
    p_energy_result,
)
from homlab.fields import (
    Constant,
    FieldBounds,
    Layered1D,
    MatrixField,
    PeriodicStep,
    TrigPolynomialClamped,
    checkerboard_step,
    constant_matrix,
    eval_scalar,
)
from homlab.numerics import TORUS, build_grid

B14 = FieldBounds(1.0, 4.0)
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


def layered_two_phase(dim):
    return Layered1D((0.0, 0.5), (1.0, 4.0), B14, dim=dim)


@pytest.fixture(scope="module")
def checker_series():
    field = checkerboard_step(1.0, 4.0, B14)
    return {n: homogenize_matrix(field, n) for n in (32, 64, 128, 256)}


@pytest.fixture(scope="module")
def checker_dual_256():
    return homogenize_matrix(checkerboard_step(4.0, 1.0, B14), 256)


def test_constant_scalar_exact():
    result = homogenize_matrix(Constant(2.0, B14, dim=2), 16)
    assert np.allclose(result.matrix, 2.0 * np.eye(2), atol=1e-13)
    assert result.symmetric_input
    # constant coefficient: the corrector load cancels exactly, so CG
    # accepts the zero initial guess
    assert result.solver_iterations == (0, 0)


def test_constant_nonsymmetric_exact():
    A = np.array([[2.0, 1.0], [-1.0, 2.0]])
    field = constant_matrix(A, B14)
    result = homogenize_matrix(field, 8)
    assert not result.symmetric_input
    assert np.max(np.abs(result.matrix - A)) <= 1e-10


def test_layered_two_phase_2d():
    result = homogenize_matrix(layered_two_phase(2), 32)
    expected = np.diag([1.6, 2.5])
    assert np.max(np.abs(result.matrix - expected)) <= 1e-8


def test_layered_two_phase_1d():
    result = homogenize_matrix(layered_two_phase(1), 64)
    assert abs(result.matrix[0, 0] - 1.6) <= 1e-9


def test_checkerboard_value(checker_series):
    matrix = checker_series[256].matrix
    assert np.max(np.abs(matrix - 2.0 * np.eye(2))) <= 0.05 * 2.0
    # discrete problem shares the symmetry of the tiling
    assert abs(matrix[0, 0] - matrix[1, 1]) <= 1e-8


def test_checkerboard_duality_product(checker_series, checker_dual_256):
    product = checker_series[256].matrix @ checker_dual_256.matrix
    assert np.max(np.abs(product - 4.0 * np.eye(2))) <= 0.05 * 4.0


def test_checkerboard_refinement_improves(checker_series):
    errors = [np.max(np.abs(checker_series[n].matrix - 2.0 * np.eye(2)))
              for n in (64, 128, 256)]
    assert errors[0] > errors[1] > errors[2]


def test_resolution_convergence_gaps_decrease(checker_series):
    gap_coarse = np.max(np.abs(checker_series[32].matrix - checker_series[64].matrix))
    gap_fine = np.max(np.abs(checker_series[64].matrix - checker_series[128].matrix))
    assert gap_fine < gap_coarse


def test_checkerboard_cg_iterations_bounded_in_resolution():
    # the spectral preconditioner bounds the condition number by the 1:4
    # contrast; only the stopping rule on the unpreconditioned residual adds
    # about one iteration per halving of h (a diagonal preconditioner would
    # double the count per halving instead)
    field = checkerboard_step(1.0, 4.0, B14)
    counts = [max(homogenize_matrix(field, n).solver_iterations) for n in (16, 32, 64)]
    assert max(counts) <= 40
    assert counts[2] <= counts[0] + 2


def test_layered_duality_rotated():
    primal = homogenize_matrix(layered_two_phase(2), 32).matrix
    dual = homogenize_matrix(Layered1D((0.0, 0.5), (4.0, 1.0), B14, dim=2), 32).matrix
    product = primal @ (ROT90 @ dual @ ROT90.T)
    assert np.max(np.abs(product - 4.0 * np.eye(2))) <= 1e-7


def test_voigt_reuss_sandwich():
    values = (1.3, 3.1, 2.2, 1.0, 4.0, 2.8, 1.7, 3.5, 2.0, 1.1, 3.9, 2.5,
              1.5, 3.3, 2.1, 2.9)
    field = PeriodicStep(4, values, B14)
    result = homogenize_matrix(field, 128)
    eigs = np.linalg.eigvalsh(result.matrix)
    arr = np.array(values)
    harmonic = 1.0 / np.mean(1.0 / arr)
    arithmetic = np.mean(arr)
    assert eigs.min() >= harmonic * 0.98
    assert eigs.max() <= arithmetic * 1.02


def test_p2_matches_quadratic_form():
    field = layered_two_phase(2)
    result = homogenize_matrix(field, 16)
    rng = np.random.default_rng(7)
    for _ in range(5):
        xi = rng.uniform(-1.0, 1.0, size=2)
        xi /= np.linalg.norm(xi)
        direct = homogenize_p_energy(field, 2.0, xi, 16)
        via_matrix = homogenized_quadratic_form(result, xi)
        assert abs(direct - via_matrix) <= 1e-6 * abs(via_matrix)


def test_p_energy_constant():
    value = homogenize_p_energy(Constant(3.0, B14, dim=1), 3.0, [2.0], 16)
    assert abs(value - 3.0 * 8.0) <= 1e-9


def test_p2_two_phase_harmonic():
    value = homogenize_p_energy(layered_two_phase(1), 2.0, [1.0], 64)
    assert abs(value - 1.6) <= 1e-3
    assert abs(value - 1.6) <= 1e-8


def test_p3_two_phase_closed_form():
    value = homogenize_p_energy(layered_two_phase(1), 3.0, [1.0], 64)
    expected = 0.75 ** -2
    assert abs(value - expected) <= 1e-3
    assert abs(value - expected) <= 1e-6


def test_p_energy_samples_result():
    field = layered_two_phase(1)
    result = p_energy_result(field, 3.0, [[1.0], [2.0]], 32)
    assert result.matrix is None
    assert len(result.energy_samples) == 2
    (xi0, v0), (xi1, v1) = result.energy_samples
    assert xi0 == (1.0,) and xi1 == (2.0,)
    # p-homogeneous in xi
    assert abs(v1 - 8.0 * v0) <= 1e-6 * v1
    with pytest.raises(ValueError):
        homogenized_quadratic_form(result, [1.0])


def test_p_energy_iterations_stay_flat():
    # the tiny benchmark cell spec: p = 3, 2x2 step [1, 4, 4, 1] at 8 and 16
    # cells per unit; plain L-BFGS from the quadratic warm start took 14 and 34
    field = PeriodicStep(2, [1.0, 4.0, 4.0, 1.0], B14, dim=2)
    for resolution in (8, 16):
        result = p_energy_result(field, 3.0, [[1.0, 0.0]], resolution)
        assert max(result.solver_iterations) <= 25


def test_quadratic_form_examples():
    eye = HomogenizedResult(np.eye(2), True, (), (), 0.5, 4.0)
    assert homogenized_quadratic_form(eye, [3.0, 4.0]) == pytest.approx(25.0)
    layered = HomogenizedResult(np.diag([1.6, 2.5]), True, (), (), 1.0, 4.0)
    assert homogenized_quadratic_form(layered, [1.0, 0.0]) == pytest.approx(1.6)
    assert homogenized_quadratic_form(layered, [1.0, 1.0]) == pytest.approx(4.1)
    with pytest.raises(ValueError):
        homogenized_quadratic_form(layered, [1.0, 0.0, 0.0])


def test_result_validation():
    with pytest.raises(ValueError):
        HomogenizedResult(None, True, (), (), 1.0, 4.0)
    with pytest.raises(ValueError):
        HomogenizedResult(np.eye(2), True, (), (), 1.0, 4.0,
                          energy_samples=(((1.0,), 1.0),))
    with pytest.raises(RuntimeError):
        HomogenizedResult(np.array([[2.0, 0.5], [0.0, 2.0]]), True, (), (),
                          1.0, 4.0)
    with pytest.raises(RuntimeError):
        HomogenizedResult(10.0 * np.eye(2), True, (), (), 1.0, 4.0)
    # perforated window: alpha / C^2 admits small eigenvalues
    HomogenizedResult(0.5 * np.eye(2), True, (), (), 1.0, 4.0,
                      extension_constant=2.0)


def test_rejects_non_periodic_field():
    field = TrigPolynomialClamped(2.0, ((0.5, (np.sqrt(2.0),), 0.0),), B14, dim=1)
    with pytest.raises(ValueError, match="not periodic"):
        homogenize_matrix(field, 16)


def test_rejects_misaligned_resolution():
    field = Layered1D((0.0, 1.0 / 3.0), (1.0, 4.0), B14, dim=1)
    with pytest.raises(ValueError, match="multiple"):
        homogenize_matrix(field, 16)


def test_periods_and_divisors_combine_by_lcm():
    trig = TrigPolynomialClamped(2.0, ((0.3, (0.5,), 0.0), (0.3, (1.0 / 3.0,), 1.0)),
                                 B14, dim=1)
    assert trig.period == 6.0
    layers = Layered1D((0.0, 0.25, 1.0 / 3.0), (1.0, 2.0, 4.0), B14, dim=1)
    assert layers.alignment_divisor == 12
    # entry periods 2, 1, 1, 3; divisors 1, 4, 4, 1, then 1, 4, 3, 1
    half = TrigPolynomialClamped(2.0, ((0.5, (0.5, 0.0), 0.0),), B14, dim=2)
    third = TrigPolynomialClamped(2.0, ((0.5, (0.0, 1.0 / 3.0), 0.0),), B14, dim=2)
    quarter = Layered1D((0.0, 0.25), (1.0, 2.0), B14, dim=2)
    thirds = PeriodicStep(3, (1.0,) * 9, B14, dim=2)
    field = MatrixField(((half, quarter), (quarter, third)), dim=2)
    assert _field_period_and_alignment(field) == (6.0, 4)
    field = MatrixField(((half, quarter), (thirds, third)), dim=2)
    assert _field_period_and_alignment(field) == (6.0, 12)


def test_integer_period_harmonic_identity():
    # period-2 smooth coefficient; in 1D the discrete homogenized value is
    # exactly the harmonic mean of the element-center samples
    field = TrigPolynomialClamped(2.0, ((0.5, (0.5,), 0.0),), B14, dim=1)
    assert field.period == 2.0
    resolution = 32
    result = homogenize_matrix(field, resolution)
    centers = (np.arange(64) + 0.5) / resolution
    samples = 2.0 + 0.5 * np.sin(2.0 * np.pi * 0.5 * centers)
    harmonic = 1.0 / np.mean(1.0 / samples)
    assert abs(result.matrix[0, 0] - harmonic) <= 1e-10


def test_core_on_step_coefficients_matches_homogenize_matrix():
    field = PeriodicStep(2, (1.0, 4.0, 2.0, 3.0), B14, dim=2)
    grid = build_grid(2, 16, (0.0, 0.0), 1.0, TORUS)
    core = homogenize_coefficients(grid, eval_scalar(field, grid.element_centers()),
                                   B14)
    assert core.matrix.tobytes() == homogenize_matrix(field, 16).matrix.tobytes()
