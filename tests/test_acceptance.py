"""End-to-end acceptance checks at production resolutions.

Each test prints one ``[criterion-k] PASS`` or ``FAIL`` line straight to the
terminal (past pytest's capture), so the verdict list survives in plain
``pytest -v`` output. The suite is slower than the unit tests; run it alone
with ``pytest tests/test_acceptance.py``.
"""
import json

import numpy as np
from scipy.optimize import minimize

from homlab.cell import homogenize_matrix, homogenize_p_energy
from homlab.cli import main
from homlab.fields import (BallSupport, CheckerboardFamily, EnergyDensity,
                           FieldBounds, HalfSpaceStep, Layered1D, LpDecay,
                           PeriodicStep, Perturbed, PowerOfTwoCells,
                           TrigPolynomialClamped, checkerboard_step,
                           constant_matrix, mean_abs_statistic)
from homlab.perforation import (GaussianSource, PerforationSet, SparseRemoval,
                                empirical_extension_constant, extend_over_ball,
                                lambda_problem_experiment, masked_cell_value,
                                masked_window_value, penalized_cell_value,
                                symmetric_difference_density)
from homlab.rve import flux_average_window, window_sequence
from homlab.stability import (Conclusion, run_stability_pair,
                              stochastic_stability_experiment)

B14 = FieldBounds(1.0, 4.0)
E1 = np.array([1.0, 0.0])
BALLS = PerforationSet("ball", 0.25)



def layered(dim):
    return Layered1D((0.0, 0.5), (1.0, 4.0), B14, dim=dim)


def test_one_dimensional_harmonic_mean(criterion):
    with criterion(1):
        value = homogenize_p_energy(layered(1), 2.0, [1.0], 1024)
        assert abs(value - 1.6) <= 1e-3


def test_layered_matrix_entrywise(criterion):
    with criterion(2):
        result = homogenize_matrix(layered(2), 256)
        expected = np.diag([1.6, 2.5])
        assert np.max(np.abs(result.matrix - expected)) <= 2e-2


def test_checkerboard_duality(criterion):
    with criterion(3):
        series = {n: homogenize_matrix(checkerboard_step(1.0, 4.0, B14), n)
                  for n in (64, 128, 256)}
        matrix = series[256].matrix
        assert np.max(np.abs(matrix - 2.0 * np.eye(2))) <= 0.05 * 2.0
        dual = homogenize_matrix(checkerboard_step(4.0, 1.0, B14), 256)
        product = matrix @ dual.matrix
        assert np.max(np.abs(product - 4.0 * np.eye(2))) <= 0.05 * 4.0
        errors = [np.max(np.abs(series[n].matrix - 2.0 * np.eye(2)))
                  for n in (64, 128, 256)]
        assert errors[0] > errors[1] > errors[2]


def brute_force_p_energy(a_of_y, p, xi, n):
    """Direct minimization of the discrete cell energy, no reuse of the
    package solvers: periodic nodal values, L-BFGS-B on the raw functional."""
    h = 1.0 / n
    a = a_of_y((np.arange(n) + 0.5) * h)

    def fun(w):
        v = (np.roll(w, -1) - w) / h + xi
        s = a * np.abs(v) ** (p - 2) * v
        value = float(np.mean(a * np.abs(v) ** p))
        grad = p * (np.roll(s, 1) - s) / (n * h)
        return value, grad

    res = minimize(fun, np.zeros(n), jac=True, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-14, "gtol": 1e-12})
    if not res.success:
        raise RuntimeError(f"reference minimization stalled: {res.message}")
    return float(res.fun)


def test_p_power_two_phase(criterion):
    with criterion(4):
        value = homogenize_p_energy(layered(1), 3.0, [1.0], 1024)
        expected = 0.75 ** -2
        assert abs(value - expected) <= 1e-3
        oracle = brute_force_p_energy(
            lambda y: np.where(y % 1.0 < 0.5, 1.0, 4.0), 3.0, 1.0, 1024)
        assert abs(oracle - expected) <= 1e-6
        assert abs(value - oracle) <= 1e-3


def test_windows_approach_cell_value(criterion):
    with criterion(5):
        field = TrigPolynomialClamped(
            2.5, ((0.6, (1.0, 0.0), 0.0), (0.3, (0.0, 1.0), 0.0)), B14, dim=2)
        cell = homogenize_matrix(field, 256).matrix[0, 0]
        est = window_sequence(EnergyDensity(field), None, [1.0, 0.0],
                              (4.0, 8.0, 16.0), 16)
        gaps = [abs(v - cell) for v in est.values]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] <= 0.01 * cell


def test_sparse_perturbation_sweep(criterion):
    with criterion(6):
        base1 = PeriodicStep(2, (1.5, 3.5), B14, dim=1)
        base2 = PeriodicStep(2, (2.0, 3.0), B14, dim=1)
        pairs = [
            (base1, PowerOfTwoCells(1.0), 0.5),
            (base1, PowerOfTwoCells(0.5), -0.5),
            (base1, BallSupport(1.0), 0.5),
            (base1, BallSupport(2.0), -0.5),
            (base1, LpDecay(3.0), 0.5),
            (base2, PowerOfTwoCells(1.0), -0.5),
            (base2, BallSupport(1.0), 0.5),
            (base2, LpDecay(2.0), -0.5),
            (base2, LpDecay(3.0), 0.4),
            (base2, PowerOfTwoCells(0.5), 0.5),
        ]
        assert len(pairs) == 10
        for base, rule, amplitude in pairs:
            report = run_stability_pair(
                EnergyDensity(base),
                EnergyDensity(Perturbed(base, rule, amplitude)))
            assert report.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_AGREE
            assert report.numerical_failure is None


def test_swapped_phases_fail_condition_same_limit(criterion):
    with criterion(7):
        f = EnergyDensity(PeriodicStep(2, (1.0, 4.0), B14, dim=1))
        g = EnergyDensity(PeriodicStep(2, (4.0, 1.0), B14, dim=1))
        for t in (1.0, 2.0):
            for R in (8.0, 16.0, 32.0):
                assert mean_abs_statistic(f, g, t, R) == 3.0 * t * t
        report = run_stability_pair(f, g)
        a_hom = report.homogenized_f.matrix[0, 0]
        b_hom = report.homogenized_g.matrix[0, 0]
        assert abs(a_hom - b_hom) <= 1e-3
        assert report.conclusion is Conclusion.CONDITION_FAILS_LIMITS_AGREE


def test_half_space_center_dependent_limits(criterion):
    with criterion(8):
        field = EnergyDensity(HalfSpaceStep(2.0, 0.5, B14, dim=1))
        left = window_sequence(field, [-4.0], [1.0], (2.0, 4.0, 8.0), 8)
        right = window_sequence(field, [4.0], [1.0], (2.0, 4.0, 8.0), 8)
        assert abs(left.limit_estimate - 1.5) <= 1e-9
        assert abs(right.limit_estimate - 2.5) <= 1e-9
        assert left.cauchy_gap <= 1e-10
        assert right.cauchy_gap <= 1e-10


def test_constant_flux_identity(criterion):
    with criterion(9):
        A = np.array([[2.0, 1.0], [-1.0, 2.0]])
        field = constant_matrix(A, B14)
        rng = np.random.default_rng(0)
        for _ in range(5):
            xi = rng.uniform(-1.0, 1.0, size=2)
            flux = flux_average_window(field, 0.0, 2.0, xi, 8)
            assert np.max(np.abs(flux - A @ xi)) <= 1e-10


def test_penalization_sandwich(criterion):
    with criterion(10):
        masked = masked_cell_value(BALLS, E1, 64)
        penalized = [penalized_cell_value(BALLS, n, E1, 64)
                     for n in (4, 16, 64, 256)]
        for v in penalized:
            assert masked <= v
        assert penalized[0] > penalized[1] > penalized[2] > penalized[3]
        assert penalized[3] - masked <= 0.02 * masked
        c_hat = empirical_extension_constant()
        for n, v in zip((4, 16, 64, 256), penalized):
            assert v <= (1.0 + 1.5 * c_hat ** 2 / n) * masked


def test_extension_homothety(criterion):
    with criterion(11):
        r1 = extend_over_ball(lambda x, y: x, 32)
        r2 = extend_over_ball(lambda x, y: x, 32, scale=2.0)
        assert r1.gradient_ratio > 0.0
        assert abs(r1.gradient_ratio - r2.gradient_ratio) <= 1e-3


def test_hole_pattern_perturbation(criterion):
    with criterion(12):
        sparse = PerforationSet("ball", 0.25, SparseRemoval())
        diffs = []
        for R in (8.0, 16.0):
            v = masked_window_value(BALLS, (0.0, 0.0), R, E1, 16)
            v_sparse = masked_window_value(sparse, (0.0, 0.0), R, E1, 16)
            diffs.append(abs(v - v_sparse) / v)
        assert diffs[1] <= 0.05
        assert diffs[1] < diffs[0]
        densities = [symmetric_difference_density(BALLS, sparse, R, 32)
                     for R in (16.0, 32.0, 64.0)]
        assert densities[0] > densities[1] > densities[2]


def test_source_problem_convergence(criterion):
    with criterion(13):
        report = lambda_problem_experiment(BALLS, 1.0, GaussianSource(),
                                           (0.25, 0.125, 0.0625),
                                           resolution=256)
        d = report.distances
        assert d[0] > d[1] > d[2]
        control = lambda_problem_experiment(PerforationSet("ball", 0.0), 1.0,
                                            GaussianSource(), (0.25,),
                                            resolution=128)
        assert control.distances[0] <= 1e-8


def test_random_families_paired_comparison(criterion):
    with criterion(14):
        plain = CheckerboardFamily((1.0, 4.0), 0.5, B14)
        flipped = CheckerboardFamily((1.0, 4.0), 0.5, B14,
                                     flip_cells=PowerOfTwoCells(1.0))
        report = stochastic_stability_experiment(
            plain, flipped, 16, 11, torus_size=32, resolution_per_unit=8,
            statistic_sizes=(8.0, 16.0, 32.0))
        means = [m for _, m, _ in report.statistic_trace]
        assert means[0] > means[1] > means[2]
        assert report.intervals_overlap


def test_reruns_are_byte_identical(criterion, tmp_path):
    with criterion(15):
        spec = {"kind": "stochastic", "seed": 9,
                "family": {"type": "checkerboard_family",
                           "values": [1.0, 4.0]},
                "family_g": {"type": "checkerboard_family",
                             "values": [1.0, 4.0],
                             "flip": {"type": "power_of_two", "width": 1.0}},
                "trials": 8, "torus_size": 4, "resolution_per_unit": 4,
                "statistic_sizes": [8, 16, 32]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out1, out2 = tmp_path / "first", tmp_path / "second"
        for out in (out1, out2):
            code = main(["stochastic", "--spec", str(path), "--out", str(out)])
            assert code == 0
        for name in ("stochastic.csv", "stochastic.svg"):
            assert ((out1 / name).read_bytes()
                    == (out2 / name).read_bytes()), name
