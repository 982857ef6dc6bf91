"""Window estimator tests: exact 1D oracles, cell-value consistency,
center (in)dependence, flux identities, and bit-exact translation."""

import inspect
import math

import numpy as np
import pytest

from homlab.cell import homogenize_matrix
from homlab.fields import (
    Constant,
    EnergyDensity,
    FieldBounds,
    HalfSpaceStep,
    Layered1D,
    PeriodicStep,
    TrigPolynomialClamped,
    constant_matrix,
    isotropic_matrix,
)
from homlab.rve import (
    WindowEstimate,
    flux_average_window,
    local_min_energy,
    window_sequence,
)

B14 = FieldBounds(1.0, 4.0)


def two_phase(dim):
    return Layered1D((0.0, 0.5), (1.0, 4.0), B14, dim=dim)


def smooth_field():
    return TrigPolynomialClamped(
        2.0, ((0.5, (1.0, 0.0), 0.0), (0.5, (0.0, 1.0), 0.0)), B14, dim=2)


def inv_coeff_integral(lo, hi):
    """Exact integral of 1/a over [lo, hi] for the (1, 4) half-period layers."""
    total = 0.0
    x = lo
    while x < hi - 1e-12:
        cut = math.floor(2.0 * x + 1e-12) / 2.0 + 0.5
        nxt = min(cut, hi)
        frac = x - math.floor(x + 1e-12)
        val = 1.0 if frac < 0.5 - 1e-12 else 4.0
        total += (nxt - x) / val
        x = nxt
    return total


def test_constant_quadratic_any_window():
    den = EnergyDensity(Constant(3.0, B14, dim=2))
    value = local_min_energy(den, (0.7, -0.2), 2.0, [1.0, 2.0], 8)
    assert abs(value - 15.0) <= 1e-10


def test_constant_p3_affine_minimizer():
    den = EnergyDensity(Constant(2.0, B14, dim=1), 3.0)
    value = local_min_energy(den, 0.0, 2.0, [1.0], 8)
    assert abs(value - 2.0) <= 1e-8


def test_halfspace_right_window_exact():
    den = EnergyDensity(HalfSpaceStep(2.0, 0.5, B14, dim=1))
    value = local_min_energy(den, 16.0, 8.0, [1.0], 2)
    assert abs(value - 2.5) <= 1e-12


def test_two_phase_windows_match_euler_oracle():
    den = EnergyDensity(two_phase(1))
    x0 = 0.25
    sizes = (4.5, 8.5, 16.5)
    values = [local_min_energy(den, x0, R, [1.0], 16) for R in sizes]
    oracle = [R / inv_coeff_integral(x0 - R / 2.0, x0 + R / 2.0) for R in sizes]
    for v, o in zip(values, oracle):
        assert abs(v - o) <= 1e-9 * o
    errors = [abs(v - 1.6) for v in values]
    assert errors[0] > errors[1] > errors[2]
    gaps = np.abs(np.diff(values))
    assert gaps[1] < gaps[0]


def test_two_phase_balanced_windows_exact():
    # windows of integer length cover both phases equally, so every estimate
    # is exactly the harmonic mean
    den = EnergyDensity(two_phase(1))
    est = window_sequence(den, 0.0, [1.0], (4.0, 8.0, 16.0), 16)
    for v in est.values:
        assert abs(v - 1.6) <= 1e-12
    assert est.homogenizable_at_center
    assert abs(est.limit_estimate - 1.6) <= 1e-12


def test_p3_balanced_window_closed_form():
    den = EnergyDensity(two_phase(1), 3.0)
    value = local_min_energy(den, 0.0, 4.0, [1.0], 16)
    assert abs(value - 0.75 ** -2) <= 1e-6


def test_box_lbfgs_applies_float32_preconditioner(monkeypatch):
    # a p = 3 window on the 2x2 checkerboard is a box L-BFGS solve started
    # from w = 0 on 63^2 free unknowns; it passes no precision, so the grid
    # sets the float32 apply of the box Krylov solves, and takes 14
    # iterations. The float64 reference apply takes 14 as well: the
    # decrement target 1e-6 sits above float32 rounding, so only the
    # stopping rule on the absolute gradient norm (19 against 23
    # iterations) told the two precisions apart
    from homlab import numerics

    real_minimize, real_precond = numerics.minimize_p_energy, numerics.spectral_preconditioner
    den = EnergyDensity(PeriodicStep(2, [1.0, 4.0, 4.0, 1.0], B14, dim=2), 3.0)
    dtypes, gaps = [], []

    def iterations(dtype=None):
        stats = []

        def recorded(problem):
            u, st = real_minimize(problem)
            stats.append(st.iterations)
            return u, st

        def precond(*args, **kwargs):
            dtypes.append(kwargs.get("dtype"))
            if dtype is not None:
                kwargs["dtype"] = dtype
            apply = real_precond(*args, **kwargs)
            reference = real_precond(*args, **{**kwargs, "dtype": np.float64})

            def compared(r):
                z, want = apply(r), reference(r)
                assert z.dtype == np.float64
                gaps.append(float(np.abs(z - want).max() / np.abs(want).max()))
                return z

            return compared

        monkeypatch.setattr(numerics, "minimize_p_energy", recorded)
        monkeypatch.setattr(numerics, "spectral_preconditioner", precond)
        local_min_energy(den, 0.0, 8.0, [1.0, 0.5], 8)
        return stats

    assert inspect.signature(real_precond).parameters["dtype"].default is None
    assert iterations() == [14]
    assert dtypes == [None]
    # each apply rounds like float32: off the float64 reference, within 1e-6
    assert 0 < max(gaps) <= 1e-6 and min(gaps) > 0
    gaps.clear()
    assert iterations(np.float64) == [14]
    assert max(gaps) == 0.0


def test_smooth_periodic_windows_approach_cell():
    field = smooth_field()
    cell = homogenize_matrix(field, 16).matrix[0, 0]
    est = window_sequence(EnergyDensity(field), 0.0, [1.0, 0.0],
                          (4.0, 8.0, 16.0), 16)
    assert est.homogenizable_at_center
    gaps = np.abs(np.diff(est.values))
    assert gaps[1] < gaps[0]
    # affine data is admissible for the periodic problem, never better
    for v in est.values:
        assert v >= cell - 1e-12
    assert abs(est.limit_estimate - cell) <= 0.01 * cell


def test_center_independence_smooth():
    den = EnergyDensity(smooth_field())
    at_zero = window_sequence(den, 0.0, [1.0, 0.0], (4.0, 8.0, 16.0), 16)
    shifted = window_sequence(den, 0.3, [1.0, 0.0], (4.0, 8.0, 16.0), 16)
    diff = abs(at_zero.limit_estimate - shifted.limit_estimate)
    assert diff <= 2.0 * at_zero.cauchy_gap


def test_almost_periodic_flagged_homogenizable():
    field = TrigPolynomialClamped(2.0, ((0.5, (math.sqrt(2.0),), 0.0),), B14, dim=1)
    est = window_sequence(EnergyDensity(field), 0.0, [1.0],
                          (4.0, 8.0, 16.0, 32.0), 16)
    assert est.homogenizable_at_center


def test_halfspace_center_dependent_limits():
    den = EnergyDensity(HalfSpaceStep(2.0, 0.5, B14, dim=1))
    right = window_sequence(den, 4.0, [1.0], (2.0, 4.0, 8.0), 4)
    left = window_sequence(den, -4.0, [1.0], (2.0, 4.0, 8.0), 4)
    for v in right.values:
        assert abs(v - 2.5) <= 1e-12
    for v in left.values:
        assert abs(v - 1.5) <= 1e-12
    # each center alone looks homogenizable; the limits expose the lie
    assert right.homogenizable_at_center and left.homogenizable_at_center
    assert abs(right.limit_estimate - left.limit_estimate) > 0.9


def test_translation_invariance_bit_identical():
    for field in (two_phase(2), smooth_field()):
        den = EnergyDensity(field)
        base = window_sequence(den, (0.25, 0.25), [1.0, 0.0], (1.0, 2.0, 4.0), 8)
        moved = window_sequence(den, (2.25, -3.75), [1.0, 0.0], (1.0, 2.0, 4.0), 8)
        assert base.values == moved.values


def test_flux_constant_nonsymmetric():
    A = np.array([[2.0, 1.0], [-1.0, 2.0]])
    field = constant_matrix(A, B14)
    flux = flux_average_window(field, 0.0, 2.0, [1.0, 0.0], 8)
    assert np.max(np.abs(flux - np.array([2.0, -1.0]))) <= 1e-10
    rng = np.random.default_rng(3)
    for _ in range(2):
        xi = rng.uniform(-1.0, 1.0, size=2)
        flux = flux_average_window(field, 0.0, 2.0, xi, 8)
        assert np.max(np.abs(flux - A @ xi)) <= 1e-10


@pytest.mark.parametrize("A", [[[2.0, 0.5], [0.5, 3.0]], [[2.0, 1.0], [-1.0, 2.0]], 3.0],
                         ids=["symmetric", "nonsymmetric", "scalar"])
def test_constant_windows_need_no_solve(monkeypatch, A):
    # a constant coefficient loads the window corrector with exactly zero:
    # no solver iteration, and every window reads <A xi, xi> bit for bit
    from homlab import numerics

    real = numerics.solve_corrector
    iterations = []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        iterations.extend(stats.iterations for _, stats in out)
        return out

    monkeypatch.setattr(numerics, "solve_corrector", recorded)
    if np.ndim(A):
        coeff, A = constant_matrix(A, B14), np.array(A)
    else:
        coeff, A = Constant(A, B14, dim=2), A * np.eye(2)
    xi = np.array([1.0, 0.5])
    est = window_sequence(EnergyDensity(coeff), (0.3, -0.7), xi,
                          (4.0, 8.0, 16.0), 16)
    assert iterations == [0, 0, 0]
    assert est.values == (float(xi @ A @ xi),) * 3
    assert est.cauchy_gap == 0.0


def test_flux_pairs_with_min_energy():
    field = isotropic_matrix(two_phase(2))
    den = EnergyDensity(two_phase(2))
    xi = np.array([1.0, 0.5])
    flux = flux_average_window(field, 0.0, 8.0, xi, 8)
    energy = local_min_energy(den, 0.0, 8.0, xi, 8)
    assert abs(float(flux @ xi) - energy) <= 1e-6 * energy


def test_flux_layered_approaches_harmonic_mean():
    field = isotropic_matrix(two_phase(2))
    fluxes = [flux_average_window(field, 0.0, R, [1.0, 0.0], 16)
              for R in (4.0, 8.0, 16.0)]
    errors = [abs(f[0] - 1.6) for f in fluxes]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 0.02
    for f in fluxes:
        assert abs(f[1]) <= 1e-12


def test_window_preconditions():
    den = EnergyDensity(two_phase(1))
    with pytest.raises(ValueError, match="positive integer"):
        local_min_energy(den, 0.0, 1.3, [1.0], 16)
    with pytest.raises(ValueError, match="at least"):
        local_min_energy(den, 0.0, 1.0, [1.0], 4)
    with pytest.raises(ValueError, match="positive"):
        local_min_energy(den, 0.0, -2.0, [1.0], 16)
    with pytest.raises(ValueError, match="shape"):
        local_min_energy(den, 0.0, 2.0, [1.0, 0.0], 16)
    with pytest.raises(ValueError, match="at least 3"):
        window_sequence(den, 0.0, [1.0], (2.0, 4.0), 16)
    with pytest.raises(ValueError, match="strictly increasing"):
        window_sequence(den, 0.0, [1.0], (4.0, 4.0, 8.0), 16)


def test_estimate_invariants():
    common = dict(center=(0.0,), xi=(1.0,), resolution_per_unit=8,
                  cauchy_gap=0.0, homogenizable_at_center=True,
                  limit_estimate=1.6, bounds_alpha=1.0, bounds_beta=4.0, p=2.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        WindowEstimate(window_sizes=(1.0, 1.0), values=(1.6, 1.6), **common)
    with pytest.raises(ValueError, match="one value per"):
        WindowEstimate(window_sizes=(1.0, 2.0), values=(1.6,), **common)
    with pytest.raises(RuntimeError, match="growth"):
        WindowEstimate(window_sizes=(1.0, 2.0), values=(1.6, 9.5), **common)
    with pytest.raises(RuntimeError, match="growth"):
        WindowEstimate(window_sizes=(1.0, 2.0), values=(0.5, 1.6), **common)
