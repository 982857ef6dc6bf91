"""Field evaluation, bounds, stationarity, and the closeness-in-mean statistic."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.fields import (
    BallSupport,
    CheckerboardFamily,
    Constant,
    EnergyDensity,
    FieldBounds,
    HalfSpaceStep,
    Layered1D,
    LpDecay,
    PeriodicStep,
    Perturbed,
    PowerOfTwoCells,
    RandomCheckerboard,
    ScalarField,
    TrigPolynomialClamped,
    checkerboard_step,
    constant_matrix,
    element_coefficients,
    eval_scalar,
    expectation_statistic,
    isotropic_matrix,
    mean_abs_statistic,
    mix_seed,
    rule_mean_abs_bound,
    window_points,
)
from homlab.numerics import TORUS, GuardError, build_grid, is_symmetric
from homlab.stability import run_stability_pair

B14 = FieldBounds(1.0, 4.0)


def two_phase(dim=1):
    return Layered1D((0.0, 0.5), (1.0, 4.0), B14, dim=dim)


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldBounds(0.0, 1.0)
        with pytest.raises(ValueError):
            FieldBounds(2.0, 1.0)

    def test_constant_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            Constant(5.0, B14)


class TestEvaluation:
    def test_half_space_step_example(self):
        f = HalfSpaceStep(2.0, 0.5, FieldBounds(1.0, 3.0), dim=2)
        v = eval_scalar(f, np.array([[-1.0, 0.0], [0.0, 0.0], [2.0, -5.0]]))
        assert v.tolist() == [1.5, 2.5, 2.5]

    def test_out_of_bounds_values_raise_runtime_error(self):
        @dataclass(frozen=True)
        class Escaping(ScalarField):
            bounds: FieldBounds
            dim: int = 1

            def values_impl(self, pts):
                return np.full(len(pts), 5.0)

        with pytest.raises(RuntimeError, match="escaped bounds"):
            eval_scalar(Escaping(B14), np.array([0.25, 0.75]))

    def test_nan_values_fail_the_bounds_guard(self):
        @dataclass(frozen=True)
        class Broken(ScalarField):
            bounds: FieldBounds
            dim: int = 1

            def values_impl(self, pts):
                return np.where(pts[:, 0] < 0.5, 2.0, np.nan)

        with pytest.raises(GuardError, match="escaped bounds"):
            eval_scalar(Broken(B14), np.array([0.25, 0.75]))

    def test_half_space_step_bounds_guard(self):
        with pytest.raises(ValueError):
            HalfSpaceStep(2.0, 1.5, B14)

    def test_layered_profile(self):
        f = two_phase()
        v = f.values(np.array([0.1, 0.5, 0.9, 1.1, -0.2]))
        assert v.tolist() == [1.0, 4.0, 4.0, 1.0, 4.0]
        assert f.alignment_divisor == 2

    def test_periodic_step_checkerboard(self):
        f = checkerboard_step(1.0, 4.0, B14)
        pts = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
        assert f.values(pts).tolist() == [1.0, 4.0, 4.0, 1.0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_trig_clamp_formula(self, xs):
        f = TrigPolynomialClamped(
            2.0, ((1.0, (1.0,), 0.0), (1.0, (np.sqrt(2.0),), 0.0)),
            FieldBounds(1.0, 3.5))
        pts = np.asarray(xs)
        raw = 2.0 + np.sin(2 * np.pi * pts) + np.sin(2 * np.pi * np.sqrt(2.0) * pts)
        expected = np.minimum(np.maximum(raw, 1.0), 3.5)
        assert np.allclose(f.values(pts), expected, atol=1e-9, rtol=0)

    def test_trig_period_detection(self):
        rational = TrigPolynomialClamped(2.0, ((0.5, (1.5,), 0.0),), B14)
        assert rational.period == 2.0
        irrational = TrigPolynomialClamped(2.0, ((0.5, (np.sqrt(2.0),), 0.0),), B14)
        assert irrational.period is None

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32), st.lists(st.floats(-100, 100), min_size=2,
                                             max_size=2))
    def test_all_kinds_respect_bounds(self, seed, pt):
        pts = np.array([pt])
        fields = [
            Constant(2.0, B14, dim=2),
            two_phase(dim=2),
            checkerboard_step(1.0, 4.0, B14),
            TrigPolynomialClamped(2.0, ((3.0, (1.0, 0.7), 0.1),), B14, dim=2),
            HalfSpaceStep(2.0, 0.5, B14, dim=2),
            RandomCheckerboard((1.0, 4.0), 0.5, seed, B14, dim=2),
            Perturbed(checkerboard_step(1.0, 4.0, B14), BallSupport(2.0), 2.5),
        ]
        for f in fields:
            v = eval_scalar(f, pts)
            assert B14.alpha <= v[0] <= B14.beta


class TestRandomCheckerboard:
    def test_deterministic_and_cell_constant(self):
        f = RandomCheckerboard((1.0, 4.0), 0.5, 42, B14, dim=2)
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [1.1, 0.1]])
        v1, v2 = f.values(pts), f.values(pts)
        assert np.array_equal(v1, v2)
        assert v1[0] == v1[1]          # same cell
        assert v1[0] in (1.0, 4.0)

    def test_probability_calibration(self):
        f = RandomCheckerboard((1.0, 4.0), 0.3, 7, B14, dim=2)
        ks = np.arange(100)
        kx, ky = np.meshgrid(ks, ks, indexing="xy")
        pts = np.column_stack([kx.ravel() + 0.5, ky.ravel() + 0.5])
        frac_high = np.mean(f.values(pts) == 4.0)
        assert abs(frac_high - 0.3) < 0.02

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_stationarity_is_index_shift(self, zx, zy):
        f = RandomCheckerboard((1.0, 4.0), 0.5, 3, B14, dim=2)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, size=(40, 2))
        shifted_env = f.shifted((zx, zy))
        z = np.array([zx, zy], dtype=float)
        assert np.array_equal(f.values(pts + z), shifted_env.values(pts))

    def test_flip_cells_swap_values(self):
        base = RandomCheckerboard((1.0, 4.0), 0.5, 11, B14, dim=2)
        flipped = RandomCheckerboard((1.0, 4.0), 0.5, 11, B14, dim=2,
                                     flip_cells=PowerOfTwoCells())
        inside = np.array([[2.5, 4.5]])    # cell (2, 4): both powers of two
        outside = np.array([[3.5, 4.5]])   # cell (3, 4): 3 is not
        assert flipped.values(inside)[0] == 5.0 - base.values(inside)[0]
        assert flipped.values(outside)[0] == base.values(outside)[0]

    def test_flip_width_limits_the_flipped_sub_square(self):
        def field(width):
            return RandomCheckerboard((1.0, 4.0), 0.5, 11, B14, dim=2,
                                      flip_cells=PowerOfTwoCells(width))
        lower = np.array([[2.25, 4.25]])   # inside [0, 0.5)^2 of cell (2, 4)
        upper = np.array([[2.75, 4.75]])   # its upper half
        half, whole = field(0.5), field(1.0)
        assert half.values(lower)[0] == whole.values(lower)[0]
        assert half.values(upper)[0] != whole.values(upper)[0]
        assert half.cell_side == 0.5
        assert whole.cell_side == 1.0
        assert field(0.3).cell_side is None


class TestMatrixFields:
    def test_isotropic_promotion(self):
        m = isotropic_matrix(two_phase(dim=2))
        vals = m.values(np.array([[0.1, 0.3]]))
        assert np.allclose(vals[0], np.eye(2) * 1.0)

    def test_constant_matrix_ellipticity_guard(self):
        constant_matrix([[2.0, 1.0], [-1.0, 2.0]], B14)
        with pytest.raises(ValueError):
            constant_matrix([[0.5, 0.0], [0.0, 2.0]], B14)
        with pytest.raises(ValueError):
            constant_matrix([[2.0, 3.9], [3.9, 2.0]], B14)


class TestEnergyDensity:
    def test_members_read_the_coefficient(self):
        grid = build_grid(2, 4, (0.0, 0.0), 1.0, TORUS)
        scalar = EnergyDensity(two_phase(dim=2), 3.0)
        assert not scalar.is_matrix
        assert is_symmetric(element_coefficients(scalar.coeff, grid))
        assert (scalar.dim, scalar.bounds, scalar.p) == (2, B14, 3.0)
        skew = EnergyDensity(constant_matrix([[2.0, 1.0], [-1.0, 2.0]], B14))
        assert skew.is_matrix and skew.p == 2.0
        assert not is_symmetric(element_coefficients(skew.coeff, grid))
        sym = EnergyDensity(constant_matrix(np.eye(2) * 2.0, B14))
        assert is_symmetric(element_coefficients(sym.coeff, grid))

    def test_p_checks(self):
        m = constant_matrix(np.eye(2) * 2.0, B14)
        with pytest.raises(ValueError, match="require p = 2"):
            EnergyDensity(m, 3.0)
        with pytest.raises(ValueError, match="exceed 1"):
            EnergyDensity(m, 1.0)
        with pytest.raises(ValueError, match="exceed 1"):
            EnergyDensity(two_phase(), 1.0)

    def test_scalar_p2_pair_is_quadratic(self):
        # a scalar density at p = 2 is the quadratic one however it was
        # built: the pair is cell-solved to matrices, not sampled p-energies
        f = EnergyDensity(two_phase(), 2.0)
        g = EnergyDensity(Layered1D((0.0, 0.5), (4.0, 1.0), B14))
        rep = run_stability_pair(f, g, hom_resolution=16)
        for result in (rep.homogenized_f, rep.homogenized_g):
            assert result.matrix is not None
            assert result.energy_samples is None
        assert rep.discrepancy <= rep.tolerance


class TestMeanAbsStatistic:
    def test_identical_fields_give_zero(self):
        f = EnergyDensity(two_phase())
        assert mean_abs_statistic(f, f, 1.0, 8.0) == 0.0

    @pytest.mark.parametrize("R", [1.0, 2.0, 5.0, 16.0])
    def test_swapped_two_phase_is_exactly_three(self, R):
        f = EnergyDensity(two_phase())
        g = EnergyDensity(Layered1D((0.0, 0.5), (4.0, 1.0), B14))
        assert mean_abs_statistic(f, g, 1.0, R) == pytest.approx(3.0, abs=1e-12)

    def test_t_scaling_is_exact(self):
        f = EnergyDensity(two_phase())
        g = EnergyDensity(Layered1D((0.0, 0.5), (4.0, 1.0), B14))
        s1 = mean_abs_statistic(f, g, 1.0, 4.0)
        s2 = mean_abs_statistic(f, g, 2.0, 4.0)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-14)
        fp = EnergyDensity(two_phase(), 3.0)
        gp = EnergyDensity(Layered1D((0.0, 0.5), (4.0, 1.0), B14), 3.0)
        assert mean_abs_statistic(fp, gp, 2.0, 4.0) == \
            pytest.approx(8.0 * mean_abs_statistic(fp, gp, 1.0, 4.0), rel=1e-14)

    def test_ball_support_matches_ball_volume(self):
        base = Constant(2.0, B14, dim=2)
        g = EnergyDensity(Perturbed(base, BallSupport(1.0), 1.0))
        f = EnergyDensity(base)
        for R in (4.0, 8.0):
            got = mean_abs_statistic(f, g, 1.0, R, resolution_per_unit=64)
            assert got == pytest.approx(np.pi / R ** 2, rel=2e-3)

    def test_statistic_decreases_and_halves(self):
        base = Constant(2.0, B14, dim=2)
        f = EnergyDensity(base)
        g = EnergyDensity(Perturbed(base, BallSupport(1.0), 1.0))
        vals = [mean_abs_statistic(f, g, 1.0, R, resolution_per_unit=16)
                for R in (8.0, 16.0, 32.0, 64.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.5 * vals[0]

    def test_power_of_two_cells_matches_enumeration(self):
        rule = PowerOfTwoCells(width=1.0)
        base = Constant(1.0, B14, dim=2)
        f = EnergyDensity(base)
        g = EnergyDensity(Perturbed(base, rule, 1.0))
        for R in (8.0, 16.0, 32.0):
            got = mean_abs_statistic(f, g, 1.0, R, resolution_per_unit=4)
            expected = rule_mean_abs_bound(rule, R, 2)
            assert got == pytest.approx(expected, abs=1e-12)
            assert expected == len(rule.qualifying_cells(R, 2)) / R ** 2

    def test_lp_decay_matches_cellwise_sum(self):
        rule = LpDecay(1.5)
        base = Constant(2.0, B14, dim=1)
        f = EnergyDensity(base)
        g = EnergyDensity(Perturbed(base, rule, 0.5))
        got = mean_abs_statistic(f, g, 1.0, 16.0, resolution_per_unit=8)
        assert got == pytest.approx(0.5 * rule_mean_abs_bound(rule, 16.0, 1), rel=1e-12)

    def test_skew_difference_contributes_nothing(self):
        # the statistic compares quadratic forms, so a purely antisymmetric
        # matrix difference is invisible by design
        f = EnergyDensity(Constant(2.0, B14, dim=2))
        g = EnergyDensity(constant_matrix([[2.0, 1.0], [-1.0, 2.0]], B14))
        assert mean_abs_statistic(f, g, 1.0, 4.0) == 0.0

    def test_matrix_pair_spectral_sup(self):
        f = EnergyDensity(constant_matrix(np.diag([1.0, 4.0]), B14))
        g = EnergyDensity(constant_matrix(np.diag([4.0, 1.0]), B14))
        assert mean_abs_statistic(f, g, 1.0, 4.0) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_mismatched_p(self):
        f = EnergyDensity(two_phase(), 3.0)
        g = EnergyDensity(two_phase())
        with pytest.raises(ValueError):
            mean_abs_statistic(f, g, 1.0, 4.0)

    def test_rejects_non_integral_window(self):
        f = EnergyDensity(two_phase())
        with pytest.raises(ValueError):
            mean_abs_statistic(f, f, 1.0, 0.3, resolution_per_unit=2)


def _brute_force_statistic(a, b, t, p, R, res, center):
    """t^p times the plain midpoint mean of |a - b| over Q_R(center)."""
    n = int(round(R * res))
    axes = [c - R / 2.0 + (R / n) * (np.arange(n) + 0.5) for c in center]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
    return t ** p * np.mean(np.abs(a.values(pts) - b.values(pts)))


def _count_checkerboard_points(monkeypatch):
    counted = []
    original = RandomCheckerboard.values_impl

    def counting(self, pts):
        counted.append(len(pts))
        return original(self, pts)

    monkeypatch.setattr(RandomCheckerboard, "values_impl", counting)
    return counted


class TestCellConstantStatistic:
    # (R, resolution, center): centered and off-lattice windows, sides that
    # are and are not whole cells
    WINDOWS = [(8.0, 4, 0.0), (5.5, 4, 0.37), (3.25, 8, -1.21), (6.0, 3, 2.5)]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("values", [(1.3, 3.7), (1.0, 4.0)])
    @pytest.mark.parametrize("R, res, c", WINDOWS)
    def test_matches_brute_force_midpoints(self, dim, p, values, R, res, c):
        a = RandomCheckerboard(values, 0.5, 3, B14, dim=dim)
        b = RandomCheckerboard(values, 0.5, 4, B14, dim=dim,
                               flip_cells=PowerOfTwoCells())
        center = (c, -0.5 * c)[:dim]
        got = mean_abs_statistic(EnergyDensity(a, p), EnergyDensity(b, p),
                                 1.7, R, res, center=center)
        want = _brute_force_statistic(a, b, 1.7, p, R, res, center)
        assert want > 0
        if values == (1.0, 4.0):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-13)

    def test_evaluates_one_point_per_cell(self, monkeypatch):
        counted = _count_checkerboard_points(monkeypatch)
        a = EnergyDensity(RandomCheckerboard((1.0, 4.0), 0.5, 1, B14))
        b = EnergyDensity(RandomCheckerboard((1.0, 4.0), 0.5, 2, B14))
        mean_abs_statistic(a, b, 1.0, 8.0, 16)
        assert counted == [64, 64]
        counted.clear()
        # [-3.5, 4.5) x [-3.75, 4.25) meets 9 cells per axis
        mean_abs_statistic(a, b, 1.0, 8.0, 16, center=(0.5, 0.25))
        assert counted == [81, 81]

    # flip width, checkerboard points per evaluation over Q_16 at 8 per unit
    @pytest.mark.parametrize("width, points", [(1.0, 16 ** 2), (0.5, 32 ** 2),
                                               (0.25, 64 ** 2), (0.3, 128 ** 2)])
    def test_sub_cell_flips_group_per_flip_cube(self, monkeypatch, width, points):
        counted = _count_checkerboard_points(monkeypatch)
        a = RandomCheckerboard((1.0, 4.0), 0.5, 3, B14)
        b = RandomCheckerboard((1.0, 4.0), 0.5, 3, B14,
                               flip_cells=PowerOfTwoCells(width))
        got = mean_abs_statistic(EnergyDensity(a), EnergyDensity(b),
                                 1.0, 16.0, 8)
        assert counted == [points, points]
        want = _brute_force_statistic(a, b, 1.0, 2.0, 16.0, 8, (0.0, 0.0))
        assert want > 0
        assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_other_pairs_stay_pointwise(self, monkeypatch):
        counted = _count_checkerboard_points(monkeypatch)
        board = RandomCheckerboard((1.0, 4.0), 0.5, 1, B14)
        # (other field, checkerboard evaluations it triggers)
        others = [(Constant(2.0, B14, dim=2), 1),
                  (Perturbed(RandomCheckerboard((1.0, 4.0), 0.5, 2, B14),
                             BallSupport(1.0), 1.0), 2)]
        for other, calls in others:
            counted.clear()
            mean_abs_statistic(EnergyDensity(board),
                               EnergyDensity(other), 1.0, 4.0, 4)
            assert counted == [256] * calls


def _reference_window_points(R, res, dim, center, cell_side):
    """The per-dimension construction of ``window_points``, written out for
    dims 1 and 2."""
    n = int(round(R * res))
    h = R / n
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    axes, counts = [], []
    for k in range(dim):
        axis = center[k] - R / 2.0 + h * (np.arange(n) + 0.5)
        if cell_side is not None:
            cell = np.floor(axis / cell_side)
            first = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
            counts.append(np.diff(np.r_[first, n]))
            axis = axis[first]
        axes.append(axis)
    weights = None
    if cell_side is not None:
        weights = counts[0] if dim == 1 else np.outer(counts[1], counts[0]).ravel()
    if dim == 1:
        return axes[0][:, None], weights
    xg, yg = np.meshgrid(axes[0], axes[1], indexing="xy")
    return np.column_stack([xg.ravel(), yg.ravel()]), weights


class TestWindowPoints:
    @pytest.mark.parametrize("cell_side", [None, 1.0, 0.25])
    @pytest.mark.parametrize("R, res, c", TestCellConstantStatistic.WINDOWS)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_reference(self, dim, R, res, c, cell_side):
        center = None if c == 0.0 else (c, -0.5 * c)[:dim]
        pts, weights = window_points(R, res, dim, center, cell_side)
        want_pts, want_weights = _reference_window_points(R, res, dim, center, cell_side)
        np.testing.assert_array_equal(pts, want_pts, strict=True)
        if cell_side is None:
            assert weights is None
        else:
            np.testing.assert_array_equal(weights, want_weights, strict=True)
            assert weights.sum() == round(R * res) ** dim


@pytest.mark.parametrize("dim", [1, 2])
def test_tensor_rules_match_reference(dim):
    # the lp-decay bound, the power-of-two cells and the periodic step index
    # written out per dimension
    rule = LpDecay(1.5)
    ks = np.abs(np.arange(-4, 4))
    norm = ks if dim == 1 else np.maximum(ks[None, :], ks[:, None])
    want = float(np.sum((1.0 + norm) ** -1.5) / 7.5 ** dim)
    assert rule_mean_abs_bound(rule, 7.5, dim) == want
    cells = PowerOfTwoCells().qualifying_cells(9.0, dim)
    powers = [1, 2, 4]
    assert cells == ([(p,) for p in powers] if dim == 1
                     else [(p, q) for p in powers for q in powers])
    step = PeriodicStep(3, tuple(1.0 + 0.25 * i for i in range(3 ** dim)), B14, dim)
    pts = np.random.default_rng(1).uniform(-2.0, 2.0, (200, dim))
    sub = np.floor(np.mod(pts, 1.0) * 3).astype(int)
    flat = sub[:, 0] if dim == 1 else sub[:, 0] + 3 * sub[:, 1]
    np.testing.assert_array_equal(step.values(pts), 1.0 + 0.25 * flat)


class TestExpectationStatistic:
    def test_needs_two_trials(self):
        fam = CheckerboardFamily((1.0, 4.0), 0.5, B14)
        with pytest.raises(ValueError):
            expectation_statistic(fam, fam, 1.0, 8.0, trials=1, seed=0)

    def test_paired_flip_statistic(self):
        fam = CheckerboardFamily((1.0, 4.0), 0.5, B14)
        flipped = CheckerboardFamily((1.0, 4.0), 0.5, B14,
                                     flip_cells=PowerOfTwoCells())
        mean, se = expectation_statistic(fam, flipped, 1.0, 8.0, trials=4, seed=5,
                                         resolution_per_unit=4)
        # |a - b| = 3 exactly on flip cells, zero elsewhere, independent of
        # the seed, so the paired statistic is deterministic
        count = len(PowerOfTwoCells().qualifying_cells(8.0, 2))
        assert mean == pytest.approx(3.0 * count / 64.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_identical_families_zero(self):
        fam = CheckerboardFamily((1.0, 4.0), 0.5, B14)
        mean, se = expectation_statistic(fam, fam, 1.0, 8.0, trials=3, seed=1,
                                         resolution_per_unit=4)
        assert mean == 0.0 and se == 0.0

    def test_seed_mixing_changes_trials(self):
        assert mix_seed(0, 0) != mix_seed(0, 1)
        assert mix_seed(1, 0) != mix_seed(0, 0)


class TestRuleBounds:
    @pytest.mark.parametrize("rule", [BallSupport(1.0), PowerOfTwoCells(0.5),
                                      LpDecay(1.0)])
    def test_bounds_vanish_with_window(self, rule):
        vals = [rule_mean_abs_bound(rule, R, 2) for R in (8.0, 32.0, 128.0)]
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 0.25 * vals[0]

    def test_power_cells_enumeration(self):
        cells = PowerOfTwoCells().qualifying_cells(8.0, 2)
        assert set(cells) == {(1, 1), (1, 2), (2, 1), (2, 2)}
