import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from homlab import stability
from homlab.cell import HomogenizedResult, homogenize_matrix
from homlab.fields import (BallSupport, CheckerboardFamily, EnergyDensity,
                           FieldBounds, LpDecay, PeriodicStep, Perturbed,
                           PowerOfTwoCells, ScalarField,
                           TrigPolynomialClamped, constant_matrix,
                           mean_abs_statistic, mix_seed)
from homlab.stability import (ApproximationStep, ApproximationTrace,
                              Conclusion, StabilityReport,
                              StochasticStabilityReport, check_flip_alignment,
                              counterexample_suite,
                              run_approximation_scheme, run_stability_pair,
                              signed_mean_statistic,
                              stochastic_stability_experiment)

B14 = FieldBounds(1.0, 4.0)
TWO_PHASE = PeriodicStep(2, (1.5, 3.5), B14, dim=1)


def fake_cell_result(value: float = 2.0) -> HomogenizedResult:
    return HomogenizedResult(np.array([[value]]), True, (0,), (0.0,),
                             1.0, 4.0)


def make_report(**kw) -> StabilityReport:
    base = dict(
        label="probe",
        statistic_trace=((8.0, 0.4), (16.0, 0.15), (32.0, 0.05)),
        t_reference=1.0,
        condition_verdict="vanishing",
        homogenized_f=fake_cell_result(),
        homogenized_g=fake_cell_result(),
        discrepancy=0.0,
        tolerance=1e-8,
        conclusion=Conclusion.CONDITION_HOLDS_LIMITS_AGREE,
    )
    base.update(kw)
    return StabilityReport(**base)


@pytest.fixture(scope="module")
def suite():
    return counterexample_suite()


@pytest.fixture(scope="module")
def sqrt2_trace():
    rt2 = float(np.sqrt(2.0))
    f = TrigPolynomialClamped(2.0, ((1.0, (1.0,), 0.0), (1.0, (rt2,), 0.0)),
                              FieldBounds(1.0, 3.5), dim=1)
    return run_approximation_scheme(f, 4)


@pytest.fixture(scope="module")
def checker_families():
    plain = CheckerboardFamily((1.0, 4.0), 0.5, B14)
    flipped = CheckerboardFamily((1.0, 4.0), 0.5, B14,
                                 flip_cells=PowerOfTwoCells(1.0))
    return plain, flipped


@pytest.fixture(scope="module")
def flip_report(checker_families):
    plain, flipped = checker_families
    return stochastic_stability_experiment(
        plain, flipped, 8, 5, torus_size=8, resolution_per_unit=4,
        statistic_sizes=(8.0, 16.0, 32.0, 64.0))


class TestReportInvariants:
    def test_valid_report_constructs(self):
        rep = make_report()
        assert rep.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_AGREE

    def test_holds_differ_needs_diagnostic(self):
        with pytest.raises(RuntimeError, match="diagnostic"):
            make_report(discrepancy=1.0,
                        conclusion=Conclusion.CONDITION_HOLDS_LIMITS_DIFFER)
        rep = make_report(discrepancy=1.0,
                          conclusion=Conclusion.CONDITION_HOLDS_LIMITS_DIFFER,
                          numerical_failure="resolution too coarse")
        assert rep.numerical_failure is not None

    def test_verdict_checked_against_trace(self):
        with pytest.raises(RuntimeError, match="inconsistent"):
            make_report(condition_verdict="non-vanishing",
                        conclusion=Conclusion.CONDITION_FAILS_LIMITS_AGREE)

    def test_conclusion_checked_against_discrepancy(self):
        with pytest.raises(RuntimeError, match="discrepancy"):
            make_report(discrepancy=1.0)

    def test_conclusion_checked_against_verdict(self):
        with pytest.raises(RuntimeError, match="verdict"):
            make_report(conclusion=Conclusion.CONDITION_FAILS_LIMITS_AGREE)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="empty"):
            make_report(statistic_trace=())
        with pytest.raises(ValueError, match="increasing"):
            make_report(statistic_trace=((16.0, 0.4), (8.0, 0.1)))
        with pytest.raises(ValueError, match="nonnegative"):
            make_report(statistic_trace=((8.0, 0.4), (16.0, -0.1)))
        with pytest.raises(ValueError, match="verdict"):
            make_report(condition_verdict="maybe")
        with pytest.raises(ValueError, match="tolerance"):
            make_report(tolerance=0.0)

    def test_zero_trace_is_vanishing(self):
        rep = make_report(statistic_trace=((8.0, 0.0), (16.0, 0.0), (32.0, 0.0)))
        assert rep.condition_verdict == "vanishing"

    def test_summary_serializes(self):
        text = json.dumps(make_report().summary())
        assert "ConditionHoldsLimitsAgree" in text


class TestRunPair:
    def test_identical_fields(self):
        f = EnergyDensity(TWO_PHASE)
        rep = run_stability_pair(f, f, hom_resolution=32, label="self")
        assert all(v == 0.0 for _, v in rep.statistic_trace)
        assert rep.condition_verdict == "vanishing"
        assert rep.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_AGREE
        assert rep.discrepancy == 0.0
        assert rep.numerical_failure is None

    def test_statistic_scales_exactly_in_t(self):
        a = EnergyDensity(PeriodicStep(2, (1.0, 4.0), B14, dim=1))
        b = EnergyDensity(PeriodicStep(2, (4.0, 1.0), B14, dim=1))
        psi1 = mean_abs_statistic(a, b, 1.0, 16.0)
        psi2 = mean_abs_statistic(a, b, 2.0, 16.0)
        assert psi1 == 3.0
        assert psi2 == 12.0
        assert psi2 == 2.0 ** 2 * psi1

    def test_compact_support_perturbation(self):
        f = EnergyDensity(TWO_PHASE)
        g = EnergyDensity(Perturbed(TWO_PHASE, BallSupport(1.0), 0.5))
        rep = run_stability_pair(f, g, label="ball")
        assert rep.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_AGREE
        psis = [v for _, v in rep.statistic_trace]
        assert all(y < x for x, y in zip(psis, psis[1:]))
        assert psis[-1] < 0.5 * psis[0]
        assert rep.discrepancy < 0.05
        assert rep.tolerance < 0.2

    def test_one_pair_per_rule(self):
        rules = [PowerOfTwoCells(1.0), BallSupport(1.0), LpDecay(3.0)]
        for rule, amp in zip(rules, (0.5, -0.5, 0.5)):
            f = EnergyDensity(TWO_PHASE)
            g = EnergyDensity(Perturbed(TWO_PHASE, rule, amp))
            rep = run_stability_pair(f, g, label=type(rule).__name__)
            assert rep.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_AGREE
            assert rep.numerical_failure is None

    def test_form_and_bounds_validation(self):
        quad = EnergyDensity(TWO_PHASE)
        cubic = EnergyDensity(TWO_PHASE, 3.0)
        with pytest.raises(ValueError, match="form"):
            run_stability_pair(quad, cubic)
        other_bounds = EnergyDensity(
            PeriodicStep(2, (1.5, 3.5), FieldBounds(1.0, 3.5), dim=1))
        with pytest.raises(ValueError, match="bounds"):
            run_stability_pair(quad, other_bounds)
        with pytest.raises(ValueError, match="equal p"):
            run_stability_pair(cubic, EnergyDensity(TWO_PHASE, 4.0))
        flat = EnergyDensity(PeriodicStep(2, (1.5, 3.5) * 2, B14, dim=2))
        with pytest.raises(ValueError, match="dimension"):
            run_stability_pair(quad, flat)

    def test_window_and_t_validation(self):
        f = EnergyDensity(TWO_PHASE)
        with pytest.raises(ValueError, match="at least 3"):
            run_stability_pair(f, f, R_list=(8.0, 16.0))
        with pytest.raises(ValueError, match="increasing"):
            run_stability_pair(f, f, R_list=(8.0, 8.0, 16.0))
        with pytest.raises(ValueError, match="positive"):
            run_stability_pair(f, f, t_list=(0.0,))

    def test_odd_cell_resolution_rejected(self):
        f = EnergyDensity(TWO_PHASE)
        with pytest.raises(ValueError, match="even"):
            run_stability_pair(f, f, hom_resolution=33)

    def test_p_power_self_pair(self):
        f = EnergyDensity(PeriodicStep(2, (1.0, 4.0), B14, dim=1), 3.0)
        rep = run_stability_pair(f, f, hom_resolution=32, label="p3")
        assert rep.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_AGREE
        assert rep.discrepancy == 0.0
        assert rep.t_reference == 1.0


class TestCounterexamples:
    def test_expected_conclusions(self, suite):
        got = {name: rep.conclusion for name, rep in suite.items()}
        assert got == {
            "swapped-1d": Conclusion.CONDITION_FAILS_LIMITS_AGREE,
            "swapped-layered": Conclusion.CONDITION_FAILS_LIMITS_AGREE,
            "half-space": Conclusion.CONDITION_FAILS_LIMITS_DIFFER,
            "weak-mean-only": Conclusion.CONDITION_FAILS_LIMITS_DIFFER,
        }
        fails_agree = [r for r in suite.values()
                       if r.conclusion is Conclusion.CONDITION_FAILS_LIMITS_AGREE]
        assert fails_agree, "the catalog must exhibit non-necessity"

    def test_swapped_pair_exact_statistic(self, suite):
        rep = suite["swapped-1d"]
        assert [v for _, v in rep.statistic_trace] == [3.0, 3.0, 3.0, 3.0]
        assert rep.condition_verdict == "non-vanishing"
        assert rep.discrepancy <= 1e-3
        assert rep.discrepancy < 1e-10

    def test_swapped_layered_statistic_reads_one_point_per_lattice_cell(self, monkeypatch):
        """The swapped-layered pair is constant on the cells of side 1/2,
        so its statistic on the largest window (R = 64 at the default 16
        midpoints per unit, 1024^2 midpoints) evaluates each field at one
        point per cell, 128^2, and still reads |a - b| = 3 exactly."""
        bounds = FieldBounds(1.0, 4.0)
        a = EnergyDensity(PeriodicStep(2, (1.0, 4.0, 1.0, 4.0), bounds, dim=2))
        b = EnergyDensity(PeriodicStep(2, (4.0, 1.0, 4.0, 1.0), bounds, dim=2))
        counts = []
        values_impl = PeriodicStep.values_impl

        def counted(self, pts):
            counts.append(len(pts))
            return values_impl(self, pts)

        monkeypatch.setattr(PeriodicStep, "values_impl", counted)
        assert a.coeff.cell_side == b.coeff.cell_side == 0.5
        assert mean_abs_statistic(a, b, 1.0, 64.0) == 3.0
        assert counts == [128 ** 2, 128 ** 2]

    def test_swapped_layered_matrices(self, suite):
        rep = suite["swapped-layered"]
        expected = np.diag([1.6, 2.5])
        np.testing.assert_allclose(rep.homogenized_f.matrix, expected, atol=1e-8)
        np.testing.assert_allclose(rep.homogenized_g.matrix, expected, atol=1e-8)
        assert rep.discrepancy < 1e-10

    def test_half_space_center_dependence(self, suite):
        rep = suite["half-space"]
        assert rep.homogenized_f.limit_estimate == pytest.approx(1.5, abs=1e-12)
        assert rep.homogenized_f.homogenizable_at_center
        assert rep.homogenized_g.matrix[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert rep.discrepancy == pytest.approx(0.5, abs=1e-12)
        assert [v for _, v in rep.statistic_trace] == [0.5, 0.5, 0.5, 0.5]

    def test_weak_mean_only_signed_cancellation(self, suite):
        rep = suite["weak-mean-only"]
        assert rep.signed_mean_trace is not None
        assert all(v == 0.0 for _, v in rep.signed_mean_trace)
        assert [v for _, v in rep.statistic_trace] == [0.5, 0.5, 0.5, 0.5]
        assert rep.homogenized_f.limit_estimate == pytest.approx(1.875, abs=1e-12)
        assert rep.discrepancy == pytest.approx(0.125, abs=1e-12)

    def test_summaries_serialize(self, suite):
        text = json.dumps({name: rep.summary() for name, rep in suite.items()})
        assert "signed_mean_trace" in text


class TestSignedMean:
    def test_scalar_pairs_only(self):
        m = constant_matrix(np.eye(2) * 2.0, B14, dim=2)
        pair = EnergyDensity(m)
        with pytest.raises(ValueError, match="scalar"):
            signed_mean_statistic(pair, pair, 1.0, 8.0)
        f = EnergyDensity(TWO_PHASE)
        with pytest.raises(ValueError, match="positive"):
            signed_mean_statistic(f, f, 0.0, 8.0)
        with pytest.raises(ValueError, match="equal p"):
            signed_mean_statistic(EnergyDensity(TWO_PHASE, 3.0),
                                  EnergyDensity(TWO_PHASE, 4.0), 1.0, 8.0)


class TestApproximation:
    def test_sqrt2_example(self, sqrt2_trace):
        tr = sqrt2_trace
        assert [s.order for s in tr.steps] == [1, 2, 3, 4]
        stats = [s.statistic for s in tr.steps]
        assert all(y < x for x, y in zip(stats, stats[1:]))
        homs = [s.hom_value for s in tr.steps]
        # Cauchy within 2% by the third truncation
        assert abs(homs[2] - homs[1]) <= 0.02 * abs(homs[2])
        assert homs[-1] == pytest.approx(1.7261327985954942, rel=1e-9)
        ref = tr.window_reference.limit_estimate
        assert ref == pytest.approx(1.7297447342103962, rel=1e-9)
        assert abs(homs[-1] - ref) <= 0.02 * abs(ref)
        assert tr.approximates
        assert "41/29" in tr.steps[-1].description

    def test_rational_input_constant_trace(self):
        f = TrigPolynomialClamped(2.0, ((0.8, (1.0,), 0.0),),
                                  FieldBounds(1.0, 3.5), dim=1)
        tr = run_approximation_scheme(f, 3)
        homs = [s.hom_value for s in tr.steps]
        assert homs[0] == homs[1] == homs[2]
        assert all(s.statistic == 0.0 for s in tr.steps)
        assert all(s.description == "freqs (1)" for s in tr.steps)
        assert tr.approximates

    def test_zero_amplitude_term_ignored(self):
        rt3 = float(np.sqrt(3.0))
        plain = TrigPolynomialClamped(2.0, ((0.8, (1.0,), 0.0),),
                                      FieldBounds(1.0, 3.5), dim=1)
        padded = TrigPolynomialClamped(2.0, ((0.8, (1.0,), 0.0),
                                             (0.0, (rt3,), 0.25)),
                                       FieldBounds(1.0, 3.5), dim=1)
        tr_plain = run_approximation_scheme(plain, 2)
        tr_padded = run_approximation_scheme(padded, 2)
        assert tr_plain.steps == tr_padded.steps
        assert (tr_plain.window_reference.values
                == tr_padded.window_reference.values)

    def test_half_integer_frequency_exact(self):
        f = TrigPolynomialClamped(2.0, ((0.8, (0.5,), 0.0),),
                                  FieldBounds(1.0, 3.5), dim=1)
        tr = run_approximation_scheme(f, 2)
        assert all(s.description == "freqs (1/2)" for s in tr.steps)
        assert tr.steps[0].hom_value == tr.steps[1].hom_value
        assert tr.approximates

    def test_validation(self):
        f = TrigPolynomialClamped(2.0, ((0.8, (1.0,), 0.0),),
                                  FieldBounds(1.0, 3.5), dim=1)
        with pytest.raises(ValueError, match="j_max"):
            run_approximation_scheme(f, 0)
        with pytest.raises(ValueError, match="trig"):
            run_approximation_scheme(TWO_PHASE, 2)

    def test_trace_invariants(self, sqrt2_trace):
        tr = sqrt2_trace
        with pytest.raises(ValueError, match="increasing"):
            ApproximationTrace(tuple(reversed(tr.steps)), tr.window_reference,
                               tr.approximates, tr.agreement_rtol)
        with pytest.raises(RuntimeError, match="inconsistent"):
            ApproximationTrace(tr.steps, tr.window_reference,
                               not tr.approximates, tr.agreement_rtol)
        with pytest.raises(ValueError, match="at least one"):
            ApproximationTrace((), tr.window_reference, True, 0.02)


class TestStochastic:
    def test_identical_families_are_paired_exactly(self, checker_families):
        plain, _ = checker_families
        rep = stochastic_stability_experiment(
            plain, plain, 8, 11, torus_size=8, resolution_per_unit=4,
            statistic_sizes=(8.0, 16.0, 32.0))
        assert rep.mean_f == rep.mean_g
        zero = ((0.0, 0.0), (0.0, 0.0))
        assert rep.paired_difference_mean == zero
        assert rep.paired_difference_stderr == zero
        assert all(m == 0.0 and se == 0.0 for _, m, se in rep.statistic_trace)
        assert rep.intervals_overlap
        assert rep.numerical_failure is None

    def test_sparse_flip_family_overlaps(self, flip_report):
        rep = flip_report
        means = [m for _, m, _ in rep.statistic_trace]
        assert means == [0.1875, 0.10546875, 0.046875, 0.018310546875]
        assert all(se == 0.0 for _, _, se in rep.statistic_trace)
        assert all(y < x for x, y in zip(means, means[1:]))
        assert means[-1] < 0.5 * means[0]
        assert rep.intervals_overlap
        assert rep.numerical_failure is None

    def test_swapping_families_negates_difference(self, checker_families,
                                                  flip_report):
        plain, flipped = checker_families
        swapped = stochastic_stability_experiment(
            flipped, plain, 8, 5, torus_size=8, resolution_per_unit=4,
            statistic_sizes=(8.0, 16.0, 32.0, 64.0))
        for i in range(2):
            for j in range(2):
                assert (swapped.paired_difference_mean[i][j]
                        == -flip_report.paired_difference_mean[i][j])
        assert (swapped.paired_difference_stderr
                == flip_report.paired_difference_stderr)
        assert swapped.mean_f == flip_report.mean_g
        assert swapped.mean_g == flip_report.mean_f

    def test_symmetric_checkerboard_duality_mean(self, checker_families):
        plain, _ = checker_families
        rep = stochastic_stability_experiment(
            plain, plain, 8, 3, torus_size=16, resolution_per_unit=8,
            statistic_sizes=(8.0, 16.0, 32.0))
        target = math.sqrt(1.0 * 4.0)
        for k in range(2):
            mean = rep.mean_f[k][k]
            se = rep.stderr_f[k][k]
            assert abs(mean - target) <= 2.0 * se + 0.05 * target
        off_mean = abs(rep.mean_f[0][1])
        assert off_mean <= 2.0 * rep.stderr_f[0][1] + 0.02

    def test_trials_match_cell_solves_of_the_periodized_field(
            self, checker_families, monkeypatch):
        @dataclass(frozen=True)
        class Periodized(ScalarField):
            """A field restricted to [0, T)^d and repeated with period T."""

            base: ScalarField
            T: int

            bounds = property(lambda self: self.base.bounds)
            dim = property(lambda self: self.base.dim)
            period = property(lambda self: float(self.T))

            def values_impl(self, pts):
                return self.base.values_impl(pts - self.T * np.floor(pts / self.T))

        trial_matrices = []
        core = stability.homogenize_coefficients

        def recording(*args, **kwargs):
            result = core(*args, **kwargs)
            trial_matrices.append(result.matrix)
            return result

        monkeypatch.setattr(stability, "homogenize_coefficients", recording)
        plain, flipped = checker_families
        stochastic_stability_experiment(plain, flipped, 8, 5, torus_size=4,
                                        resolution_per_unit=4,
                                        statistic_sizes=(8.0, 16.0, 32.0))
        expected = []
        for i in range(8):
            for family in (plain, flipped):
                field = Periodized(family.realize(mix_seed(5, i)), 4)
                expected.append(homogenize_matrix(field, 4).matrix)
        assert len(trial_matrices) == len(expected) == 16
        for got, want in zip(trial_matrices, expected):
            assert got.tobytes() == want.tobytes()

    def test_validation(self, checker_families):
        plain, flipped = checker_families
        with pytest.raises(ValueError, match="trials"):
            stochastic_stability_experiment(plain, flipped, 7, 0)
        with pytest.raises(ValueError, match="torus"):
            stochastic_stability_experiment(plain, flipped, 8, 0, torus_size=1)

    def test_flip_width_must_align_with_the_grid(self, checker_families):
        # at 4 cells per unit a 0.3 flip edge cuts through elements, so the
        # cell matrices would see a 0.25 flip while the statistic sees 0.3
        plain, _ = checker_families

        def flipped(width):
            return CheckerboardFamily((1.0, 4.0), 0.5, B14,
                                      flip_cells=PowerOfTwoCells(width))

        with pytest.raises(ValueError, match="flip width 0.3"):
            stochastic_stability_experiment(plain, flipped(0.3), 8, 0,
                                            torus_size=4, resolution_per_unit=4)
        with pytest.raises(ValueError, match="flip width 0.3"):
            stochastic_stability_experiment(flipped(0.3), plain, 8, 0,
                                            torus_size=4, resolution_per_unit=4)
        for width in (0.25, 1.0):
            check_flip_alignment(flipped(width), 4)
        check_flip_alignment(plain, 3)

    def test_report_guard(self):
        kw = dict(trials=8, torus_size=8, seed=0,
                  statistic_trace=((8.0, 0.4, 0.0), (16.0, 0.15, 0.0),
                                   (32.0, 0.05, 0.0)),
                  mean_f=((2.0,),), stderr_f=((0.01,),),
                  mean_g=((3.0,),), stderr_g=((0.01,),),
                  paired_difference_mean=((-1.0,),),
                  paired_difference_stderr=((0.01,),),
                  intervals_overlap=False)
        with pytest.raises(RuntimeError, match="diagnostic"):
            StochasticStabilityReport(**kw)
        rep = StochasticStabilityReport(numerical_failure="undersampled", **kw)
        assert json.loads(json.dumps(rep.summary()))["intervals_overlap"] is False
        non_vanishing = dict(kw, statistic_trace=((8.0, 0.4, 0.0),
                                                  (16.0, 0.4, 0.0),
                                                  (32.0, 0.4, 0.0)))
        assert StochasticStabilityReport(**non_vanishing).numerical_failure is None
