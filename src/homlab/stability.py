"""Pairwise stability experiments.

Given two energy densities, the harness traces the window statistic that
controls whether their homogenized limits must agree, homogenizes both sides
(cell solve when periodic, window estimation otherwise), and classifies the
outcome.  It also packages the canonical counterexample pairs, approximation
of almost-periodic coefficients by periodic truncations, and a paired-seed
stochastic comparison. Periodic cell solves and stochastic trials alike end
in the torus core ``cell.homogenize_coefficients``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .cell import (HomogenizedResult, homogenize_coefficients,
                   homogenize_matrix, homogenized_quadratic_form,
                   is_periodic, p_energy_result)
from .fields import (Constant, EnergyDensity, FieldBounds, HalfSpaceStep,
                     PeriodicStep, STATISTIC_RESOLUTION,
                     TrigPolynomialClamped, check_pair, eval_scalar,
                     expectation_statistic, mean_abs_statistic, mix_seed,
                     window_points)
from .numerics import (HOMOGENEITY_RTOL, TORUS, GuardError, SolverError, agrees,
                       build_grid, cells_across)
from .rve import WindowEstimate, window_sequence

__all__ = [
    "Conclusion", "StabilityReport", "ApproximationStep", "ApproximationTrace",
    "StochasticStabilityReport", "run_stability_pair",
    "run_approximation_scheme", "counterexample_suite",
    "stochastic_stability_experiment", "check_flip_alignment",
    "check_hom_resolution",
    "signed_mean_statistic",
]

# statistic values at or below this are treated as identically zero
# (identical fields produce exact zeros; nothing physical lives down here)
_ZERO_TRACE = 1e-14

# cells per unit of both the window reference and the cell solves of the
# approximation scheme, and the relative agreement its verdict demands
_APPROXIMATION_RESOLUTION = 16
_AGREEMENT_RTOL = 0.02

# the floor of run_stability_pair's comparison tolerance (3x the worst
# convergence gap): a verdict threshold, not a soundness guard
_COMPARISON_FLOOR = 1e-8


class Conclusion(Enum):
    CONDITION_HOLDS_LIMITS_AGREE = "ConditionHoldsLimitsAgree"
    CONDITION_FAILS_LIMITS_AGREE = "ConditionFailsLimitsAgree"
    CONDITION_FAILS_LIMITS_DIFFER = "ConditionFailsLimitsDiffer"
    # reachable only through numerical error; construction requires an
    # attached diagnostic (see StabilityReport)
    CONDITION_HOLDS_LIMITS_DIFFER = "ConditionHoldsLimitsDiffer"


def _trace_is_vanishing(psis) -> bool:
    """Trend test: strictly decreasing with the final value below half the
    first; an identically-tiny trace (identical fields) also qualifies."""
    psis = list(psis)
    if all(v <= _ZERO_TRACE for v in psis):
        return True
    if not all(b < a for a, b in zip(psis, psis[1:])):
        return False
    return psis[-1] < 0.5 * psis[0]


def _spectral_radius_sym(D: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (D + D.T)))))


def _summarize_output(result) -> dict:
    if isinstance(result, WindowEstimate):
        return {"kind": "window", "center": list(result.center),
                "xi": list(result.xi), "limit": result.limit_estimate,
                "cauchy_gap": result.cauchy_gap,
                "homogenizable": result.homogenizable_at_center}
    if result.matrix is not None:
        return {"kind": "cell", "matrix": result.matrix.tolist()}
    return {"kind": "cell",
            "samples": [[list(xi), v] for xi, v in result.energy_samples]}


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one pairwise comparison.

    ``statistic_trace`` holds (R, psi(R)) at the reference t;
    ``condition_verdict`` is the trend classification of that trace;
    ``discrepancy`` is the worst normalized difference of the two homogenized
    outputs, compared against ``tolerance``.
    """

    label: str
    statistic_trace: tuple[tuple[float, float], ...]
    t_reference: float
    condition_verdict: str
    homogenized_f: HomogenizedResult | WindowEstimate
    homogenized_g: HomogenizedResult | WindowEstimate
    discrepancy: float
    tolerance: float
    conclusion: Conclusion
    numerical_failure: str | None = None
    signed_mean_trace: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not self.statistic_trace:
            raise ValueError("statistic trace must not be empty")
        rs = [r for r, _ in self.statistic_trace]
        psis = [v for _, v in self.statistic_trace]
        if not all(b > a for a, b in zip(rs, rs[1:])):
            raise ValueError("trace window sizes must be strictly increasing")
        if any(v < 0 for v in psis):
            raise ValueError("statistic values must be nonnegative")
        if self.condition_verdict not in ("vanishing", "non-vanishing"):
            raise ValueError(f"unknown verdict {self.condition_verdict!r}")
        want = "vanishing" if _trace_is_vanishing(psis) else "non-vanishing"
        if self.condition_verdict != want:
            raise GuardError(
                f"verdict {self.condition_verdict!r} inconsistent with the "
                f"trace (trend test says {want!r})")
        if not (np.isfinite(self.discrepancy) and self.discrepancy >= 0):
            raise ValueError("discrepancy must be finite and nonnegative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        holds = self.conclusion in (Conclusion.CONDITION_HOLDS_LIMITS_AGREE,
                                    Conclusion.CONDITION_HOLDS_LIMITS_DIFFER)
        if holds != (self.condition_verdict == "vanishing"):
            raise GuardError("conclusion contradicts the condition verdict")
        agree = self.conclusion in (Conclusion.CONDITION_HOLDS_LIMITS_AGREE,
                                    Conclusion.CONDITION_FAILS_LIMITS_AGREE)
        if agree != (self.discrepancy <= self.tolerance):
            raise GuardError("conclusion contradicts the discrepancy")
        if (self.conclusion is Conclusion.CONDITION_HOLDS_LIMITS_DIFFER
                and self.numerical_failure is None):
            raise GuardError(
                "a vanishing statistic with differing limits is numerically "
                "impossible for exact solves; the report must carry a "
                "numerical-failure diagnostic")

    def summary(self) -> dict:
        out = {
            "label": self.label,
            "conclusion": self.conclusion.value,
            "condition_verdict": self.condition_verdict,
            "t_reference": self.t_reference,
            "statistic_trace": [[r, v] for r, v in self.statistic_trace],
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "homogenized_f": _summarize_output(self.homogenized_f),
            "homogenized_g": _summarize_output(self.homogenized_g),
            "numerical_failure": self.numerical_failure,
        }
        if self.signed_mean_trace is not None:
            out["signed_mean_trace"] = [[r, v] for r, v in self.signed_mean_trace]
        return out


def signed_mean_statistic(f: EnergyDensity, g: EnergyDensity, t: float,
                          R: float) -> float:
    """Window mean of the signed coefficient difference (no absolute value)
    over the origin-centered window Q_R.

    This is the weak, one-sided cousin of mean_abs_statistic; it can vanish
    by cancellation for pairs whose limits differ, which is exactly what the
    weak-mean-only counterexample demonstrates.
    """
    check_pair(f, g, t)
    if f.is_matrix or g.is_matrix:
        raise ValueError("signed means are defined for scalar-coefficient pairs")
    pts, _ = window_points(R, STATISTIC_RESOLUTION, f.dim, None)
    diff = eval_scalar(f.coeff, pts) - eval_scalar(g.coeff, pts)
    return float(t ** f.p * diff.mean())


def _default_sample_xis(dim: int) -> tuple[tuple[float, ...], ...]:
    if dim == 1:
        return ((1.0,),)
    s = math.sqrt(0.5)
    return ((1.0, 0.0), (0.0, 1.0), (s, s))


def _pair_discrepancy(res_f, res_g, p: float) -> float:
    """Worst difference of the two outputs over probe directions, normalized
    by |xi|^p; matrix pairs use the exact sup over the unit ball (spectral
    radius of the symmetrized difference)."""
    win_f = isinstance(res_f, WindowEstimate)
    win_g = isinstance(res_g, WindowEstimate)
    if win_f and win_g:
        if res_f.xi != res_g.xi:
            raise ValueError("window estimates probe different directions")
        scale = float(np.linalg.norm(res_f.xi)) ** p
        return abs(res_f.limit_estimate - res_g.limit_estimate) / scale
    if win_f or win_g:
        win, cell = (res_f, res_g) if win_f else (res_g, res_f)
        scale = float(np.linalg.norm(win.xi)) ** p
        if cell.matrix is not None:
            other = homogenized_quadratic_form(cell, win.xi)
        else:
            match = [v for s_xi, v in cell.energy_samples if s_xi == win.xi]
            if not match:
                raise ValueError(f"no energy sample at direction {win.xi}")
            other = match[0]
        return abs(win.limit_estimate - other) / scale
    if res_f.matrix is not None and res_g.matrix is not None:
        return _spectral_radius_sym(res_f.matrix - res_g.matrix)
    if res_f.matrix is None and res_g.matrix is None:
        samples_f = dict(res_f.energy_samples)
        samples_g = dict(res_g.energy_samples)
        if set(samples_f) != set(samples_g):
            raise ValueError("energy samples probe different directions")
        worst = 0.0
        for s_xi, v in samples_f.items():
            scale = float(np.linalg.norm(s_xi)) ** p
            worst = max(worst, abs(v - samples_g[s_xi]) / scale)
        return worst
    raise ValueError("cannot compare a matrix result with energy samples")


def _cell_solve(density: EnergyDensity, resolution):
    if density.p == 2.0:
        return homogenize_matrix(density.coeff, resolution)
    return p_energy_result(density.coeff, density.p,
                           _default_sample_xis(density.dim), resolution)


def check_hom_resolution(resolution: int):
    """Periodic densities are cell-solved at ``resolution`` and at half of
    it, so it must be even; ValueError otherwise."""
    if resolution < 2 or resolution % 2:
        raise ValueError(f"cell resolution {resolution} must be even so the "
                         "half-resolution convergence gap can be observed")


def _cell_estimate(density: EnergyDensity, resolution):
    """Cell solve plus the half-resolution convergence gap that calibrates
    the comparison tolerance."""
    check_hom_resolution(resolution)
    fine = _cell_solve(density, resolution)
    coarse = _cell_solve(density, resolution // 2)
    return fine, _pair_discrepancy(fine, coarse, density.p)


def run_stability_pair(f: EnergyDensity, g: EnergyDensity, t_list=None,
                       R_list=(8.0, 16.0, 32.0, 64.0), *,
                       x0=None, hom_resolution: int = 64,
                       window_sizes=None, resolution_per_unit: int = 8,
                       statistic_resolution: int = STATISTIC_RESOLUTION,
                       label: str = "") -> StabilityReport:
    """Trace the pair statistic over windows, homogenize both densities, and
    classify the outcome.

    Periodic densities are cell-solved at ``hom_resolution`` (with a
    half-resolution rerun to observe the convergence gap); everything else is
    window-estimated at ``window_sizes`` (default: the statistic windows)
    along the first coordinate direction. The comparison tolerance is 3x the
    worst observed gap, floored at 1e-8.
    """
    if f.is_matrix != g.is_matrix or f.p != g.p:
        raise ValueError("f and g must share one energy form: both scalar or "
                         "both matrix coefficients, at equal p")
    if f.bounds != g.bounds:
        raise ValueError("f and g must share bounds")
    p = f.p

    R_list = [float(R) for R in R_list]
    if len(R_list) < 3:
        raise ValueError("need at least 3 statistic windows")
    if not all(b > a for a, b in zip(R_list, R_list[1:])):
        raise ValueError("statistic windows must be strictly increasing")
    if t_list is None:
        t_list = (1.0,) if p == 2.0 else (1.0, 2.0)
    t_list = [float(t) for t in t_list]
    # the dimensions, and every t positive (an empty list reads as t = 0)
    check_pair(f, g, min(t_list, default=0.0))

    t0 = t_list[0]
    psis = [mean_abs_statistic(f, g, t0, R, statistic_resolution)
            for R in R_list]
    # the statistic is analytically homogeneous of degree p in t; a failed
    # rescaling can only mean a broken statistic implementation
    for t in t_list[1:]:
        got = mean_abs_statistic(f, g, t, R_list[-1], statistic_resolution)
        want = (t / t0) ** p * psis[-1]
        if not agrees(got, want, HOMOGENEITY_RTOL):
            raise GuardError(
                f"statistic does not scale as t^{p}: psi({t}) = {got:.15g}, "
                f"expected {want:.15g}")
    verdict = "vanishing" if _trace_is_vanishing(psis) else "non-vanishing"

    windows = tuple(float(R) for R in (window_sizes if window_sizes is not None
                                       else R_list))

    def estimate(density, which):
        try:
            if is_periodic(density.coeff):
                return _cell_estimate(density, hom_resolution)
            est = window_sequence(density, x0, np.eye(f.dim)[0], windows,
                                  resolution_per_unit)
            return est, est.cauchy_gap
        except SolverError as e:
            raise SolverError(f"homogenizing {which} ({label or 'pair'}): {e}") from e

    res_f, gap_f = estimate(f, "f")
    res_g, gap_g = estimate(g, "g")
    discrepancy = _pair_discrepancy(res_f, res_g, p)
    tolerance = max(3.0 * gap_f, 3.0 * gap_g, _COMPARISON_FLOOR)

    vanishing = verdict == "vanishing"
    agree = discrepancy <= tolerance
    failure = None
    if vanishing and agree:
        conclusion = Conclusion.CONDITION_HOLDS_LIMITS_AGREE
    elif vanishing:
        conclusion = Conclusion.CONDITION_HOLDS_LIMITS_DIFFER
        failure = (f"vanishing statistic but homogenized outputs differ by "
                   f"{discrepancy:.6g} > tolerance {tolerance:.6g}; this can "
                   "only come from solver or resolution error")
    elif agree:
        conclusion = Conclusion.CONDITION_FAILS_LIMITS_AGREE
    else:
        conclusion = Conclusion.CONDITION_FAILS_LIMITS_DIFFER

    return StabilityReport(
        label=label,
        statistic_trace=tuple(zip(R_list, psis)),
        t_reference=t0,
        condition_verdict=verdict,
        homogenized_f=res_f,
        homogenized_g=res_g,
        discrepancy=float(discrepancy),
        tolerance=float(tolerance),
        conclusion=conclusion,
        numerical_failure=failure,
    )


@dataclass(frozen=True)
class ApproximationStep:
    order: int
    description: str
    hom_value: float
    statistic: float


def _approximates(steps, window_reference: WindowEstimate,
                  agreement_rtol: float) -> bool:
    """The approximation verdict: the step statistics never increase and the
    last homogenized value matches the window limit to ``agreement_rtol``."""
    stats = [s.statistic for s in steps]
    if not all(b <= a for a, b in zip(stats, stats[1:])):
        return False
    ref = window_reference.limit_estimate
    return abs(steps[-1].hom_value - ref) <= agreement_rtol * abs(ref)


@dataclass(frozen=True)
class ApproximationTrace:
    """Periodic-truncation trace: homogenized values of the rationalized
    fields g^j next to a window estimate of the original field."""

    steps: tuple[ApproximationStep, ...]
    window_reference: WindowEstimate
    approximates: bool
    agreement_rtol: float

    def __post_init__(self):
        orders = [s.order for s in self.steps]
        if not orders:
            raise ValueError("trace must contain at least one step")
        if not all(b > a for a, b in zip(orders, orders[1:])):
            raise ValueError("steps must be ordered by strictly increasing order")
        want = _approximates(self.steps, self.window_reference,
                             self.agreement_rtol)
        if self.approximates != want:
            raise GuardError("approximation verdict inconsistent with the trace")


def _convergents(x: float, count: int) -> list[Fraction]:
    """First ``count`` continued-fraction convergents of x, repeating the last
    one once x is resolved exactly or the denominator would exceed 1000."""
    a = math.floor(x)
    h_prev, k_prev, h, k = 1, 0, a, 1
    rem = x - a
    out = [Fraction(h, k)]
    while len(out) < count and rem > 1e-12:
        inv = 1.0 / rem
        a = math.floor(inv)
        rem = inv - a
        h_prev, k_prev, h, k = h, k, a * h + h_prev, a * k + k_prev
        if k > 1000:
            break
        out.append(Fraction(h, k))
    while len(out) < count:
        out.append(out[-1])
    return out


def run_approximation_scheme(f: TrigPolynomialClamped,
                             j_max: int) -> ApproximationTrace:
    """Homogenize rationalized truncations g^j of a clamped trig field.

    Each frequency component is replaced by its j-th continued-fraction
    convergent (denominators capped at 1000), making g^j exactly periodic and
    cell-solvable on its integer period; the original field is
    window-estimated on windows 8, 16 and 32 with the same per-unit
    resolution so the two discretizations are comparable.  Both are probed
    along the first coordinate direction, and each step's statistic is taken
    on the window of size 32.  Rational
    frequencies are reproduced exactly from their convergent order on, so a
    periodic input yields a constant trace.

    Orders run from j = 1: the 0th convergent (the integer part) degenerates
    to a constant term for frequencies below one, and its statistic sits on
    the decorrelation plateau where ordering is noise, so it certifies
    nothing.
    """
    if not isinstance(f, TrigPolynomialClamped):
        raise ValueError("the scheme needs the generating trig data of f")
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    dim = f.dim
    xi_probe = np.eye(dim)[0]

    # amplitude-0 terms contribute nothing anywhere; dropping them up front
    # keeps the trace independent of silent entries
    terms = tuple(term for term in f.terms if term[0] != 0.0)
    clean = TrigPolynomialClamped(f.offset, terms, f.bounds, dim=dim)
    f_density = EnergyDensity(clean)

    convergent_table = []
    for _, freq, _ in terms:
        convergent_table.append(tuple(
            _convergents(c, j_max + 1) if c != 0.0 else None
            for c in freq))

    reference = window_sequence(f_density, None, xi_probe, (8.0, 16.0, 32.0),
                                _APPROXIMATION_RESOLUTION)

    steps = []
    for j in range(1, j_max + 1):
        approx_terms = []
        described = []
        for (amp, _, phase), convs in zip(terms, convergent_table):
            freqs_j = tuple(0.0 if c is None else float(c[j]) for c in convs)
            approx_terms.append((amp, freqs_j, phase))
            described.append("(" + ",".join("0" if c is None else str(c[j])
                                            for c in convs) + ")")
        g_j = TrigPolynomialClamped(f.offset, tuple(approx_terms), f.bounds,
                                    dim=dim)
        try:
            result = homogenize_matrix(g_j, _APPROXIMATION_RESOLUTION)
        except SolverError as e:
            raise SolverError(f"homogenizing truncation j={j}: {e}") from e
        hom_value = homogenized_quadratic_form(result, xi_probe)
        statistic = mean_abs_statistic(f_density, EnergyDensity(g_j),
                                       1.0, 32.0)
        steps.append(ApproximationStep(j, "freqs " + " ".join(described),
                                       float(hom_value), float(statistic)))

    return ApproximationTrace(tuple(steps), reference,
                              _approximates(steps, reference, _AGREEMENT_RTOL),
                              _AGREEMENT_RTOL)


def counterexample_suite() -> dict[str, StabilityReport]:
    """The four canonical pairs showing what the vanishing condition does not
    decide: it is sufficient but not necessary, and its weak (signed) variant
    decides nothing.

    Every entry must reproduce its known conclusion; a mismatch raises.
    """
    bounds = FieldBounds(1.0, 4.0)
    gamma, c = 2.0, 0.5
    reports: dict[str, StabilityReport] = {}

    # same harmonic mean, phases swapped: |a - b| = 3 everywhere, yet both
    # sides homogenize to the identical 1.6
    a1 = EnergyDensity(PeriodicStep(2, (1.0, 4.0), bounds, dim=1))
    b1 = EnergyDensity(PeriodicStep(2, (4.0, 1.0), bounds, dim=1))
    reports["swapped-1d"] = run_stability_pair(
        a1, b1, t_list=(1.0, 2.0), hom_resolution=64, label="swapped-1d")

    # the layered analogue in 2D: swapping the layers preserves both the
    # harmonic and arithmetic directional means
    a2 = EnergyDensity(PeriodicStep(2, (1.0, 4.0, 1.0, 4.0), bounds, dim=2))
    b2 = EnergyDensity(PeriodicStep(2, (4.0, 1.0, 4.0, 1.0), bounds, dim=2))
    reports["swapped-layered"] = run_stability_pair(
        a2, b2, hom_resolution=32, label="swapped-layered")

    # a single interface is invisible to any fixed one-phase window but makes
    # the field non-homogenizable: off-center windows settle on the low phase
    # while the constant comparison field sits at gamma
    step = EnergyDensity(HalfSpaceStep(gamma, c, bounds, dim=1))
    flat = EnergyDensity(Constant(gamma, bounds, dim=1))
    reports["half-space"] = run_stability_pair(
        step, flat, x0=-4.0, window_sizes=(2.0, 4.0, 8.0),
        resolution_per_unit=8, label="half-space")

    # centered windows instead: the signed difference cancels exactly by
    # antisymmetry while the limits still disagree, so the weak form of the
    # condition certifies nothing
    centered = run_stability_pair(
        step, flat, x0=0.0, window_sizes=(4.0, 8.0, 16.0),
        resolution_per_unit=8, label="weak-mean-only")
    signed = tuple((R, signed_mean_statistic(step, flat, 1.0, R))
                   for R, _ in centered.statistic_trace)
    reports["weak-mean-only"] = replace(centered, signed_mean_trace=signed)

    expected = {
        "swapped-1d": Conclusion.CONDITION_FAILS_LIMITS_AGREE,
        "swapped-layered": Conclusion.CONDITION_FAILS_LIMITS_AGREE,
        "half-space": Conclusion.CONDITION_FAILS_LIMITS_DIFFER,
        "weak-mean-only": Conclusion.CONDITION_FAILS_LIMITS_DIFFER,
    }
    for name, want in expected.items():
        got = reports[name].conclusion
        if got is not want:
            raise GuardError(
                f"counterexample {name!r} concluded {got.value} instead of "
                f"{want.value}; the catalog no longer matches the analysis")
    return reports


@dataclass(frozen=True)
class StochasticStabilityReport:
    """Paired-seed comparison of two random families.

    Matrix statistics are entry-wise means and standard errors over trials;
    the two families are judged compatible when every entry's two-standard-
    error intervals overlap.
    """

    trials: int
    torus_size: int
    seed: int
    statistic_trace: tuple[tuple[float, float, float], ...]
    mean_f: tuple[tuple[float, ...], ...]
    stderr_f: tuple[tuple[float, ...], ...]
    mean_g: tuple[tuple[float, ...], ...]
    stderr_g: tuple[tuple[float, ...], ...]
    paired_difference_mean: tuple[tuple[float, ...], ...]
    paired_difference_stderr: tuple[tuple[float, ...], ...]
    intervals_overlap: bool
    numerical_failure: str | None = None

    def __post_init__(self):
        means = [m for _, m, _ in self.statistic_trace]
        if (_trace_is_vanishing(means) and not self.intervals_overlap
                and self.numerical_failure is None):
            raise GuardError(
                "a vanishing expectation statistic with non-overlapping "
                "intervals is inconsistent; the report must carry a "
                "numerical-failure diagnostic")

    def summary(self) -> dict:
        return asdict(self)


def _nested(a: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(x) for x in row) for row in np.atleast_2d(a))


def check_flip_alignment(family, resolution_per_unit: int):
    """A family's flip sub-squares z + [0, width)^d must end on element
    boundaries of the trial grids, so the cell matrices see the same flip
    as the statistic: width * resolution_per_unit must be an integer
    (``numerics.cells_across``); otherwise ValueError."""
    if family.flip_cells is None:
        return
    width = family.flip_cells.width
    try:
        cells_across(width, resolution_per_unit)
    except ValueError:
        raise ValueError(f"flip width {width:g} times resolution_per_unit "
                         f"{resolution_per_unit} must be an integer so the "
                         "flipped sub-squares end on element boundaries"
                         ) from None


def stochastic_stability_experiment(f_family, g_family, trials: int, seed: int,
                                    *, torus_size: int = 32,
                                    resolution_per_unit: int = 8,
                                    statistic_sizes=(8.0, 16.0, 32.0, 64.0)
                                    ) -> StochasticStabilityReport:
    """Per-seed cell solves for both families, aggregated into matrix
    confidence intervals plus the expectation trace of the pair statistic at
    t = 1.

    Each realization is restricted to the window [0, torus_size)^d, taken as
    one period of a torus (cell indices keep their absolute hashes), and
    homogenized there by ``cell.homogenize_coefficients``. Flip widths must
    align with the grid (``check_flip_alignment``).

    Trials are paired by derived per-trial seeds, so swapping the family
    order negates the paired difference exactly.
    """
    if trials < 8:
        raise ValueError(f"need at least 8 trials for stable intervals, got {trials}")
    if torus_size < 2:
        raise ValueError(f"torus size must be >= 2, got {torus_size}")
    for family in (f_family, g_family):
        check_flip_alignment(family, resolution_per_unit)
    dim = f_family.dim
    grid = build_grid(dim, cells_across(torus_size, resolution_per_unit),
                      (0.0,) * dim, torus_size, TORUS)
    centers = grid.element_centers()
    mats_f = []
    mats_g = []
    for i in range(trials):
        s = mix_seed(seed, i)
        for which, family, sink in (("f", f_family, mats_f),
                                    ("g", g_family, mats_g)):
            field = family.realize(s)
            try:
                result = homogenize_coefficients(
                    grid, eval_scalar(field, centers), field.bounds)
            except SolverError as e:
                raise SolverError(f"trial {i}, family {which}: {e}") from e
            sink.append(result.matrix)
    arr_f = np.asarray(mats_f)
    arr_g = np.asarray(mats_g)
    scale = 1.0 / math.sqrt(trials)
    mean_f = arr_f.mean(axis=0)
    mean_g = arr_g.mean(axis=0)
    se_f = arr_f.std(axis=0, ddof=1) * scale
    se_g = arr_g.std(axis=0, ddof=1) * scale
    diff = arr_f - arr_g

    trace = []
    for R in statistic_sizes:
        m, se = expectation_statistic(f_family, g_family, 1.0, float(R),
                                      trials, seed)
        trace.append((float(R), m, se))

    lo = np.maximum(mean_f - 2.0 * se_f, mean_g - 2.0 * se_g)
    hi = np.minimum(mean_f + 2.0 * se_f, mean_g + 2.0 * se_g)
    overlap = bool(np.all(lo <= hi))
    failure = None
    if _trace_is_vanishing([m for _, m, _ in trace]) and not overlap:
        failure = ("vanishing expectation statistic with non-overlapping "
                   "matrix intervals; increase trials or resolution")
    return StochasticStabilityReport(
        trials=trials,
        torus_size=torus_size,
        seed=seed,
        statistic_trace=tuple(trace),
        mean_f=_nested(mean_f),
        stderr_f=_nested(se_f),
        mean_g=_nested(mean_g),
        stderr_g=_nested(se_g),
        paired_difference_mean=_nested(diff.mean(axis=0)),
        paired_difference_stderr=_nested(diff.std(axis=0, ddof=1) * scale),
        intervals_overlap=overlap,
        numerical_failure=failure,
    )
