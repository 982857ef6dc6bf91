"""Coefficient fields, energy densities, and closeness-in-mean statistics.

Every field evaluates vectorized on (m, dim) point arrays and stays inside its
declared bounds. Random fields use a counter-based hash keyed by (seed, cell
index), so evaluation is deterministic, order-independent, and random access;
shifting the environment is an integer index shift, which is what makes the
stationarity identity a(w, y + z) = a(shift_z w, y) exact.

One type, ``EnergyDensity(coeff, p)``, covers the three energy densities the
experiments compare: a(y) |xi|^2 and a(y) |xi|^p (a scalar coefficient) and
<A(y) xi, xi> (a matrix coefficient, p = 2 only).

The statistics implement the closeness-in-mean quantity used by the stability
experiments: the cube-window average of the analytic supremum over |xi| <= t
of the energy-density difference (t^p |a - b| for scalar pairs; t^2 times the
spectral radius of the symmetrized difference when either coefficient is a
matrix, a scalar a standing for a I).

Fields that are constant on the cubes z + [0, s)^d of a lattice report the
side s as ``cell_side``. When the sides of both coefficients of a scalar
pair are multiples of the finer one, the statistic evaluates one midpoint
per cell of the finer lattice and weights it by the number of window
midpoints in that cell: the same midpoint quadrature, grouped by cell, at a
fraction of the field evaluations.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .numerics import (FIELD_BOUNDS_ATOL, Grid, GuardError, _on_axis, cells_across,
                       nearest_integer, tensor_points)

_MASK64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLD = 0x9E3779B97F4A7C15
_AXIS_SALT = (0xA0761D6478BD642F, 0xE7037ED1A0B428DB)

# Default midpoints per unit length of the closeness-in-mean statistic; the
# spec schema checks the stochastic statistic windows against it.
STATISTIC_RESOLUTION = 16


def _scramble_scalar(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _C1) & _MASK64
    z = ((z ^ (z >> 27)) * _C2) & _MASK64
    return z ^ (z >> 31)


def _scramble_array(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_C1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_C2)
    return z ^ (z >> np.uint64(31))


def mix_seed(seed: int, index: int) -> int:
    """Derive a per-trial seed; pure function of (seed, index)."""
    return _scramble_scalar((seed + _GOLD * (index + 1)) & _MASK64)


def cell_uniforms(seed: int, cells: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) variates keyed by (seed, cell index), shape (m,)."""
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    h = np.full(cells.shape[0], _scramble_scalar(seed + _GOLD), dtype=np.uint64)
    for j in range(cells.shape[1]):
        lane = cells[:, j].astype(np.uint64) + np.uint64(_AXIS_SALT[j])
        h = _scramble_array(h ^ _scramble_array(lane))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class FieldBounds:
    """Uniform ellipticity window [alpha, beta]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.beta >= self.alpha:
            raise ValueError(f"beta must be >= alpha, got bounds ({self.alpha}, {self.beta})")


def _as_points(pts, dim: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        if dim != 1:
            raise ValueError(f"1D point array passed to a dim-{dim} field")
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (m, {dim}), got {pts.shape}")
    return pts


class ScalarField:
    """Base for scalar coefficient fields; subclasses fill values_impl."""

    bounds: FieldBounds
    dim: int

    def values(self, pts) -> np.ndarray:
        return self.values_impl(_as_points(pts, self.dim))

    def values_impl(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def period(self) -> float | None:
        """Axis period if the field is periodic, else None."""
        return None

    @property
    def alignment_divisor(self) -> int:
        """Cells per unit must be a multiple of this for exact phase alignment."""
        return 1

    @property
    def cell_side(self) -> float | None:
        """Side s if the field is constant on every cube z + [0, s)^d of the
        lattice s Z^d, else None."""
        return None


@dataclass(frozen=True)
class Constant(ScalarField):
    value: float
    bounds: FieldBounds
    dim: int = 1

    def __post_init__(self):
        if not self.bounds.alpha <= self.value <= self.bounds.beta:
            raise ValueError(f"constant {self.value} outside bounds "
                             f"[{self.bounds.alpha}, {self.bounds.beta}]")

    def values_impl(self, pts):
        return np.full(len(pts), self.value)

    @property
    def period(self):
        return 1.0


@dataclass(frozen=True)
class Layered1D(ScalarField):
    """1-periodic piecewise-constant profile in the first coordinate.

    ``breakpoints`` are the left endpoints in [0, 1), strictly increasing,
    starting at 0; value j applies on [b_j, b_{j+1}).
    """

    breakpoints: tuple[float, ...]
    layer_values: tuple[float, ...]
    bounds: FieldBounds
    dim: int = 1

    def __post_init__(self):
        b = np.asarray(self.breakpoints)
        if len(b) == 0 or b[0] != 0.0 or np.any(np.diff(b) <= 0) or np.any(b >= 1.0):
            raise ValueError("breakpoints must start at 0, increase strictly, stay in [0, 1)")
        if len(self.layer_values) != len(b):
            raise ValueError("one value per breakpoint required")
        v = np.asarray(self.layer_values)
        if np.any(v < self.bounds.alpha) or np.any(v > self.bounds.beta):
            raise ValueError("layer values outside bounds")

    def values_impl(self, pts):
        frac = np.mod(pts[:, 0], 1.0)
        idx = np.searchsorted(np.asarray(self.breakpoints), frac, side="right") - 1
        return np.asarray(self.layer_values)[idx]

    @property
    def period(self):
        return 1.0

    @property
    def alignment_divisor(self):
        denoms = [Fraction(b).limit_denominator(4096).denominator for b in self.breakpoints]
        for b, d in zip(self.breakpoints, denoms):
            if abs(b - round(b * d) / d) > 1e-12:
                raise ValueError(f"breakpoint {b} is not a small rational; "
                                 "no exact grid alignment exists")
        return math.lcm(*denoms)


@dataclass(frozen=True)
class PeriodicStep(ScalarField):
    """Unit-periodic field, constant on a k x k subdivision of the unit cell.

    ``cell_values`` is row-major with the first axis fastest, length k**dim.
    """

    subdivisions: int
    cell_values: tuple[float, ...]
    bounds: FieldBounds
    dim: int = 2

    def __post_init__(self):
        if self.subdivisions < 1:
            raise ValueError("subdivisions must be >= 1")
        if len(self.cell_values) != self.subdivisions ** self.dim:
            raise ValueError(f"need {self.subdivisions ** self.dim} cell values, "
                             f"got {len(self.cell_values)}")
        v = np.asarray(self.cell_values)
        if np.any(v < self.bounds.alpha) or np.any(v > self.bounds.beta):
            raise ValueError("cell values outside bounds")

    def values_impl(self, pts):
        k = self.subdivisions
        sub = np.clip((np.mod(pts, 1.0) * k).astype(np.int64), 0, k - 1)
        return np.asarray(self.cell_values)[sub @ k ** np.arange(self.dim)]

    @property
    def period(self):
        return 1.0

    @property
    def alignment_divisor(self):
        return self.subdivisions

    @property
    def cell_side(self):
        return 1.0 / self.subdivisions


def checkerboard_step(low: float, high: float, bounds: FieldBounds) -> PeriodicStep:
    """The periodic 2x2 checkerboard with ``low`` on the even diagonal."""
    return PeriodicStep(2, (low, high, high, low), bounds, dim=2)


@dataclass(frozen=True)
class TrigPolynomialClamped(ScalarField):
    """offset + sum of sines, clamped into [alpha, beta]: ((P v alpha) ^ beta).

    Terms are (amplitude, frequency vector, phase) with frequencies in cycles
    per unit length; irrational frequencies give an almost-periodic field.
    """

    offset: float
    terms: tuple[tuple[float, tuple[float, ...], float], ...]
    bounds: FieldBounds
    dim: int = 1

    def __post_init__(self):
        for amp, freq, phase in self.terms:
            if len(freq) != self.dim:
                raise ValueError(f"frequency vector {freq} does not match dim {self.dim}")

    def values_impl(self, pts):
        period = self.period
        if period is not None:
            # reduce first so integer-translated windows see bit-identical
            # arguments (the field is exactly periodic in each coordinate)
            pts = pts - period * np.floor(pts / period)
        raw = np.full(len(pts), float(self.offset))
        for amp, freq, phase in self.terms:
            raw += amp * np.sin(2.0 * np.pi * (pts @ np.asarray(freq)) + phase)
        return np.clip(raw, self.bounds.alpha, self.bounds.beta)

    @property
    def period(self):
        denoms = []
        for _, freq, _ in self.terms:
            for f in freq:
                if f == 0.0:
                    continue
                frac = Fraction(f).limit_denominator(1000)
                if abs(f - float(frac)) > 1e-9:
                    return None
                denoms.append(frac.denominator)
        return float(math.lcm(*denoms))


@dataclass(frozen=True)
class HalfSpaceStep(ScalarField):
    """gamma + c on {y_1 >= 0}, gamma - c below; not homogenizable for c != 0."""

    gamma: float
    c: float
    bounds: FieldBounds
    dim: int = 1

    def __post_init__(self):
        if not (self.bounds.alpha <= self.gamma - abs(self.c)
                and self.gamma + abs(self.c) <= self.bounds.beta):
            raise ValueError("gamma +/- c must stay within bounds")

    def values_impl(self, pts):
        return np.where(pts[:, 0] >= 0.0, self.gamma + self.c, self.gamma - self.c)


def power_of_two_cells(k: np.ndarray) -> np.ndarray:
    """Componentwise test for positive integer powers of two (1, 2, 4, ...)."""
    positive = k >= 1
    kp = np.where(positive, k, 1).astype(np.int64)
    return positive & ((kp & (kp - 1)) == 0)


@dataclass(frozen=True)
class PowerOfTwoCells:
    """Cells z with every coordinate a positive integer power of two.

    The perturbation lives on the sub-square z + [0, width)^d of qualifying
    cells; the set has density (log R)^d / R^d in the window Q_R, hence
    vanishing mean.
    """

    width: float = 1.0

    def __post_init__(self):
        if not 0 < self.width <= 1:
            raise ValueError(f"width must be in (0, 1], got {self.width}")

    def profile(self, pts: np.ndarray) -> np.ndarray:
        cells = np.floor(pts).astype(np.int64)
        offs = pts - cells
        ok = np.ones(len(pts), dtype=bool)
        for j in range(pts.shape[1]):
            ok &= power_of_two_cells(cells[:, j]) & (offs[:, j] < self.width)
        return ok.astype(float)

    def qualifying_cells(self, R: float, dim: int) -> list[tuple[int, ...]]:
        """Enumerate qualifying cells intersecting the centered window Q_R."""
        half = R / 2.0
        powers = []
        k = 1
        while k < half:
            powers.append(k)
            k *= 2
        return list(itertools.product(powers, repeat=dim))


@dataclass(frozen=True)
class BallSupport:
    """Indicator of the origin-centered euclidean ball of the given radius."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def profile(self, pts: np.ndarray) -> np.ndarray:
        return (np.linalg.norm(pts, axis=1) <= self.radius).astype(float)


@dataclass(frozen=True)
class LpDecay:
    """Cell-constant profile (1 + |z|_inf)^(-q); summable mean for q > 0."""

    exponent: float

    def __post_init__(self):
        if not self.exponent > 0:
            raise ValueError("exponent must be positive")

    def profile(self, pts: np.ndarray) -> np.ndarray:
        cells = np.floor(pts).astype(np.int64)
        norm = np.max(np.abs(cells), axis=1)
        return (1.0 + norm) ** (-self.exponent)


SparsePerturbationRule = PowerOfTwoCells | BallSupport | LpDecay


def rule_mean_abs_bound(rule: SparsePerturbationRule, R: float, dim: int) -> float:
    """Upper bound on the Q_R average of the rule's |profile| (certifies
    the vanishing-mean property used by the stability experiments)."""
    if isinstance(rule, BallSupport):
        vol = 2.0 * rule.radius if dim == 1 else np.pi * rule.radius ** 2
        return min(1.0, vol / R ** dim)
    if isinstance(rule, PowerOfTwoCells):
        count = len(rule.qualifying_cells(R, dim))
        return count * rule.width ** dim / R ** dim
    half = int(np.ceil(R / 2.0))
    ks = np.abs(np.arange(-half, half))
    norm = reduce(np.maximum, (_on_axis(ks, k, dim) for k in range(dim)))
    total = np.sum((1.0 + norm) ** (-rule.exponent))
    return float(total / R ** dim)


@dataclass(frozen=True)
class Perturbed(ScalarField):
    """base + amplitude * rule profile, clamped back into the base bounds."""

    base: ScalarField
    rule: SparsePerturbationRule
    amplitude: float

    def __post_init__(self):
        if self.amplitude == 0.0:
            raise ValueError("amplitude must be nonzero (use the base field instead)")

    @property
    def bounds(self):
        return self.base.bounds

    @property
    def dim(self):
        return self.base.dim

    def values_impl(self, pts):
        raw = self.base.values_impl(pts) + self.amplitude * self.rule.profile(pts)
        return np.clip(raw, self.bounds.alpha, self.bounds.beta)


@dataclass(frozen=True)
class RandomCheckerboard(ScalarField):
    """iid two-valued field, constant on unit cells z + [0, 1)^d.

    Cell z takes ``cell_values[1]`` with the given probability, decided by a
    counter-based hash of (seed, z + index_offset); ``shifted`` translates the
    environment by shifting the index. ``flip_cells`` swaps the two values on
    the sub-squares z + [0, width)^d of its qualifying cells (the stochastic
    perturbation); below width 1 the field is no longer constant on unit
    cells, but a width of 1/k leaves it constant on the cubes of side 1/k.
    """

    cell_values: tuple[float, float]
    probability: float
    seed: int
    bounds: FieldBounds
    dim: int = 2
    index_offset: tuple[int, ...] = None
    flip_cells: PowerOfTwoCells | None = None

    def __post_init__(self):
        lo, hi = self.cell_values
        if not (self.bounds.alpha <= lo <= self.bounds.beta
                and self.bounds.alpha <= hi <= self.bounds.beta):
            raise ValueError("cell values outside bounds")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.index_offset is None:
            object.__setattr__(self, "index_offset", (0,) * self.dim)
        if len(self.index_offset) != self.dim:
            raise ValueError("index_offset must have one entry per axis")

    def values_impl(self, pts):
        floor = np.floor(pts)
        cells = floor.astype(np.int64) + np.asarray(self.index_offset, dtype=np.int64)
        u = cell_uniforms(self.seed, cells)
        vals = np.where(u < self.probability, self.cell_values[1], self.cell_values[0])
        if self.flip_cells is not None:
            flip = np.all(power_of_two_cells(cells), axis=1)
            # width 1 skips the test: pts - floor can round up to 1.0 just
            # below an integer, and such a point still lies in its cell
            if self.flip_cells.width < 1.0:
                flip &= np.all(pts - floor < self.flip_cells.width, axis=1)
            swapped = self.cell_values[0] + self.cell_values[1] - vals
            vals = np.where(flip, swapped, vals)
        return vals

    @property
    def cell_side(self):
        if self.flip_cells is None:
            return 1.0
        width = self.flip_cells.width
        return width if nearest_integer(1.0 / width) is not None else None

    def shifted(self, z: tuple[int, ...]) -> "RandomCheckerboard":
        offset = tuple(o + int(dz) for o, dz in zip(self.index_offset, z))
        return dataclasses.replace(self, index_offset=offset)


@dataclass(frozen=True)
class MatrixField:
    """d x d matrix of scalar fields; whether it is symmetric is read from
    its sampled values (``numerics.is_symmetric``)."""

    entries: tuple[tuple[ScalarField, ...], ...]
    dim: int

    def __post_init__(self):
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise ValueError(f"entries must form a {self.dim} x {self.dim} grid")

    @property
    def bounds(self):
        return self.entries[0][0].bounds

    def values(self, pts) -> np.ndarray:
        pts = _as_points(pts, self.dim)
        out = np.empty((len(pts), self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                out[:, i, j] = self.entries[i][j].values_impl(pts)
        return out


def isotropic_matrix(coeff: ScalarField) -> MatrixField:
    """a(y) * Identity as a MatrixField.

    The off-diagonal zeros are exempt from the [alpha, beta] window, which
    constrains eigenvalues of the full matrix, not entries.
    """
    zero = _FixedValue(0.0, coeff.bounds, coeff.dim)
    rows = tuple(tuple(coeff if i == j else zero for j in range(coeff.dim))
                 for i in range(coeff.dim))
    return MatrixField(rows, dim=coeff.dim)


def constant_matrix(mat, bounds: FieldBounds, dim: int = 2) -> MatrixField:
    """Constant matrix field; validates uniform ellipticity of the matrix."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim} x {dim}")
    # eigvalsh reads a NaN diagonal as finite eigenvalues ([0, -0] for
    # diag(NaN, 1)), so a non-finite entry is refused before it runs
    if not np.isfinite(mat).all():
        raise ValueError(f"matrix has a non-finite entry: {mat.tolist()}")
    sym = 0.5 * (mat + mat.T)
    eigs = np.linalg.eigvalsh(sym)
    if not eigs.min() >= bounds.alpha - FIELD_BOUNDS_ATOL:
        raise ValueError(f"matrix not elliptic above alpha = {bounds.alpha}: "
                         f"min symmetric eigenvalue {eigs.min():.6g}")
    if not np.linalg.norm(mat, 2) <= bounds.beta + FIELD_BOUNDS_ATOL:
        raise ValueError(f"matrix norm exceeds beta = {bounds.beta}")
    rows = tuple(tuple(_FixedValue(mat[i, j], bounds, dim) for j in range(dim))
                 for i in range(dim))
    return MatrixField(rows, dim=dim)


@dataclass(frozen=True)
class _FixedValue(ScalarField):
    value: float
    bounds: FieldBounds
    dim: int

    def values_impl(self, pts):
        return np.full(len(pts), self.value)

    @property
    def period(self):
        return 1.0


# Energy densities f(y, xi)

@dataclass(frozen=True)
class EnergyDensity:
    """f(y, xi) = a(y) |xi|^p for a scalar coefficient a, or <A(y) xi, xi>
    for a matrix coefficient A (which requires p = 2)."""

    coeff: ScalarField | MatrixField
    p: float = 2.0

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.is_matrix and self.p != 2.0:
            raise ValueError("matrix coefficients require p = 2")

    @property
    def is_matrix(self) -> bool:
        return isinstance(self.coeff, MatrixField)

    @property
    def dim(self):
        return self.coeff.dim

    @property
    def bounds(self):
        return self.coeff.bounds


def eval_scalar(field: ScalarField, pts) -> np.ndarray:
    """Evaluate and enforce the bounds contract.

    A value outside the bounds, or NaN, is a broken field, not bad input: it
    raises GuardError, which the CLI reports as a soundness-guard failure.
    """
    v = field.values(pts)
    b = field.bounds
    if not (np.all(v >= b.alpha - FIELD_BOUNDS_ATOL)
            and np.all(v <= b.beta + FIELD_BOUNDS_ATOL)):
        raise GuardError(f"field values escaped bounds [{b.alpha}, {b.beta}]: "
                         f"range [{v.min():.6g}, {v.max():.6g}]")
    return v


def eval_matrix(field: MatrixField, pts) -> np.ndarray:
    return field.values(pts)


def element_coefficients(coeff: ScalarField | MatrixField,
                         grid: Grid) -> np.ndarray:
    """Per-element coefficients at element centers: (n_e,) or (n_e, d, d)."""
    centers = grid.element_centers()
    if isinstance(coeff, MatrixField):
        return eval_matrix(coeff, centers)
    return eval_scalar(coeff, centers)


def window_points(R: float, resolution_per_unit: int, dim: int, center,
                  cell_side: float | None = None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Midpoint quadrature nodes of the cube window Q_R(center), as (m, dim)
    points and integer weights.

    Without ``cell_side`` every midpoint of the R * resolution_per_unit cells
    per axis is a point and the weights are None (all equal). With it, each
    axis keeps the first midpoint inside each lattice cell [k s, (k + 1) s)
    and counts the midpoints that cell holds; the weight of a point is the
    product of its axis counts, so a field constant on the cells has the same
    weighted mean as the full midpoint rule.
    """
    n = cells_across(R, resolution_per_unit)
    h = R / n
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    axes = []
    counts = []
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
        weights = math.prod(_on_axis(c, k, dim) for k, c in enumerate(counts)).ravel()
    return tensor_points(axes), weights


def _common_cell_side(f: EnergyDensity, g: EnergyDensity) -> float | None:
    """Lattice cell side on which both scalar coefficients are constant: the
    finer of their two sides when the coarser is an integer multiple of it
    (to 1e-9), else None."""
    if f.is_matrix or g.is_matrix:
        return None
    sides = (f.coeff.cell_side, g.coeff.cell_side)
    if None in sides:
        return None
    fine, coarse = sorted(sides)
    return fine if nearest_integer(coarse / fine) is not None else None


def _quadrature_mean(values: np.ndarray, weights: np.ndarray | None) -> float:
    if weights is None:
        return values.mean()
    return (weights * values).sum() / weights.sum()


def _sym_spectral_radius_2x2(D: np.ndarray) -> np.ndarray:
    s01 = 0.5 * (D[:, 0, 1] + D[:, 1, 0])
    half_tr = 0.5 * (D[:, 0, 0] + D[:, 1, 1])
    half_gap = 0.5 * (D[:, 0, 0] - D[:, 1, 1])
    root = np.sqrt(half_gap ** 2 + s01 ** 2)
    return np.maximum(np.abs(half_tr + root), np.abs(half_tr - root))


def _matrix_values(density: EnergyDensity, pts: np.ndarray) -> np.ndarray:
    """The coefficient at ``pts`` as (m, d, d) matrices; a scalar a is a I."""
    if density.is_matrix:
        return density.coeff.values(pts)
    a = eval_scalar(density.coeff, pts)
    return a[:, None, None] * np.eye(density.dim)


def check_pair(f: EnergyDensity, g: EnergyDensity, t: float):
    """The arguments every window statistic of a density pair needs."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if f.dim != g.dim:
        raise ValueError("densities have different dimensions")
    if f.p != g.p:
        raise ValueError("densities can only be compared at equal p")


def mean_abs_statistic(f: EnergyDensity, g: EnergyDensity, t: float, R: float,
                       resolution_per_unit: int = STATISTIC_RESOLUTION,
                       center=None) -> float:
    """Cube-window average of sup_{|xi| <= t} |f(y, xi) - g(y, xi)|.

    The sup is analytic per density pair; midpoint quadrature over Q_R(center)
    with the given resolution. When both coefficients of a scalar pair report
    a ``cell_side`` and the coarser is a multiple of the finer, the midpoints
    are summed once per cell of the finer lattice, weighted by how many of
    them the cell holds: t^p * sum(w sup) / sum(w).
    """
    check_pair(f, g, t)
    pts, weights = window_points(R, resolution_per_unit, f.dim, center,
                                 _common_cell_side(f, g))
    if f.is_matrix or g.is_matrix:
        D = _matrix_values(f, pts) - _matrix_values(g, pts)
        sup = np.abs(D[:, 0, 0]) if f.dim == 1 else _sym_spectral_radius_2x2(D)
    else:
        sup = np.abs(eval_scalar(f.coeff, pts) - eval_scalar(g.coeff, pts))
    return float(t ** f.p * _quadrature_mean(sup, weights))


def expectation_statistic(family_f, family_g, t: float, R: float, trials: int,
                          seed: int, resolution_per_unit: int = STATISTIC_RESOLUTION
                          ) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the paired-seed statistic of
    the quadratic densities of two families.

    Families expose realize(seed) -> ScalarField; realizations are paired by
    per-trial seeds derived from (seed, trial index).
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a standard error, got {trials}")
    vals = np.empty(trials)
    for i in range(trials):
        s = mix_seed(seed, i)
        fa = EnergyDensity(family_f.realize(s))
        fb = EnergyDensity(family_g.realize(s))
        vals[i] = mean_abs_statistic(fa, fb, t, R, resolution_per_unit)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(trials))
    return mean, se


@dataclass(frozen=True)
class CheckerboardFamily:
    """Seed-indexed family of iid checkerboards (optionally sparsely flipped)."""

    cell_values: tuple[float, float]
    probability: float
    bounds: FieldBounds
    dim: int = 2
    flip_cells: PowerOfTwoCells | None = None

    def realize(self, seed: int) -> RandomCheckerboard:
        return RandomCheckerboard(self.cell_values, self.probability, seed,
                                  self.bounds, dim=self.dim,
                                  flip_cells=self.flip_cells)
