"""Experiment descriptions as a validated JSON document.

A spec file holds one JSON object.  ``kind`` selects the experiment; the
remaining keys are field descriptors and numeric parameters.  Parsing fills
every default explicitly and reports *all* schema problems at once, each
tagged with the path of the offending key, so a spec that parses round-trips
losslessly through :func:`serialize_spec` and never fails inside a solver
for reasons the schema could have caught.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fields import (BallSupport, CheckerboardFamily, Constant, FieldBounds,
                     HalfSpaceStep, LpDecay, PeriodicStep, Perturbed,
                     PowerOfTwoCells, PPower, QuadraticIsotropic,
                     QuadraticMatrix, RandomCheckerboard,
                     STATISTIC_RESOLUTION, TrigPolynomialClamped,
                     constant_matrix)
from .numerics import cells_across
from .perforation import MIN_CELLS_ACROSS_HOLE, PerforationSet, SparseRemoval

__all__ = [
    "SpecError", "SpecValidationError", "ExperimentSpec",
    "ConstantField", "PeriodicStepField", "RandomCheckerboardField",
    "HalfSpaceField", "TrigField", "PerturbedField", "MatrixConstantField",
    "RuleSpec", "CheckerboardFamilySpec",
    "CellParams", "RveParams", "StabilityParams", "PerforationParams",
    "StochasticParams", "CounterexamplesParams",
    "parse_spec", "validate_document", "serialize_spec",
    "build_scalar_field", "build_density", "build_family",
    "build_perforation", "build_rule", "field_signature",
]

KINDS = ("cell", "rve", "stability", "perforation", "stochastic",
         "counterexamples")

_RULE_PARAM = {"power_of_two": "width", "ball": "radius",
               "lp_decay": "exponent"}


@dataclass(frozen=True)
class SpecError:
    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


class SpecValidationError(ValueError):
    """Carries every violation found in the document, not just the first."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(f"invalid experiment spec:\n{lines}")


# ---------------------------------------------------------------------------
# descriptor dataclasses (what a parsed document becomes)

@dataclass(frozen=True)
class RuleSpec:
    type: str
    parameter: float


@dataclass(frozen=True)
class ConstantField:
    value: float
    alpha: float
    beta: float
    dim: int


@dataclass(frozen=True)
class PeriodicStepField:
    subdivisions: int
    values: tuple[float, ...]
    alpha: float
    beta: float
    dim: int


@dataclass(frozen=True)
class RandomCheckerboardField:
    values: tuple[float, float]
    probability: float
    seed: int
    alpha: float
    beta: float
    dim: int
    flip: RuleSpec | None


@dataclass(frozen=True)
class HalfSpaceField:
    gamma: float
    c: float
    alpha: float
    beta: float
    dim: int


@dataclass(frozen=True)
class TrigField:
    offset: float
    terms: tuple[tuple[float, tuple[float, ...], float], ...]
    alpha: float
    beta: float
    dim: int


@dataclass(frozen=True)
class MatrixConstantField:
    entries: tuple[tuple[float, ...], ...]
    alpha: float
    beta: float
    dim: int


@dataclass(frozen=True)
class PerturbedField:
    base: "FieldSpec"
    rule: RuleSpec
    amplitude: float


FieldSpec = (ConstantField | PeriodicStepField | RandomCheckerboardField
             | HalfSpaceField | TrigField | MatrixConstantField
             | PerturbedField)


@dataclass(frozen=True)
class CheckerboardFamilySpec:
    values: tuple[float, float]
    probability: float
    alpha: float
    beta: float
    dim: int
    flip: RuleSpec | None


@dataclass(frozen=True)
class CellParams:
    field: FieldSpec
    p: float
    xi: tuple[float, ...]
    resolutions: tuple[int, ...]


@dataclass(frozen=True)
class RveParams:
    field: FieldSpec
    p: float
    xi: tuple[float, ...]
    center: tuple[float, ...]
    windows: tuple[float, ...]
    resolution_per_unit: int


@dataclass(frozen=True)
class StabilityParams:
    field: FieldSpec
    field_g: FieldSpec
    p: float
    t_list: tuple[float, ...]
    R_list: tuple[float, ...]
    window_sizes: tuple[float, ...]
    hom_resolution: int
    resolution_per_unit: int
    statistic_resolution: int
    label: str


@dataclass(frozen=True)
class PerforationParams:
    shape: str
    radius: float
    removal: bool
    xi: tuple[float, ...]
    resolution: int
    n_list: tuple[float, ...]
    eps_list: tuple[float, ...]
    lam: float
    box_size: float
    lambda_resolution: int
    cell_resolution: int


@dataclass(frozen=True)
class StochasticParams:
    family: CheckerboardFamilySpec
    family_g: CheckerboardFamilySpec
    trials: int
    torus_size: int
    resolution_per_unit: int
    statistic_sizes: tuple[float, ...]


@dataclass(frozen=True)
class CounterexamplesParams:
    pass


Params = (CellParams | RveParams | StabilityParams | PerforationParams
          | StochasticParams | CounterexamplesParams)


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    out: str
    seed: int
    params: Params


# ---------------------------------------------------------------------------
# validation plumbing

_MISSING = object()


class _Collector:
    def __init__(self):
        self.violations: list[SpecError] = []

    def error(self, path: str, message: str):
        self.violations.append(SpecError(path, message))

    @property
    def ok(self):
        return not self.violations


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class _Reader:
    """Pops typed values out of one JSON object, recording violations.

    Every key read is removed; whatever remains at :meth:`finish` is an
    unknown key.  Readers never raise: a bad value records a violation and
    yields the default (or None), so the walk always reaches the end of the
    document and the caller sees every problem in one pass.
    """

    def __init__(self, data: dict, path: str, col: _Collector):
        self.data = dict(data)
        self.path = path
        self.col = col

    def has(self, key) -> bool:
        return key in self.data

    def take(self, key, default=_MISSING):
        if key in self.data:
            return self.data.pop(key)
        if default is _MISSING:
            self.col.error(_join(self.path, key), "required key is missing")
            return None
        return default

    def number(self, key, default=_MISSING, minimum=None, maximum=None,
               exclusive_min=False) -> float | None:
        raw = self.take(key, default)
        if raw is None:
            return None
        if not _is_number(raw):
            self.col.error(_join(self.path, key),
                           f"expected a number, got {raw!r}")
            return None
        v = float(raw)
        if not np.isfinite(v):
            self.col.error(_join(self.path, key), "value must be finite")
            return None
        if minimum is not None:
            bad = v <= minimum if exclusive_min else v < minimum
            if bad:
                op = ">" if exclusive_min else ">="
                self.col.error(_join(self.path, key),
                               f"value must be {op} {minimum}, got {v}")
                return None
        if maximum is not None and v > maximum:
            self.col.error(_join(self.path, key),
                           f"value must be <= {maximum}, got {v}")
            return None
        return v

    def integer(self, key, default=_MISSING, minimum=None) -> int | None:
        raw = self.take(key, default)
        if raw is None:
            return None
        if not _is_number(raw) or float(raw) != int(raw):
            self.col.error(_join(self.path, key),
                           f"expected an integer, got {raw!r}")
            return None
        v = int(raw)
        if minimum is not None and v < minimum:
            self.col.error(_join(self.path, key),
                           f"value must be >= {minimum}, got {v}")
            return None
        return v

    def string(self, key, default=_MISSING, choices=None) -> str | None:
        raw = self.take(key, default)
        if raw is None:
            return None
        if not isinstance(raw, str):
            self.col.error(_join(self.path, key),
                           f"expected a string, got {raw!r}")
            return None
        if choices is not None and raw not in choices:
            self.col.error(_join(self.path, key),
                           f"expected one of {', '.join(choices)}; got {raw!r}")
            return None
        return raw

    def boolean(self, key, default=_MISSING) -> bool | None:
        raw = self.take(key, default)
        if raw is None:
            return None
        if not isinstance(raw, bool):
            self.col.error(_join(self.path, key),
                           f"expected true/false, got {raw!r}")
            return None
        return raw

    def number_list(self, key, default=_MISSING, minimum=None,
                    exclusive_min=False, min_len=1,
                    increasing=False) -> tuple[float, ...] | None:
        raw = self.take(key, default)
        if raw is None:
            return None
        if isinstance(raw, tuple):
            return raw
        p = _join(self.path, key)
        if not isinstance(raw, list):
            self.col.error(p, f"expected a list of numbers, got {raw!r}")
            return None
        if len(raw) < min_len:
            self.col.error(p, f"need at least {min_len} entries, got {len(raw)}")
            return None
        out = []
        for i, v in enumerate(raw):
            if not _is_number(v) or not np.isfinite(float(v)):
                self.col.error(f"{p}[{i}]", f"expected a finite number, got {v!r}")
                return None
            v = float(v)
            if minimum is not None:
                bad = v <= minimum if exclusive_min else v < minimum
                if bad:
                    op = ">" if exclusive_min else ">="
                    self.col.error(f"{p}[{i}]", f"value must be {op} {minimum}")
                    return None
            out.append(v)
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            self.col.error(p, "entries must be strictly increasing")
            return None
        return tuple(out)

    def object(self, key, default=_MISSING) -> tuple[dict | None, str]:
        raw = self.take(key, default)
        p = _join(self.path, key)
        if raw is None or raw is default:
            return (raw if isinstance(raw, dict) else None), p
        if not isinstance(raw, dict):
            self.col.error(p, f"expected an object, got {raw!r}")
            return None, p
        return raw, p

    def finish(self):
        for key in sorted(self.data):
            self.col.error(_join(self.path, key), "unknown key")


def _read_bounds(r: _Reader, default_alpha=1.0, default_beta=4.0):
    alpha = r.number("alpha", default_alpha, minimum=0.0, exclusive_min=True)
    beta = r.number("beta", default_beta, minimum=0.0, exclusive_min=True)
    if alpha is not None and beta is not None and alpha > beta:
        r.col.error(_join(r.path, "bounds"),
                    f"alpha {alpha:g} must not exceed beta {beta:g}")
        return None, None
    return alpha, beta


def _read_rule(col: _Collector, node, path: str) -> RuleSpec | None:
    if not isinstance(node, dict):
        col.error(path, f"expected a rule object, got {node!r}")
        return None
    r = _Reader(node, path, col)
    kind = r.string("type", choices=tuple(_RULE_PARAM))
    if kind is None:
        r.finish()
        return None
    maximum = 1.0 if kind == "power_of_two" else None
    parameter = r.number(_RULE_PARAM[kind], 1.0, minimum=0.0,
                         exclusive_min=True, maximum=maximum)
    r.finish()
    if parameter is None:
        return None
    return RuleSpec(kind, parameter)


# ---------------------------------------------------------------------------
# field descriptors

def _parse_constant(r: _Reader) -> ConstantField | None:
    value = r.number("value")
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 1, minimum=1)
    if None in (value, alpha, beta, dim):
        return None
    if not alpha <= value <= beta:
        r.col.error(_join(r.path, "value"),
                    f"constant {value:g} lies outside [{alpha:g}, {beta:g}]")
        return None
    return ConstantField(value, alpha, beta, dim)


def _parse_periodic_step(r: _Reader) -> PeriodicStepField | None:
    subdivisions = r.integer("subdivisions", minimum=1)
    values = r.number_list("values")
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 2, minimum=1)
    if None in (subdivisions, values, alpha, beta, dim):
        return None
    if dim > 2:
        r.col.error(_join(r.path, "dim"), "periodic steps support dim 1 or 2")
        return None
    if len(values) != subdivisions ** dim:
        r.col.error(_join(r.path, "values"),
                    f"need {subdivisions ** dim} cell values for "
                    f"{subdivisions}^{dim} subdivisions, got {len(values)}")
        return None
    if any(not alpha <= v <= beta for v in values):
        r.col.error(_join(r.path, "values"),
                    f"cell values must lie in [{alpha:g}, {beta:g}]")
        return None
    return PeriodicStepField(subdivisions, values, alpha, beta, dim)


def _parse_random_checkerboard(r: _Reader) -> RandomCheckerboardField | None:
    values = r.number_list("values", min_len=2)
    probability = r.number("probability", 0.5, minimum=0.0, maximum=1.0)
    seed = r.integer("seed", 0, minimum=0)
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 2, minimum=1)
    flip_node, flip_path = r.object("flip", None)
    flip = None
    if flip_node is not None:
        flip = _read_rule(r.col, flip_node, flip_path)
        if flip is not None and flip.type != "power_of_two":
            r.col.error(flip_path, "flips support only the power_of_two rule")
            flip = None
    if None in (values, probability, seed, alpha, beta, dim):
        return None
    if len(values) != 2:
        r.col.error(_join(r.path, "values"), "exactly two cell values required")
        return None
    if any(not alpha <= v <= beta for v in values):
        r.col.error(_join(r.path, "values"),
                    f"cell values must lie in [{alpha:g}, {beta:g}]")
        return None
    return RandomCheckerboardField((values[0], values[1]), probability, seed,
                                   alpha, beta, dim, flip)


def _parse_half_space(r: _Reader) -> HalfSpaceField | None:
    gamma = r.number("gamma")
    c = r.number("c")
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 1, minimum=1)
    if None in (gamma, c, alpha, beta, dim):
        return None
    if not (alpha <= gamma - abs(c) and gamma + abs(c) <= beta):
        r.col.error(_join(r.path, "gamma"),
                    f"gamma +/- c must stay within [{alpha:g}, {beta:g}]")
        return None
    return HalfSpaceField(gamma, c, alpha, beta, dim)


def _parse_trig(r: _Reader) -> TrigField | None:
    offset = r.number("offset")
    raw_terms = r.take("terms")
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 1, minimum=1)
    if None in (offset, raw_terms, alpha, beta, dim):
        return None
    p = _join(r.path, "terms")
    if not isinstance(raw_terms, list) or not raw_terms:
        r.col.error(p, "expected a non-empty list of [amplitude, "
                       "frequencies, phase] triples")
        return None
    terms = []
    for i, t in enumerate(raw_terms):
        bad = (not isinstance(t, list) or len(t) != 3
               or not _is_number(t[0]) or not isinstance(t[1], list)
               or not _is_number(t[2])
               or any(not _is_number(f) for f in t[1]))
        if bad:
            r.col.error(f"{p}[{i}]",
                        "expected [amplitude, [frequencies...], phase]")
            return None
        if len(t[1]) != dim:
            r.col.error(f"{p}[{i}]",
                        f"need {dim} frequencies for dim {dim}, got {len(t[1])}")
            return None
        terms.append((float(t[0]), tuple(float(f) for f in t[1]), float(t[2])))
    return TrigField(offset, tuple(terms), alpha, beta, dim)


def _parse_matrix(r: _Reader) -> MatrixConstantField | None:
    raw = r.take("entries")
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 2, minimum=1)
    if None in (raw, alpha, beta, dim):
        return None
    p = _join(r.path, "entries")
    ok = (isinstance(raw, list) and len(raw) == dim
          and all(isinstance(row, list) and len(row) == dim
                  and all(_is_number(v) for v in row) for row in raw))
    if not ok:
        r.col.error(p, f"expected a {dim} x {dim} array of numbers")
        return None
    mat = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(mat)):
        r.col.error(p, "entries must be finite")
        return None
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs.min() < alpha - 1e-12 or np.linalg.norm(mat, 2) > beta + 1e-12:
        r.col.error(p, f"matrix must be elliptic within [{alpha:g}, {beta:g}] "
                       f"(symmetric eigenvalues {eigs.min():.6g}.."
                       f"{eigs.max():.6g})")
        return None
    return MatrixConstantField(tuple(tuple(float(v) for v in row)
                                     for row in raw), alpha, beta, dim)


def _parse_perturbed(col: _Collector, node: dict, path: str):
    r = _Reader(node, path, col)
    base_node, base_path = r.object("base")
    rule_node, rule_path = r.object("rule")
    amplitude = r.number("amplitude")
    r.finish()
    base = _parse_field(col, base_node, base_path) if base_node else None
    rule = _read_rule(col, rule_node, rule_path) if rule_node else None
    if None in (base, rule, amplitude):
        return None
    if isinstance(base, MatrixConstantField):
        col.error(base_path, "perturbations apply to scalar fields only")
        return None
    if amplitude == 0.0:
        col.error(_join(path, "amplitude"),
                  "amplitude must be nonzero (drop the perturbation instead)")
        return None
    return PerturbedField(base, rule, amplitude)


_FIELD_PARSERS = {
    "constant": _parse_constant,
    "periodic_step": _parse_periodic_step,
    "random_checkerboard": _parse_random_checkerboard,
    "half_space": _parse_half_space,
    "trig": _parse_trig,
    "matrix": _parse_matrix,
}


def _parse_field(col: _Collector, node, path: str) -> FieldSpec | None:
    if not isinstance(node, dict):
        col.error(path, f"expected a field descriptor object, got {node!r}")
        return None
    kind = node.get("type")
    if kind == "perturbed":
        rest = {k: v for k, v in node.items() if k != "type"}
        return _parse_perturbed(col, rest, path)
    if kind not in _FIELD_PARSERS:
        col.error(_join(path, "type"),
                  f"unknown field type {kind!r}; expected one of "
                  f"{', '.join(sorted(_FIELD_PARSERS))}, perturbed")
        return None
    r = _Reader({k: v for k, v in node.items() if k != "type"}, path, col)
    out = _FIELD_PARSERS[kind](r)
    r.finish()
    return out


def _parse_family(col: _Collector, node, path: str) -> CheckerboardFamilySpec | None:
    if not isinstance(node, dict):
        col.error(path, f"expected a family descriptor object, got {node!r}")
        return None
    r = _Reader(node, path, col)
    kind = r.string("type", "checkerboard_family",
                    choices=("checkerboard_family",))
    values = r.number_list("values", min_len=2)
    probability = r.number("probability", 0.5, minimum=0.0, maximum=1.0)
    alpha, beta = _read_bounds(r)
    dim = r.integer("dim", 2, minimum=1)
    flip_node, flip_path = r.object("flip", None)
    r.finish()
    flip = None
    if flip_node is not None:
        flip = _read_rule(col, flip_node, flip_path)
        if flip is not None and flip.type != "power_of_two":
            col.error(flip_path, "flips support only the power_of_two rule")
            flip = None
    if None in (kind, values, probability, alpha, beta, dim):
        return None
    if len(values) != 2:
        col.error(_join(path, "values"), "exactly two cell values required")
        return None
    if any(not alpha <= v <= beta for v in values):
        col.error(_join(path, "values"),
                  f"cell values must lie in [{alpha:g}, {beta:g}]")
        return None
    return CheckerboardFamilySpec((values[0], values[1]), probability,
                                  alpha, beta, dim, flip)


def field_signature(fs: FieldSpec) -> tuple[int, float, float]:
    """(dim, alpha, beta) of the field a descriptor builds."""
    if isinstance(fs, PerturbedField):
        return field_signature(fs.base)
    return fs.dim, fs.alpha, fs.beta


_CELL_SOLVABLE = (ConstantField, PeriodicStepField, TrigField,
                  MatrixConstantField)


def _default_xi(dim: int) -> tuple[float, ...]:
    return (1.0,) + (0.0,) * (dim - 1)


def _read_xi(r: _Reader, dim: int | None, key="xi"):
    if dim is None:
        r.take(key, None)
        return None
    present = r.has(key)
    xi = r.number_list(key, None, min_len=1)
    if xi is None:
        return None if present else _default_xi(dim)
    if len(xi) != dim:
        r.col.error(_join(r.path, key),
                    f"need {dim} components for dim {dim}, got {len(xi)}")
        return None
    if all(v == 0.0 for v in xi):
        r.col.error(_join(r.path, key), "direction must be nonzero")
        return None
    return xi


# ---------------------------------------------------------------------------
# kind parsers

def _parse_cell(r: _Reader) -> CellParams | None:
    field_node, field_path = r.object("field")
    field = _parse_field(r.col, field_node, field_path) if field_node else None
    p = r.number("p", 2.0, minimum=1.0, exclusive_min=True)
    if r.has("resolution") and r.has("resolutions"):
        r.col.error(_join(r.path, "resolutions"),
                    "give either resolution or resolutions, not both")
        r.take("resolution")
        r.take("resolutions")
        resolutions = None
    elif r.has("resolution"):
        single = r.integer("resolution", minimum=2)
        resolutions = (single,) if single is not None else None
    else:
        raw = r.number_list("resolutions", (64.0,), minimum=2.0)
        resolutions = (tuple(int(v) for v in raw)
                       if raw is not None
                       and all(float(v).is_integer() for v in raw) else None)
        if raw is not None and resolutions is None:
            r.col.error(_join(r.path, "resolutions"), "entries must be integers")
    dim = field_signature(field)[0] if field is not None else None
    xi = _read_xi(r, dim)
    if field is not None and not isinstance(field, _CELL_SOLVABLE):
        r.col.error(_join(field_path, "type"),
                    "cell solves need a periodic field (constant, "
                    "periodic_step, trig, or matrix)")
        field = None
    if field is not None and isinstance(field, MatrixConstantField) and p != 2.0:
        r.col.error(_join(r.path, "p"), "matrix coefficients require p = 2")
        return None
    if None in (field, p, xi, resolutions):
        return None
    return CellParams(field, p, xi, resolutions)


def _check_aligned(r: _Reader, key: str, sizes, resolution,
                   resolution_key: str):
    """``sizes`` if every entry times ``resolution`` is a whole number of
    grid cells (the rule of ``numerics.cells_across``); else reports the
    first offending entry and returns None."""
    if sizes is None or resolution is None:
        return sizes
    for i, side in enumerate(sizes):
        try:
            cells_across(side, resolution)
        except ValueError:
            r.col.error(_join(r.path, f"{key}[{i}]"),
                        f"{side:g} times {resolution_key} {resolution} "
                        "must be an integer")
            return None
    return sizes


def _parse_rve(r: _Reader) -> RveParams | None:
    field_node, field_path = r.object("field")
    field = _parse_field(r.col, field_node, field_path) if field_node else None
    p = r.number("p", 2.0, minimum=1.0, exclusive_min=True)
    dim = field_signature(field)[0] if field is not None else None
    xi = _read_xi(r, dim)
    center_present = r.has("center")
    center = r.number_list("center", None, min_len=1)
    if center is None and not center_present and dim is not None:
        center = (0.0,) * dim
    elif center is not None and dim is not None and len(center) != dim:
        r.col.error(_join(r.path, "center"),
                    f"need {dim} coordinates for dim {dim}, got {len(center)}")
        center = None
    windows = r.number_list("windows", (4.0, 8.0, 16.0), minimum=0.0,
                            exclusive_min=True, min_len=3, increasing=True)
    rpu = r.integer("resolution_per_unit", 16, minimum=2)
    if field is not None and isinstance(field, MatrixConstantField) and p != 2.0:
        r.col.error(_join(r.path, "p"), "matrix coefficients require p = 2")
        return None
    windows = _check_aligned(r, "windows", windows, rpu, "resolution_per_unit")
    if None in (field, p, xi, center, windows, rpu):
        return None
    return RveParams(field, p, xi, center, windows, rpu)


def _parse_stability(r: _Reader) -> StabilityParams | None:
    f_node, f_path = r.object("field")
    g_node, g_path = r.object("field_g")
    field = _parse_field(r.col, f_node, f_path) if f_node else None
    field_g = _parse_field(r.col, g_node, g_path) if g_node else None
    p = r.number("p", 2.0, minimum=1.0, exclusive_min=True)
    t_present = r.has("t_list")
    t_list = r.number_list("t_list", None, minimum=0.0, exclusive_min=True)
    if t_list is None and not t_present and p is not None:
        t_list = (1.0,) if p == 2.0 else (1.0, 2.0)
    R_list = r.number_list("R_list", (8.0, 16.0, 32.0, 64.0), minimum=0.0,
                           exclusive_min=True, min_len=3, increasing=True)
    windows_present = r.has("window_sizes")
    window_sizes = r.number_list("window_sizes", None, minimum=0.0,
                                 exclusive_min=True, min_len=3,
                                 increasing=True)
    if window_sizes is None and not windows_present and R_list is not None:
        window_sizes = R_list
    hom_resolution = r.integer("hom_resolution", 64, minimum=2)
    rpu = r.integer("resolution_per_unit", 8, minimum=2)
    statistic_resolution = r.integer("statistic_resolution",
                                     STATISTIC_RESOLUTION, minimum=2)
    label = r.string("label", "")
    R_list = _check_aligned(r, "R_list", R_list, statistic_resolution,
                            "statistic_resolution")
    if windows_present or R_list is not None:
        window_sizes = _check_aligned(
            r, "window_sizes" if windows_present else "R_list", window_sizes,
            rpu, "resolution_per_unit")
    if hom_resolution is not None and hom_resolution % 2:
        r.col.error(_join(r.path, "hom_resolution"),
                    "must be even (the convergence gap needs a "
                    "half-resolution solve)")
        hom_resolution = None
    if field is not None and field_g is not None:
        sig_f, sig_g = field_signature(field), field_signature(field_g)
        if sig_f[0] != sig_g[0]:
            r.col.error(_join(g_path, "dim"),
                        f"field_g has dim {sig_g[0]}, field has dim {sig_f[0]}")
            return None
        if sig_f[1:] != sig_g[1:]:
            r.col.error(_join(g_path, "bounds"),
                        "field and field_g must share alpha/beta")
            return None
    if None in (field, field_g, p, t_list, R_list, window_sizes,
                hom_resolution, rpu, statistic_resolution, label):
        return None
    return StabilityParams(field, field_g, p, t_list, R_list, window_sizes,
                           hom_resolution, rpu, statistic_resolution, label)


def _parse_perforation(r: _Reader) -> PerforationParams | None:
    shape = r.string("shape", "ball", choices=("ball", "square"))
    radius = r.number("radius", 0.25, minimum=0.0)
    removal = r.boolean("removal", False)
    xi = _read_xi(r, 2)
    resolution = r.integer("resolution", 128, minimum=64)
    n_list = r.number_list("n_list", (4.0, 16.0, 64.0, 256.0), minimum=1.0,
                           increasing=True)
    eps_list = r.number_list("eps_list", (), minimum=0.0, exclusive_min=True,
                             min_len=0)
    lam = r.number("lam", 1.0, minimum=0.0, exclusive_min=True)
    box_size = r.number("box_size", 2.0, minimum=0.0, exclusive_min=True)
    lambda_resolution = r.integer("lambda_resolution", 256, minimum=64)
    cell_resolution = r.integer("cell_resolution", 64, minimum=32)
    if radius is not None and radius >= 0.5:
        r.col.error(_join(r.path, "radius"),
                    f"radius must lie in [0, 0.5), got {radius:g}")
        radius = None
    if radius is not None and resolution is not None:
        if radius > 0 and 2.0 * radius * resolution < MIN_CELLS_ACROSS_HOLE:
            r.col.error(_join(r.path, "resolution"),
                        f"resolution {resolution} puts fewer than "
                        f"{MIN_CELLS_ACROSS_HOLE} elements across a hole of "
                        f"diameter {2 * radius:g}")
            resolution = None
    if (radius is not None and eps_list is not None
            and lambda_resolution is not None and radius > 0):
        for i, eps in enumerate(eps_list):
            if eps > 1.0:
                r.col.error(_join(r.path, f"eps_list[{i}]"),
                            "epsilon must lie in (0, 1]")
                eps_list = None
                break
            if 2.0 * radius * eps * lambda_resolution < MIN_CELLS_ACROSS_HOLE:
                r.col.error(_join(r.path, f"eps_list[{i}]"),
                            f"lambda_resolution {lambda_resolution} puts fewer "
                            f"than {MIN_CELLS_ACROSS_HOLE} elements across a "
                            f"hole at eps {eps:g}")
                eps_list = None
                break
    # the lambda problem homogenizes on a cell at cell_resolution
    if (radius is not None and radius > 0 and eps_list and cell_resolution is not None
            and 2.0 * radius * cell_resolution < MIN_CELLS_ACROSS_HOLE):
        r.col.error(_join(r.path, "cell_resolution"),
                    f"cell_resolution {cell_resolution} puts fewer than "
                    f"{MIN_CELLS_ACROSS_HOLE} elements across a hole of "
                    f"diameter {2 * radius:g}")
        cell_resolution = None
    if None in (shape, radius, removal, xi, resolution, n_list, eps_list,
                lam, box_size, lambda_resolution, cell_resolution):
        return None
    return PerforationParams(shape, radius, removal, xi, resolution, n_list,
                             eps_list, lam, box_size, lambda_resolution,
                             cell_resolution)


def _parse_stochastic(r: _Reader) -> StochasticParams | None:
    f_node, f_path = r.object("family")
    g_node, g_path = r.object("family_g")
    family = _parse_family(r.col, f_node, f_path) if f_node else None
    family_g = _parse_family(r.col, g_node, g_path) if g_node else None
    trials = r.integer("trials", 16, minimum=8)
    torus_size = r.integer("torus_size", 32, minimum=2)
    rpu = r.integer("resolution_per_unit", 8, minimum=2)
    sizes = r.number_list("statistic_sizes", (8.0, 16.0, 32.0, 64.0),
                          minimum=0.0, exclusive_min=True, min_len=3,
                          increasing=True)
    sizes = _check_aligned(r, "statistic_sizes", sizes, STATISTIC_RESOLUTION,
                           "the statistic resolution")
    if family is not None and family_g is not None:
        if (family.dim, family.alpha, family.beta) != (
                family_g.dim, family_g.alpha, family_g.beta):
            r.col.error(_join(g_path, "bounds"),
                        "family and family_g must share dim and alpha/beta")
            return None
    if None in (family, family_g, trials, torus_size, rpu, sizes):
        return None
    return StochasticParams(family, family_g, trials, torus_size, rpu, sizes)


def _parse_counterexamples(r: _Reader) -> CounterexamplesParams:
    return CounterexamplesParams()


_KIND_PARSERS = {
    "cell": _parse_cell,
    "rve": _parse_rve,
    "stability": _parse_stability,
    "perforation": _parse_perforation,
    "stochastic": _parse_stochastic,
    "counterexamples": _parse_counterexamples,
}


def _parse_document(text: str, col: _Collector) -> ExperimentSpec | None:
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as e:
        col.error("$", f"not valid JSON: {e}")
        return None
    if not isinstance(tree, dict):
        col.error("$", "the document must be a JSON object")
        return None
    r = _Reader(tree, "", col)
    kind = r.string("kind", choices=KINDS)
    out = r.string("out", "out")
    seed = r.integer("seed", 0, minimum=0)
    if kind is None:
        return None
    params = _KIND_PARSERS[kind](r)
    r.finish()
    if not col.ok or params is None or out is None or seed is None:
        return None
    return ExperimentSpec(kind, out, seed, params)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate one spec document; raises with every violation."""
    col = _Collector()
    spec = _parse_document(text, col)
    if col.violations or spec is None:
        raise SpecValidationError(col.violations
                                  or [SpecError("$", "no spec produced")])
    return spec


def validate_document(text: str) -> list[SpecError]:
    """All schema violations in the document (empty when it is valid)."""
    col = _Collector()
    _parse_document(text, col)
    return list(col.violations)


# ---------------------------------------------------------------------------
# serialization (inverse of parsing; defaults stay explicit)

def _rule_to_tree(rs: RuleSpec) -> dict:
    return {"type": rs.type, _RULE_PARAM[rs.type]: rs.parameter}


def _field_to_tree(fs: FieldSpec) -> dict:
    if isinstance(fs, ConstantField):
        return {"type": "constant", "value": fs.value, "alpha": fs.alpha,
                "beta": fs.beta, "dim": fs.dim}
    if isinstance(fs, PeriodicStepField):
        return {"type": "periodic_step", "subdivisions": fs.subdivisions,
                "values": list(fs.values), "alpha": fs.alpha,
                "beta": fs.beta, "dim": fs.dim}
    if isinstance(fs, RandomCheckerboardField):
        tree = {"type": "random_checkerboard", "values": list(fs.values),
                "probability": fs.probability, "seed": fs.seed,
                "alpha": fs.alpha, "beta": fs.beta, "dim": fs.dim}
        if fs.flip is not None:
            tree["flip"] = _rule_to_tree(fs.flip)
        return tree
    if isinstance(fs, HalfSpaceField):
        return {"type": "half_space", "gamma": fs.gamma, "c": fs.c,
                "alpha": fs.alpha, "beta": fs.beta, "dim": fs.dim}
    if isinstance(fs, TrigField):
        return {"type": "trig", "offset": fs.offset,
                "terms": [[a, list(f), ph] for a, f, ph in fs.terms],
                "alpha": fs.alpha, "beta": fs.beta, "dim": fs.dim}
    if isinstance(fs, MatrixConstantField):
        return {"type": "matrix", "entries": [list(row) for row in fs.entries],
                "alpha": fs.alpha, "beta": fs.beta, "dim": fs.dim}
    if isinstance(fs, PerturbedField):
        return {"type": "perturbed", "base": _field_to_tree(fs.base),
                "rule": _rule_to_tree(fs.rule), "amplitude": fs.amplitude}
    raise TypeError(f"unknown field spec {type(fs).__name__}")


def _family_to_tree(fam: CheckerboardFamilySpec) -> dict:
    tree = {"type": "checkerboard_family", "values": list(fam.values),
            "probability": fam.probability, "alpha": fam.alpha,
            "beta": fam.beta, "dim": fam.dim}
    if fam.flip is not None:
        tree["flip"] = _rule_to_tree(fam.flip)
    return tree


def _params_to_tree(params: Params) -> dict:
    if isinstance(params, CellParams):
        return {"field": _field_to_tree(params.field), "p": params.p,
                "xi": list(params.xi),
                "resolutions": list(params.resolutions)}
    if isinstance(params, RveParams):
        return {"field": _field_to_tree(params.field), "p": params.p,
                "xi": list(params.xi), "center": list(params.center),
                "windows": list(params.windows),
                "resolution_per_unit": params.resolution_per_unit}
    if isinstance(params, StabilityParams):
        return {"field": _field_to_tree(params.field),
                "field_g": _field_to_tree(params.field_g), "p": params.p,
                "t_list": list(params.t_list), "R_list": list(params.R_list),
                "window_sizes": list(params.window_sizes),
                "hom_resolution": params.hom_resolution,
                "resolution_per_unit": params.resolution_per_unit,
                "statistic_resolution": params.statistic_resolution,
                "label": params.label}
    if isinstance(params, PerforationParams):
        return {"shape": params.shape, "radius": params.radius,
                "removal": params.removal, "xi": list(params.xi),
                "resolution": params.resolution,
                "n_list": list(params.n_list),
                "eps_list": list(params.eps_list), "lam": params.lam,
                "box_size": params.box_size,
                "lambda_resolution": params.lambda_resolution,
                "cell_resolution": params.cell_resolution}
    if isinstance(params, StochasticParams):
        return {"family": _family_to_tree(params.family),
                "family_g": _family_to_tree(params.family_g),
                "trials": params.trials, "torus_size": params.torus_size,
                "resolution_per_unit": params.resolution_per_unit,
                "statistic_sizes": list(params.statistic_sizes)}
    if isinstance(params, CounterexamplesParams):
        return {}
    raise TypeError(f"unknown params {type(params).__name__}")


def serialize_spec(spec: ExperimentSpec) -> str:
    tree = {"kind": spec.kind, "out": spec.out, "seed": spec.seed}
    tree.update(_params_to_tree(spec.params))
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# builders (validated descriptors -> field objects)

def build_rule(rs: RuleSpec):
    if rs.type == "power_of_two":
        return PowerOfTwoCells(rs.parameter)
    if rs.type == "ball":
        return BallSupport(rs.parameter)
    return LpDecay(rs.parameter)


def build_scalar_field(fs: FieldSpec):
    if isinstance(fs, PerturbedField):
        return Perturbed(build_scalar_field(fs.base), build_rule(fs.rule),
                         fs.amplitude)
    if isinstance(fs, MatrixConstantField):
        raise TypeError("a matrix descriptor does not build a scalar field")
    bounds = FieldBounds(fs.alpha, fs.beta)
    if isinstance(fs, ConstantField):
        return Constant(fs.value, bounds, fs.dim)
    if isinstance(fs, PeriodicStepField):
        return PeriodicStep(fs.subdivisions, fs.values, bounds, dim=fs.dim)
    if isinstance(fs, RandomCheckerboardField):
        flip = build_rule(fs.flip) if fs.flip is not None else None
        return RandomCheckerboard(fs.values, fs.probability, fs.seed, bounds,
                                  dim=fs.dim, flip_cells=flip)
    if isinstance(fs, HalfSpaceField):
        return HalfSpaceStep(fs.gamma, fs.c, bounds, fs.dim)
    if isinstance(fs, TrigField):
        return TrigPolynomialClamped(fs.offset, fs.terms, bounds, fs.dim)
    raise TypeError(f"unknown field spec {type(fs).__name__}")


def build_density(fs: FieldSpec, p: float):
    if isinstance(fs, MatrixConstantField):
        if p != 2.0:
            raise ValueError("matrix coefficients require p = 2")
        mat = constant_matrix(np.asarray(fs.entries),
                              FieldBounds(fs.alpha, fs.beta), fs.dim)
        return QuadraticMatrix(mat)
    coeff = build_scalar_field(fs)
    if p == 2.0:
        return QuadraticIsotropic(coeff)
    return PPower(coeff, p)


def build_family(fam: CheckerboardFamilySpec) -> CheckerboardFamily:
    flip = build_rule(fam.flip) if fam.flip is not None else None
    return CheckerboardFamily(fam.values, fam.probability,
                              FieldBounds(fam.alpha, fam.beta), dim=fam.dim,
                              flip_cells=flip)


def build_perforation(params: PerforationParams) -> PerforationSet:
    perturbation = SparseRemoval() if params.removal else None
    return PerforationSet(params.shape, params.radius, perturbation)
