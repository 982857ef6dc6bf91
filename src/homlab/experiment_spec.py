"""Experiment descriptions as a validated JSON document.

A spec file holds one JSON object.  ``kind`` selects the experiment; the
remaining keys are field descriptors and numeric parameters.  One schema
table, ``_ROWS``, drives parsing, validation, serialization and building.
It has one row per kind, field type, rule and family.  A row maps each of
its keys to a reader and a default, lists the row's cross-key checks, and
(for fields, rules and families) names the ``fields.py`` constructor.

One walker reads a node against its row: it fills every default, flags
unknown keys and reports *all* problems at once, each tagged with the path
of the offending key.  The parsed spec holds that normalized tree (nested
dicts, list keys as tuples), so :func:`serialize_spec` dumps it as is and
round-trips losslessly, and the builders look up the constructor in the
same row.

Checks and constructors name the keys they read as parameters.  One runs
only when those keys are valid.  A ``ValueError`` it raises (often the
library's own rule, such as a constructor's bounds check) becomes a
violation at its first key, or at the path a ``_Bad`` names, and marks the
keys it read invalid so that checks depending on them stay quiet.
Validation builds the fields and calls the runs' own preconditions (1D or
2D grids, ``cell.torus_grid``, ``stability.check_hom_resolution``,
``perforation.lambda_box_grid``, window, hole and flip resolution), so a
spec that parses does not fail inside a run for a reason the schema could
catch. The ``perforation`` and ``stability`` rules are imported by the
checks that call them, so validating a spec of another kind loads neither.
"""

from __future__ import annotations

import inspect
import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .cell import is_periodic, torus_grid
from .fields import (BallSupport, CheckerboardFamily, Constant,
                     EnergyDensity, FieldBounds, HalfSpaceStep, LpDecay,
                     PeriodicStep, Perturbed, PowerOfTwoCells,
                     RandomCheckerboard, STATISTIC_RESOLUTION,
                     TrigPolynomialClamped, constant_matrix)
from .numerics import MAX_DIM, cells_across, nearest_integer
from .rve import MIN_WINDOW_CELLS

if TYPE_CHECKING:
    from .perforation import PerforationSet

__all__ = [
    "SpecError", "SpecValidationError", "ExperimentSpec",
    "parse_spec", "validate_document", "serialize_spec",
    "build_density", "build_family", "build_perforation",
]

KINDS = ("cell", "rve", "stability", "perforation", "stochastic",
         "counterexamples")


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


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated document.  ``params`` is the normalized tree of the
    kind's keys: every default filled, lists as tuples, fields as dicts."""

    kind: str
    out: str
    params: dict


# ---------------------------------------------------------------------------
# the walker

_REQUIRED = object()


class _Collector(list):
    def error(self, path: str, message: str):
        """Records a violation; returns None, the value of a bad key."""
        self.append(SpecError(path, message))


class _Bad(ValueError):
    """A check's violation at an explicit path below the node."""

    def __init__(self, where: str, message: str):
        super().__init__(message)
        self.where = where


class _Row(NamedTuple):
    keys: dict                      # name -> (reader, default)
    checks: tuple = ()              # cross-key rules, run in order
    build: Callable | None = None   # fields.py constructor over the keys
    aliases: tuple = ()             # (short, key): short: x is key: [x]


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _call(fn, n: dict):
    """``fn`` applied to the keys of ``n`` it names; None if one is invalid."""
    args = {k: n[k] for k in inspect.signature(fn).parameters if k in n}
    if any(v is None for v in args.values()):
        return None
    return fn(**args)


def _walk(raw: dict, path: str, col: _Collector, types, type_key="type",
          type_default=_REQUIRED) -> dict | None:
    """Read one node against the row its type selects; the normalized
    node, or None when anything in it is invalid."""
    data = {k: v for k, v in raw.items() if v is not None}  # null = absent
    kind = data.pop(type_key, type_default)
    if kind is _REQUIRED:
        return col.error(_join(path, type_key), "required key is missing")
    if kind not in types:
        return col.error(_join(path, type_key), f"expected one of "
                         f"{', '.join(types)}; got {_excerpt(kind)}")
    row = _ROWS[kind]
    for short, key in row.aliases:
        if short in data and key in data:
            col.error(_join(path, key), f"give either {short} or {key}, "
                                        "not both")
        if short in data:
            data[key] = [data.pop(short)]
    n = {type_key: kind}
    for name, (read, default) in row.keys.items():
        if name in data:
            n[name] = read(data.pop(name), _join(path, name), col)
        elif default is _REQUIRED:
            n[name] = col.error(_join(path, name), "required key is missing")
        elif default is not None:  # a None default leaves the key out
            n[name] = _call(default, n) if callable(default) else default
    for key in sorted(data):
        col.error(_join(path, key), "unknown key")
    for check in row.checks + ((row.build,) if row.build else ()):
        try:
            _call(check, n)
        except ValueError as e:
            names = list(inspect.signature(check).parameters)
            col.error(_join(path, getattr(e, "where", names[0])), str(e))
            n.update(dict.fromkeys(k for k in names if k in n))
    return None if None in n.values() else n


# ---------------------------------------------------------------------------
# readers: (raw JSON value, path, collector) -> normalized value or None

_LIMITS = {"gt": (">", operator.gt), "ge": (">=", operator.ge),
           "lt": ("<", operator.lt), "le": ("<=", operator.le)}


def _is_number(v) -> bool:
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):  # not a number, or beyond a float
        return False


def _excerpt(v, width: int = 40) -> str:
    """``repr(v)``, or its two ends and its length when longer than ``width``."""
    text = repr(v)
    if len(text) <= width:
        return text
    return f"{text[:width - 12]}...{text[-8:]} ({len(text)} characters)"


def _not_a_number(raw, path: str, col: _Collector, expected: str):
    """The error for a ``raw`` that ``_is_number`` rejects: an integer beyond
    the float range is out of range, anything else is not ``expected``."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return col.error(path, f"value out of range (beyond "
                               f"{sys.float_info.max:.4g} in magnitude), "
                               f"got {_excerpt(raw)}")
    return col.error(path, f"expected {expected}, got {_excerpt(raw)}")


def _within(v, path: str, col: _Collector, limits: dict):
    for name, bound in limits.items():
        symbol, holds = _LIMITS[name]
        if not holds(v, bound):
            return col.error(path, f"value must be {symbol} {bound}, got {v}")
    return v


def _number(default=_REQUIRED, **limits):
    def read(raw, path, col):
        if not _is_number(raw):
            return _not_a_number(raw, path, col, "a finite number")
        return _within(float(raw), path, col, limits)
    return read, default


def _integer(default=_REQUIRED, **limits):
    def read(raw, path, col):
        if not _is_number(raw):
            return _not_a_number(raw, path, col, "an integer")
        if not float(raw).is_integer():
            return col.error(path, f"expected an integer, got {_excerpt(raw)}")
        return _within(int(raw), path, col, limits)
    return read, default


def _string(default=_REQUIRED, choices=None):
    def read(raw, path, col):
        if not isinstance(raw, str):
            return col.error(path, f"expected a string, got {_excerpt(raw)}")
        if choices is not None and raw not in choices:
            return col.error(path, f"expected one of {', '.join(choices)}; "
                                   f"got {_excerpt(raw)}")
        return raw
    return read, default


def _boolean(default=_REQUIRED):
    def read(raw, path, col):
        if not isinstance(raw, bool):
            return col.error(path, f"expected true/false, got {_excerpt(raw)}")
        return raw
    return read, default


def _number_list(default=_REQUIRED, min_len=1, increasing=False,
                 integer=False, **limits):
    entry, _ = (_integer if integer else _number)(**limits)

    def read(raw, path, col):
        if not isinstance(raw, list):
            return col.error(path, f"expected a list of numbers, got {_excerpt(raw)}")
        if len(raw) < min_len:
            return col.error(path, f"need at least {min_len} entries, "
                                   f"got {len(raw)}")
        out = [entry(v, f"{path}[{i}]", col) for i, v in enumerate(raw)]
        if None in out:
            return None
        if increasing and any(b <= a for a, b in zip(out, out[1:])):
            return col.error(path, "entries must be strictly increasing")
        return tuple(out)
    return read, default


def _node(types, default=_REQUIRED, type_default=_REQUIRED):
    """A nested field, rule or family: an object whose type is in ``types``."""
    def read(raw, path, col):
        if not isinstance(raw, dict):
            return col.error(path, f"expected an object, got {_excerpt(raw)}")
        return _walk(raw, path, col, types, "type", type_default)
    return read, default


def _trig_terms(raw, path, col):
    if not isinstance(raw, list) or not raw:
        return col.error(path, "expected a non-empty list of [amplitude, "
                               "frequencies, phase] triples")
    for i, t in enumerate(raw):
        if not (isinstance(t, list) and len(t) == 3 and isinstance(t[1], list)
                and all(map(_is_number, [t[0], *t[1], t[2]]))):
            return col.error(f"{path}[{i}]",
                             "expected [amplitude, [frequencies...], phase]")
    return tuple((float(a), tuple(map(float, f)), float(ph))
                 for a, f, ph in raw)


def _matrix_entries(raw, path, col):
    if not (isinstance(raw, list) and raw
            and all(isinstance(row, list) and len(row) == len(raw)
                    and all(map(_is_number, row)) for row in raw)):
        return col.error(path, "expected a square array of finite numbers")
    return tuple(tuple(map(float, row)) for row in raw)


# ---------------------------------------------------------------------------
# cross-key checks (parameters name the keys they read)

def _bounds(alpha, beta):
    try:
        FieldBounds(alpha, beta)
    except ValueError as e:
        raise _Bad("bounds", str(e)) from None


def _cell_values(values, alpha, beta):
    if len(values) != 2:
        raise ValueError("exactly two cell values required")
    if any(not alpha <= v <= beta for v in values):
        raise ValueError(f"cell values must lie in [{alpha:g}, {beta:g}]")


def _trig_shape(terms, dim):
    for i, (_, freq, _) in enumerate(terms):
        if len(freq) != dim:
            raise _Bad(f"terms[{i}]", f"need {dim} frequencies for dim {dim}, "
                                      f"got {len(freq)}")


def _axes(values, dim: int, what: str):
    if len(values) != dim:
        raise ValueError(f"need {dim} {what} for dim {dim}, got {len(values)}")


def _direction(xi, dim: int):
    _axes(xi, dim, "components")
    if not any(xi):
        raise ValueError("direction must be nonzero")


def _xi(xi, field):
    _direction(xi, _build(field).dim)


def _center(center, field):
    _axes(center, _build(field).dim, "coordinates")


def _density(p, field):
    build_density(field, p)


def _cells(key: str, sizes, resolution: int, name: str, minimum: int = 1):
    """Every side in ``sizes`` spans a whole number of grid cells at
    ``resolution`` (``numerics.cells_across``), and at least ``minimum``."""
    for i, side in enumerate(sizes):
        try:
            n = cells_across(side, resolution)
        except ValueError:
            raise _Bad(f"{key}[{i}]", f"{side:g} times {name} {resolution} "
                                      "must be an integer") from None
        if n < minimum:
            raise _Bad(f"{key}[{i}]", f"window {side:g} needs at least "
                                      f"{minimum} cells per axis at {name} "
                                      f"{resolution}, got {n}")


def _cell_solvable(resolutions, field, p):
    """``cell``'s own precondition: ``cell.torus_grid`` at every resolution."""
    coeff = build_density(field, p).coeff
    try:
        for resolution in resolutions:
            torus_grid(coeff, resolution)
    except ValueError as e:
        if is_periodic(coeff):
            raise
        raise _Bad("field.type", f"cell solves need a periodic field: {e}"
                   ) from None


def _pair(p, field, field_g):
    f, g = build_density(field, p), build_density(field_g, p)
    if f.dim != g.dim:
        raise _Bad("field_g.dim", f"field_g has dim {g.dim}, field has dim "
                                  f"{f.dim}")
    if f.bounds != g.bounds:
        raise _Bad("field_g.bounds", "field and field_g must share alpha/beta")
    if f.is_matrix != g.is_matrix:
        raise _Bad("field_g.type", "field and field_g must both be matrix "
                                   "or both be scalar fields")


def _hom_solvable(hom_resolution, field, field_g, p):
    """A periodic density of the pair is cell-solved at hom_resolution and
    half of it, with the checks ``run_stability_pair`` makes, in its order."""
    from .stability import check_hom_resolution

    for node in (field, field_g):
        coeff = build_density(node, p).coeff
        if is_periodic(coeff):
            check_hom_resolution(hom_resolution)
            for resolution in (hom_resolution, hom_resolution // 2):
                torus_grid(coeff, resolution)


def _lambda_holes(eps_list, radius, lambda_resolution):
    from .perforation import check_hole_resolution

    for i, eps in enumerate(eps_list):
        try:
            check_hole_resolution(radius * eps, lambda_resolution,
                                  "lambda_resolution")
        except ValueError as e:
            raise _Bad(f"eps_list[{i}]", f"{e} at eps {eps:g}") from None


def _check_hole_cell(resolution: int, name: str, shape, radius, removal):
    """``perforation.check_hole_cell`` for the spec's holes at
    ``resolution``, which ``name`` labels."""
    from .perforation import check_hole_cell

    check_hole_cell(build_perforation({"shape": shape, "radius": radius,
                                       "removal": removal}), resolution, name)


def _holes(resolution, shape, radius, removal):
    # the masked and penalized cell solves run on a cell at resolution
    _check_hole_cell(resolution, "resolution", shape, radius, removal)


def _cell_holes(cell_resolution, shape, radius, removal, eps_list):
    # the lambda problem homogenizes on a cell at cell_resolution
    if eps_list:
        _check_hole_cell(cell_resolution, "cell_resolution", shape, radius,
                         removal)


def _lambda_box(box_size, lambda_resolution, eps_list):
    # the lambda problem solves on perforation.lambda_box_grid
    from .perforation import lambda_box_grid

    if eps_list:
        if nearest_integer(box_size * lambda_resolution) is None:
            raise ValueError(f"{box_size:g} times lambda_resolution "
                             f"{lambda_resolution} must be an integer")
        lambda_box_grid(box_size, lambda_resolution)


def _flip_aligned(family, family_g, resolution_per_unit):
    from .stability import check_flip_alignment

    for key, node in (("family", family), ("family_g", family_g)):
        try:
            check_flip_alignment(_build(node), resolution_per_unit)
        except ValueError as e:
            raise _Bad(f"{key}.flip.width", str(e)) from None


def _same_families(family_g, family):
    if any(family[k] != family_g[k] for k in ("dim", "alpha", "beta")):
        raise _Bad("family_g.bounds",
                   "family and family_g must share dim and alpha/beta")


# ---------------------------------------------------------------------------
# the schema table

_SCALAR = ("constant", "periodic_step", "random_checkerboard", "half_space",
           "trig", "perturbed")
_FIELD = _SCALAR + ("matrix",)
_RULES = ("power_of_two", "ball", "lp_decay")

_BOUNDS = {"alpha": _number(1.0, gt=0.0), "beta": _number(4.0, gt=0.0)}
_CHECKERBOARD = {"values": _number_list(min_len=2),
                 "probability": _number(0.5, ge=0.0, le=1.0), **_BOUNDS,
                 "dim": _integer(2, ge=1, le=MAX_DIM),
                 "flip": _node(("power_of_two",), default=None)}
_COMMON = {"out": _string("out")}
_FIELD_KEYS = {"field": _node(_FIELD), "p": _number(2.0, gt=1.0),
               "xi": _number_list(lambda field: (1.0,) + (0.0,) * (
                   _build(field).dim - 1))}
_FAMILY = _node(("checkerboard_family",), type_default="checkerboard_family")


_ROWS = {
    # fields: a ValueError from the constructor lands at its first key
    "constant": _Row(
        {"value": _number(), **_BOUNDS, "dim": _integer(1, ge=1, le=MAX_DIM)},
        (_bounds,),
        lambda value, alpha, beta, dim: Constant(
            value, FieldBounds(alpha, beta), dim)),
    "periodic_step": _Row(
        {"subdivisions": _integer(ge=1), "values": _number_list(), **_BOUNDS,
         "dim": _integer(2, ge=1, le=MAX_DIM)},
        (_bounds,),
        lambda values, subdivisions, alpha, beta, dim: PeriodicStep(
            subdivisions, values, FieldBounds(alpha, beta), dim=dim)),
    "random_checkerboard": _Row(
        {**_CHECKERBOARD, "seed": _integer(0, ge=0)},
        (_bounds, _cell_values),
        lambda values, probability, seed, alpha, beta, dim, flip=None:
            RandomCheckerboard(values, probability, seed,
                               FieldBounds(alpha, beta), dim=dim,
                               flip_cells=_build(flip))),
    "half_space": _Row(
        {"gamma": _number(), "c": _number(), **_BOUNDS,
         "dim": _integer(1, ge=1, le=MAX_DIM)},
        (_bounds,),
        lambda gamma, c, alpha, beta, dim: HalfSpaceStep(
            gamma, c, FieldBounds(alpha, beta), dim)),
    "trig": _Row(
        {"offset": _number(), "terms": (_trig_terms, _REQUIRED), **_BOUNDS,
         "dim": _integer(1, ge=1, le=MAX_DIM)},
        (_bounds, _trig_shape),
        lambda terms, offset, alpha, beta, dim: TrigPolynomialClamped(
            offset, terms, FieldBounds(alpha, beta), dim)),
    "matrix": _Row(
        {"entries": (_matrix_entries, _REQUIRED), **_BOUNDS,
         "dim": _integer(2, ge=1, le=MAX_DIM)},
        (_bounds,),
        lambda entries, alpha, beta, dim: constant_matrix(
            entries, FieldBounds(alpha, beta), dim)),
    "perturbed": _Row(
        {"base": _node(_SCALAR), "rule": _node(_RULES),
         "amplitude": _number()},
        build=lambda amplitude, base, rule: Perturbed(
            _build(base), _build(rule), amplitude)),
    # rules
    "power_of_two": _Row({"width": _number(1.0, gt=0.0, le=1.0)},
                         build=PowerOfTwoCells),
    "ball": _Row({"radius": _number(1.0, gt=0.0)}, build=BallSupport),
    "lp_decay": _Row({"exponent": _number(1.0, gt=0.0)}, build=LpDecay),
    # the stochastic family: a random_checkerboard without a seed
    "checkerboard_family": _Row(
        _CHECKERBOARD, (_bounds, _cell_values),
        lambda values, probability, alpha, beta, dim, flip=None:
            CheckerboardFamily(values, probability, FieldBounds(alpha, beta),
                               dim=dim, flip_cells=_build(flip))),
    # kinds
    "cell": _Row(
        {**_COMMON, **_FIELD_KEYS,
         "resolutions": _number_list((64,), ge=2, integer=True)},
        (_xi, _density, _cell_solvable),
        aliases=(("resolution", "resolutions"),)),
    "rve": _Row(
        {**_COMMON, **_FIELD_KEYS,
         "center": _number_list(lambda field: (0.0,) * _build(field).dim),
         "windows": _number_list((4.0, 8.0, 16.0), min_len=3,
                                 increasing=True, gt=0.0),
         "resolution_per_unit": _integer(16, ge=2)},
        (_xi, _center, _density,
         lambda windows, resolution_per_unit: _cells(
             "windows", windows, resolution_per_unit, "resolution_per_unit",
             MIN_WINDOW_CELLS))),
    "stability": _Row(
        {**_COMMON, "field": _node(_FIELD), "field_g": _node(_FIELD),
         "p": _number(2.0, gt=1.0),
         "t_list": _number_list(lambda p: (1.0,) if p == 2.0 else (1.0, 2.0),
                                gt=0.0),
         "R_list": _number_list((8.0, 16.0, 32.0, 64.0), min_len=3,
                                increasing=True, gt=0.0),
         "window_sizes": _number_list(lambda R_list: R_list, min_len=3,
                                      increasing=True, gt=0.0),
         "hom_resolution": _integer(64, ge=2),
         "resolution_per_unit": _integer(8, ge=2),
         "statistic_resolution": _integer(STATISTIC_RESOLUTION, ge=2),
         "label": _string("")},
        (_pair,
         lambda R_list, statistic_resolution: _cells(
             "R_list", R_list, statistic_resolution, "statistic_resolution"),
         # R_list too: a defaulted window_sizes is R_list, checked above
         lambda window_sizes, resolution_per_unit, R_list: _cells(
             "window_sizes", window_sizes, resolution_per_unit,
             "resolution_per_unit", MIN_WINDOW_CELLS),
         _hom_solvable)),
    "perforation": _Row(
        {**_COMMON, "shape": _string("ball", ("ball", "square")),
         "radius": _number(0.25, ge=0.0, lt=0.5),
         "removal": _boolean(False),
         "xi": _number_list((1.0, 0.0)),
         "resolution": _integer(128, ge=64),
         "n_list": _number_list((4.0, 16.0, 64.0, 256.0), increasing=True,
                                ge=1.0),
         "eps_list": _number_list((), min_len=0, gt=0.0, le=1.0),
         "lam": _number(1.0, gt=0.0),
         "box_size": _number(2.0, gt=0.0),
         "lambda_resolution": _integer(256, ge=64),
         "cell_resolution": _integer(64, ge=32)},
        (lambda xi: _direction(xi, 2),
         _holes, _lambda_holes, _cell_holes, _lambda_box)),
    "stochastic": _Row(
        {**_COMMON, "seed": _integer(0, ge=0),
         "family": _FAMILY, "family_g": _FAMILY,
         "trials": _integer(16, ge=8),
         "torus_size": _integer(32, ge=2),
         "resolution_per_unit": _integer(8, ge=2),
         "statistic_sizes": _number_list((8.0, 16.0, 32.0, 64.0), min_len=3,
                                         increasing=True, gt=0.0)},
        (lambda statistic_sizes: _cells(
            "statistic_sizes", statistic_sizes, STATISTIC_RESOLUTION,
            "the statistic resolution"),
         _same_families, _flip_aligned)),
    "counterexamples": _Row(_COMMON),
}


# ---------------------------------------------------------------------------
# entry points

def _parse_document(text: str, col: _Collector) -> ExperimentSpec | None:
    try:
        tree = json.loads(text)
    except ValueError as e:
        return col.error("$", f"not valid JSON: {e}")
    if not isinstance(tree, dict):
        return col.error("$", "the document must be a JSON object")
    params = _walk(tree, "", col, KINDS, "kind")
    if params is None or col:
        return None
    return ExperimentSpec(params.pop("kind"), params.pop("out"), params)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate one spec document; raises with every violation."""
    col = _Collector()
    spec = _parse_document(text, col)
    if spec is None:
        raise SpecValidationError(col or [SpecError("$", "no spec produced")])
    return spec


def validate_document(text: str) -> list[SpecError]:
    """All schema violations in the document (empty when it is valid)."""
    col = _Collector()
    _parse_document(text, col)
    return list(col)


def serialize_spec(spec: ExperimentSpec) -> str:
    """The normalized document, defaults explicit; parses back to ``spec``."""
    tree = {"kind": spec.kind, "out": spec.out, **spec.params}
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def _build(node: dict | None):
    """The ``fields.py`` object a validated field, rule or family node
    describes, from the constructor in its row (None for no node)."""
    return None if node is None else _call(_ROWS[node["type"]].build, node)


def build_density(field: dict, p: float) -> EnergyDensity:
    return EnergyDensity(_build(field), p)


def build_family(family: dict) -> CheckerboardFamily:
    return _build(family)


def build_perforation(params: dict) -> PerforationSet:
    from .perforation import PerforationSet, SparseRemoval

    perturbation = SparseRemoval() if params["removal"] else None
    return PerforationSet(params["shape"], params["radius"], perturbation)
