"""Boundary tests of the soundness-guard table in ``numerics``: each row's
guard passes a defect placed at half the allowed value under the row's own
scale rule, fires at twice it and fires on a NaN or an infinite entry. A
looser tolerance, a changed scale rule or a pass condition that lets a NaN
or an infinity through fails here.

Rows covered, every row of the table: ``SYMMETRY_RTOL``, through
``SparseSystem`` on the stencil table of the matrix's pattern;
``FIELD_BOUNDS_ATOL``, through ``fields.eval_scalar`` and both ends of
``fields.constant_matrix``; ``HOM_SYMMETRY_RTOL`` and ``HOM_EIGEN_RTOL``,
through ``cell.HomogenizedResult``; ``PAIRING_RTOL``, through
``numerics.corrector_response``; ``GROWTH_RTOL``, through
``numerics.check_growth`` and, for exit 3, through a ``cell`` run;
``HOMOGENEITY_RTOL``, through ``stability.run_stability_pair``. Where a
row's scale has a floor (max(..., 1) or 1e-300), a case sits on each side
of it."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from homlab import numerics
from homlab.cell import HomogenizedResult
from homlab.fields import FieldBounds, ScalarField, constant_matrix, eval_scalar
from homlab.numerics import BOX, TORUS, GuardError, SparseSystem, build_grid, element_ops


def test_symmetry_row_is_pinned():
    assert numerics.SYMMETRY_RTOL == 1e-12


def test_growth_and_homogeneity_rows_are_pinned():
    assert numerics.GROWTH_RTOL == 1e-9
    assert numerics.HOMOGENEITY_RTOL == 1e-12


def test_field_homogenized_and_pairing_rows_are_pinned():
    assert numerics.FIELD_BOUNDS_ATOL == 1e-12
    assert numerics.HOM_SYMMETRY_RTOL == 1e-8
    assert numerics.HOM_EIGEN_RTOL == 1e-9
    assert numerics.PAIRING_RTOL == 1e-8


def _unknowns(g, case):
    """Sorted node ids: every node, the interior of a box, or the interior
    (every node on a torus) with every fifth node from node 1 dropped, which
    leaves rows with a partial stencil and keeps a torus's node 0."""
    free = np.ones(g.n_nodes, dtype=bool) if g.topology == TORUS else ~g.boundary_node_mask()
    if case == "masked":
        free[1::5] = False
    return np.flatnonzero(free)


def _block(ops, case, unknowns):
    """The pattern of every node for ``case`` "all", else the grid block
    and the block positions of ``unknowns`` (None when they fill it)."""
    if case == "all":
        return ops.pattern, None
    return ops.block_pattern, numerics._block_positions(ops.grid, unknowns)


def _between_unknowns(pattern, positions):
    """Per slot: whether its row and its column are both unknowns and
    differ, an off-diagonal entry the solve reads."""
    row = np.repeat(np.arange(len(pattern.indptr) - 1), np.diff(pattern.indptr))
    off = row != pattern.indices
    if positions is None:
        return off
    return off & np.isin(row, positions) & np.isin(pattern.indices, positions)


def _centre_slots(pattern):
    """Each row's slot in the centre offset class, its diagonal entry:
    class 1 on every axis, of 3 (or 2 on a 2-node torus axis)."""
    width = int(pattern.indptr[1])
    classes = 2 if width == len(pattern.incidence) else 3
    return np.arange(len(pattern.indptr) - 1) * width + (width - 1) // (classes - 1)


def _message(K):
    """The guard's message for ``K``, from scipy's max|K - K^T| and max|K|."""
    worst = abs(K - K.T).max()
    scale = np.abs(K.data).max()
    return (f"matrix declared symmetric but |M - M^T|_max = {worst:.3e} "
            f"exceeds {numerics.SYMMETRY_RTOL:.0e} * |M|_max = "
            f"{numerics.SYMMETRY_RTOL * scale:.3e}")


def _checked(K, pattern, positions=None):
    """``SparseSystem`` declared symmetric, on the stencil table of
    ``pattern``, with its unknowns at ``positions``."""
    return SparseSystem(K, symmetric=True, pattern=pattern, positions=positions)


def _held(K, pattern, positions):
    """``K`` as a system with its unknowns at ``positions`` holds it: the
    rows and columns of the other block nodes set to 0."""
    return SparseSystem(K, symmetric=False, pattern=pattern, positions=positions).matrix


_CASES = [(2, TORUS, 8, "all"), (2, TORUS, 2, "all"), (2, BOX, 8, "interior"),
          (2, BOX, 9, "masked"), (2, TORUS, 9, "masked"), (1, TORUS, 2, "all"),
          (1, TORUS, 7, "all"), (1, BOX, 7, "interior"), (1, BOX, 9, "masked")]


@pytest.mark.parametrize("slab", ["default", "one row", "two lines", "whole table"])
@pytest.mark.parametrize("dim, topology, n, case", _CASES)
def test_symmetry_guard_fires_at_its_bound(monkeypatch, slab, dim, topology, n, case):
    """A defect of 0.5x SYMMETRY_RTOL * max|M| passes, 2x raises ValueError
    with the exact message and a NaN raises, on the pattern's table. In 2D the defect comes from a skewed matrix coefficient
    on one element whose corners are all unknowns, on a torus the last of
    the first row, whose columns wrap; in 1D, where a 1x1 coefficient
    cannot be skewed, from the first off-diagonal entry between unknowns,
    in the first unknown's row (a wrapped column on a torus), perturbed
    after assembly."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    unknowns = _unknowns(g, case)
    pattern, positions = _block(ops, case, unknowns)
    line = pattern.side ** (dim - 1)
    rows = {"default": numerics._SLAB_ROWS, "one row": 1, "two lines": 2 * line,
            "whole table": pattern.side ** dim}[slab]
    monkeypatch.setattr(numerics, "_SLAB_ROWS", rows)
    rng = np.random.default_rng(10 * dim + n)
    m = rng.uniform(-1.0, 1.0, (g.n_elements, dim, dim))
    sym = m + m.transpose(0, 2, 1) + 3.0 * np.eye(dim)
    K = _held(ops.assemble_stiffness(sym, pattern=pattern), pattern, positions)
    allowed = numerics.SYMMETRY_RTOL * np.abs(K.data).max()
    if dim == 2:
        nodes = g.element_nodes()
        element = next(e for e in [n - 1] + list(range(g.n_elements))
                       if np.isin(nodes[e], unknowns).all())
        assert topology == BOX or element == n - 1
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        unit = np.zeros_like(sym)
        unit[element] = skew
        unit = _held(ops.assemble_stiffness(unit, pattern=pattern), pattern, positions)
        unit = abs(unit - unit.T).max()       # the defect of a unit skew

        def defective(factor):
            coeff = sym.copy()
            coeff[element] += factor * allowed / unit * skew
            return _held(ops.assemble_stiffness(coeff, pattern=pattern), pattern, positions)
    else:
        slot = np.flatnonzero(_between_unknowns(pattern, positions))[0]
        first_row = 0 if positions is None else positions[0]
        assert slot // len(pattern.incidence[0, 0]) == first_row
        assert topology == BOX or pattern.indices[slot] == n - 1

        def defective(factor):
            data = K.data.copy()
            data[slot] += factor * allowed
            return pattern.matrix(data)

    near, far = defective(0.5), defective(2.0)
    for mat, lo, hi in ((near, 0.45, 0.55), (far, 1.8, 2.2)):
        placed = abs(mat - mat.T).max() / (numerics.SYMMETRY_RTOL * np.abs(mat.data).max())
        assert lo <= placed <= hi
    nan = defective(np.nan)
    _checked(near, pattern, positions)
    with pytest.raises(ValueError) as raised:
        _checked(far, pattern, positions)
    assert str(raised.value) == _message(far)
    with pytest.raises(ValueError, match="declared symmetric"):
        _checked(nan, pattern, positions)


@pytest.mark.parametrize("dim, topology, n, case", _CASES)
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_symmetry_guard_fires_on_a_non_finite_diagonal(dim, topology, n, case, value):
    """An infinite or NaN diagonal entry, the only one not finite, fires
    with |M - M^T|_max = nan, since x - x is NaN there: the table check
    reads the centre class whenever an entry is not finite."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    pattern, positions = _block(ops, case, _unknowns(g, case))
    data = ops.assemble_mass(pattern=pattern).data.copy()
    data[_centre_slots(pattern)[-1 if positions is None else positions[-1]]] = value
    K = pattern.matrix(data)
    with pytest.raises(ValueError) as raised, np.errstate(invalid="ignore"):
        _checked(K, pattern, positions)
    assert str(raised.value) == (
        f"matrix declared symmetric but |M - M^T|_max = nan exceeds "
        f"{numerics.SYMMETRY_RTOL:.0e} * |M|_max = {numerics.SYMMETRY_RTOL * value:.3e}")


_INF_MESSAGE = (f"matrix declared symmetric but |M - M^T|_max = inf exceeds "
                f"{numerics.SYMMETRY_RTOL:.0e} * |M|_max = inf")


@pytest.mark.parametrize("dim, topology, n, case", _CASES)
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_symmetry_guard_fires_on_an_infinite_off_diagonal(dim, topology, n, case, value):
    """An infinite off-diagonal entry whose transposed entry is finite fires
    on the pattern's table: its defect and the bound
    SYMMETRY_RTOL * max|M| are both inf, so a max|M| that is not finite
    fails the check by itself."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    pattern, positions = _block(ops, case, _unknowns(g, case))
    data = ops.assemble_mass(pattern=pattern).data.copy()
    data[np.flatnonzero(_between_unknowns(pattern, positions))[0]] = value
    K = pattern.matrix(data)
    dense = K.toarray()
    [(r, c)] = np.argwhere(np.isinf(dense))
    assert r != c and np.isfinite(dense[c, r])
    with pytest.raises(ValueError) as raised:
        _checked(K, pattern, positions)
    assert str(raised.value) == _INF_MESSAGE


def test_symmetry_guard_fires_on_an_infinite_entry_on_either_side():
    """The same for a 2 x 2 matrix on the pattern of a 3-cell box's
    interior, with the infinite entry above or below the diagonal; its
    slots beyond the box's faces hold 0."""
    pattern = element_ops(build_grid(1, 3, (0.0,), 1.0, BOX)).block_pattern
    row = np.repeat(np.arange(2), np.diff(pattern.indptr))
    for entries in ([[2.0, np.inf], [1.0, 2.0]], [[2.0, 1.0], [-np.inf, 2.0]]):
        values = np.where(row == pattern.indices, 0.0, np.array(entries)[row, pattern.indices])
        values[_centre_slots(pattern)] = np.diag(entries)
        K = pattern.matrix(values)
        assert np.array_equal(K.toarray(), entries)
        with pytest.raises(ValueError) as raised:
            _checked(K, pattern)
        assert str(raised.value) == _INF_MESSAGE


def test_symmetry_guard_reads_only_the_unknowns():
    """A system with holes is checked on its unknowns alone: a shift mass of
    1e8 on a hole element whose corners are all outside the unknowns is set
    to 0 with the rows and columns of those nodes, so it neither raises the
    scale nor hides a defect of 2x SYMMETRY_RTOL * max|M| between two
    unknowns, which raises with the message of the matrix on the unknowns;
    the entries between unknowns are kept as assembled."""
    g = build_grid(2, 9, (0.0, 0.0), 1.0, BOX)
    ops = element_ops(g)
    hole = np.zeros((9, 9), dtype=bool)
    hole[3:6, 3:6] = True
    hole = hole.ravel()
    shift = np.ones(g.n_elements)
    shift[4 * 9 + 4] = 1e8       # the centre element, whose corners touch holes only
    unknowns = numerics._active_nodes_checked(g, ~hole)
    unknowns = unknowns[~g.boundary_node_mask()[unknowns]]
    pattern, positions = _block(ops, "masked", unknowns)
    K = ops.assemble_stiffness(np.where(hole, 0.0, 1.0), shift, pattern)
    dense = K.toarray()
    held = _held(K.copy(), pattern, positions).toarray()
    on = np.zeros(len(dense), dtype=bool)
    on[positions] = True
    assert np.count_nonzero(~on) == 4
    assert np.array_equal(held[np.ix_(on, on)], dense[np.ix_(on, on)])
    assert not held[~on].any() and not held[:, ~on].any()
    assert np.abs(dense).max() > 1e4 * np.abs(held).max()
    allowed = numerics.SYMMETRY_RTOL * np.abs(held).max()
    slot = np.flatnonzero(_between_unknowns(pattern, positions))[0]
    data = K.data.copy()
    data[slot] += 2.0 * allowed
    with pytest.raises(ValueError) as raised:
        _checked(pattern.matrix(data), pattern, positions)
    assert str(raised.value) == _message(_held(pattern.matrix(data), pattern, positions))


@pytest.mark.parametrize("scale", [1e-3, 1e-310])
def test_symmetry_guard_scale_has_its_floor(scale):
    """The bound scales with max|M| below 1 and stops at the floor 1e-300:
    on a box-interior mass matrix scaled to max|M| = ``scale``, an
    off-diagonal defect of 0.5x SYMMETRY_RTOL * max(max|M|, 1e-300)
    passes and 2x raises with the exact message."""
    ops = element_ops(build_grid(2, 8, (0.0, 0.0), 1.0, BOX))
    pattern = ops.block_pattern
    data = ops.assemble_mass(pattern=pattern).data
    data = data * (scale / np.abs(data).max())
    allowed = numerics.SYMMETRY_RTOL * max(np.abs(data).max(), 1e-300)
    row = np.repeat(np.arange(len(pattern.indptr) - 1), np.diff(pattern.indptr))
    slot = np.flatnonzero(row != pattern.indices)[0]

    def defective(factor):
        perturbed = data.copy()
        perturbed[slot] += factor * allowed
        return pattern.matrix(perturbed)

    _checked(defective(0.5), pattern)
    with pytest.raises(ValueError) as raised:
        _checked(defective(2.0), pattern)
    assert str(raised.value) == _message(defective(2.0))


def test_infinite_coefficient_fails_the_assembled_check():
    """``is_symmetric`` reads an infinite off-diagonal coefficient with a
    finite mirror as symmetric (its defect and bound are both inf), which
    routes the solve to CG; the assembled matrix then holds inf * 0 = NaN
    and ``SparseSystem`` refuses it before any iteration."""
    g = build_grid(2, 8, (0.0, 0.0), 1.0, BOX)
    coeff = np.broadcast_to(np.array([[2.0, 0.3], [0.3, 1.5]]), (g.n_elements, 2, 2)).copy()
    coeff[10, 0, 1] = np.inf
    assert numerics.is_symmetric(coeff)
    with pytest.raises(ValueError, match="declared symmetric"), np.errstate(invalid="ignore"):
        numerics.solve_corrector(g, coeff, [[1.0, 0.0]])


def _growth_ends(alpha, beta, p, xi):
    """The sandwich's ends and their slack GROWTH_RTOL * max(1, b), computed
    as ``check_growth`` computes them."""
    xi_norm = float(np.linalg.norm(xi))
    lo, hi = alpha * xi_norm ** p, beta * (1.0 + xi_norm ** p)
    return ((lo, numerics.GROWTH_RTOL * max(1.0, lo)),
            (hi, numerics.GROWTH_RTOL * max(1.0, hi)))


# (alpha, beta, p, xi): the lower end below 1 and above 1, and the upper
# end below 1 and above 1
_GROWTH_CASES = [(0.1, 0.2, 2.0, (0.5, 0.0)), (4.0, 9.0, 2.0, (1.0, 1.0)),
                 (0.5, 2.0, 3.0, (0.6, 0.8)), (1.5, 1.5, 1.5, (2.0,))]


@pytest.mark.parametrize("alpha, beta, p, xi", _GROWTH_CASES)
def test_growth_guard_fires_at_its_bound(alpha, beta, p, xi):
    """A value 0.5x the slack past either end of alpha |xi|^p <= value <=
    beta (1 + |xi|^p) passes, 2x raises GuardError, and a NaN raises."""
    (lo, lo_slack), (hi, hi_slack) = _growth_ends(alpha, beta, p, xi)
    for end, outward in ((lo, -lo_slack), (hi, hi_slack)):
        numerics.check_growth(end + 0.5 * outward, alpha, beta, p, xi)
        with pytest.raises(GuardError, match="escapes the growth bounds"):
            numerics.check_growth(end + 2.0 * outward, alpha, beta, p, xi)
    with pytest.raises(GuardError, match="escapes the growth bounds"):
        numerics.check_growth(np.nan, alpha, beta, p, xi)


def test_growth_guard_exits_3_through_the_cli(tmp_path, monkeypatch, capsys):
    """A p-energy cell run whose energy escapes the upper end of its growth
    sandwich by 2x the slack exits 3: the real guard fires, not a patched
    raise."""
    from homlab import cell, cli

    tree = {"kind": "cell", "p": 3.0, "xi": [1.0], "resolutions": [16],
            "field": {"type": "periodic_step", "subdivisions": 2, "dim": 1,
                      "values": [1.0, 4.0], "alpha": 1.0, "beta": 4.0}}
    _, (hi, hi_slack) = _growth_ends(1.0, 4.0, 3.0, (1.0,))
    real = cell.corrector_response

    def escaping(*args, **kwargs):
        return [(hi + 2.0 * hi_slack, flux, stats)
                for _, flux, stats in real(*args, **kwargs)]

    monkeypatch.setattr(cell, "corrector_response", escaping)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tree), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["cell", "--spec", str(spec), "--out", str(out), "--no-plots"]) == 3
    assert "escapes the growth bounds" in capsys.readouterr().err
    assert "soundness-guard" in (out / "run.log").read_text()


class _Passed(Exception):
    """Raised right after the homogeneity check, to skip the rest of a run."""


@pytest.mark.parametrize("psi0", [0.01, 10.0])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_homogeneity_guard_fires_at_its_bound(monkeypatch, psi0, p):
    """A statistic off (t / t0)^p psi(t0) by 0.5x HOMOGENEITY_RTOL *
    max(|expected|, 1) passes, 2x raises GuardError, and a NaN raises; the
    expected values 0.04 or 0.08 and 40 or 80 sit on both sides of the scale's
    floor of 1."""
    from homlab import stability
    from homlab.fields import Constant, EnergyDensity, FieldBounds

    bounds = FieldBounds(1.0, 4.0)
    f = EnergyDensity(Constant(1.0, bounds), p)
    g = EnergyDensity(Constant(2.0, bounds), p)

    def run(defect):
        def statistic(f, g, t, R, resolution):
            return psi0 if t == 1.0 else (t / 1.0) ** p * psi0 + defect

        def passed(psis):
            raise _Passed

        monkeypatch.setattr(stability, "mean_abs_statistic", statistic)
        monkeypatch.setattr(stability, "_trace_is_vanishing", passed)
        stability.run_stability_pair(f, g, t_list=(1.0, 2.0))

    want = 2.0 ** p * psi0
    slack = numerics.HOMOGENEITY_RTOL * max(abs(want), 1.0)
    for sign in (1.0, -1.0):
        with pytest.raises(_Passed):
            run(0.5 * sign * slack)
        with pytest.raises(GuardError, match="does not scale as t"):
            run(2.0 * sign * slack)
    with pytest.raises(GuardError, match="does not scale as t"):
        run(np.nan)


@dataclass(frozen=True)
class _Uniform(ScalarField):
    """A field that takes ``value`` everywhere, inside its bounds or not."""

    value: float
    bounds: FieldBounds
    dim: int = 1

    def values_impl(self, pts):
        return np.full(len(pts), self.value)


_B14 = FieldBounds(1.0, 4.0)


@pytest.mark.parametrize("end, outward", [(1.0, -1.0), (4.0, 1.0)])
def test_field_bounds_guard_fires_at_its_bound(end, outward):
    """A field value 0.5x FIELD_BOUNDS_ATOL outside either end of [alpha,
    beta] passes ``eval_scalar``, 2x raises GuardError and a NaN raises."""
    pts = np.array([0.25, 0.75])

    def field(factor):
        return _Uniform(end + factor * outward * numerics.FIELD_BOUNDS_ATOL, _B14)

    near = eval_scalar(field(0.5), pts)
    assert 0.45 <= abs(near[0] - end) / numerics.FIELD_BOUNDS_ATOL <= 0.55
    for broken in (field(2.0), _Uniform(np.nan, _B14)):
        with pytest.raises(GuardError, match="escaped bounds"):
            eval_scalar(broken, pts)


@pytest.mark.parametrize("end", ["eigenvalue", "norm"])
def test_constant_matrix_guard_fires_at_its_bound(end):
    """A symmetric part whose smallest eigenvalue lies 0.5x
    FIELD_BOUNDS_ATOL below alpha, or a 2-norm 0.5x it above beta, passes
    ``constant_matrix``; 2x raises ValueError. A NaN off-diagonal pair and
    a NaN on the diagonal, which ``eigvalsh`` reads as finite eigenvalues,
    are refused as non-finite entries before any eigenvalue is taken."""
    atol = numerics.FIELD_BOUNDS_ATOL

    def matrix(factor):
        if end == "eigenvalue":
            return np.array([[1.0 - factor * atol, 0.5], [-0.5, 3.0]])
        return np.diag([1.5, 4.0 + factor * atol])

    placed = (1.0 - np.linalg.eigvalsh(matrix(0.5) + matrix(0.5).T).min() / 2
              if end == "eigenvalue" else np.linalg.norm(matrix(0.5), 2) - 4.0)
    assert 0.45 <= placed / atol <= 0.55
    constant_matrix(matrix(0.5), _B14)
    with pytest.raises(ValueError, match="not elliptic" if end == "eigenvalue"
                       else "norm exceeds"):
        constant_matrix(matrix(2.0), _B14)
    nan = matrix(0.0)
    nan[0, 1] = nan[1, 0] = np.nan
    for diagonal in ((0, 0), (1, 1)):
        nan_diagonal = matrix(0.0)
        nan_diagonal[diagonal] = np.nan
        assert np.isfinite(np.linalg.eigvalsh(nan_diagonal)).all()
        for broken in (nan, nan_diagonal):
            with pytest.raises(ValueError, match="matrix has a non-finite entry"):
                constant_matrix(broken, _B14)


# (matrix, alpha, beta): max|A| below 1, above 1 and below the 1e-300 floor
_HOM_SYMMETRY_CASES = [([[0.25, 0.05], [0.05, 0.2]], 0.1, 0.5),
                       ([[3.0, 0.5], [0.5, 2.0]], 1.0, 4.0),
                       ([[2e-310, 0.0], [0.0, 1e-310]], 1e-320, 1.0)]


@pytest.mark.parametrize("base, alpha, beta", _HOM_SYMMETRY_CASES)
def test_homogenized_symmetry_guard_fires_at_its_bound(base, alpha, beta):
    """An off-diagonal defect of 0.5x HOM_SYMMETRY_RTOL * max(max|A|,
    1e-300) in the homogenized matrix of a symmetric input passes, 2x
    raises GuardError and a NaN raises."""
    base = np.array(base)
    allowed = numerics.HOM_SYMMETRY_RTOL * max(np.abs(base).max(), 1e-300)

    def result(factor):
        matrix = base.copy()
        matrix[0, 1] += factor * allowed
        return HomogenizedResult(matrix, True, (), (), alpha, beta)

    near = result(0.5).matrix
    assert 0.45 <= abs(near[0, 1] - near[1, 0]) / allowed <= 0.55
    for factor in (2.0, np.nan):
        with pytest.raises(GuardError, match="asymmetric output"):
            result(factor)


# (alpha, beta, extension constant C): beta below and above 1, and the
# perforated window [alpha / C^2, beta]
@pytest.mark.parametrize("alpha, beta, C", [(0.1, 0.25, 1.0), (1.0, 4.0, 1.0),
                                            (1.0, 4.0, 3.0)])
@pytest.mark.parametrize("end", ["lower", "upper"])
def test_homogenized_eigenvalue_guard_fires_at_its_bound(alpha, beta, C, end):
    """A homogenized matrix whose symmetric part has an eigenvalue 0.5x
    HOM_EIGEN_RTOL * max(beta, 1) outside either end of [alpha / C^2, beta]
    passes and 2x raises GuardError; a NaN off-diagonal pair and a NaN on
    the diagonal, which ``eigvalsh`` reads as finite eigenvalues, raise as
    non-finite entries before any eigenvalue is taken."""
    lo = alpha / C ** 2
    slack = numerics.HOM_EIGEN_RTOL * max(beta, 1.0)
    edge, outward = (lo, -slack) if end == "lower" else (beta, slack)

    def result(factor, off_diagonal=0.0):
        matrix = np.diag([edge + factor * outward, 0.5 * (lo + beta)])
        matrix[0, 1] = matrix[1, 0] = off_diagonal
        return HomogenizedResult(matrix, False, (), (), alpha, beta, extension_constant=C)

    assert 0.45 <= abs(result(0.5).matrix[0, 0] - edge) / slack <= 0.55
    with pytest.raises(GuardError, match="homogenized eigenvalues"):
        result(2.0)
    with pytest.raises(GuardError, match="homogenized matrix has a non-finite entry"):
        result(0.0, np.nan)
    for diagonal in ((0, 0), (1, 1)):
        matrix = np.diag([edge, 0.5 * (lo + beta)])
        matrix[diagonal] = np.nan
        assert np.isfinite(np.linalg.eigvalsh(matrix)).all()
        with pytest.raises(GuardError, match="homogenized matrix has a non-finite entry"):
            HomogenizedResult(matrix, False, (), (), alpha, beta, extension_constant=C)


@pytest.mark.parametrize("values", [(0.1, 0.4), (2.0, 8.0)])
def test_pairing_guard_fires_at_its_bound(monkeypatch, values):
    """An energy off flux . xi by 0.5x PAIRING_RTOL * max(|energy|, 1)
    passes ``corrector_response``, 2x raises GuardError and a NaN raises;
    the energies (0.22 and 4.4) sit on both sides of the scale's floor of 1.
    The energy is patched in; the flux is the solve's own."""
    g = build_grid(2, 8, (0.0, 0.0), 1.0, TORUS)
    coeff = np.where(g.element_centers()[:, 0] < 0.5, *values)
    xi = np.array([1.0, 0.5])

    def response(defect):
        def energy_quadratic(self, v, coeff, xi):   # on the unit cell, volume 1
            pairing = float(self.flux_average(v, coeff, xi) @ xi)
            return pairing + defect * numerics.PAIRING_RTOL * max(abs(pairing), 1.0)

        monkeypatch.setattr(numerics.ElementOps, "energy_quadratic", energy_quadratic)
        [(energy, flux, _)] = numerics.corrector_response(g, coeff, [xi])
        return energy, float(flux @ xi)

    for sign in (1.0, -1.0):
        energy, pairing = response(0.5 * sign)
        assert (energy < 1.0) == (values[1] < 1.0)
        placed = (energy - pairing) / (numerics.PAIRING_RTOL * max(abs(energy), 1.0))
        assert 0.45 <= sign * placed <= 0.55
        with pytest.raises(GuardError, match="energy/flux cross-check failed"):
            response(2.0 * sign)
    with pytest.raises(GuardError, match="energy/flux cross-check failed"):
        response(np.nan)
