"""Boundary tests of the soundness-guard table in ``numerics``: each row's
guard passes a defect placed at half the allowed value under the row's own
scale rule, fires at twice it and fires on a NaN or an infinite entry. A
looser tolerance, a changed scale rule or a pass condition that lets a NaN
or an infinity through fails here.

Rows covered: ``SYMMETRY_RTOL``, through ``SparseSystem`` both on the
stencil table of the matrix's pattern and by the search for matrices that
come without one; ``GROWTH_RTOL``, through ``numerics.check_growth`` and,
for exit 3, through a ``cell`` run; ``HOMOGENEITY_RTOL``, through
``stability.run_stability_pair``."""

import json

import numpy as np
import pytest

from homlab import numerics
from homlab.numerics import BOX, TORUS, GuardError, SparseSystem, build_grid, element_ops


def test_symmetry_row_is_pinned():
    assert numerics.SYMMETRY_RTOL == 1e-12


def test_growth_and_homogeneity_rows_are_pinned():
    assert numerics.GROWTH_RTOL == 1e-9
    assert numerics.HOMOGENEITY_RTOL == 1e-12


def _unknowns(g, case):
    """Sorted node ids: every node, the interior of a box, or the interior
    (every node on a torus) with every fifth node from node 1 dropped, which
    leaves rows with a partial stencil and keeps a torus's node 0."""
    free = np.ones(g.n_nodes, dtype=bool) if g.topology == TORUS else ~g.boundary_node_mask()
    if case == "masked":
        free[1::5] = False
    return np.flatnonzero(free)


def _message(K):
    """The guard's message for ``K``, from scipy's max|K - K^T| and max|K|."""
    worst = abs(K - K.T).max()
    scale = np.abs(K.data).max()
    return (f"matrix declared symmetric but |M - M^T|_max = {worst:.3e} "
            f"exceeds {numerics.SYMMETRY_RTOL:.0e} * |M|_max = "
            f"{numerics.SYMMETRY_RTOL * scale:.3e}")


def _checked(K, pattern):
    """``SparseSystem`` declared symmetric, on the stencil table of
    ``pattern`` or, with None, by search."""
    return SparseSystem(K, symmetric=True, pattern=pattern)


_CASES = [(2, TORUS, 8, "all"), (2, TORUS, 2, "all"), (2, BOX, 8, "interior"),
          (2, BOX, 9, "masked"), (2, TORUS, 9, "masked"), (1, TORUS, 2, "all"),
          (1, TORUS, 7, "all"), (1, BOX, 7, "interior"), (1, BOX, 9, "masked")]


@pytest.mark.parametrize("slab", ["default", "one row", "two lines", "whole table"])
@pytest.mark.parametrize("dim, topology, n, case", _CASES)
def test_symmetry_guard_fires_at_its_bound(monkeypatch, slab, dim, topology, n, case):
    """A defect of 0.5x SYMMETRY_RTOL * max|M| passes, 2x raises ValueError
    with the exact message and a NaN raises, on the pattern's table and by
    search alike. In 2D the defect comes from a skewed matrix coefficient
    on one element whose corners are all unknowns, on a torus the last of
    the first row, whose columns wrap; in 1D, where a 1x1 coefficient
    cannot be skewed, from the first off-diagonal entry of row 0 (a
    wrapped column on a torus) perturbed after assembly."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    unknowns = _unknowns(g, case)
    pattern = ops.pattern if case == "all" else ops.restricted_pattern(unknowns)
    line = pattern.side ** (dim - 1)
    rows = {"default": numerics._SLAB_ROWS, "one row": 1, "two lines": 2 * line,
            "whole table": pattern.side ** dim}[slab]
    monkeypatch.setattr(numerics, "_SLAB_ROWS", rows)
    rng = np.random.default_rng(10 * dim + n)
    m = rng.uniform(-1.0, 1.0, (g.n_elements, dim, dim))
    sym = m + m.transpose(0, 2, 1) + 3.0 * np.eye(dim)
    K = ops.assemble_stiffness(sym, pattern=pattern)
    allowed = numerics.SYMMETRY_RTOL * np.abs(K.data).max()
    if dim == 2:
        nodes = g.element_nodes()
        element = next(e for e in [n - 1] + list(range(g.n_elements))
                       if np.isin(nodes[e], unknowns).all())
        assert topology == BOX or element == n - 1
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        unit = np.zeros_like(sym)
        unit[element] = skew
        unit = ops.assemble_stiffness(unit, pattern=pattern)
        unit = abs(unit - unit.T).max()       # the defect of a unit skew

        def defective(factor):
            coeff = sym.copy()
            coeff[element] += factor * allowed / unit * skew
            return ops.assemble_stiffness(coeff, pattern=pattern)
    else:
        row = np.repeat(np.arange(len(pattern.indptr) - 1), np.diff(pattern.indptr))
        slot = np.flatnonzero(row != pattern.indices)[0]
        assert row[slot] == 0 and (topology == BOX or pattern.indices[slot] == n - 1)

        def defective(factor):
            data = K.data.copy()
            data[slot] += factor * allowed
            return pattern.matrix(data)

    near, far = defective(0.5), defective(2.0)
    for mat, lo, hi in ((near, 0.45, 0.55), (far, 1.8, 2.2)):
        placed = abs(mat - mat.T).max() / (numerics.SYMMETRY_RTOL * np.abs(mat.data).max())
        assert lo <= placed <= hi
    nan = defective(np.nan)
    for table in (pattern, None):
        _checked(near, table)
        with pytest.raises(ValueError) as raised:
            _checked(far, table)
        assert str(raised.value) == _message(far)
        with pytest.raises(ValueError, match="declared symmetric"):
            _checked(nan, table)


@pytest.mark.parametrize("dim, topology, n, case", _CASES)
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_symmetry_guard_fires_on_a_non_finite_diagonal(dim, topology, n, case, value):
    """An infinite or NaN diagonal entry, the only one not finite, fires
    with |M - M^T|_max = nan, since x - x is NaN there: the table check
    reads the centre class whenever an entry is not finite."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    pattern = ops.pattern if case == "all" else ops.restricted_pattern(_unknowns(g, case))
    data = ops.assemble_mass(pattern=pattern).data.copy()
    row = np.repeat(np.arange(len(pattern.indptr) - 1), np.diff(pattern.indptr))
    data[np.flatnonzero(row == pattern.indices)[-1]] = value
    K = pattern.matrix(data)
    for table in (pattern, None):
        with pytest.raises(ValueError) as raised, np.errstate(invalid="ignore"):
            _checked(K, table)
        assert str(raised.value) == (
            f"matrix declared symmetric but |M - M^T|_max = nan exceeds "
            f"{numerics.SYMMETRY_RTOL:.0e} * |M|_max = {numerics.SYMMETRY_RTOL * value:.3e}")


_INF_MESSAGE = (f"matrix declared symmetric but |M - M^T|_max = inf exceeds "
                f"{numerics.SYMMETRY_RTOL:.0e} * |M|_max = inf")


@pytest.mark.parametrize("dim, topology, n, case", _CASES)
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_symmetry_guard_fires_on_an_infinite_off_diagonal(dim, topology, n, case, value):
    """An infinite off-diagonal entry whose transposed entry is finite fires
    on the pattern's table and by search: its defect and the bound
    SYMMETRY_RTOL * max|M| are both inf, so a max|M| that is not finite
    fails the check by itself."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    pattern = ops.pattern if case == "all" else ops.restricted_pattern(_unknowns(g, case))
    data = ops.assemble_mass(pattern=pattern).data.copy()
    row = np.repeat(np.arange(len(pattern.indptr) - 1), np.diff(pattern.indptr))
    data[np.flatnonzero(row != pattern.indices)[0]] = value
    K = pattern.matrix(data)
    dense = K.toarray()
    [(r, c)] = np.argwhere(np.isinf(dense))
    assert r != c and np.isfinite(dense[c, r])
    for table in (pattern, None):
        with pytest.raises(ValueError) as raised:
            _checked(K, table)
        assert str(raised.value) == _INF_MESSAGE


def test_symmetry_guard_fires_on_an_infinite_entry_of_a_bare_matrix():
    """The same for a scipy matrix that comes without a pattern, read by
    search."""
    import scipy.sparse as sp

    for entries in ([[2.0, np.inf], [1.0, 2.0]], [[2.0, 1.0], [-np.inf, 2.0]]):
        with pytest.raises(ValueError) as raised:
            SparseSystem(sp.csr_matrix(entries), symmetric=True)
        assert str(raised.value) == _INF_MESSAGE


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
