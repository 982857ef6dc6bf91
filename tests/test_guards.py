"""Boundary tests of the soundness-guard table in ``numerics``: each row's
guard passes a defect placed at half the allowed value under the row's own
scale rule, fires at twice it and fires on a NaN or an infinite entry. A
looser tolerance, a changed scale rule or a pass condition that lets a NaN
or an infinity through fails here.

Rows covered: ``SYMMETRY_RTOL``, through ``SparseSystem`` both on the
stencil table of the matrix's pattern and by the search for matrices that
come without one."""

import numpy as np
import pytest

from homlab import numerics
from homlab.numerics import BOX, TORUS, SparseSystem, build_grid, element_ops


def test_symmetry_row_is_pinned():
    assert numerics.SYMMETRY_RTOL == 1e-12


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
