"""Grid, assembly, and solver contracts.

The p-energy minimizer is checked against two independent routes: the CG
solution of the quadratic case and a brute-force nodal minimization with
scipy.optimize on an energy evaluated by straight Riemann sums.
"""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg

from homlab import numerics
from homlab.fields import EnergyDensity, FieldBounds, PeriodicStep
from homlab.numerics import (
    BOX,
    TORUS,
    Grid,
    PEnergyProblem,
    SolverError,
    SparseSystem,
    build_grid,
    cells_across,
    cg_solve,
    element_ops,
    is_symmetric,
    krylov_solve_nonsymmetric,
    minimize_p_energy,
    nearest_integer,
    solve_corrector,
    spectral_preconditioner,
    tensor_points,
)
from homlab.rve import local_min_energy


def two_phase_coeff(grid, low=1.0, high=4.0):
    """Element coefficients for the half-half profile in the first axis."""
    frac = np.mod(grid.element_centers()[:, 0], 1.0)
    return np.where(frac < 0.5, low, high)


def checkerboard_coeff(grid, low=1.0, high=4.0):
    """Element coefficients for the 2x2 checkerboard of the unit cell."""
    c = grid.element_centers()
    return np.where((np.floor(2 * c[:, 0]) + np.floor(2 * c[:, 1])) % 2 == 0, low, high)


def dirichlet_system(grid, coeff, boundary_values, rhs_full=None):
    """Reduce an assembled problem to the interior nodes: the symmetric
    system on the box-interior pattern, its right-hand side and the
    interior node ids."""
    ops = element_ops(grid)
    interior = ops.interior_nodes
    b = np.zeros(grid.n_nodes) if rhs_full is None else rhs_full.copy()
    b = b - ops.assemble_stiffness(coeff) @ boundary_values
    return block_system(ops, coeff), b[interior], interior


def block_system(ops, coeff, unknowns=None, shift=None, symmetric=True):
    """The system of ``coeff`` (and ``shift``) on the grid block, every node
    of a torus or the interior of a box, whose unknowns are the sorted node
    ids ``unknowns`` (the whole block if None), as ``solve_corrector``
    builds it."""
    pattern, positions = ops.block_pattern, numerics._block_positions(ops.grid, unknowns)
    return SparseSystem(ops.assemble_stiffness(coeff, shift, pattern),
                        symmetric=symmetric, pattern=pattern, positions=positions)


def system_on_pattern(dense, symmetric=True, topology=BOX):
    """``dense``, which must vanish off the stencil, as a system on the
    pattern of a 1D box's interior (or every node of a 1D torus) with as
    many unknowns as ``dense`` has rows; the slots beyond the box's faces
    hold zeros."""
    dense = np.asarray(dense, dtype=float)
    g = build_grid(1, len(dense) + (topology == BOX), (0.0,), 1.0, topology)
    pattern = element_ops(g).block_pattern
    mat = pattern.matrix(np.where(_beyond_faces(pattern), 0.0, dense[_pairs(pattern)]))
    assert np.array_equal(mat.toarray(), dense, equal_nan=True)
    return SparseSystem(mat, symmetric=symmetric, pattern=pattern)


def random_assembled_system(rng, n, skew=0.0):
    """The stiffness of random log-uniform element coefficients (contrast
    at most 100) on the interior of an n x n-cell 2D box, with a random
    skew part of at most ``skew`` times each coefficient, and its dense
    copy."""
    g = build_grid(2, n, (0.0, 0.0), 1.0, BOX)
    ops = element_ops(g)
    c = np.exp(rng.uniform(0.0, np.log(100.0), g.n_elements))
    s = rng.uniform(-skew, skew, g.n_elements)
    coeff = c[:, None, None] * (np.eye(2) + s[:, None, None] * np.array([[0.0, 1.0],
                                                                        [-1.0, 0.0]]))
    system = block_system(ops, coeff if skew else c, symmetric=not skew)
    return system, system.matrix.toarray()


def jacobi(system):
    """Diagonal (Jacobi) preconditioner of a system's unknowns, for direct
    cg_solve calls."""
    diag = system.matrix.diagonal()
    inv_diag = 1.0 / (diag if system.positions is None else diag[system.positions])
    return lambda r: inv_diag * r


def identity(r):
    """No preconditioning, for direct solver calls on unstructured matrices."""
    return r


class TestGrid:
    def test_torus_1d_counts(self):
        g = build_grid(1, 4, (0.0,), 1.0, TORUS)
        assert g.n_nodes == 4
        assert g.n_elements == 4
        assert g.h == 0.25

    def test_box_2d_counts(self):
        g = build_grid(2, 8, (0.0, 0.0), 1.0, BOX)
        assert g.n_nodes == 81
        assert g.n_elements == 64

    def test_torus_2d_counts(self):
        g = build_grid(2, 8, (0.0, 0.0), 1.0, TORUS)
        assert g.n_nodes == 64
        assert g.n_elements == 64

    @pytest.mark.parametrize("bad", [
        dict(dim=3, cells_per_axis=4, origin=(0, 0, 0), side_length=1, topology=TORUS),
        dict(dim=2, cells_per_axis=1, origin=(0, 0), side_length=1, topology=TORUS),
        dict(dim=2, cells_per_axis=4, origin=(0, 0), side_length=-1, topology=TORUS),
        dict(dim=2, cells_per_axis=4, origin=(0, 0), side_length=1, topology="moebius"),
        dict(dim=2, cells_per_axis=4, origin=(0,), side_length=1, topology=BOX),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            Grid(bad["dim"], bad["cells_per_axis"], tuple(bad["origin"]),
                 bad["side_length"], bad["topology"])

    def test_element_nodes_wrap_on_torus(self):
        g = build_grid(1, 4, (0.0,), 1.0, TORUS)
        assert g.element_nodes()[-1].tolist() == [3, 0]

    def test_boundary_mask_counts(self):
        g = build_grid(2, 8, (0.0, 0.0), 1.0, BOX)
        assert g.boundary_node_mask().sum() == 4 * 8


def _reference_grid_arrays(g):
    """The per-dimension construction of the grid arrays, written out for
    dims 1 and 2: node coordinates (which the tests' exact solutions read),
    element centers, element nodes and the box boundary mask (None on a
    torus)."""
    n, nn = g.cells_per_axis, g.nodes_per_axis
    nodes = [g.origin[k] + g.h * np.arange(nn) for k in range(g.dim)]
    centers = [g.origin[k] + g.h * (np.arange(n) + 0.5) for k in range(g.dim)]
    if g.dim == 1:
        left = np.arange(n, dtype=np.int64)
        right = left + 1
        if g.topology == TORUS:
            right %= n
        mask = None
        if g.topology == BOX:
            mask = np.zeros(nn, dtype=bool)
            mask[0] = mask[-1] = True
        return nodes[0][:, None], centers[0][:, None], np.column_stack([left, right]), mask
    xg, yg = np.meshgrid(*nodes, indexing="xy")
    cx, cy = np.meshgrid(*centers, indexing="xy")
    ex, ey = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64),
                         indexing="xy")
    ex, ey = ex.ravel(), ey.ravel()
    ix1, iy1 = ex + 1, ey + 1
    if g.topology == TORUS:
        ix1, iy1 = ix1 % n, iy1 % n
    elem = np.column_stack([ey * nn + ex, ey * nn + ix1, iy1 * nn + ex, iy1 * nn + ix1])
    mask = None
    if g.topology == BOX:
        ix = np.arange(nn)
        on_edge = (ix == 0) | (ix == nn - 1)
        mask = (on_edge[None, :] | on_edge[:, None]).ravel()
    return (np.column_stack([xg.ravel(), yg.ravel()]),
            np.column_stack([cx.ravel(), cy.ravel()]), elem, mask)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("topology", [TORUS, BOX])
@pytest.mark.parametrize("dim", [1, 2])
def test_grid_arrays_match_reference(dim, topology, n):
    g = build_grid(dim, n, (-0.75, 1.25)[:dim], 1.5, topology)
    _, centers, elem, mask = _reference_grid_arrays(g)
    np.testing.assert_array_equal(g.element_centers(), centers, strict=True)
    np.testing.assert_array_equal(g.element_nodes(), elem, strict=True)
    assert g.element_nodes().dtype == np.int64
    if mask is None:
        with pytest.raises(ValueError, match="no boundary"):
            g.boundary_node_mask()
    else:
        np.testing.assert_array_equal(g.boundary_node_mask(), mask, strict=True)


@pytest.mark.parametrize("axes", [[(0.0, 1.0), (0.0, 1.0)], [[0.0, 1.0], range(2)],
                                  [(0.5, 1.5, 2.5)]],
                         ids=["tuples", "list-range", "1d"])
def test_tensor_points_accepts_sequence_axes(axes):
    # tuple, list and range axes give the points of their ndarray forms
    want = tensor_points([np.asarray(a) for a in axes])
    np.testing.assert_array_equal(tensor_points(axes), want, strict=True)
    assert want.shape == (np.prod([len(a) for a in axes]), len(axes))


def test_nearest_integer_and_cells_across():
    assert nearest_integer(3.0 + 5e-10) == 3
    assert nearest_integer(-2.0) == -2
    for x in (2.5, 3.0 + 2e-9, np.inf, -np.inf, np.nan):
        assert nearest_integer(x) is None
    assert cells_across(0.25, 16) == 4
    for side in (0.3, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="must be a positive integer"):
            cells_across(side, 16)


def test_is_symmetric_reads_the_coefficients():
    # the relative 1e-12 test of SparseSystem, applied per off-diagonal pair
    rng = np.random.default_rng(4)
    assert is_symmetric(rng.uniform(1.0, 4.0, 50))
    m = rng.uniform(-1.0, 1.0, (50, 2, 2))
    sym = m + m.transpose(0, 2, 1) + 4.0 * np.eye(2)
    sym[7, 0, 1] = sym[7, 1, 0] = 1e-3      # small enough to hold a 1e-17 defect
    assert is_symmetric(sym)
    for defect, expected in ((1e-17, True), (1e-6, False)):
        near = sym.copy()
        near[7, 1, 0] += defect * np.abs(sym).max()
        assert near[7, 1, 0] != near[7, 0, 1]
        assert is_symmetric(near) is expected
    skew = np.broadcast_to(np.array([[2.0, 1.0], [-1.0, 2.0]]), (50, 2, 2))
    assert not is_symmetric(skew)
    assert is_symmetric(np.full((50, 1, 1), 2.0))


def _whole_array_is_symmetric(coeff):
    """``is_symmetric`` as it read the coefficients before taking them one
    (k, l) column at a time: the scale over the whole array at once."""
    tol = numerics.SYMMETRY_RTOL * max(float(np.abs(coeff).max()), 1e-300)
    d = coeff.shape[1]
    return all(float(np.abs(coeff[:, k, l] - coeff[:, l, k]).max()) <= tol
               for k in range(d) for l in range(k + 1, d))


def test_is_symmetric_verdict_matches_the_whole_array_read():
    """Reading the scale and the pairs per column changes no verdict: random
    coefficients in 1D and 2D, broadcast views of one matrix, defects at
    0.5x, 1x and 2x the allowed value and NaN or infinite entries."""
    rng = np.random.default_rng(8)
    cases = []
    for d in (1, 2):
        for _ in range(5):
            m = rng.uniform(-1.0, 1.0, (40, d, d))
            cases += [m, m + m.transpose(0, 2, 1) + 3.0 * np.eye(d)]
    for matrix in ([[2.0, 0.3], [0.3, 1.5]], [[2.0, 1.0], [-1.0, 2.0]], [[-3.0, 0.0], [0.0, 1.0]]):
        cases.append(np.broadcast_to(np.array(matrix), (40, 2, 2)))
    m = rng.uniform(-1.0, 1.0, (40, 2, 2))
    sym = m + m.transpose(0, 2, 1) + 3.0 * np.eye(2)
    allowed = numerics.SYMMETRY_RTOL * np.abs(sym).max()
    for factor in (0.5, 1.0, 2.0, -0.5, -2.0):
        near = sym.copy()
        near[11, 0, 1] = near[11, 1, 0] + factor * allowed
        cases.append(near)
    for bad in (np.nan, np.inf, -np.inf):
        for k, l in ((0, 0), (0, 1), (1, 0)):
            odd = sym.copy()
            odd[3, k, l] = bad
            cases.append(odd)
        cases.append(np.broadcast_to(np.array([[bad, 0.1], [0.1, 1.0]]), (40, 2, 2)))
    cases.append(np.full((40, 1, 1), np.nan))
    verdicts = []
    with np.errstate(invalid="ignore"):
        for coeff in cases:
            assert is_symmetric(coeff) is _whole_array_is_symmetric(coeff)
            verdicts.append(is_symmetric(coeff))
    assert True in verdicts and False in verdicts


class TestSparseSystem:
    def test_symmetric_flag_checked(self):
        dense = np.array([[2.0, 1.0], [0.5, 2.0]])
        with pytest.raises(ValueError):
            system_on_pattern(dense, symmetric=True)
        system_on_pattern(dense, symmetric=False)

    def test_nan_entry_fails_the_symmetry_check(self):
        with pytest.raises(ValueError, match="declared symmetric"):
            system_on_pattern(np.diag([2.0, np.nan, 2.0]), symmetric=True)

    def test_a_system_without_its_pattern_is_refused(self):
        """Every system is built on the pattern it was assembled on: none
        is made without one, and none whose entries do not fill it."""
        g = build_grid(2, 6, (0.0, 0.0), 1.0, TORUS)
        ops = element_ops(g)
        K = ops.assemble_stiffness(two_phase_coeff(g))
        for symmetric in (True, False):
            with pytest.raises(TypeError, match="pattern"):
                SparseSystem(K, symmetric=symmetric)
            with pytest.raises(ValueError, match="entries for a pattern of"):
                SparseSystem(K, symmetric=symmetric, pattern=numerics._csr_pattern(2, 5, TORUS))

    def test_unsorted_pattern_matrix_is_checked_as_given(self):
        """A torus pattern matrix, whose wrapped rows list their columns
        unsorted, is checked on its pattern: accepted when it is symmetric,
        refused with one entry perturbed, and never sorted, so it still
        shares the pattern's index arrays."""
        g = build_grid(2, 6, (0.0, 0.0), 1.0, TORUS)
        ops = element_ops(g)
        for perturb in (False, True):
            K = ops.assemble_stiffness(two_phase_coeff(g))
            assert not K.has_sorted_indices
            if perturb:
                K.data[0] *= 1.0 + 1e-6     # row 0 against its wrapped column
                with pytest.raises(ValueError, match="declared symmetric"):
                    SparseSystem(K, symmetric=True, pattern=ops.pattern)
            else:
                assert SparseSystem(K, symmetric=True, pattern=ops.pattern).matrix is K
            assert np.shares_memory(K.indices, ops.pattern.indices)
            assert np.shares_memory(K.indptr, ops.pattern.indptr)


class TestCG:
    def test_manufactured_bilinear_solution_is_exact(self):
        # u = x*y lies in the Q1 space and is harmonic, so the discrete
        # solution must reproduce it to solver tolerance.
        g = build_grid(2, 8, (0.0, 0.0), 1.0, BOX)
        coords = _reference_grid_arrays(g)[0]
        exact = coords[:, 0] * coords[:, 1]
        bnd = g.boundary_node_mask()
        bc = np.where(bnd, exact, 0.0)
        A, b, interior = dirichlet_system(g, np.ones(g.n_elements), bc)
        u_i, _ = cg_solve(A, b, preconditioner=jacobi(A))
        u = bc.copy()
        u[interior] = u_i
        assert np.max(np.abs(u - exact)) <= 1e-8

    def test_random_spd_systems_converge_quickly(self, monkeypatch):
        # assembled on the interior of a 15^2 box: 196 unknowns
        rng = np.random.default_rng(7)
        monkeypatch.setattr(numerics, "_ITERATIONS_PER_UNKNOWN", 1)   # cap 196
        for trial in range(50):
            A, dense = random_assembled_system(rng, 15)
            b = rng.standard_normal(A.n)
            x, stats = cg_solve(A, b, preconditioner=jacobi(A))
            assert stats.iterations <= A.n
            assert np.linalg.norm(b - A.matrix @ x) <= 1e-10 * np.linalg.norm(b)
            want = np.linalg.solve(dense, b)
            assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)

    def test_singular_torus_system_with_mean_zero(self):
        g = build_grid(1, 64, (0.0,), 1.0, TORUS)
        ops = element_ops(g)
        K = ops.assemble_stiffness(two_phase_coeff(g))
        rng = np.random.default_rng(3)
        b = rng.standard_normal(g.n_nodes)
        b -= b.mean()
        A = SparseSystem(K, symmetric=True, pattern=ops.pattern)
        x, _ = cg_solve(A, b, preconditioner=jacobi(A))
        assert abs(x.mean()) <= 1e-12
        assert np.linalg.norm(b - K @ x) <= 1e-9 * np.linalg.norm(b)

    def test_reports_and_checks_true_residual(self):
        diag = np.diag(np.arange(1.0, 9.0))
        A = system_on_pattern(diag)
        b = np.random.default_rng(8).standard_normal(8)
        x, stats = cg_solve(A, b, preconditioner=jacobi(A))
        assert stats.residual == float(np.linalg.norm(b - A.matrix @ x))
        # constants are not in this kernel, so returning the mean-zero part
        # of the converged iterate breaks the solution; on a torus pattern
        # the final check sees it
        A = system_on_pattern(diag, topology=TORUS)
        with pytest.raises(SolverError, match="true residual"):
            cg_solve(A, b, preconditioner=jacobi(A))

    def test_nan_iterate_fails_the_residual_test(self):
        # a preconditioner that answers NaN makes every iterate NaN
        A = system_on_pattern(np.diag(np.arange(1.0, 4.0)))
        with pytest.raises(SolverError, match="no convergence in 1 iterations"):
            cg_solve(A, np.ones(3), preconditioner=lambda r: np.full_like(r, np.nan))

    def test_requires_a_preconditioner(self):
        A = system_on_pattern(np.eye(3))
        with pytest.raises(TypeError, match="preconditioner"):
            cg_solve(A, np.ones(3))

    def test_requires_symmetric_flag(self):
        A = system_on_pattern(np.array([[2.0, 1.0], [0.0, 2.0]]), symmetric=False)
        with pytest.raises(ValueError):
            cg_solve(A, np.ones(2), preconditioner=jacobi(A))

    def test_zero_rhs_returns_zero(self):
        A = system_on_pattern(np.eye(3))
        x, stats = cg_solve(A, np.zeros(3), preconditioner=jacobi(A))
        assert np.all(x == 0.0)
        assert stats.iterations == 0

    def test_deterministic_bit_identical(self):
        g = build_grid(2, 16, (0.0, 0.0), 1.0, TORUS)
        ops = element_ops(g)
        coeff = two_phase_coeff(g)
        K = SparseSystem(ops.assemble_stiffness(coeff), symmetric=True, pattern=ops.pattern)
        b = ops.load_from_element_vectors(np.column_stack([coeff, np.zeros_like(coeff)]))
        x1, _ = cg_solve(K, -b, preconditioner=jacobi(K))
        x2, _ = cg_solve(K, -b, preconditioner=jacobi(K))
        assert x1.tobytes() == x2.tobytes()


@pytest.mark.parametrize("case", ["torus", "torus-masked", "box", "box-masked"])
def test_cg_projects_exactly_on_torus_patterns(case):
    """CG projects the right-hand side and the solution onto mean-zero
    exactly when the system's pattern is a torus, of every node or of the
    nodes outside a hole, and never on a box pattern: a right-hand side
    with a nonzero mean is solved as b - mean(b) with a mean-zero x on a
    torus, and as b itself on a box."""
    g = build_grid(2, 12, (0.0, 0.0), 1.0, TORUS if case.startswith("torus") else BOX)
    ops = element_ops(g)
    coeff = two_phase_coeff(g)
    free = np.ones(g.n_nodes, dtype=bool) if g.topology == TORUS else ~g.boundary_node_mask()
    n_lattice = free.sum()
    if case.endswith("masked"):
        coeff = coeff * (np.linalg.norm(g.element_centers() - 0.5, axis=1) > 0.25)
        touched = np.zeros(g.n_nodes, dtype=bool)
        touched[ops.elem_nodes[coeff > 0]] = True
        free &= touched
    assert (free.sum() < n_lattice) == case.endswith("masked")
    system = block_system(ops, coeff, np.flatnonzero(free))
    pattern = system.pattern
    assert pattern.torus == (g.topology == TORUS)
    assert system.n == free.sum()
    rhs = np.random.default_rng(4).standard_normal(system.n) + 1.0
    x, stats = cg_solve(system, rhs, preconditioner=jacobi(system))
    want = rhs - rhs.mean() if pattern.torus else rhs
    assert stats.iterations > 0
    assert np.linalg.norm(want - system.apply(x)) <= 1e-9 * np.linalg.norm(want)
    assert (abs(x.mean()) <= 1e-12 * np.abs(x).max()) == pattern.torus


def _reference_cg(system, rhs, preconditioner):
    """Preconditioned CG with the update formulas ``cg_solve`` had before it
    updated p in place (a new A p, z and p each iteration), inside the same
    frame, projected onto mean-zero on a torus pattern: returns x, the
    iteration count and the true residual."""
    mean_zero = system.pattern.torus
    b = np.asarray(rhs, dtype=float).copy()
    if mean_zero:
        b -= b.mean()
    tol = numerics._REL_TOLERANCE * np.linalg.norm(b)
    A = system.apply
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while float(np.linalg.norm(r)) > tol:
        Ap = A(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    if mean_zero:
        x -= x.mean()
    return x, it, float(np.linalg.norm(b - A(x)))


@pytest.mark.parametrize("case", ["torus-direction", "box-shifted-source",
                                  "box-masked", "box-identity"])
def test_cg_matches_the_reference_loop_to_the_bit(monkeypatch, case):
    """``cg_solve`` against ``_reference_cg`` on the solves it runs for
    ``solve_corrector``: a mean-zero direction solve on a torus (float64
    FFT preconditioner), a shifted source solve on a box (float32 DST
    preconditioner) and a direction solve on a masked box; and a direct
    call whose preconditioner returns r itself. Every x, iteration count
    and residual is equal, and the caller's right-hand side, handed over
    read-only, is unchanged and shares no memory with x."""
    topology = TORUS if case.startswith("torus") else BOX
    g = build_grid(2, 32, (0.0, 0.0), 1.0, topology)
    rng = np.random.default_rng(12)
    coeff = rng.uniform(1.0, 4.0, g.n_elements)
    solves = []
    real = numerics.cg_solve

    def recorded(system, rhs, *, preconditioner):
        rhs.setflags(write=False)
        before = rhs.copy()
        x, stats = real(system, rhs, preconditioner=preconditioner)
        assert np.array_equal(rhs, before)
        assert not np.shares_memory(x, rhs)
        solves.append((x, stats, _reference_cg(system, before, preconditioner)))
        return x, stats

    monkeypatch.setattr(numerics, "cg_solve", recorded)
    if case == "torus-direction":
        solve_corrector(g, coeff, [np.array([1.0, 0.3])])
    elif case == "box-shifted-source":
        solve_corrector(g, coeff, shift=rng.uniform(0.5, 2.0, g.n_elements),
                        source=rng.uniform(-1.0, 1.0, g.n_elements))
    elif case == "box-masked":
        active = np.linalg.norm(g.element_centers() - 0.5, axis=1) > 0.2
        solve_corrector(g, coeff * active, [np.array([0.6, -0.8])])
    else:
        system = block_system(element_ops(g), coeff)
        recorded(system, rng.standard_normal(system.n), preconditioner=identity)
    [(x, stats, (x_ref, it_ref, res_ref))] = solves
    assert stats.iterations == it_ref > 2
    assert np.array_equal(x, x_ref)
    assert stats.residual == res_ref


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("torus", [False, True])
def test_cg_never_writes_the_right_hand_side(torus, zero):
    """A read-only right-hand side, projected (on a torus) or not and zero
    or not, comes back unchanged, and x is a new vector."""
    topology = TORUS if torus else BOX
    g = build_grid(2, 16, (0.0, 0.0), 1.0, topology)
    system = block_system(element_ops(g), two_phase_coeff(g))
    rhs = np.zeros(system.n) if zero else np.random.default_rng(2).standard_normal(system.n)
    before = rhs.copy()
    rhs.setflags(write=False)
    x, stats = cg_solve(system, rhs, preconditioner=jacobi(system))
    assert np.array_equal(rhs, before)
    assert not np.shares_memory(x, rhs)
    assert (stats.iterations == 0) == zero


def _pinned_mean_zero_solve(K, rhs):
    """Direct solve of a singular connected system: pin node 0, then
    subtract the mean (the rhs is compatible, so this is the mean-zero
    solution)."""
    v = np.zeros(K.shape[0])
    v[1:] = scipy.sparse.linalg.spsolve(K[1:][:, 1:].tocsc(), rhs[1:])
    return v - v.mean()


def _coo_reference(ops, data):
    """Element matrices data[e, a, b] summed into CSR by COO -> CSR."""
    n_loc = ops.elem_nodes.shape[1]
    rows = np.repeat(ops.elem_nodes, n_loc, axis=1).ravel()
    cols = np.tile(ops.elem_nodes, (1, n_loc)).ravel()
    mat = sp.coo_matrix((data.ravel(), (rows, cols)),
                        shape=(ops.grid.n_nodes, ops.grid.n_nodes)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def _pairs(mat):
    """The row and the column of each stored entry of a CSR matrix or each
    slot of a ``CsrPattern``."""
    row = np.repeat(np.arange(len(mat.indptr) - 1, dtype=np.int64), np.diff(mat.indptr))
    return row, mat.indices.astype(np.int64)


def _beyond_faces(pattern):
    """Per slot of ``pattern``: whether its stencil offset leaves the block
    through a box face, that is a slot in the row's own column other than
    the centre class (the middle one of a box's 3^dim)."""
    row, col = _pairs(pattern)
    width = pattern.indptr[1]
    centre = np.arange(len(col)) % width == width // 2
    return (not pattern.torus) & (row == col) & ~centre


def _assert_same_csr(got, want, pattern, positions=None):
    """``got``, a matrix on the block of ``pattern`` whose unknowns are the
    block nodes at ``positions`` (every block node if None), against the
    canonical ``want`` on the unknowns: the same index dtype, every row has
    the pattern's classes**dim slots, the slots inside the block between
    two unknowns hold the (row, column) pairs of ``want`` (explicit zeros
    included), each once, with the same entries to 1e-15 of the largest
    (the stencil table adds the same <= 2^dim element terms per entry as a
    scatter, in another order), and every other slot holds 0. ``got`` lists
    a row's columns in offset-class order, unsorted where a torus row wraps,
    so its pairs are compared in sorted order."""
    assert got.indices.dtype == want.indices.dtype
    assert np.shares_memory(got.indices, pattern.indices)
    assert np.array_equal(got.indptr, pattern.indptr)
    assert np.all(np.diff(got.indptr) == got.indptr[1])
    rank = np.arange(got.shape[0])
    if positions is not None:
        rank = np.full(got.shape[0], -1)
        rank[positions] = np.arange(len(positions))
    row, col = (rank[a] for a in _pairs(got))
    kept = ~_beyond_faces(pattern) & (row >= 0) & (col >= 0)
    assert np.all(got.data[~kept] == 0.0)
    key = row[kept] * want.shape[1] + col[kept]
    order = np.argsort(key)
    want_row, want_col = _pairs(want)
    assert np.array_equal(key[order], want_row * want.shape[1] + want_col)
    assert (np.abs(got.data[kept][order] - want.data).max()
            <= 1e-15 * np.abs(want.data).max())


def _assert_table_check(pattern, data, rng):
    """The stencil-table symmetry check of ``pattern`` reads scipy's
    max|K - K^T| as its worst defect and max|K| as its scale, bit for bit:
    on the entries ``data``, on ``data`` with one entry perturbed after
    assembly, and on random entries."""
    perturbed = data.copy()
    perturbed[rng.integers(len(data))] += 0.37
    for values in (data, perturbed, rng.uniform(-1.0, 1.0, len(data))):
        K = pattern.matrix(values)
        diff = K - K.T
        worst = abs(diff).max() if diff.nnz else 0.0
        assert pattern.symmetry_defect(values) == (np.abs(values).max(), worst)


def _classes(g):
    """Offset classes per axis: 3, or 2 on a 2-node torus axis."""
    return 2 if g.topology == TORUS and g.nodes_per_axis == 2 else 3


def _table_entries(g, pattern, nodes):
    """The stencil-table entry each slot of ``pattern`` inside the block
    should read, from its row and column node (the node ids ``nodes`` of
    its rows and columns):
    the row node's place in the table block, times the classes per row,
    plus the offset class of the column, per axis offset + 1, x fastest (on
    the 2-node torus the wrapped offsets -1 and +1 share class 0)."""
    nn, classes = g.nodes_per_axis, _classes(g)
    row, col = (nodes[a] for a in _pairs(pattern))
    place = offset_class = 0
    for k in range(g.dim):
        r, c = row // nn ** k % nn, col // nn ** k % nn
        step = c - r
        if g.topology == TORUS:
            step = (step + 1) % nn - 1
        place = place + (r - pattern.first) * pattern.side ** k
        offset_class = offset_class + (step + 1) % classes * classes ** k
    return place * classes ** g.dim + offset_class


def _assert_table_order(g, pattern, nodes):
    """The slots are the whole stencil table in table order: the rows in
    order, each with one slot per offset class in class order, so a slot
    inside the block is its own table entry; a slot beyond a box face reads
    the row's own column."""
    width = _classes(g) ** g.dim
    assert np.array_equal(pattern.indptr, np.arange(0, len(pattern.indices) + 1, width))
    assert len(pattern.indices) == (pattern.side * _classes(g)) ** g.dim
    inside = ~_beyond_faces(pattern)
    assert np.array_equal(np.flatnonzero(inside), _table_entries(g, pattern, nodes)[inside])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology, n", [(TORUS, 2), (TORUS, 3), (TORUS, 5),
                                         (BOX, 2), (BOX, 4)])
def test_assembly_matches_coo_reference(dim, topology, n):
    """The stencil-table assembly matches COO -> CSR of the element
    matrices: the same structure and, to rounding, the same entries, wrapped
    duplicate stencil offsets of the 2-node torus included. The reference
    element matrices are formed with one matrix product for matrix
    coefficients; the element contraction itself is checked against einsum
    in ``test_element_kernels_match_einsum``."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    rng = np.random.default_rng(10 * dim + n)
    scalar = rng.uniform(1.0, 4.0, g.n_elements)
    matrix = rng.uniform(-1.0, 4.0, (g.n_elements, dim, dim))
    assert dim == 1 or not np.allclose(matrix, matrix.transpose(0, 2, 1))
    lap = np.einsum("kkab->ab", ops.stiff_blocks)
    _assert_same_csr(ops.assemble_stiffness(scalar),
                     _coo_reference(ops, scalar[:, None, None] * lap[None]), ops.pattern)
    n_loc = 2 ** dim
    matrix_data = matrix.reshape(g.n_elements, -1) @ ops.stiff_blocks.reshape(-1, n_loc ** 2)
    _assert_same_csr(ops.assemble_stiffness(matrix),
                     _coo_reference(ops, matrix_data.reshape(-1, n_loc, n_loc)), ops.pattern)
    # the left half of the elements: the nodes right of it (none on the
    # 2-node torus) get all-zero rows, which stay as explicit zeros
    mask = g.element_centers()[:, 0] < 0.5
    mass = ops.assemble_mass(mask)
    scale = g.h ** dim * mask
    _assert_same_csr(mass, _coo_reference(ops, scale[:, None, None] * ops.mass_ref[None]),
                     ops.pattern)
    row_max = np.maximum.reduceat(np.abs(mass.data), mass.indptr[:-1])
    assert np.any(row_max == 0.0) == (topology == BOX or n > 2)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology, n", [(TORUS, 2), (TORUS, 3), (TORUS, 7),
                                         (BOX, 2), (BOX, 3), (BOX, 7)])
def test_csr_pattern_lists_each_element_pair_once(dim, topology, n):
    """The slots of the pattern inside the block hold the distinct (row,
    column) pairs of the element entries, each once, rows in order; the
    slots are the whole stencil table (3 offset classes per axis, x
    fastest; on the 2-node torus the wrapped offsets -1 and +1 share a slot
    and class 0) in table order, so every row lists all its offset classes
    in class order, a slot beyond a box face in the row's own column; the
    symmetry check read from that table matches scipy's max|K - K^T| bit
    for bit."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    nodes = g.element_nodes()
    n_loc = nodes.shape[1]
    rows = np.repeat(nodes, n_loc, axis=1).ravel()   # (e, a, b) raveled
    cols = np.tile(nodes, n_loc).ravel()
    pairs = np.unique(rows.astype(np.int64) * g.n_nodes + cols)
    pattern = numerics._csr_pattern(dim, n, topology)
    inside = ~_beyond_faces(pattern)
    row, col = (a[inside] for a in _pairs(pattern))
    row_len = np.bincount(pairs // g.n_nodes, minlength=g.n_nodes)
    assert np.array_equal(np.bincount(row, minlength=g.n_nodes), row_len)
    assert np.array_equal(np.sort(row * g.n_nodes + col), pairs)
    assert pattern.first == 0 and pattern.side == g.nodes_per_axis
    _assert_table_order(g, pattern, np.arange(g.n_nodes))
    # a box lists each row's columns inside the block in increasing order;
    # a torus row that wraps lists its wrapped neighbours first
    key = row * g.n_nodes + col
    assert np.all(np.diff(key) > 0) == (topology == BOX)
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    ops = element_ops(g)
    rng = np.random.default_rng(dim + n)
    K = ops.assemble_stiffness(rng.uniform(-1.0, 4.0, (g.n_elements, dim, dim)))
    _assert_table_check(pattern, K.data, rng)


def test_assembly_pattern_is_shared_and_read_only():
    """The pattern of every node and, on a box, that of the interior nodes
    are built once per grid shape: every matrix on the interior, also as
    held by a system with a set of unknowns, shares the interior pattern's
    index arrays,
    on any grid of that shape, and the symmetry check read from each
    pattern's table matches scipy's max|K - K^T| bit for bit."""
    g = build_grid(2, 6, (0.0, 0.0), 1.0, BOX)
    ops = element_ops(g)
    interior = np.flatnonzero(~g.boundary_node_mask())
    inner = ops.block_pattern
    K = ops.assemble_stiffness(np.full(g.n_elements, 2.0), pattern=inner)
    M = ops.assemble_mass(pattern=inner)
    masked = SparseSystem(ops.assemble_mass(pattern=inner), symmetric=True, pattern=inner,
                          positions=np.arange(3)).matrix
    assert K.shape == M.shape == masked.shape == (len(interior),) * 2
    # a grid of the same shape elsewhere, like the next window, shares them
    window = element_ops(build_grid(2, 6, (-1.5, 2.0), 3.0, BOX))
    assert window.pattern is ops.pattern
    assert window.block_pattern is inner
    for mat in (K, M, masked, window.assemble_mass(pattern=inner)):
        assert np.shares_memory(mat.indices, inner.indices)
        assert np.shares_memory(mat.indptr, inner.indptr)
    rng = np.random.default_rng(5)
    for pattern in (ops.pattern, inner):
        for arr in (pattern.indptr, pattern.indices, pattern.incidence):
            with pytest.raises(ValueError):
                arr[0] = 1
        _assert_table_check(pattern, ops.assemble_mass(pattern=pattern).data, rng)
    _assert_table_check(inner, K.data, rng)
    _assert_table_check(inner, masked.data, rng)


def _restricted_set(g, case):
    """Sorted node ids: the interior of a box, or the nodes of a disc's
    complement (within the interior on a box; no disc on 2 cells) with every
    fifth node dropped too, which leaves rows with a partial stencil."""
    free = np.ones(g.n_nodes, dtype=bool) if g.topology == TORUS else ~g.boundary_node_mask()
    if case == "masked":
        if g.cells_per_axis > 2:
            active = np.linalg.norm(g.element_centers() - 0.5, axis=1) > 0.3
            touched = np.zeros(g.n_nodes, dtype=bool)
            touched[element_ops(g).elem_nodes[active]] = True
            free &= touched
        free[::5] = False
    return np.flatnonzero(free)


_RESTRICTED_CASES = [(BOX, 7, "interior"), (BOX, 8, "masked"), (TORUS, 7, "masked"),
                     (TORUS, 2, "masked"), (BOX, 2, "interior")]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology, n, case", _RESTRICTED_CASES)
def test_restricted_assembly_matches_coo_slice(dim, topology, n, case):
    """``assemble_stiffness`` on the grid block, held by a system whose
    unknowns are the block positions of ``unknowns``, holds the slice
    [unknowns][:, unknowns] of the COO reference, explicit zeros included,
    and zeros everywhere else, and the symmetry check read from the
    pattern's table matches scipy's max|K - K^T| bit for bit."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    unknowns = _restricted_set(g, case)
    assert 0 < len(unknowns) < g.n_nodes
    rng = np.random.default_rng(dim + n)
    coeff = rng.uniform(-1.0, 4.0, (g.n_elements, dim, dim))
    shift = rng.uniform(0.5, 3.0, g.n_elements) * (g.element_centers()[:, 0] < 0.5)
    n_loc = 2 ** dim
    data = (coeff.reshape(g.n_elements, -1) @ ops.stiff_blocks.reshape(-1, n_loc ** 2)
            ).reshape(-1, n_loc, n_loc) + (g.h ** dim * shift)[:, None, None] * ops.mass_ref
    want = _coo_reference(ops, data)[unknowns][:, unknowns]
    want.sort_indices()
    pattern, positions = ops.block_pattern, numerics._block_positions(g, unknowns)
    got = SparseSystem(ops.assemble_stiffness(coeff, shift, pattern), symmetric=False,
                       pattern=pattern, positions=positions).matrix
    _assert_same_csr(got, want, pattern, positions)
    _assert_table_order(g, pattern, np.arange(g.n_nodes) if topology == TORUS
                        else ops.interior_nodes)
    _assert_table_check(pattern, got.data, rng)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology, n, case", _RESTRICTED_CASES + [
    (TORUS, 2, "all"), (TORUS, 70, "all"), (BOX, 70, "interior")])
def test_slab_size_leaves_the_data_unchanged(monkeypatch, dim, topology, n, case):
    """The stencil table built one line per slab (two rows in 1D, the
    fewest a slab holds), two lines per slab (a short last slab on odd
    sides) or as one slab gives the same CSR data to the bit as the default
    slab size, for scalar and matrix coefficients with and without a shift
    and for the mass, on every node (case "all") or on the grid block, and
    the symmetry check gives the same scale and worst defect; at 70 cells
    the default takes one slab in 1D and several in 2D."""
    g = build_grid(dim, n, (0.0,) * dim, 1.0, topology)
    ops = element_ops(g)
    pattern = ops.pattern if case == "all" else ops.block_pattern
    rng = np.random.default_rng(dim + n)
    scalar = rng.uniform(0.5, 4.0, g.n_elements)
    matrix = rng.uniform(-1.0, 4.0, (g.n_elements, dim, dim))
    shift = rng.uniform(0.5, 3.0, g.n_elements)

    def data():
        mats = [ops.assemble_stiffness(c, s, pattern)
                for c in (scalar, matrix) for s in (None, shift)]
        mats.append(ops.assemble_mass(shift, pattern))
        return [(m.data.tobytes(), pattern.symmetry_defect(m.data)) for m in mats]

    want = data()
    line = pattern.side ** (dim - 1)
    for rows in (1, 2 * line, pattern.side ** dim):
        monkeypatch.setattr(numerics, "_SLAB_ROWS", rows)
        assert data() == want


@pytest.mark.parametrize("dim, n, topology", [(1, 7, BOX), (1, 2, BOX), (2, 7, BOX),
                                              (2, 9, BOX), (2, 33, BOX), (1, 2, TORUS),
                                              (1, 9, TORUS), (2, 2, TORUS), (2, 7, TORUS),
                                              (2, 40, TORUS)])
def test_scalar_load_matches_a_scatter(dim, n, topology):
    """``load_from_element_scalars`` against an ``np.bincount`` scatter of
    h^d f_e / 2^dim to each element's nodes: bit-identical on a box, where
    both add a node's elements in increasing element id, and within 1e-15
    relative on a torus, whose wrap nodes add their elements in another
    order."""
    g = build_grid(dim, n, (0.0,) * dim, 1.3, topology)
    ops = element_ops(g)
    values = np.random.default_rng(dim * n).uniform(0.1, 3.0, g.n_elements)
    n_loc = 2 ** dim
    want = np.bincount(ops.elem_nodes.ravel(),
                       weights=np.repeat(g.h ** dim / n_loc * values, n_loc),
                       minlength=g.n_nodes)
    got = ops.load_from_element_scalars(values)
    assert got.shape == want.shape
    if topology == BOX:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("restricted", [False, True])
def test_symmetry_guard_through_the_stencil_table(restricted):
    """``SparseSystem`` on the matrix's pattern passes and fails as the
    max|M - M^T| test does, with the same message: a nonsymmetric matrix
    coefficient, a NaN coefficient and a defect at rounding level; a
    pattern the matrix was not assembled on is refused."""
    g = build_grid(2, 8, (0.0, 0.0), 1.0, BOX)
    ops = element_ops(g)
    inner = ops.block_pattern
    pattern, other = (inner, ops.pattern) if restricted else (ops.pattern, inner)
    rng = np.random.default_rng(6)
    sym = rng.uniform(-1.0, 1.0, (g.n_elements, 2, 2))
    sym = sym + sym.transpose(0, 2, 1) + 4.0 * np.eye(2)
    skew = sym.copy()
    skew[:, 0, 1] += rng.uniform(0.0, 0.5, g.n_elements)   # a constant one cancels
    nan = sym.copy()
    nan[9, 1, 1] = np.nan
    for coeff in (skew, nan):
        K = ops.assemble_stiffness(coeff, pattern=pattern)
        scale = np.abs(K.data).max()
        worst = np.abs((K - K.T).data).max()
        message = (f"matrix declared symmetric but |M - M^T|_max = {worst:.3e} "
                   f"exceeds {numerics.SYMMETRY_RTOL:.0e} * |M|_max = "
                   f"{numerics.SYMMETRY_RTOL * scale:.3e}")
        with pytest.raises(ValueError) as raised:
            SparseSystem(K, symmetric=True, pattern=pattern)
        assert str(raised.value) == message
        SparseSystem(K, symmetric=False, pattern=pattern)
    K = ops.assemble_stiffness(sym, pattern=pattern)
    K.data[7] *= 1.0 + 1e-13     # within 1e-12 of max|M|
    SparseSystem(K, symmetric=True, pattern=pattern)
    with pytest.raises(ValueError, match="entries for a pattern of"):
        SparseSystem(K, symmetric=True, pattern=other)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology", [TORUS, BOX])
@pytest.mark.parametrize("kind", ["scalar", "matrix"])
@pytest.mark.parametrize("weights", ["mask", "float"])
def test_shifted_stiffness_is_stiffness_plus_mass(dim, topology, kind, weights):
    """``assemble_stiffness(coeff, shift)`` assembles the stiffness and the
    shift-weighted mass in one table; it equals the two matrices assembled
    apart and added, to 1e-14 relative."""
    g = build_grid(dim, 6, (0.0,) * dim, 1.5, topology)
    ops = element_ops(g)
    rng = np.random.default_rng(dim + 2 * (topology == BOX))
    coeff = (rng.uniform(1.0, 4.0, g.n_elements) if kind == "scalar"
             else rng.uniform(-1.0, 4.0, (g.n_elements, dim, dim)))
    w = (g.element_centers()[:, 0] < 0.7 if weights == "mask"
         else rng.uniform(0.5, 3.0, g.n_elements))
    fused = ops.assemble_stiffness(coeff, w)
    K, M = ops.assemble_stiffness(coeff), ops.assemble_mass(w)
    assert np.shares_memory(fused.indices, ops.pattern.indices)
    _assert_rel(fused.data, K.data + M.data, rtol=1e-14)


def _assert_rel(got, want, rtol=1e-13):
    """|got - want| within rtol of the largest |want| entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_reference_element_matches_closed_forms(dim):
    """The Q1 element is the tensor product of the two-node 1D element: its
    mass and stiffness blocks are Kronecker products (x fastest) of the 1D
    mass M1, stiffness K1 and moment C1[a, b] = int phi_a' phi_b, to 1e-15;
    the shape values form a partition of unity at every quadrature point."""
    from homlab.numerics import _reference_element

    M1 = np.array([[1.0, 0.5], [0.5, 1.0]]) / 3.0
    K1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    C1 = np.array([[-0.5, -0.5], [0.5, 0.5]])

    def kron(factors):
        # factors[j] is the factor of axis j; x fastest puts axis 0 last
        return reduce(np.kron, factors[::-1])

    g = build_grid(dim, 4, (0.0,) * dim, 2.0, TORUS)
    ops = element_ops(g)
    np.testing.assert_allclose(ops.mass_ref, kron([M1] * dim), rtol=0, atol=1e-15)
    for k, l in np.ndindex(dim, dim):
        factors = [M1] * dim
        if k == l:
            factors[k] = K1
        else:
            factors[k], factors[l] = C1, C1.T
        np.testing.assert_allclose(ops.stiff_blocks[k, l],
                                   g.h ** (dim - 2) * kron(factors),
                                   rtol=0, atol=1e-15)
    _, phi, grad = _reference_element(dim)
    np.testing.assert_allclose(phi.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(grad.sum(axis=2), 0.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology", [TORUS, BOX])
def test_element_kernels_match_einsum(dim, topology):
    """Every per-element matrix product of ``ElementOps`` and
    ``PEnergyProblem`` agrees with the einsum contraction over the reference
    gradients, to 1e-13 relative: scalar, symmetric-matrix and
    nonsymmetric-matrix coefficients; the box p-energy on the interior nodes,
    with zero boundary values."""
    from homlab.numerics import _reference_element

    g = build_grid(dim, 5, (0.3,) * dim, 2.0, topology)
    ops = element_ops(g)
    wts, _, grad = _reference_element(dim)
    grad = grad / g.h                                            # [q, k, a]
    rng = np.random.default_rng(2 * dim + (topology == BOX))
    v = rng.standard_normal(g.n_nodes)
    xi = rng.standard_normal(dim)
    vol = g.h ** dim

    def nodal(contrib):
        return np.bincount(ops.elem_nodes.ravel(), weights=contrib.ravel(),
                           minlength=g.n_nodes)

    grads = np.einsum("qka,ea->eqk", grad, v[ops.elem_nodes])
    mean = np.einsum("q,eqk->ek", wts, grads)
    _assert_rel(ops.element_mean_gradients(v), mean)
    flux = rng.standard_normal((g.n_elements, dim))
    _assert_rel(ops.load_from_element_vectors(flux),
                nodal(vol * np.einsum("ek,q,qka->ea", flux, wts, grad)))

    gx = grads + xi
    m = rng.uniform(-1.0, 1.0, (g.n_elements, dim, dim))
    coeffs = {"scalar": rng.uniform(1.0, 4.0, g.n_elements),
              "symmetric": m + m.transpose(0, 2, 1) + 4.0 * np.eye(dim),
              "nonsymmetric": m + 2.0 * np.eye(dim)}
    assert dim == 1 or not np.allclose(m, m.transpose(0, 2, 1))
    for c in coeffs.values():
        if c.ndim == 1:
            c_mat = c[:, None, None] * np.eye(dim)
            blocks = c[:, None, None] * np.einsum("kkab->ab", ops.stiff_blocks)
        else:
            c_mat = c
            blocks = np.einsum("ekl,klab->eab", c, ops.stiff_blocks)
        ag = np.einsum("ekl,eql->eqk", c_mat, gx)
        _assert_rel(ops.energy_quadratic(v, c, xi),
                    vol * np.einsum("eqk,eqk,q->", ag, gx, wts))
        _assert_rel(ops.flux_average(v, c, xi),
                    np.einsum("ekl,el->ek", c_mat, mean + xi).mean(axis=0))
        _assert_rel(ops.assemble_stiffness(c).toarray(),
                    _coo_reference(ops, blocks).toarray())

    coeff = coeffs["scalar"]
    u = v
    if topology == BOX:
        # the box p-energy holds the boundary nodes at zero
        free = ~g.boundary_node_mask()
        u = v[free]
        gx = np.einsum("qka,ea->eqk", grad, np.where(free, v, 0.0)[ops.elem_nodes]) + xi
    mag_sq = np.einsum("eqk,eqk->eq", gx, gx)
    for p in (1.5, 2.0, 3.0):
        prob = PEnergyProblem(g, coeff, p, xi)
        _assert_rel(prob.value(u),
                    vol * coeff @ np.einsum("eq,q->e", mag_sq ** (p / 2), wts))
        w = p * vol * coeff[:, None] * wts[None, :] * mag_sq ** (p / 2 - 1)
        full = nodal(np.einsum("eq,eqk,qka->ea", w, gx, grad))
        _assert_rel(prob.gradient(u),
                    full - full.mean() if topology == TORUS else full[free])


class _Recorded(Exception):
    pass


@pytest.mark.parametrize("case", ["box-interior", "torus-masked", "box-masked"])
def test_corrector_system_matches_sum_then_slice(monkeypatch, case):
    """The system ``solve_corrector`` builds (on boxes the stiffness plus
    the shift-weighted mass, assembled as one matrix on the grid block with
    zeros off the unknowns) holds the structure of the slice
    [unknowns][:, unknowns] of that matrix assembled on every node, the
    same entries to rounding, and agrees with scipy's (K + M_shift) to
    rounding."""
    from homlab import numerics

    systems = []

    class Recorded(SparseSystem):
        # record the system and stop before the solve
        def __post_init__(self):
            super().__post_init__()
            systems.append(self)
            raise _Recorded

    monkeypatch.setattr(numerics, "SparseSystem", Recorded)
    topology = BOX if case.startswith("box") else TORUS
    g = build_grid(2, 12, (0.0, 0.0), 1.0, topology)
    ops = element_ops(g)
    coeff = np.random.default_rng(3).uniform(1.0, 4.0, g.n_elements)
    free = np.ones(g.n_nodes, dtype=bool) if topology == TORUS else ~g.boundary_node_mask()
    if case.endswith("masked"):
        # a disc of holes: the coefficient is zero there
        active = np.linalg.norm(g.element_centers() - 0.5, axis=1) > 0.25
        coeff = coeff * active
        touched = np.zeros(g.n_nodes, dtype=bool)
        touched[ops.elem_nodes[active]] = True
        free &= touched
    unknowns = np.flatnonzero(free)
    K = ops.assemble_stiffness(coeff)
    shift = None
    with pytest.raises(_Recorded):
        if topology == TORUS:
            solve_corrector(g, coeff, [np.array([1.0, 0.0])])
        else:
            shift = np.random.default_rng(4).uniform(1.0, 3.0, g.n_elements)
            solve_corrector(g, coeff, shift=shift, source=np.ones(g.n_elements))
    [system] = systems
    assert system.n == len(unknowns)
    want = ops.assemble_stiffness(coeff, shift)[unknowns][:, unknowns]
    want.sort_indices()
    _assert_same_csr(system.matrix, want, system.pattern, system.positions)
    if shift is not None:
        summed = (K + ops.assemble_mass(shift)).tocsr()[unknowns][:, unknowns]
        got = system.matrix.toarray()
        if system.positions is not None:
            got = got[np.ix_(system.positions, system.positions)]
        assert np.allclose(got, summed.toarray(), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("variant", ["torus", "torus-masked", "box-affine",
                                     "box-masked", "box-shifted"])
def test_solve_corrector_matches_direct_solve(variant, monkeypatch):
    """The kernel against spsolve on the system restricted by hand."""
    topology = TORUS if variant.startswith("torus") else BOX
    side = 1.0 if topology == TORUS else 2.0
    g = build_grid(2, 16, (0.0, 0.0), side, topology)
    ops = element_ops(g)
    centers = g.element_centers()
    coeff = np.random.default_rng(5).uniform(1.0, 4.0, g.n_elements)
    xi = np.array([0.6, -0.8])
    active = None
    if variant.endswith("masked"):
        local = np.mod(centers, 1.0) - 0.5
        active = np.max(np.abs(local), axis=1) > 0.2
        coeff = coeff * active
    K = ops.assemble_stiffness(coeff)
    monkeypatch.setattr(numerics, "_REL_TOLERANCE", 1e-13)
    kwargs = {}
    expected = np.zeros(g.n_nodes)
    lift = np.zeros(g.n_nodes)
    if topology == TORUS:
        nodes = np.arange(g.n_nodes) if active is None else \
            np.unique(ops.elem_nodes[active])
        rhs = -ops.load_from_element_vectors(coeff[:, None] * xi[None, :])
        expected[nodes] = _pinned_mean_zero_solve(K[nodes][:, nodes], rhs[nodes])
    else:
        free = ~g.boundary_node_mask()
        if active is not None:
            touched = np.zeros(g.n_nodes, dtype=bool)
            touched[ops.elem_nodes[active]] = True
            free &= touched
        free = np.flatnonzero(free)
        if variant == "box-shifted":
            shift = 3.0 * (1.0 + 0.5 * np.sin(centers[:, 1]))
            source = np.cos(centers[:, 0]) + centers[:, 1]
            load = ops.load_from_element_scalars(source)
            A = (K + ops.assemble_mass(shift)).tocsr()
            expected[free] = scipy.sparse.linalg.spsolve(A[free][:, free].tocsc(),
                                                         load[free])
            kwargs = {"shift": shift, "source": source}
        else:
            # the affine-Dirichlet problem, solved with its nodal lift
            # <xi, x - x0>; the kernel returns the corrector, zero on the
            # boundary, and the lift plus the corrector solves it
            lift = (_reference_grid_arrays(g)[0] - np.array([1.0, 1.0])) @ xi
            expected = lift.copy()
            expected[free] += scipy.sparse.linalg.spsolve(K[free][:, free].tocsc(),
                                                          -(K @ lift)[free])
    xis = None if variant == "box-shifted" else [xi]
    [(u, stats)] = solve_corrector(g, coeff, xis, **kwargs)
    assert stats.iterations > 0
    u = lift + u
    assert np.linalg.norm(u - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_preconditioner_inverts_reference_torus(dim):
    """Constant coefficient on the torus: CG with the FFT inverse of the
    reference operator converges in one iteration (mean-zero)."""
    g = build_grid(dim, 16, (0.0,) * dim, 1.0, TORUS)
    ops = element_ops(g)
    K = ops.assemble_stiffness(np.full(g.n_elements, 2.5))
    b = np.random.default_rng(2).standard_normal(g.n_nodes)
    x, stats = cg_solve(SparseSystem(K, symmetric=True, pattern=ops.pattern), b,
                        preconditioner=spectral_preconditioner(g, 2.5))
    assert stats.iterations == 1
    assert np.linalg.norm((b - b.mean()) - K @ x) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_torus_apply_reuses_its_spectrum_buffer(dim, masked):
    # each apply transforms into the closure's one spectrum buffer: an
    # apply leaves no trace in the next, and no result shares the buffer
    g = build_grid(dim, 16, (0.0,) * dim, 1.0, TORUS)
    rng = np.random.default_rng(3)
    unknowns = np.flatnonzero(rng.random(g.n_nodes) < 0.7) if masked else None
    apply = spectral_preconditioner(g, 2.5, 0.5, unknowns)
    r1, r2 = rng.standard_normal((2, g.n_nodes if unknowns is None else len(unknowns)))
    z1 = apply(r1)
    first = z1.copy()
    z2 = apply(r2)
    assert np.array_equal(z1, first) and np.array_equal(apply(r1), first)
    assert np.array_equal(z2, spectral_preconditioner(g, 2.5, 0.5, unknowns)(r2))


def test_solve_corrector_rejects_terms_outside_their_solves():
    # a direction solve takes no shift; source solves are box-only
    box = build_grid(1, 8, (0.0,), 1.0, BOX)
    torus = build_grid(1, 8, (0.0,), 1.0, TORUS)
    coeff, ones = np.ones(8), np.ones(8)
    for grid in (box, torus):
        with pytest.raises(ValueError, match="shift applies to source solves only"):
            solve_corrector(grid, coeff, [np.array([1.0])], shift=ones)
    with pytest.raises(ValueError, match="box grids only"):
        solve_corrector(torus, coeff, source=ones)
    with pytest.raises(ValueError, match="box grids only"):
        solve_corrector(torus, coeff, shift=ones, source=ones)


def test_corrector_response_refuses_what_it_cannot_read():
    # a direction must match the grid, and a p-energy takes no holes: one
    # zero element is refused
    torus = build_grid(2, 4, (0.0, 0.0), 1.0, TORUS)
    coeff = np.ones(torus.n_elements)
    with pytest.raises(ValueError, match=r"xi must have shape \(2,\)"):
        numerics.corrector_response(torus, coeff, [np.array([1.0])])
    coeff[5] = 0.0
    with pytest.raises(ValueError, match="p-energy solves take no holes"):
        numerics.corrector_response(torus, coeff, [np.array([1.0, 0.0])], 3.0)


def test_holes_are_read_off_the_coefficient():
    """A hole is an element whose coefficient is zero, every entry of a
    matrix coefficient; with no hole the kernel gets None. One matrix
    broadcast to every element is read without materializing it."""
    import tracemalloc

    active = numerics._active_elements
    assert active(np.array([1.0, 0.0, -0.0, 2.0, np.nan])).tolist() == \
        [True, False, False, True, True]
    assert active(np.ones(5)) is None
    mats = np.zeros((4, 2, 2))
    mats[0] = np.eye(2)
    mats[2, 0, 1] = 1e-300
    mats[3, 1, 1] = -1.0
    assert active(mats).tolist() == [True, False, True, True]
    assert active(np.ones((4, 2, 2))) is None
    n_e = 320 * 320
    view = np.broadcast_to(np.array([[2.0, 0.3], [0.3, 1.5]]), (n_e, 2, 2))
    tracemalloc.start()
    try:
        assert active(view) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_e       # boolean columns, less than one float64 column


@pytest.mark.parametrize("topology", [TORUS, BOX])
def test_coefficient_without_a_zero_takes_the_unmasked_path(monkeypatch, topology):
    """A coefficient with no zero element, scalar or a matrix with zero
    off-diagonal entries, solves on the cached pattern of every node of a
    torus or of a box interior with every block node unknown: no positions
    and no connectivity check."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solve took the path with holes")

    def whole_block(grid, unknowns):
        positions = block_positions(grid, unknowns)
        if positions is not None:
            refuse()
        return positions

    block_positions = numerics._block_positions
    monkeypatch.setattr(numerics, "_active_nodes_checked", refuse)
    monkeypatch.setattr(numerics, "_block_positions", whole_block)
    g = build_grid(2, 12, (0.0, 0.0), 1.0, topology)
    coeff = np.random.default_rng(6).uniform(1.0, 4.0, g.n_elements)
    diagonal = np.zeros((g.n_elements, 2, 2))
    diagonal[:, 0, 0], diagonal[:, 1, 1] = coeff, 2.0
    for c in (coeff, diagonal):
        [(w, stats)] = solve_corrector(g, c, [np.array([1.0, 0.5])])
        assert stats.iterations > 0
    if topology == BOX:
        [(w, stats)] = solve_corrector(g, coeff, shift=np.ones(g.n_elements),
                                       source=np.ones(g.n_elements))
        assert stats.iterations > 0


@pytest.mark.parametrize("topology", [TORUS, BOX])
def test_zero_coefficient_everywhere_is_refused(topology):
    g = build_grid(2, 8, (0.0, 0.0), 1.0, topology)
    for coeff in (np.zeros(g.n_elements), np.zeros((g.n_elements, 2, 2))):
        with pytest.raises(RuntimeError, match="perforation removed every element"):
            solve_corrector(g, coeff, [np.array([1.0, 0.0])])
        with pytest.raises(RuntimeError, match="perforation removed every element"):
            numerics.corrector_response(g, coeff, [np.array([1.0, 0.0])])


def test_source_solve_iterates_beside_none_of_its_terms(monkeypatch):
    """A box source solve builds its system, preconditioner and load and
    then drops the coefficient, the shift and the source: passed as
    temporaries, none of them is alive while CG runs."""
    import weakref

    g = build_grid(2, 16, (0.0, 0.0), 1.0, BOX)
    rng = np.random.default_rng(8)
    refs = []

    def fresh(values):
        refs.append(weakref.ref(values))
        return values

    real = numerics.cg_solve

    def checked(*args, **kwargs):
        assert len(refs) == 3 and all(ref() is None for ref in refs)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "cg_solve", checked)
    [(w, stats)] = solve_corrector(g, fresh(rng.uniform(1.0, 4.0, g.n_elements)),
                                   shift=fresh(rng.uniform(0.5, 2.0, g.n_elements)),
                                   source=fresh(rng.uniform(-1.0, 1.0, g.n_elements)))
    assert stats.iterations > 0


@pytest.mark.parametrize("dim,lam", [(1, 0.0), (2, 0.0), (2, 7.0), (1, 7.0)])
def test_solve_corrector_exact_on_reference_box(dim, lam):
    """Constant coefficient (plus a constant zeroth-order term lambda) on the
    box: the DST-I inverse with mean-matched a_ref, c_ref inverts the
    system up to the float32 rounding of its apply, so the kernel's CG
    converges in at most two iterations (one with exact arithmetic), and
    the float32 apply maps (a_ref K + c_ref M) x back to x to 1e-5."""
    g = build_grid(dim, 16, (0.0,) * dim, 1.0, BOX)
    coeff = np.full(g.n_elements, 2.5)
    source = np.random.default_rng(4).standard_normal(g.n_elements)
    shift = np.full(g.n_elements, lam) if lam else None
    [(u, stats)] = solve_corrector(g, coeff, shift=shift, source=source)
    load = element_ops(g).load_from_element_scalars(source)
    assert stats.iterations <= 2
    assert stats.residual <= 1e-10 * np.linalg.norm(load)
    interior = np.flatnonzero(~g.boundary_node_mask())
    A = element_ops(g).assemble_stiffness(coeff, shift)[interior][:, interior]
    x = np.random.default_rng(5).standard_normal(len(interior))
    apply = spectral_preconditioner(g, 2.5, lam, interior, dtype=np.float32)
    assert np.linalg.norm(apply(A @ x) - x) <= 1e-5 * np.linalg.norm(x)


@pytest.mark.parametrize("masked", [False, True])
def test_float32_box_apply_matches_float64(monkeypatch, masked):
    """The kernel's float32 DST-I apply on a perforated box (1/256 in the
    holes, or 0, which makes them Neumann holes; shift lambda on the rest):
    CG takes as many iterations as with the float64 apply and reaches the
    same solution to 1e-9; each apply returns float64 and leaves its input
    bit-unchanged."""
    real = numerics.spectral_preconditioner
    g = build_grid(2, 64, (-1.0, -1.0), 2.0, BOX)
    centers = g.element_centers()
    inside = np.linalg.norm(np.mod(centers / 0.25, 1.0) - 0.5, axis=1) < 0.25
    mask = ~inside
    coeff = np.where(inside, 0.0 if masked else 1.0 / 256.0, 1.0)
    source = np.where(mask, np.cos(centers[:, 0]) + centers[:, 1], 0.0)

    def solve(dtype):
        asked = []

        def build(*args, **kwargs):
            asked.append(kwargs["dtype"])
            apply = real(*args, **{**kwargs, "dtype": dtype})

            def checked(r):
                before = r.tobytes()
                z = apply(r)
                assert z.dtype == np.float64 and z.shape == r.shape
                assert r.tobytes() == before
                return z

            return checked

        monkeypatch.setattr(numerics, "spectral_preconditioner", build)
        [(u, stats)] = solve_corrector(g, coeff, shift=7.0 * mask, source=source)
        assert asked == [np.float32]
        return u, stats.iterations

    u32, it32 = solve(np.float32)
    u64, it64 = solve(np.float64)
    assert it32 == it64
    assert np.linalg.norm(u32 - u64) <= 1e-9 * np.linalg.norm(u64)


@pytest.mark.parametrize("topology", [TORUS, BOX])
def test_masked_spectral_preconditioner_is_spd(topology):
    """Zero-extend, apply, restrict keeps the preconditioner symmetric
    positive definite on a masked node subset."""
    g = build_grid(2, 8, (0.0, 0.0), 1.0, topology)
    lattice = (np.arange(g.n_nodes) if topology == TORUS
               else np.flatnonzero(~g.boundary_node_mask()))
    unknowns = lattice[np.random.default_rng(6).random(len(lattice)) < 0.7]
    apply = spectral_preconditioner(g, 1.5, 0.0, unknowns)
    P = np.column_stack([apply(e) for e in np.eye(len(unknowns))])
    assert np.max(np.abs(P - P.T)) <= 1e-12 * np.max(np.abs(P))
    assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() > 0


class TestNonsymmetricKrylov:
    def test_matches_dense_solve(self):
        # assembled on the interior of an 11^2 box (100 unknowns) with a
        # skew part of up to half of each element's coefficient
        rng = np.random.default_rng(11)
        for _ in range(5):
            system, A = random_assembled_system(rng, 11, skew=0.5)
            assert np.abs(A - A.T).max() > 1e-3 * np.abs(A).max()
            b = rng.standard_normal(system.n)
            x, _ = krylov_solve_nonsymmetric(system, b, preconditioner=identity)
            assert np.linalg.norm(b - A @ x) <= 1e-9 * np.linalg.norm(b)
            want = np.linalg.solve(A, b)
            assert np.linalg.norm(x - want) <= 1e-6 * np.linalg.norm(want)

    def test_nan_residual_stops_the_loop(self):
        # a NaN residual ends the iteration at once (the cap here is 60), and
        # the true-residual check rejects the NaN iterate
        A = system_on_pattern(np.diag([2.0, np.nan, 2.0]), symmetric=False)
        with pytest.raises(SolverError, match="true residual nan .* after 1 iterations"):
            krylov_solve_nonsymmetric(A, np.ones(3), preconditioner=identity)

    def test_nonsymmetric_torus_system(self):
        # weak form with a constant skew part; constants span both kernels, so
        # mean-zero compatibility carries over from the symmetric case
        g = build_grid(2, 16, (0.0, 0.0), 1.0, TORUS)
        ops = element_ops(g)
        A_e = two_phase_coeff(g)[:, None, None] * np.array([[2.0, 1.0], [-1.0, 2.0]])
        K = ops.assemble_stiffness(A_e)
        rhs = -ops.load_from_element_vectors(A_e[:, :, 0])
        x, _ = krylov_solve_nonsymmetric(SparseSystem(K, symmetric=False, pattern=ops.pattern),
                                         rhs, preconditioner=identity)
        assert np.linalg.norm(rhs - K @ x) <= 1e-9 * max(np.linalg.norm(rhs), 1e-30)

    @pytest.mark.parametrize("topology", [TORUS, BOX])
    def test_spectral_right_preconditioning(self, topology):
        # checkerboard coefficient with a skew part: the reference inverse of
        # the symmetric part (a_ref = trace / dim) cuts BiCGStab's iterations
        # and keeps them flat under refinement, with the same answer
        iters = {}
        for n in (32, 64):
            g = build_grid(2, n, (0.0, 0.0), 1.0, topology)
            ops = element_ops(g)
            A_e = checkerboard_coeff(g)[:, None, None] * np.array([[2.0, 1.0], [-1.0, 2.0]])
            b = -ops.load_from_element_vectors(A_e[:, :, 0])
            if topology == BOX:
                # the window corrector: the torus load, zero boundary values
                b = b[ops.interior_nodes]
            system = block_system(ops, A_e, symmetric=False)
            a_ref = np.trace(A_e, axis1=1, axis2=2).mean() / 2
            x, stats = krylov_solve_nonsymmetric(
                system, b, preconditioner=spectral_preconditioner(g, a_ref))
            plain, plain_stats = krylov_solve_nonsymmetric(
                system, b, preconditioner=identity)
            assert np.max(np.abs(x - plain)) <= 1e-7 * np.max(np.abs(plain))
            assert stats.iterations < plain_stats.iterations / 3
            iters[n] = stats.iterations
        assert iters[64] <= iters[32] + 5


def brute_force_1d_p_energy(coeff, h, p, xi, tol=1e-12):
    """Independent minimization over piecewise-linear periodic correctors.

    Energy by straight Riemann sums over element gradients; node 0 pinned to
    remove the constant kernel; scipy's BFGS does the optimization.
    """
    n = len(coeff)

    def energy(free):
        v = np.concatenate([[0.0], free])
        dv = (np.roll(v, -1) - v) / h
        return float(np.sum(coeff * np.abs(xi + dv) ** p) * h)

    res = scipy.optimize.minimize(energy, np.zeros(n - 1), method="BFGS",
                                  options={"gtol": tol, "maxiter": 4000})
    return float(res.fun)


class TestPEnergy:
    def test_p2_matches_cg(self):
        g = build_grid(1, 64, (0.0,), 1.0, TORUS)
        coeff = two_phase_coeff(g)
        xi = np.array([1.0])
        prob = PEnergyProblem(g, coeff, 2.0, xi)
        u_min, _ = minimize_p_energy(prob)
        ops = element_ops(g)
        K = SparseSystem(ops.assemble_stiffness(coeff), symmetric=True, pattern=ops.pattern)
        rhs = -2.0 * ops.load_from_element_vectors(coeff[:, None] * xi[None, :])
        # quadratic energy gradient is 2 K u + rhs-source; stationarity gives
        # K u = -load with load from the constant flux term
        u_cg, _ = cg_solve(K, rhs / 2.0, preconditioner=jacobi(K))
        assert np.max(np.abs(u_min - u_cg)) <= 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("topology", [TORUS, BOX])
    def test_gradient_matches_central_differences(self, p, topology):
        g = build_grid(2, 4, (0.0, 0.0), 1.0, topology)
        rng = np.random.default_rng(int(10 * p))
        prob = PEnergyProblem(g, checkerboard_coeff(g), p, np.array([1.0, 0.5]))
        u = 0.1 * rng.standard_normal(prob.n_free)
        step = 1e-5
        fd = np.array([(prob.value(u + step * e) - prob.value(u - step * e)) / (2 * step)
                       for e in np.eye(prob.n_free)])
        assert np.abs(prob.gradient(u) - fd).max() <= 1e-7 * np.abs(fd).max()

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("topology", [TORUS, BOX])
    def test_value_then_gradient_matches_a_fresh_problem(self, p, topology):
        # an energy and a gradient at one point share one evaluation; what
        # the second call reuses gives the bits a fresh problem computes, and
        # a point changed in place in between is evaluated afresh
        g = build_grid(2, 6, (0.0, 0.0), 1.0, topology)
        coeff, xi = checkerboard_coeff(g), np.array([1.0, 0.5])

        def fresh():
            return PEnergyProblem(g, coeff, p, xi)

        prob = fresh()
        u = 0.1 * np.random.default_rng(int(10 * p)).standard_normal(prob.n_free)
        energy = prob.value(u)
        assert np.array_equal(prob.gradient(u), fresh().gradient(u))
        assert prob.value(u.copy()) == energy == fresh().value(u)
        u[3] += 0.05
        assert np.array_equal(prob.gradient(u), fresh().gradient(u))
        assert prob.value(u) == fresh().value(u) != energy

    def test_float_floor_stops_backtracking(self, monkeypatch):
        # with the decrement target moved below what this descent reaches
        # (it stops at 33 iterations with ratio 6.7e-7 at the real target),
        # it meets the float64 energy floor first; the line search must stop
        # halving there instead of spending tens of evaluations per stalled
        # iteration on noise-level Armijo tests
        g = build_grid(2, 32, (0.0, 0.0), 1.0, TORUS)
        coeff = checkerboard_coeff(g)
        xi = np.array([0.3, 0.7])
        calls = []

        class Counted(PEnergyProblem):
            def value(self, u_free):
                calls.append(1)
                return super().value(u_free)

        tol = 1e-8
        monkeypatch.setattr(numerics, "_DECREMENT_RTOL", tol)
        prob = Counted(g, coeff, 1.5, xi)
        _, stats = minimize_p_energy(prob)
        assert tol < stats.residual <= 1e3 * tol      # the floor exit was taken
        assert len(calls) <= 1.25 * stats.iterations + 10

    @pytest.mark.parametrize("n, p, xi", [(32, 3.0, (1.0, 0.0)), (32, 1.5, (0.3, 0.7)),
                                          (128, 3.0, (1.0, 0.0))])
    def test_stops_on_the_decrement_not_the_floor(self, n, p, xi):
        # these solves ended through the float-floor exit under an absolute
        # gradient-norm target of 1e-8 (18, 41 and 22 iterations); the
        # decrement target is reached, which no floor exit reports
        g = build_grid(2, n, (0.0, 0.0), 1.0, TORUS)
        prob = PEnergyProblem(g, checkerboard_coeff(g), p, np.array(xi))
        _, stats = minimize_p_energy(prob)
        assert 0 < stats.residual <= numerics._DECREMENT_RTOL

    @pytest.mark.parametrize("topology", [TORUS, BOX])
    def test_constant_coefficient_returns_at_once(self, topology):
        # w = 0 is the minimum, and the gradient there is rounding noise,
        # which a target relative to the first decrement alone would chase
        g = build_grid(2, 32, (0.0, 0.0), 1.0, topology)
        prob = PEnergyProblem(g, np.full(g.n_elements, 2.5), 3.0, np.array([0.3, -0.7]))
        u, stats = minimize_p_energy(prob)
        assert (stats.iterations, stats.residual) == (0, 0.0)
        assert not u.any()

    def test_1d_p3_against_brute_force(self):
        g = build_grid(1, 16, (0.0,), 1.0, TORUS)
        coeff = two_phase_coeff(g)
        prob = PEnergyProblem(g, coeff, 3.0, np.array([1.0]))
        u, _ = minimize_p_energy(prob)
        mine = prob.value(u)
        oracle = brute_force_1d_p_energy(coeff, g.h, 3.0, 1.0)
        assert abs(mine - oracle) <= 1e-4

    def test_1d_p3_closed_form(self):
        # the discrete optimum over per-element gradients has the closed form
        # (mean a^(-1/(p-1)))^-(p-1) |xi|^p, derived from a * |v'|^(p-2) v'
        # constant across elements
        g = build_grid(1, 32, (0.0,), 1.0, TORUS)
        coeff = two_phase_coeff(g)
        prob = PEnergyProblem(g, coeff, 3.0, np.array([1.0]))
        u, _ = minimize_p_energy(prob)
        expected = float(np.mean(coeff ** (-0.5)) ** (-2.0))
        assert abs(prob.value(u) - expected) <= 1e-8

    def test_energy_monotone_along_iterates(self):
        # the minimizer asserts monotonicity internally; drive it on a 2D
        # problem and track energies through a wrapped value function
        g = build_grid(2, 8, (0.0, 0.0), 1.0, TORUS)
        coeff = two_phase_coeff(g)
        prob = PEnergyProblem(g, coeff, 3.0, np.array([1.0, 0.5]))
        seen = []
        original = prob.value

        def tracking_value(u):
            e = original(u)
            seen.append(e)
            return e

        prob.value = tracking_value
        minimize_p_energy(prob)
        accepted = np.minimum.accumulate(seen)
        assert accepted[-1] <= accepted[0]

    def test_dirichlet_variant_matches_cg(self):
        g = build_grid(2, 8, (0.0, 0.0), 1.0, BOX)
        coeff = two_phase_coeff(g)
        xi = np.array([1.0, 0.0])
        prob = PEnergyProblem(g, coeff, 2.0, xi)
        free = prob.free
        u_min, _ = minimize_p_energy(prob)
        ops = element_ops(g)
        load = ops.load_from_element_vectors(coeff[:, None] * xi[None, :])
        A = block_system(ops, coeff, free)
        u_i, _ = cg_solve(A, -load[free], preconditioner=jacobi(A))
        u_cg = np.zeros(g.n_nodes)
        u_cg[free] = u_i
        assert np.max(np.abs(u_min - u_cg)) <= 1e-6

    def test_nan_coefficient_fails_the_gradient_test(self):
        g = build_grid(1, 8, (0.0,), 1.0, TORUS)
        coeff = np.ones(8)
        coeff[3] = np.nan
        with pytest.raises(SolverError, match="decrement ratio nan"):
            minimize_p_energy(PEnergyProblem(g, coeff, 3.0, np.array([1.0])))

    def test_rejects_bad_parameters(self):
        g = build_grid(1, 8, (0.0,), 1.0, TORUS)
        with pytest.raises(ValueError):
            PEnergyProblem(g, np.ones(8), 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            PEnergyProblem(g, np.ones(4), 2.0, np.array([1.0]))
        # the topology sets the unknowns: every node of the torus, the
        # interior of a box
        assert PEnergyProblem(g, np.ones(8), 2.0, np.array([1.0])).free is None
        box = build_grid(1, 8, (0.0,), 1.0, BOX)
        np.testing.assert_array_equal(
            PEnergyProblem(box, np.ones(8), 2.0, np.array([1.0])).free, np.arange(1, 8))

    def test_deterministic_bit_identical(self):
        g = build_grid(1, 32, (0.0,), 1.0, TORUS)
        coeff = two_phase_coeff(g)
        runs = []
        for _ in range(2):
            prob = PEnergyProblem(g, coeff, 3.0, np.array([1.0]))
            u, _ = minimize_p_energy(prob)
            runs.append(u.tobytes())
        assert runs[0] == runs[1]


class TestPreconditionedLBFGS:
    """The spectral initial Hessian changes iteration counts, not minima.

    The energies were recorded from the plain L-BFGS (initial Hessian
    s^T y / y^T y times the identity) that preceded the preconditioned one.
    """

    # (contrast, p) -> energy of the 2x2 checkerboard at 32^2, xi = e_1
    TORUS_ENERGIES = {
        (4.0, 1.5): 1.9137837057076459,
        (4.0, 3.0): 2.04717992252134,
        (4.0, 4.0): 2.0536988189296963,
        (16.0, 1.5): 3.6101592044848196,
        (16.0, 3.0): 4.7131302197677725,
        (16.0, 4.0): 4.711467453220115,
    }

    @pytest.mark.parametrize("contrast, p", sorted(TORUS_ENERGIES))
    def test_torus_energies_match_plain_lbfgs(self, contrast, p):
        g = build_grid(2, 32, (0.0, 0.0), 1.0, TORUS)
        prob = PEnergyProblem(g, checkerboard_coeff(g, high=contrast), p,
                              np.array([1.0, 0.0]))
        u, _ = minimize_p_energy(prob)
        want = self.TORUS_ENERGIES[contrast, p]
        assert abs(prob.value(u) - want) <= 1e-10 * want

    def test_dirichlet_window_matches_plain_lbfgs(self):
        # a p = 3 window off the checkerboard's symmetry center: the box path
        # with the DST-I inverse on the interior nodes
        f = EnergyDensity(PeriodicStep(2, [1.0, 4.0, 4.0, 1.0],
                                       FieldBounds(1.0, 4.0), dim=2), 3.0)
        value = local_min_energy(f, (0.25, 0.25), 2.0, [1.0, 0.0], 8)
        assert abs(value - 2.1324507115571) <= 1e-10 * 2.1324507115571

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_iterations_do_not_grow_with_the_mesh(self, n):
        # plain L-BFGS takes 67 iterations at 32^2 and 175 at 64^2; this one
        # takes 16, 17 and 18 at 32^2, 64^2 and 128^2
        g = build_grid(2, n, (0.0, 0.0), 1.0, TORUS)
        prob = PEnergyProblem(g, checkerboard_coeff(g), 3.0, np.array([1.0, 0.0]))
        _, stats = minimize_p_energy(prob)
        assert stats.iterations <= 20


class TestMeshRefinement:
    def test_error_ratio_under_refinement(self):
        # smooth Poisson problem; nodal max error must contract by at least
        # 0.75 per halving for n >= 32 (it contracts by ~0.25 in practice)
        errors = []
        for n in (32, 64, 128):
            g = build_grid(2, n, (0.0, 0.0), 1.0, BOX)
            coords = _reference_grid_arrays(g)[0]
            exact = np.sin(np.pi * coords[:, 0]) * np.sin(np.pi * coords[:, 1])
            centers = g.element_centers()
            f = 2 * np.pi ** 2 * np.sin(np.pi * centers[:, 0]) * np.sin(np.pi * centers[:, 1])
            ops = element_ops(g)
            load = ops.load_from_element_scalars(f)
            bc = np.zeros(g.n_nodes)
            A, b, interior = dirichlet_system(g, np.ones(g.n_elements), bc, load)
            u_i, _ = cg_solve(A, b, preconditioner=jacobi(A))
            u = bc.copy()
            u[interior] = u_i
            errors.append(np.max(np.abs(u - exact)))
        assert errors[1] / errors[0] <= 0.75
        assert errors[2] / errors[1] <= 0.75


class TestSolverPolicy:
    def test_iteration_cap_enforced(self, monkeypatch):
        g = build_grid(2, 32, (0.0, 0.0), 1.0, BOX)
        bc = np.zeros(g.n_nodes)
        rng = np.random.default_rng(0)
        load = rng.standard_normal(g.n_nodes)
        A, b, _ = dirichlet_system(g, np.ones(g.n_elements), bc, load)
        # a cap of exactly 2 iterations
        monkeypatch.setattr(numerics, "_ITERATIONS_PER_UNKNOWN", Fraction(2, A.n))
        with pytest.raises(SolverError, match="no convergence in 2 iterations"):
            cg_solve(A, b, preconditioner=jacobi(A))
