"""Perforation tests: membership oracles, penalization sandwich, masked
windows, the extension operator, and the lambda-problem experiment."""

import collections
import itertools

import numpy as np
import pytest

from homlab import numerics
from homlab.fields import power_of_two_cells
from homlab.numerics import TORUS, _active_nodes_checked, build_grid
from homlab.perforation import (
    DecayingShift,
    GaussianSource,
    PerforationSet,
    SparseRemoval,
    check_hole_cell,
    empirical_extension_constant,
    extend_over_ball,
    lambda_problem_experiment,
    masked_cell_matrix,
    masked_cell_value,
    masked_window_value,
    penalized_cell_value,
    symmetric_difference_density,
    volume_fraction,
)

BALLS = PerforationSet("ball", 0.25)
E1 = np.array([1.0, 0.0])


def hole_pixels_per_cell(E, resolution):
    axis = (np.arange(resolution) + 0.5) / resolution
    xg, yg = np.meshgrid(axis, axis, indexing="xy")
    pts = np.column_stack([xg.ravel(), yg.ravel()])
    return int(np.sum(E.membership(pts)))


def test_pattern_validation():
    with pytest.raises(ValueError, match="shape"):
        PerforationSet("hexagon", 0.25)
    with pytest.raises(ValueError, match="radius"):
        PerforationSet("ball", 0.5)
    with pytest.raises(ValueError, match="radius"):
        PerforationSet("ball", -0.1)
    with pytest.raises(ValueError, match="cap"):
        PerforationSet("ball", 0.25, DecayingShift(0.0))
    with pytest.raises(ValueError, match="touch"):
        PerforationSet("ball", 0.45, DecayingShift(0.1))
    with pytest.raises(ValueError, match="points"):
        BALLS.membership(np.zeros(4))


def test_power_of_two_cells():
    k = np.array([1, 2, 3, 4, 8, 0, -2, 16, 12])
    expected = np.array([True, True, False, True, True, False, False, True, False])
    assert np.array_equal(power_of_two_cells(k), expected)


def test_volume_fraction_no_holes():
    assert volume_fraction(PerforationSet("ball", 0.0), 4, 32) == 1.0
    # at resolution 1 every element centre is a cell centre, inside a hole
    with pytest.raises(RuntimeError, match="nontrivial"):
        volume_fraction(PerforationSet("square", 0.45), 4, 1)
    with pytest.raises(ValueError, match="at least 4"):
        volume_fraction(BALLS, 2, 32)


def test_volume_fraction_ball_area():
    est = volume_fraction(BALLS, 4, 128)
    assert abs(est - (1.0 - np.pi / 16.0)) <= 0.002


def test_volume_fraction_square_exact():
    squares = PerforationSet("square", 0.25)
    assert volume_fraction(squares, 4, 16) == 0.75


def test_sparse_removal_same_limit():
    sparse = PerforationSet("ball", 0.25, SparseRemoval())
    est = volume_fraction(sparse, 64, 16)
    assert abs(est - (1.0 - np.pi / 16.0)) <= 0.01
    # removal only adds material
    assert est >= volume_fraction(BALLS, 64, 16)


def test_symmetric_difference_identical():
    assert symmetric_difference_density(BALLS, BALLS, 16, 16) == 0.0


def test_symmetric_difference_sparse_count_oracle():
    sparse = PerforationSet("ball", 0.25, SparseRemoval())
    pixels = hole_pixels_per_cell(BALLS, 16)
    removed = {16: 9, 32: 16, 64: 25}  # powers of two inside [-R/2, R/2)
    densities = []
    for R, count in removed.items():
        density = symmetric_difference_density(BALLS, sparse, R, 16)
        assert density == pytest.approx(count * pixels / (R * 16) ** 2, abs=1e-15)
        densities.append(density)
    assert densities[0] > densities[1] > densities[2]


def test_symmetric_difference_shift_decreasing():
    base = PerforationSet("ball", 0.2)
    shifted = PerforationSet("ball", 0.2, DecayingShift(0.1))
    values = [symmetric_difference_density(base, shifted, R, 32)
              for R in (16, 32, 64)]
    assert values[0] > values[1] > values[2]


def test_penalized_trivial_cases():
    assert abs(penalized_cell_value(PerforationSet("ball", 0.0), 4, E1, 64)
               - 1.0) <= 1e-12
    assert abs(penalized_cell_value(BALLS, 1, E1, 64) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match=">= 1"):
        penalized_cell_value(BALLS, 0.5, E1, 64)
    with pytest.raises(ValueError, match="at least 64"):
        penalized_cell_value(BALLS, 4, E1, 32)


@pytest.fixture(scope="module")
def sandwich_values():
    masked = masked_cell_value(BALLS, E1, 64)
    penalized = {n: penalized_cell_value(BALLS, n, E1, 64)
                 for n in (4, 16, 64, 256)}
    return masked, penalized


def test_penalized_monotone_above_masked(sandwich_values):
    masked, penalized = sandwich_values
    values = [penalized[n] for n in (4, 16, 64, 256)]
    assert values[0] > values[1] > values[2] > values[3]
    for v in values:
        assert v >= masked
    assert penalized[256] - masked <= 0.02 * masked


def test_extension_sandwich_bound(sandwich_values):
    masked, penalized = sandwich_values
    c_hat = empirical_extension_constant()
    for n in (16, 64, 256):
        assert penalized[n] <= (1.0 + 1.5 * c_hat ** 2 / n) * masked


def test_masked_below_material_fraction():
    result, theta = masked_cell_matrix(BALLS, 64)
    value = masked_cell_value(BALLS, E1, 64)
    assert value <= theta * 1.0 + 1e-12
    assert abs(value - result.matrix[0, 0]) <= 1e-10
    # square symmetry of the pattern
    assert abs(result.matrix[0, 0] - result.matrix[1, 1]) <= 1e-10
    assert abs(result.matrix[0, 1]) <= 1e-12
    eigs = np.linalg.eigvalsh(result.matrix)
    assert eigs.min() > 0.0 and eigs.max() <= 1.0


def test_masked_cell_matrix_reports_each_direction_solve():
    result, _ = masked_cell_matrix(BALLS, 32)
    assert len(result.solver_iterations) == len(result.residuals) == 2
    assert all(its > 0 for its in result.solver_iterations)
    assert result.extension_constant == 3.0


def test_masked_connectivity_errors():
    grid = build_grid(2, 8, (0.0, 0.0), 1.0, TORUS)
    with pytest.raises(RuntimeError, match="every element"):
        _active_nodes_checked(grid, np.zeros(grid.n_elements, dtype=bool))
    rows = np.arange(grid.n_elements) // 8
    two_strips = (rows < 2) | ((rows >= 4) & (rows < 6))
    with pytest.raises(RuntimeError, match="disconnected"):
        _active_nodes_checked(grid, two_strips)


def _bfs_components(grid, active):
    """Oracle: the sorted nodes of the active elements and the number of
    their components, two active elements being neighbours when they share
    a node, by a plain breadth-first search over the elements at each node."""
    n, nodes, dim = grid.cells_per_axis, grid.nodes_per_axis, grid.dim
    at_node = {}
    for e in np.flatnonzero(active).tolist():
        cell = [e // n ** k % n for k in range(dim)]
        for corner in itertools.product((0, 1), repeat=dim):
            node = sum((i + a) % nodes * nodes ** k
                       for k, (i, a) in enumerate(zip(cell, corner)))
            at_node.setdefault(node, []).append(e)
    elements = {e for touching in at_node.values() for e in touching}
    corners = {}
    for node, touching in at_node.items():
        for e in touching:
            corners.setdefault(e, []).append(node)
    seen, components = set(), 0
    for start in sorted(elements):
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = collections.deque([start])
        while queue:
            e = queue.popleft()
            for node in corners[e]:
                for f in at_node[node]:
                    if f not in seen:
                        seen.add(f)
                        queue.append(f)
    return sorted(at_node), components


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("topology", ["torus", "box"])
def test_masked_connectivity_matches_bfs(dim, topology):
    # the numpy labelling against a plain breadth-first search on seeded
    # random masks, 2-cell axes included: the same node set, or the same
    # error with the same component count
    rng = np.random.default_rng(20 + 2 * dim + (topology == "box"))
    for trial in range(60):
        cells = 2 + trial % 4 if trial < 20 else int(rng.integers(2, 10 if dim == 2 else 40))
        grid = build_grid(dim, cells, (0.0,) * dim, 1.0, topology)
        active = rng.random(grid.n_elements) < rng.uniform(0.1, 0.9)
        if not active.any():
            continue
        nodes, components = _bfs_components(grid, active)
        if components == 1:
            assert _active_nodes_checked(grid, active).tolist() == nodes
        else:
            with pytest.raises(RuntimeError, match=fr"\({components} components\)"):
                _active_nodes_checked(grid, active)


@pytest.mark.parametrize("resolution", [32, 33, 64, 96])
def test_holes_covering_every_element_centre_are_invalid(resolution):
    # the rule tests the four corner centres; it must agree with every
    # centre of the cell, also for radii at the outermost centre's distance
    # (0.4921875 at 64) and with the sparse removal
    grid = build_grid(2, resolution, (0.0, 0.0), 1.0, TORUS)
    centers = grid.element_centers()
    edge = 0.5 - 0.5 / resolution
    radii = [0.25, 0.45, 0.49, 0.495, 0.499, edge, np.nextafter(edge, 0.0)]
    for shape in ("ball", "square"):
        for radius in radii:
            for removal in (None, SparseRemoval()):
                E = PerforationSet(shape, radius, removal)
                covered = bool(E.membership(centers).all())
                assert covered == (shape == "square" and radius >= edge)
                if covered:
                    with pytest.raises(ValueError, match="every element centre"):
                        check_hole_cell(E, resolution, "cell_resolution")
                else:
                    check_hole_cell(E, resolution)
    # the solves raise it before the masked solve's RuntimeError
    with pytest.raises(ValueError, match="resolution 64 puts every"):
        masked_cell_value(PerforationSet("square", 0.495), E1, 64)


def test_masked_window_sandwiches_cell():
    cell = masked_cell_value(BALLS, E1, 16)
    values = [masked_window_value(BALLS, (0.0, 0.0), R, E1, 16)
              for R in (4, 8, 16)]
    for v in values:
        assert v >= cell - 1e-12
    gaps = [v - cell for v in values]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3 * cell


def test_masked_window_rejects_small_window():
    # the hole is resolved (8 cells across its diameter) but the 0.25 window
    # spans only 4 cells per axis
    with pytest.raises(ValueError, match="at least 8 cells"):
        masked_window_value(BALLS, (0.0, 0.0), 0.25, E1, 16)


def test_masked_window_sparse_perturbation():
    sparse = PerforationSet("ball", 0.25, SparseRemoval())
    diffs = []
    for R in (8, 16):
        v = masked_window_value(BALLS, (0.0, 0.0), R, E1, 16)
        v_sparse = masked_window_value(sparse, (0.0, 0.0), R, E1, 16)
        diffs.append(abs(v - v_sparse) / v)
    assert diffs[1] <= 0.05
    assert diffs[1] < diffs[0]


def test_energy_flux_cross_check_guards_every_value(monkeypatch):
    # an energy evaluation off by 1e-6 breaks its pairing with the flux:
    # each p = 2 value read off a corrector is cross-checked
    from homlab.fields import Constant, EnergyDensity, FieldBounds
    from homlab.rve import local_min_energy

    energy = numerics.ElementOps.energy_quadratic

    def skewed(self, *args):
        return energy(self, *args) * (1.0 + 1e-6)

    monkeypatch.setattr(numerics.ElementOps, "energy_quadratic", skewed)
    with pytest.raises(numerics.GuardError, match="cross-check"):
        penalized_cell_value(BALLS, 4, E1, 64)
    with pytest.raises(numerics.GuardError, match="cross-check"):
        masked_window_value(BALLS, (0.0, 0.0), 4, E1, 16)
    density = EnergyDensity(Constant(2.0, FieldBounds(1.0, 4.0), dim=2))
    with pytest.raises(numerics.GuardError, match="cross-check"):
        local_min_energy(density, 0.0, 1.0, E1, 8)


def test_extension_constant_input():
    result = extend_over_ball(lambda x, y: np.full_like(x, 5.0), 16)
    assert result.gradient_ratio == 0.0
    assert result.annulus_mean == pytest.approx(5.0)
    assert np.all(result.inner_values == pytest.approx(5.0))


def test_extension_linear_homothety():
    r1 = extend_over_ball(lambda x, y: x, 24)
    r2 = extend_over_ball(lambda x, y: x, 24, scale=2.0)
    assert 0.5 < r1.gradient_ratio < 3.0
    assert abs(r1.gradient_ratio - r2.gradient_ratio) <= 1e-3
    assert abs(r1.annulus_mean) <= 1e-10


def test_extension_validation():
    with pytest.raises(ValueError, match="resolution"):
        extend_over_ball(lambda x, y: x, 2)
    with pytest.raises(ValueError, match="scale"):
        extend_over_ball(lambda x, y: x, 16, scale=0.0)
    with pytest.raises(ValueError, match="shape"):
        extend_over_ball(lambda x, y: np.zeros(3), 16)


def test_empirical_constant_deterministic():
    c1 = empirical_extension_constant()
    c2 = empirical_extension_constant()
    assert c1 == c2
    assert 1.0 <= c1 <= 3.0


def test_lambda_no_holes_and_zero_source():
    rep = lambda_problem_experiment(PerforationSet("ball", 0.0), 1.0,
                                    GaussianSource(), (0.25,), resolution=128)
    assert rep.distances[0] <= 1e-8
    rep0 = lambda_problem_experiment(BALLS, 1.0, lambda pts: np.zeros(len(pts)),
                                     (0.25,), resolution=128)
    assert rep0.distances[0] == 0.0


def test_lambda_distances_decrease():
    rep = lambda_problem_experiment(BALLS, 1.0, GaussianSource(),
                                    (0.25, 0.125), resolution=128)
    assert rep.distances[0] > rep.distances[1]
    assert abs(rep.theta - (1.0 - np.pi / 16.0)) <= 0.01
    assert abs(rep.hom_matrix[0, 0] - rep.hom_matrix[1, 1]) <= 1e-10


def test_lambda_homogenized_solve_runs_cg(monkeypatch):
    # the masked cell matrix is symmetric only to rounding (~1e-17
    # relative); spread over the box it must still count as symmetric
    def refuse(*args, **kwargs):
        raise AssertionError("BiCGStab ran")

    monkeypatch.setattr(numerics, "krylov_solve_nonsymmetric", refuse)
    rep = lambda_problem_experiment(BALLS, 1.0, GaussianSource(), (0.5,),
                                    resolution=64, cell_resolution=32)
    assert rep.hom_matrix[0, 1] != rep.hom_matrix[1, 0]
    assert rep.distances[0] > 0.0


def test_lambda_validation():
    with pytest.raises(ValueError, match="lambda"):
        lambda_problem_experiment(BALLS, 0.0, GaussianSource(), (0.25,),
                                  resolution=128)
    with pytest.raises(ValueError, match="epsilon"):
        lambda_problem_experiment(BALLS, 1.0, GaussianSource(), (2.0,),
                                  resolution=128)
    with pytest.raises(ValueError, match="across a hole"):
        lambda_problem_experiment(BALLS, 1.0, GaussianSource(), (1.0 / 16.0,),
                                  resolution=128)
    # 1.01 * 64 cells do not tile the box
    with pytest.raises(ValueError, match="positive integer"):
        lambda_problem_experiment(BALLS, 1.0, GaussianSource(), (0.5,),
                                  box_size=1.01, resolution=64)
