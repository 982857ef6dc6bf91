"""Uniform-grid finite element kernels shared by every solver in the package.

Grids are uniform in 1D (linear elements) and 2D (bilinear elements) with two
topologies: a torus that identifies opposite faces (periodic cell problems)
and a box whose boundary nodes are held at zero (window estimators, truncated
domains).
Coefficients are sampled once per element at its center, so discontinuous
microstructures are represented as element-wise constants. The reference
element is the tensor product of the two-node 1D element; its stiffness,
mass and every energy are integrated with the 2-point Gauss rule on each
axis in every dimension, which is exact for the stiffness and the mass and
keeps the assembled stiffness free of spurious zero-energy modes.

Every array on a grid (nodes, elements, the stencil, the spectral symbol,
window points) is a tensor product of per-axis data, stored with x fastest.
That layout lives in one helper pair: ``_on_axis`` places a per-axis array
as a broadcastable view for its axis, and ``tensor_points`` lists the points
of a product of coordinate axes. The grid code builds per-axis arrays and
combines them through these two, with no branch on the dimension.

Every linear solve in the package goes through one kernel,
``solve_corrector``: it takes every term of -div(a grad u) + c u = f per
element, assembles the stiffness of a plus the c-weighted mass on the grid
block (every node of the torus, the interior nodes of a box) by GEMMs into
its stencil table, filled one slab of lines at a time, which is the CSR
data: full 3^dim rows, with explicit zeros where a stencil leaves a box
and in the rows and columns of nodes that are not unknowns (``ElementOps``,
``CsrPattern``; wrapped torus rows stay unsorted, as scipy allows). The
unknowns are mean-zero on the torus, interior nodes on a box, and the nodes
of elements outside the holes; a solve with holes gathers them from the
block around each product (``SparseSystem.apply``). It builds the
right-hand side and prolongs the solution back to a full nodal vector. A
hole is an element whose coefficient is zero (every entry of a matrix), the
n -> infinity limit of a penalized coefficient 1/n on a Neumann hole (Jikov,
Kozlov and Oleinik, 1994, ch. 3); p-energy solves take no holes. A
direction xi is solved in one form on both topologies: the
corrector w of u = <xi, x - x0> + w, periodic on the torus and zero on the
box boundary (the window form of Bourgeat and Piatnitski, Ann. IHP 40,
2004), loaded by -div(a xi). Energies and fluxes are those of xi + grad w;
no affine boundary data are built. Its single solver policy takes no options
and reads symmetry from the coefficients (``is_symmetric``, relative to
``SYMMETRY_RTOL``): symmetric (SPD) systems are solved by CG preconditioned
with the fast-diagonalization inverse of a constant-coefficient reference
operator a_ref K + c_ref M (real FFT on the torus, DST-I on the box; see
``spectral_preconditioner``), so the iteration count is bounded by the
coefficient contrast and does not grow with the resolution; nonsymmetric
systems use BiCGStab right-preconditioned with the same inverse for their
symmetric part. Both stop on the unpreconditioned residual at 1e-10 of the
right-hand side, check the true residual at the end and fail after 20
iterations per unknown. The grid sets the precision of the inverse's
transforms (``spectral_preconditioner``): float64 on the torus and float32
on the box, where it halves the transform's cost; the solvers themselves
run in float64, so the rounding of a float32 apply can cost an iteration
but not accuracy (the mixed-precision split of Higham and Mary, Acta
Numerica 31, 2022).

The p-power energies are minimized by L-BFGS (``minimize_p_energy``),
started from w = 0 on both topologies. Its initial inverse Hessian is the
same reference inverse P for a_ref = 1, in the same precision as for the
Krylov solves and scaled per iteration: a preconditioned two-loop recursion
whose iteration count, like CG's, does not grow with the mesh. P is linear,
so it is applied once per accepted step, to the new gradient: each
curvature pair keeps P y as the difference of the P g of its ends, and the
recursion combines those (``_lbfgs_direction``). It stops when the
decrement of its direction, sqrt(-g^T d), falls to 1e-6 of its value at
w = 0, a measure that does not depend on the mesh either, under the same
iteration cap. An energy and a gradient at one point share one pass over
the quadrature points and one power per point, |xi + grad v|^(p-2),
keyed on the point's values (``PEnergyProblem``): the gradient at an
accepted step reuses the rows and the scale its line search built.

Every quantity read off a corrector, the energy of xi + grad w per unit
volume and the mean flux a (xi + grad w), comes from one function,
``corrector_response``: one ``solve_corrector`` call for all directions at
p = 2, one L-BFGS minimization per direction at any other p. At p = 2 and
symmetric coefficients w minimizes the quadratic energy, so flux . xi equals
the energy (Jikov, Kozlov and Oleinik, Homogenization of Differential
Operators and Integral Functionals, 1994, 1.1); every such response is
cross-checked on that identity.

Solvers are written here rather than taken from scipy.sparse.linalg because
the periodic problems are singular (constants in the kernel) and need the
mean-zero subspace handled explicitly, and because reruns must be
bit-identical.

Every soundness guard of the package (field bounds, symmetry, the
homogenized eigenvalue window, the energy/flux cross-check, the growth
sandwich and the statistic's homogeneity in t) reads its tolerance from
one table of constants next to ``GuardError``: one row per guard, with its
scale rule and the places that use it. Two rows share the relative rule
|value - reference| <= tol * max(|reference|, 1) through ``agrees``; the
growth sandwich of every cell and window energy is ``check_growth``.

scipy is imported where it is first used, never with the module, so the
import, ``validate`` and the torus p-energy solves load none of it and the
box p-energy solves load only ``scipy.fft``: ``scipy.sparse`` loads at the
first assembly (``CsrPattern.matrix``) and ``scipy.fft`` at the first box
preconditioner (``spectral_preconditioner``). The connectivity check of a
solve with holes (``_active_nodes_checked``) labels components with numpy
alone, so no solve loads scipy's graph routines, ``scipy.sparse.linalg`` or
``scipy.linalg``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

TORUS = "torus"
BOX = "box"
MAX_DIM = 2  # grids are 1D or 2D

# the solver policy; read at call time
_REL_TOLERANCE = 1e-10          # Krylov: residual relative to the rhs
_DECREMENT_RTOL = 1e-6          # L-BFGS: decrement relative to its first value
_ITERATIONS_PER_UNKNOWN = 20    # every solver's iteration cap
# every tolerance test below is written so that a NaN value fails it


class SolverError(RuntimeError):
    """A linear or nonlinear solve failed to reach its tolerance."""


class GuardError(RuntimeError):
    """A soundness guard fired: a computed result contradicts what the
    analysis guarantees (field bounds, energy/flux cross-checks, symmetry,
    eigenvalue window, growth sandwich, verdict/trace consistency)."""


# The soundness-guard tolerances, one row per guard: the value, the scale
# rule it is applied with and the guards that read it. Every guard is
# written as its negated pass condition, so a NaN fails it.
#
# |c_kl - c_lk| <= tol * max(max|c|, 1e-300) over the coefficients or the
# assembled matrix: is_symmetric, SparseSystem (the latter raises ValueError)
SYMMETRY_RTOL = 1e-12
# alpha - tol <= value <= beta + tol, absolute: fields.eval_scalar; the
# symmetric-part eigenvalues and the norm of fields.constant_matrix (ValueError)
FIELD_BOUNDS_ATOL = 1e-12
# max|A - A^T| <= tol * max(max|A|, 1e-300): cell.HomogenizedResult
HOM_SYMMETRY_RTOL = 1e-8
# eigenvalues of sym(A) in [alpha / C^2 - s, beta + s], s = tol * max(beta, 1):
# cell.HomogenizedResult
HOM_EIGEN_RTOL = 1e-9
# agrees(flux . xi, energy, tol) for symmetric coefficients: corrector_response
PAIRING_RTOL = 1e-8
# alpha |xi|^p <= value <= beta (1 + |xi|^p), each bound b widened by
# tol * max(1, b): check_growth
GROWTH_RTOL = 1e-9
# agrees(psi(t), (t / t0)^p psi(t0), tol): stability.run_stability_pair
HOMOGENEITY_RTOL = 1e-12


def agrees(value: float, reference: float, tol: float) -> bool:
    """|value - reference| <= tol * max(|reference|, 1); False when either is
    NaN. The scale rule of the relative guard rows that compare a computed
    value with the one the analysis predicts."""
    return abs(value - reference) <= tol * max(abs(reference), 1.0)


def check_growth(value: float, alpha: float, beta: float, p: float, xi):
    """GuardError unless alpha |xi|^p <= value <= beta (1 + |xi|^p), the growth
    sandwich of an energy density per unit volume, each bound b widened by
    ``GROWTH_RTOL`` * max(1, b)."""
    xi_norm = float(np.linalg.norm(xi))
    lo = alpha * xi_norm ** p
    hi = beta * (1.0 + xi_norm ** p)
    if not (lo - GROWTH_RTOL * max(1.0, lo) <= value
            <= hi + GROWTH_RTOL * max(1.0, hi)):
        raise GuardError(f"energy {value:.12g} escapes the growth "
                         f"bounds [{lo:.6g}, {hi:.6g}]")


def _on_axis(a, k: int, dim: int) -> np.ndarray:
    """``a`` as a view that broadcasts along axis k of the tensor layout of a
    ``dim``-dimensional grid. The layout stores x fastest, so axis k is array
    axis dim - 1 - k. Each axis of ``a`` opens its own block of ``dim`` array
    axes: a per-axis (m, n) array lands on an (m-block, n-block) layout."""
    a = np.asarray(a)
    shape = []
    for length in a.shape:
        shape += [1] * (dim - 1 - k) + [length] + [1] * k
    return a.reshape(shape)


def tensor_points(axes) -> np.ndarray:
    """The (m, dim) points of the tensor product of coordinate ``axes``
    (axes[k] holds the coordinates along axis k), x fastest."""
    axes = [np.asarray(a) for a in axes]
    dim = len(axes)
    out = np.empty([len(a) for a in reversed(axes)] + [dim],
                   dtype=np.result_type(*axes))
    for k, a in enumerate(axes):
        out[..., k] = _on_axis(a, k, dim)
    return out.reshape(-1, dim)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on an axis-aligned cube.

    ``cells_per_axis`` elements of size ``side_length / cells_per_axis`` per
    axis. Torus grids have ``cells_per_axis`` nodes per axis (the wrap node is
    identified), box grids have one more.
    """

    dim: int
    cells_per_axis: int
    origin: tuple[float, ...]
    side_length: float
    topology: str

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be between 1 and {MAX_DIM}, got {self.dim}")
        if self.cells_per_axis < 2:
            raise ValueError(f"cells_per_axis must be >= 2, got {self.cells_per_axis}")
        if not self.side_length > 0:
            raise ValueError(f"side_length must be positive, got {self.side_length}")
        if self.topology not in (TORUS, BOX):
            raise ValueError(f"topology must be '{TORUS}' or '{BOX}', got {self.topology!r}")
        if len(self.origin) != self.dim:
            raise ValueError(f"origin has {len(self.origin)} entries for dim {self.dim}")

    @property
    def h(self) -> float:
        return self.side_length / self.cells_per_axis

    @property
    def nodes_per_axis(self) -> int:
        return self.cells_per_axis if self.topology == TORUS else self.cells_per_axis + 1

    @property
    def n_nodes(self) -> int:
        return self.nodes_per_axis ** self.dim

    @property
    def n_elements(self) -> int:
        return self.cells_per_axis ** self.dim

    def element_centers(self) -> np.ndarray:
        """Element center coordinates, shape (n_elements, dim)."""
        return tensor_points([o + self.h * (np.arange(self.cells_per_axis) + 0.5)
                              for o in self.origin])

    def element_nodes(self) -> np.ndarray:
        """Corner node ids per element, shape (n_elements, 2**dim).

        Local order is x-fastest: 1D (left, right), 2D (ll, lr, ul, ur).
        """
        n, nodes, dim = self.cells_per_axis, self.nodes_per_axis, self.dim
        corner = (np.arange(2)[:, None] + np.arange(n, dtype=np.int64)) % nodes  # [a, e]
        ids = sum(_on_axis(corner * nodes ** k, k, dim) for k in range(dim))
        # built as [a, e] (local node outermost) and transposed once: the
        # other order broadcasts 2-3x slower
        return np.ascontiguousarray(ids.reshape(2 ** dim, n ** dim).T)

    def boundary_node_mask(self) -> np.ndarray:
        """Boolean mask of boundary nodes (box topology only)."""
        if self.topology != BOX:
            raise ValueError("torus grids have no boundary")
        nn = self.nodes_per_axis
        on_edge = np.zeros(nn, dtype=bool)
        on_edge[[0, -1]] = True
        return reduce(np.logical_or,
                      (_on_axis(on_edge, k, self.dim) for k in range(self.dim))).ravel()


def nearest_integer(x: float) -> int | None:
    """The integer within 1e-9 of ``x``, or None when there is none (also
    for non-finite ``x``)."""
    if not np.isfinite(x):
        return None
    n = int(round(x))
    return n if abs(x - n) <= 1e-9 else None


def cells_across(side: float, resolution: int) -> int:
    """Cells across a side of length ``side`` at ``resolution`` cells per unit.

    The product must be a positive integer (to 1e-9), so the cells tile the
    side exactly; otherwise ValueError.
    """
    n = nearest_integer(side * resolution)
    if n is None or n < 1:
        raise ValueError(f"side {side:g} times resolution {resolution} "
                         "must be a positive integer")
    return n


def build_grid(dim: int, cells_per_axis: int, origin, side_length: float,
               topology: str) -> Grid:
    return Grid(dim, cells_per_axis, tuple(float(o) for o in origin),
                float(side_length), topology)


# Reference-element data. The Q1 element on the unit cube is the tensor
# product of the two-node 1D element, integrated with the 2-point Gauss rule
# on each axis in every dimension: exact for the mass and the stiffness.

_GAUSS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])

# Stencil-table rows per slab of ``ElementOps._assemble``. One slab's corner
# copies take 2^dim P doubles a row, 0.66 MB at P = 5 (a matrix coefficient
# and a shift), and no array over the whole table but the CSR data is held.
# Timed on a 2-vCPU host (the best of 40 assemblies, three alternating
# rounds) on the 319^2 box interior and the 120^2 torus: 4096 rows was the
# fastest; 1024 rows paid the per-slab overhead (box scalar 4.6-6.5 ms
# against 2.8-3.5) and 8192 and 16384 rows ran the matrix-coefficient box
# assembly slower (7.6-11.6 ms against 6.3-8.0).
_SLAB_ROWS = 4096


def _reference_element(dim: int):
    """Weights (n_q,), shape values (n_q, 2**dim) and gradients
    (n_q, dim, 2**dim) at the Gauss points of the unit reference element,
    corners x fastest like ``Grid.element_nodes``. Corner c has the factor
    1 - t (c_k = 0) or t (c_k = 1) and the slope 2 c_k - 1 on axis k."""
    pts = tensor_points([_GAUSS] * dim)[:, None, :]             # [q, 1, k]
    corners = tensor_points([np.array([0.0, 1.0])] * dim)       # [a, k]
    factor = np.where(corners > 0, pts, 1 - pts)                # [q, a, k]
    grads = np.stack([(2 * corners[:, k] - 1)
                      * np.delete(factor, k, axis=2).prod(axis=2)
                      for k in range(dim)], axis=1)
    return np.full(2 ** dim, 0.5 ** dim), factor.prod(axis=2), grads


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class CsrPattern:
    """Sparsity of the matrices assembled on the solve block of a grid, and
    where their entries come from.

    The block is ``side`` nodes per axis: every node of a torus, from node
    0, or the interior nodes of a box, from node 1 on every axis. It wraps
    on every axis when ``torus`` is set and ends at its faces otherwise. A
    matrix on the pattern is the block's whole stencil table, with one row
    per block node and one column per stencil offset class, x fastest: 3
    classes per axis (offsets -1, 0, +1), or 2 on a 2-node torus axis, whose
    offsets -1 and +1 are one node. Its CSR data *is* that table, so every
    row has the same ``classes**dim`` slots, ``indptr`` is uniform and
    ``indices`` lists each slot's column, with scipy's index dtype. A slot
    whose neighbour lies beyond a box face holds 0 in the row's own column;
    a torus row that wraps lists its columns unsorted (node 0 reads node
    side - 1 first), as scipy's CSR kernels allow. ``incidence[a, b, c]`` is
    1 when element-local node b sits in class c of local node a. Every array
    is read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    side: int
    torus: bool
    incidence: np.ndarray

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with entries ``data``; it shares the index arrays."""
        import scipy.sparse as sp    # the first assembly pays for loading it

        n = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def symmetry_defect(self, data: np.ndarray) -> tuple[float, float]:
        """max |entry| and max |entry - transposed entry| over the entries
        ``data`` of a matrix on this pattern, each NaN when it meets a NaN.

        Table entry (node x, class c) holds the entry of column x + delta_c,
        so its transposed entry is table entry (x + delta_c, class -c), the
        opposite offset on every axis. Each pair of mirrored classes is
        compared as shifted views of the table, one piece at a time and with
        no index map (``_mirror_views``); the centre class is its own mirror
        and is read only where an entry is not finite, for which x - x is
        NaN. A slot beyond a box face has no mirror in the block and is not
        compared; it holds 0, as do the slots of a node outside a solve's
        unknowns and their mirrors.
        """
        dim = len(self.incidence).bit_length() - 1
        classes = 2 if self.incidence.shape[2] == 2 ** dim else 3
        scale = _max_abs(data)
        table = data.reshape((self.side,) * dim + (classes,) * dim)
        worst = 0.0
        for a, b in _mirror_views(dim, classes, self.side, self.torus, not np.isfinite(scale)):
            worst = np.maximum(worst, _max_abs(table[a] - table[b]))
        return scale, worst


def _max_abs(x: np.ndarray) -> float:
    """max |x| as max(max x, -min x): no temporary, and NaN propagates."""
    return np.maximum(x.max(), -x.min())


@lru_cache(maxsize=None)
def _mirror_pairs(dim: int, classes: int, centre: bool) -> tuple:
    """(class, offset, mirror class) per pair of mirrored stencil classes
    of a table with ``classes`` classes per axis, slowest axis first: one
    class of each pair, the one whose offset is positive on the slowest axis
    where it is not zero, and the centre, its own mirror at offset 0, only
    with ``centre``. On a 2-node torus axis a class is its own mirror, one
    node away either way: it is listed with offset +1."""
    out = []
    for c in np.ndindex((classes,) * dim):
        step = tuple(k - 1 if classes == 3 else 1 - k for k in c)
        moved = [s for s in step if s]
        if moved[0] > 0 if moved else centre:
            out.append((c, step, tuple((2 - k) % classes for k in c)))
    return tuple(out)


@lru_cache(maxsize=16)
def _mirror_views(dim: int, classes: int, side: int, torus: bool, centre: bool) -> tuple:
    """Index pairs (entries, their mirrors) into a stencil table: each
    class of ``_mirror_pairs`` against its mirror class shifted by its
    offset, in pieces per axis, one for the nodes whose neighbour lies
    inside the block and, on a torus, one for the line that wraps. A piece
    with no node (a box block of one node per axis) is left out."""
    inside = (slice(0, side - 1), slice(1, side))     # (entries, mirrors) at +1
    wrapped = (slice(side - 1, side), slice(0, 1))
    moving = [inside, wrapped] if torus else [inside] if side > 1 else []

    def pieces(s):
        if not s:
            return [(slice(None), slice(None))]
        return moving if s > 0 else [p[::-1] for p in moving]

    out = []
    for c, step, m in _mirror_pairs(dim, classes, centre):
        for per_axis in itertools.product(*map(pieces, step)):
            out.append((tuple(a for a, _ in per_axis) + c, tuple(b for _, b in per_axis) + m))
    return tuple(out)


@lru_cache(maxsize=8)
def _csr_pattern(dim: int, cells: int, topology: str) -> CsrPattern:
    """The ``CsrPattern`` of the solve block of a grid shape, every node of
    a torus or the interior nodes of a box: ``side`` nodes per axis.

    The column table is a tensor combination of per-axis [node, class]
    arrays: a slot's column sums the per-axis neighbours (a torus wraps),
    and on a box a slot that leaves the block on any axis takes the row's
    own column. Grids of one shape share the pattern.
    """
    torus = topology == TORUS
    side = cells - (not torus)
    classes = 2 if torus and side == 2 else 3
    width = classes ** dim
    # per axis [node x, class c]: the neighbour at offset c - 1, if any
    neighbour = np.arange(side)[:, None] + np.arange(classes) - 1
    present = torus | ((neighbour >= 0) & (neighbour < side))
    neighbour %= side
    # scipy's choice for CSR index arrays: int32 whenever the values fit
    idx = np.int32 if side ** dim * width <= np.iinfo(np.int32).max else np.int64

    def table(op, per_axis):
        # class-major: one class at a time over the long node axes, into its
        # column of the [node, class] table; one broadcast over the whole
        # table runs numpy's inner loop over a 3-wide class axis, 2-6x slower
        out = np.empty((side,) * dim + (classes,) * dim, dtype=np.result_type(*per_axis))
        for c in np.ndindex(out.shape[dim:]):
            out[(...,) + c] = reduce(op, (_on_axis(a[:, c[dim - 1 - k]], k, dim)
                                          for k, a in enumerate(per_axis)))
        return out.reshape(side ** dim, width)

    indices = table(np.add, [(neighbour * side ** k).astype(idx) for k in range(dim)])
    if not torus:
        own = np.arange(side ** dim, dtype=idx)[:, None]
        indices = np.where(table(np.logical_and, [present] * dim), indices, own)
    indptr = np.arange(0, (side ** dim + 1) * width, width, dtype=idx)
    # incidence per axis: local node b of local node a has offset b - a; the
    # tensor product puts x fastest
    axis = np.eye(classes)[(np.arange(2) - np.arange(2)[:, None] + 1) % classes]
    incidence = reduce(np.kron, [axis] * dim)
    return CsrPattern(*_frozen(indptr, indices.ravel()), side, torus,
                      *_frozen(incidence))


@dataclass
class ElementOps:
    """Per-grid cached arrays for assembly and energy evaluation.

    Every matrix is assembled on the grid's one ``CsrPattern``
    (``pattern``), the block of every solve: every node of a torus, the
    interior nodes of a box. Row node x of the pattern's
    stencil table reads the P parameters of its 2^dim elements x - a, one
    per corner a, as shifted views of the per-element grid padded by one
    layer (zeros beyond a box, the wrapped layer on a torus). A GEMM against
    the (2^dim P x width) weights sum_b block_p[a, b] incidence[a, b, c]
    gives the table: each row's matrix entry per stencil offset class. The
    table is built one slab of lines along the slowest node axis at a time,
    straight into the CSR data: no element entry is scattered, no slot
    reordered or compacted and no other array over the whole table held.
    Slots that leave a box block are then set to 0 by slicing. The
    pattern is built on first use and kept per grid shape (grids that
    never assemble, like the p-energy ones, never build it).

    Every per-element contraction is a 2-D matrix product on rows gathered
    once by ``v[elem_nodes]``, against small read-only matrices precomputed
    per grid (``elem_nodes`` itself is built on first read, so a grid whose
    solves read no element rows, like the source solves of a box, never
    holds it): the gradient matrix ``grad_matrix`` sends an element's nodal
    values to the gradients at its quadrature points, one flat row with the
    component fastest (column q dim + k is component k at point q);
    ``mean_grad_matrix`` sends them to the quadrature mean of the gradient;
    ``point_sum`` sums the dim components of such a row per point.
    ``grad_matrix_t`` and ``point_spread`` are C-ordered copies of the
    transposes of ``grad_matrix`` and ``point_sum``, for the products that
    map point values back to nodes: products with the strided ``.T`` views
    run 2-3x slower.
    """

    grid: Grid
    quad_weights: np.ndarray       # (n_q,)
    grad_matrix: np.ndarray        # (2**dim, n_q * dim)
    mean_grad_matrix: np.ndarray   # (2**dim, dim)
    point_sum: np.ndarray          # (n_q * dim, n_q)
    grad_matrix_t: np.ndarray      # (n_q * dim, 2**dim)
    point_spread: np.ndarray       # (n_q, n_q * dim)
    stiff_blocks: np.ndarray       # (dim, dim, 2**dim, 2**dim), see assemble_stiffness
    mass_ref: np.ndarray           # (2**dim, 2**dim), unit-measure mass matrix

    @cached_property
    def elem_nodes(self) -> np.ndarray:
        """Corner node ids per element, (n_e, 2**dim), read-only
        (``Grid.element_nodes``)."""
        return _frozen(self.grid.element_nodes())[0]

    @cached_property
    def interior_nodes(self) -> np.ndarray:
        """Sorted ids of a box's interior nodes, read-only: the unknowns of
        a box solve without holes, built on first read and shared by every
        reader."""
        return _frozen(np.flatnonzero(~self.grid.boundary_node_mask()))[0]

    @property
    def pattern(self) -> CsrPattern:
        """The ``CsrPattern`` of the grid block every matrix is assembled on:
        every node of a torus, the interior nodes of a box."""
        return _csr_pattern(self.grid.dim, self.grid.cells_per_axis, self.grid.topology)

    @property
    def h(self) -> float:
        return self.grid.h

    def element_mean_gradients(self, v: np.ndarray) -> np.ndarray:
        """Quadrature average of grad v per element, (n_e, dim)."""
        return v[self.elem_nodes] @ self.mean_grad_matrix

    def assemble_stiffness(self, coeff: np.ndarray,
                           shift: np.ndarray | None = None) -> sp.csr_matrix:
        """Stiffness for per-element coefficients, plus the mass weighted by
        the per-element ``shift`` when given (the matrix of
        -div(coeff grad u) + shift u), on the grid block, in one table.

        ``coeff`` is (n_e,) for scalar coefficients or (n_e, dim, dim) for
        matrix ones; rows are test functions, so nonsymmetric coefficient
        matrices assemble to nonsymmetric systems.
        """
        coeff = np.asarray(coeff, dtype=float)
        n_loc = len(self.mass_ref)
        if coeff.ndim == 1:
            params, blocks = [coeff], np.trace(self.stiff_blocks)[None]
        else:
            params = [coeff.reshape(len(coeff), -1)]
            blocks = self.stiff_blocks.reshape(-1, n_loc, n_loc)
        if shift is not None:
            params.append(self.h ** self.grid.dim * shift)
            blocks = np.concatenate([blocks, self.mass_ref[None]])
        return self._assemble(params, blocks)

    def assemble_mass(self, weights: np.ndarray | None = None) -> sp.csr_matrix:
        """Mass matrix with per-element ``weights`` (1 on every element if
        None) on the grid block; a boolean mask restricts it to the masked
        elements."""
        scale = np.full(self.grid.n_elements, self.h ** self.grid.dim)
        if weights is not None:
            scale = scale * weights
        return self._assemble([scale], self.mass_ref[None])

    def _padded(self, params: list[np.ndarray]) -> np.ndarray:
        """The parameter columns of ``params`` ((n_e,) or (n_e, m) each) per
        element, parameter-major, on the element grid padded by one layer on
        every side: zeros beyond a box, the wrapped layer on a torus. Node x
        of the grid reads its element x - 1 + c, corner c, at padded index
        x + c."""
        d, n = self.grid.dim, self.grid.cells_per_axis
        count = sum(1 if v.ndim == 1 else v.shape[1] for v in params)
        padded = np.zeros((count,) + (n + 2,) * d)
        start = 0
        for values in params:
            values = values.reshape(n ** d, -1).T
            padded[(slice(start, start + len(values)),) + (slice(1, n + 1),) * d] = \
                values.reshape((-1,) + (n,) * d)
            start += len(values)
        if self.grid.topology == TORUS:
            for j in range(1, d + 1):
                padded[(slice(None),) * j + (0,)] = padded[(slice(None),) * j + (n,)]
                padded[(slice(None),) * j + (n + 1,)] = padded[(slice(None),) * j + (1,)]
        return padded

    def _assemble(self, params: list[np.ndarray], blocks: np.ndarray) -> sp.csr_matrix:
        """The matrix whose element matrices are sum_p param_p blocks[p] over
        the parameter columns of ``params`` ((n_e,) or (n_e, m) each).

        The stencil table is filled one slab at a time: a block of whole
        lines along the slowest node axis, ``_SLAB_ROWS`` table rows or one
        line if a line is longer. Each slab copies its corner views of the
        padded parameters and runs one GEMM against the weights into its
        rows of the CSR data, so no other array over the whole table is
        ever built."""
        pattern = self.pattern
        d, side = self.grid.dim, pattern.side
        first = int(not pattern.torus)      # the block's first node per axis
        weights = blocks.transpose(1, 0, 2) @ pattern.incidence    # [a, p, c]
        weights = weights.reshape(-1, weights.shape[2])
        width = weights.shape[1]
        padded = self._padded(params)
        line = side ** (d - 1)                          # table rows per line
        # numpy runs a one-row product as a GEMV, which rounds differently
        # from the GEMM: a slab holds two rows or more unless the table has
        # one, so a one-row remainder joins the slab before it
        lines = min(side, max(1, 2 // line, _SLAB_ROWS // line))
        bounds = list(range(0, side, lines)) + [side]
        if len(bounds) > 2 and (side - bounds[-2]) * line == 1:
            del bounds[-2]
        most = max(b - a for a, b in zip(bounds, bounds[1:])) * line
        data = np.empty(len(pattern.indices))
        # one slab's corner copies, reused by every slab
        corner_buf = np.empty(len(weights) * most)
        for y, stop in zip(bounds, bounds[1:]):
            start, end = y * line, stop * line              # the slab's table rows
            corners = corner_buf[:len(weights) * (end - start)].reshape(
                (2 ** d, len(padded), stop - y) + (side,) * (d - 1))     # [a, p, node]
            # table node first + i reads element first + i - a, padded index + 1
            for a, corner in enumerate(np.ndindex((2,) * d)):
                lo = [first + 1 - c for c in corner]
                corners[a] = padded[(slice(None), slice(lo[0] + y, lo[0] + stop))
                                    + tuple(slice(k, k + side) for k in lo[1:])]
            table = data[start * width:end * width].reshape(-1, width)
            np.matmul(corners.reshape(len(weights), -1).T, weights, out=table)
            if not pattern.torus:
                # the slots that leave the block through a face, per axis
                faces = table.reshape((stop - y,) + (side,) * (d - 1) + (3,) * d)
                for k in range(d):
                    for node, c, face in ((0, 0, y == 0), (-1, 2, stop == side)):
                        if k or face:
                            at = [slice(None)] * (2 * d)
                            at[k], at[d + k] = node, c
                            faces[tuple(at)] = 0.0
        return pattern.matrix(data)

    def load_from_element_vectors(self, flux: np.ndarray) -> np.ndarray:
        """Nodal load L_a = sum_e h^d <F_e, grad phi_a> for per-element F_e."""
        contrib = (self.h ** self.grid.dim) * (flux @ self.mean_grad_matrix.T)
        return np.bincount(self.elem_nodes.ravel(), weights=contrib.ravel(),
                           minlength=self.grid.n_nodes)

    def load_from_element_scalars(self, values: np.ndarray) -> np.ndarray:
        """Nodal load L_a = sum_e h^d f_e / n_loc (one-point load quadrature).

        A sum of 2^dim shifted views of the padded element grid, one per
        corner in ``np.ndindex`` order: node x adds its elements x - 1 + c
        in increasing element id, as a scatter in element order would, so a
        box load is exact to the bit. A torus node on the wrap adds its
        wrapped element first, which moves it at rounding level."""
        d, nodes = self.grid.dim, self.grid.nodes_per_axis
        padded = self._padded([(self.h ** d / len(self.mass_ref)) * values])[0]
        load = np.zeros((nodes,) * d)
        for corner in np.ndindex((2,) * d):
            load += padded[tuple(slice(c, c + nodes) for c in corner)]
        return load.ravel()

    def energy_quadratic(self, v: np.ndarray, coeff: np.ndarray, xi: np.ndarray) -> float:
        """sum_e h^d <A_e (xi + grad v), (xi + grad v)> via quadrature."""
        d = self.grid.dim
        w = self.quad_weights
        g = v[self.elem_nodes] @ self.grad_matrix
        g += np.tile(xi, len(w))
        if coeff.ndim == 1:
            total = coeff @ ((g * g) @ (self.point_sum @ w))
        else:
            # <A g, g> = sum_kl A_kl g_k g_l; columns k::d hold component k
            total = sum(coeff[:, k, l] @ ((g[:, k::d] * g[:, l::d]) @ w)
                        for k, l in np.ndindex(d, d))
        return float(self.h ** d * total)

    def flux_average(self, v: np.ndarray, coeff: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Mean of A (xi + grad v) over the grid domain, shape (dim,)."""
        g = self.element_mean_gradients(v) + xi[None, :]
        if coeff.ndim == 1:
            return (coeff @ g) / len(g)
        # sum_e A_e g_e is the trace over (l, m) of sum_e A_ekl g_em
        d = self.grid.dim
        cross = coeff.reshape(len(g), d * d).T @ g
        return np.trace(cross.reshape(d, d, d), axis1=1, axis2=2) / len(g)


@lru_cache(maxsize=8)
def element_ops(grid: Grid) -> ElementOps:
    dim, n_loc = grid.dim, 2 ** grid.dim
    wts, phi, grad_ref = _reference_element(dim)
    # stiff_blocks[k, l, a, b] = int_e d_k phi_a d_l phi_b dx; h-independent in
    # 2D (h^d * h^-2), 1/h in 1D.
    scale = grid.h ** dim / grid.h ** 2
    blocks = scale * np.einsum("q,qka,qlb->klab", wts, grad_ref, grad_ref)
    grad_phys = grad_ref / grid.h
    # C order: a product with the strided views runs about 3x slower
    grad_matrix = np.ascontiguousarray(grad_phys.transpose(2, 0, 1)).reshape(n_loc, -1)
    mean_grad_matrix = np.ascontiguousarray(np.einsum("q,qka->ak", wts, grad_phys))
    point_sum = np.kron(np.eye(len(wts)), np.ones((dim, 1)))
    grad_matrix_t = np.ascontiguousarray(grad_matrix.T)
    point_spread = np.ascontiguousarray(point_sum.T)
    mass = np.einsum("q,qa,qb->ab", wts, phi, phi)
    return ElementOps(grid, *_frozen(wts, grad_matrix, mean_grad_matrix, point_sum,
                                     grad_matrix_t, point_spread, blocks, mass))


@dataclass
class SparseSystem:
    """CSR system on the block of the ``CsrPattern`` it was assembled on,
    with a symmetry declaration checked at construction.

    The matrix must hold one entry per slot of ``pattern``. Its unknowns are
    the block nodes at ``positions`` (sorted), or every block node if None,
    and ``n`` counts them. ``apply`` multiplies a vector of the unknowns, the
    one product the solvers make. The rows and columns of the other block
    nodes are set to 0 in place (each row and the mirror slots of its
    entries, which hold its column), so the symmetry check reads the
    operator on the unknowns alone, whatever a hole carries. A system
    declared symmetric compares each entry with its transposed entry,
    relative to ``SYMMETRY_RTOL``, read in the pattern's stencil table
    (``CsrPattern.symmetry_defect``) without a transposed copy; a matrix with
    an entry that is not finite fails the check. The matrix is otherwise
    kept as given, never sorted: it shares the pattern's read-only index
    arrays, and a torus row may list its columns unsorted. On a torus
    pattern (``CsrPattern.torus``) the solvers remove the constant kernel.
    """

    matrix: sp.csr_matrix
    symmetric: bool
    pattern: CsrPattern
    positions: np.ndarray | None = None

    def __post_init__(self):
        data = self.matrix.data
        if len(data) != len(self.pattern.indices):
            raise ValueError(f"matrix has {len(data)} entries for a pattern "
                             f"of {len(self.pattern.indices)}")
        if self.positions is not None:
            keep = np.zeros(self.matrix.shape[0], dtype=bool)
            keep[self.positions] = True
            table = data.reshape(len(keep), -1)
            dropped = np.flatnonzero(~keep)
            columns = self.pattern.indices.reshape(table.shape)[dropped]
            table[dropped] = 0.0
            # the mirror of class c is the opposite offset on every axis: the
            # reversed class order, or c itself on 2-node torus axes
            width = table.shape[1]
            mirror = np.arange(width)
            if width != len(self.pattern.incidence):
                mirror = mirror[::-1]
            data[columns * width + mirror] = 0.0
        if not self.symmetric or not data.size:
            return
        scale, worst = self.pattern.symmetry_defect(data)
        # an infinite entry would make the bound inf and pass any defect
        if not (np.isfinite(scale) and worst <= SYMMETRY_RTOL * max(scale, 1e-300)):
            raise ValueError(
                f"matrix declared symmetric but |M - M^T|_max = {worst:.3e} "
                f"exceeds {SYMMETRY_RTOL:.0e} * |M|_max = {SYMMETRY_RTOL * scale:.3e}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0] if self.positions is None else len(self.positions)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for x on the unknowns: with ``positions``, x is scattered into
        a zeroed block vector, multiplied and gathered back."""
        if self.positions is None:
            return self.matrix @ x
        block = np.zeros(self.matrix.shape[0])
        block[self.positions] = x
        return (self.matrix @ block)[self.positions]


def is_symmetric(coeff: np.ndarray) -> bool:
    """True for scalar per-element coefficients, and for (n_e, d, d) ones
    whose off-diagonal pairs agree to ``SYMMETRY_RTOL`` times max |c|, the
    relative test ``SparseSystem`` applies to the assembled matrix. The
    scale and the pairs are read one (k, l) column at a time, so a
    broadcast view of one matrix is never materialized."""
    coeff = np.asarray(coeff)
    if coeff.ndim == 1:
        return True
    d = coeff.shape[1]
    scale = reduce(np.maximum, (_max_abs(coeff[:, k, l]) for k, l in np.ndindex(d, d)))
    tol = SYMMETRY_RTOL * max(float(scale), 1e-300)
    return all(float(_max_abs(coeff[:, k, l] - coeff[:, l, k])) <= tol
               for k in range(d) for l in range(k + 1, d))


@dataclass
class SolveStats:
    iterations: int
    residual: float


def _krylov_frame(name: str, iterate, system: SparseSystem, rhs: np.ndarray,
                  preconditioner) -> tuple[np.ndarray, SolveStats]:
    """Both Krylov solvers around their loop ``iterate(A, b, preconditioner,
    tol, cap) -> (x, iterations)``, where A is ``system.apply``: the
    right-hand side checked and, on a torus pattern (every node or the
    unknowns outside a hole), projected onto mean-zero into a new
    vector, zero answered by zero; then x projected likewise and its true
    residual |b - A x| checked against 10x the target and reported. No
    solver writes ``b``, so an unprojected right-hand side is the caller's
    own vector, read in place, and x never shares its memory."""
    mean_zero = system.pattern.torus
    A = system.apply
    b = np.asarray(rhs, dtype=float)
    if b.shape != (system.n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({system.n},)")
    if mean_zero:
        b = b - b.mean()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b), SolveStats(0, 0.0)
    tol = _REL_TOLERANCE * b_norm
    x, it = iterate(A, b, preconditioner, tol, _ITERATIONS_PER_UNKNOWN * system.n)
    if mean_zero:
        x -= x.mean()
    true_res = float(np.linalg.norm(b - A(x)))
    if not true_res <= 10 * tol:
        raise SolverError(f"{name}: true residual {true_res:.3e} exceeds 10x the "
                          f"target {tol:.3e} after {it} iterations")
    return x, SolveStats(it, true_res)


def cg_solve(system: SparseSystem, rhs: np.ndarray, *,
             preconditioner: Callable[[np.ndarray], np.ndarray]
             ) -> tuple[np.ndarray, SolveStats]:
    """Preconditioned conjugate gradients on an SPD (or mean-zero-deflated
    SPSD) system.

    ``preconditioner`` maps a residual r to z ~ A^-1 r and must be symmetric
    positive (semi)definite; ``solve_corrector`` passes one built by
    ``spectral_preconditioner``. On a torus pattern the right-hand side is
    projected onto mean-zero and the solution is returned mean-zero; this
    is how the periodic cell problems remove the constant kernel. The
    stopping rule is on the unpreconditioned residual norm, and the true
    residual |b - A x| is checked at the end (within 10x the target) and
    reported in the stats.

    Besides ``rhs``, which is read in place and never written, the loop
    holds x, r, p, the preconditioned residual z and A p (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 2003, Alg. 9.1), one of
    each: p is updated in place, and A p and z are dropped at their last
    use, before their successors are made.
    """
    if not system.symmetric:
        raise ValueError("cg_solve requires a symmetric system")
    return _krylov_frame("cg_solve", _cg_iterate, system, rhs, preconditioner)


def _cg_iterate(A, b: np.ndarray, preconditioner, tol: float,
                cap: int) -> tuple[np.ndarray, int]:
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()        # updated in place below; z may be r itself
    rz = float(r @ z)
    del z
    it = 0
    res = float(np.linalg.norm(r))
    while res > tol and it < cap:
        Ap = A(p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise SolverError(f"cg_solve: non-positive curvature at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        del Ap          # each temporary goes before its successor is made
        z = preconditioner(r)
        rz_new = float(r @ z)
        # z + beta p to the bit: the same two roundings, and + commutes
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
        it += 1
        res = float(np.linalg.norm(r))
    if not res <= tol:
        raise SolverError(f"cg_solve: no convergence in {it} iterations "
                          f"(residual {res:.3e}, target {tol:.3e})")
    return x, it


def krylov_solve_nonsymmetric(system: SparseSystem, rhs: np.ndarray, *,
                              preconditioner: Callable[[np.ndarray], np.ndarray]
                              ) -> tuple[np.ndarray, SolveStats]:
    """Right-preconditioned BiCGStab for the nonsymmetric weak forms (flux
    problems).

    ``preconditioner`` maps a vector r to z ~ A^-1 r; ``solve_corrector``
    passes the ``spectral_preconditioner`` of the symmetric part. Right
    preconditioning (A M y = b, x = M y) keeps the recurrence on the
    unpreconditioned residual, which is what the stopping rule tests; the
    true residual |b - A x| is checked at the end (within 10x the target).
    A torus pattern is projected onto mean-zero as in ``cg_solve``.
    """
    return _krylov_frame("krylov_solve_nonsymmetric", _bicgstab_iterate, system,
                         rhs, preconditioner)


def _bicgstab_iterate(A, b: np.ndarray, preconditioner, tol: float,
                      cap: int) -> tuple[np.ndarray, int]:
    x = np.zeros_like(b)
    r = b.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    it = 0
    while it < cap:
        rho_new = float(r_hat @ r)
        if abs(rho_new) < 1e-300:
            r_hat = r.copy()
            rho_new = float(r_hat @ r)
            if abs(rho_new) < 1e-300:
                break
            v[:] = 0.0
            p[:] = 0.0
            rho = alpha = omega = 1.0
        beta = (rho_new / rho) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = preconditioner(p)
        v = A(p_hat)
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            raise SolverError(f"krylov_solve_nonsymmetric: breakdown at iteration {it}")
        alpha = rho_new / denom
        s = r - alpha * v
        if not np.linalg.norm(s) > tol:
            x = x + alpha * p_hat
            r = s
            it += 1
            break
        s_hat = preconditioner(s)
        t = A(s_hat)
        tt = float(t @ t)
        if tt < 1e-300:
            raise SolverError(f"krylov_solve_nonsymmetric: stagnation at iteration {it}")
        omega = float(t @ s) / tt
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho = rho_new
        it += 1
        if not np.linalg.norm(r) > tol:
            break
    return x, it


def _block_min(labels: np.ndarray, torus: bool) -> np.ndarray:
    """The min of ``labels`` over the 3^dim block around each entry of the
    element grid, wrapped on a torus and cut off at a box edge: one shifted
    min per axis."""
    for k in range(labels.ndim):
        src = np.moveaxis(labels, k, 0)
        out = src.copy()
        np.minimum(out[1:], src[:-1], out=out[1:])
        np.minimum(out[:-1], src[1:], out=out[:-1])
        if torus:
            np.minimum(out[:1], src[-1:], out=out[:1])
            np.minimum(out[-1:], src[:1], out=out[-1:])
        labels = np.moveaxis(out, 0, k)
    return labels


def _active_elements(coeff: np.ndarray) -> np.ndarray | None:
    """The elements outside the holes, or None without holes, read one entry
    column at a time (a broadcast matrix is never materialized)."""
    active = reduce(np.logical_or, (coeff[(slice(None),) + k] != 0
                                    for k in np.ndindex(coeff.shape[1:])))
    return None if active.all() else active


def _active_nodes_checked(grid: Grid, active_el: np.ndarray) -> np.ndarray:
    """Nodes adjacent to active elements; errors if empty or disconnected.

    Two active elements are neighbours when they share a node, so the
    components are labelled on the element grid with numpy alone (Shiloach
    and Vishkin, J. Algorithms 3, 1982): each round takes every element's
    min label over its block (``_block_min``), lowers the label of the
    element its label names to that min too (hooking the whole tree, so a
    corridor entered at its far end does not take a round per element), and
    pointer-jumps ``label = label[label]`` until nothing changes. A label is
    always an element of the same component, so at the fixed point each
    component holds one root, labelled by itself.
    """
    if not np.any(active_el):
        raise RuntimeError("perforation removed every element")
    n_e = grid.n_elements
    none = n_e                  # the label of inactive elements
    labels = np.where(active_el, np.arange(n_e), none)
    parent = np.empty(n_e + 1, dtype=labels.dtype)
    parent[n_e] = none
    while True:
        low = _block_min(labels.reshape((grid.cells_per_axis,) * grid.dim),
                         grid.topology == TORUS).ravel()
        low[~active_el] = none
        parent[:n_e] = labels
        np.minimum.at(parent, labels, low)
        jumped = np.minimum(parent[:n_e], low)
        while True:
            parent[:n_e] = jumped
            further = parent[jumped]
            if np.array_equal(further, jumped):
                break
            jumped = further
        if np.array_equal(jumped, labels):
            break
        labels = jumped
    n_active_comp = int(np.count_nonzero(labels == np.arange(n_e)))
    if n_active_comp != 1:
        raise RuntimeError(f"perforation complement is disconnected at this "
                           f"resolution ({n_active_comp} components)")
    touched = np.zeros(grid.n_nodes, dtype=bool)
    touched[element_ops(grid).elem_nodes[active_el]] = True
    return np.flatnonzero(touched)


def _block_positions(grid: Grid, unknowns: np.ndarray | None) -> np.ndarray | None:
    """The positions of ``unknowns`` (sorted node ids) on the grid's block,
    every node of a torus or the interior of a box: the node ids themselves
    on a torus, their ranks among ``ElementOps.interior_nodes`` on a box.
    None when ``unknowns`` is None or fills the block."""
    ops = element_ops(grid)
    if unknowns is None or len(unknowns) == ops.pattern.side ** grid.dim:
        return None
    return unknowns if ops.pattern.torus else np.searchsorted(ops.interior_nodes, unknowns)


def spectral_preconditioner(grid: Grid, a_ref: float, c_ref: float = 0.0,
                            unknowns: np.ndarray | None = None, *,
                            dtype=None) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of the constant-coefficient reference operator a_ref K + c_ref M
    on ``grid``, as a preconditioner (CG, BiCGStab and L-BFGS's initial
    inverse Hessian), exact up to the rounding of its transforms.

    On a uniform grid the Q1 stiffness and mass matrices are tensor products
    of the 1D stencils with symbols k(t) = (2 - 2 cos t) / h and
    m(t) = h (4 + 2 cos t) / 6, so the reference operator has the symbol
    a_ref sum_k (k on axis k, m on the others) + c_ref (m on every axis),
    e.g. a_ref (k x m + m x k) + c_ref m x m in 2D. A
    real FFT diagonalizes it on the torus (whose constant mode is zeroed) and
    an orthonormal DST-I on the interior nodes of a box. ``unknowns`` (full
    node ids, sorted) restricts it to a subset of those nodes: zero-extend,
    apply, restrict, which keeps it symmetric positive definite.

    The grid sets the precision of the transforms: float32 on a box, where
    it halves the DST-I's cost, and float64 on the torus, where numpy's
    float32 FFT is no faster. ``dtype`` overrides it, only for the float64
    reference that the precision tests compare against. The symbol is
    computed in float64 and stored once in that precision, and each apply
    casts its input into a buffer of that type, which the box transforms
    overwrite in place (the caller's vector is never written). The result
    is always a new float64 vector. The solvers' stopping tests and the
    Krylov true-residual check stay float64, so only an iteration count
    can feel the rounding.

    The returned closure keeps the inverse symbol and, when ``unknowns`` is
    a proper subset of the lattice (every node of a torus, the interior of
    a box), their positions on it: ``unknowns`` itself on a torus, and on a
    box their ranks among ``ElementOps.interior_nodes``. With every lattice
    node as unknowns it keeps no node list. Each torus apply makes its own
    spectrum, and the closure keeps no buffer between applies, so one
    closure may serve concurrent solves.
    """
    torus = grid.topology == TORUS
    n, h, dim = grid.cells_per_axis, grid.h, grid.dim
    if dtype is None:
        dtype = np.float64 if torus else np.float32
    if torus:
        # x is the fastest array axis, the one rfftn halves
        axes = [2.0 * np.pi * np.arange(n // 2 + 1) / n]
        axes += [2.0 * np.pi * np.arange(n) / n] * (dim - 1)
    else:
        axes = [np.pi * np.arange(1, n) / n] * dim
    ks = [_on_axis((2.0 - 2.0 * np.cos(t)) / h, k, dim) for k, t in enumerate(axes)]
    ms = [_on_axis(h * (4.0 + 2.0 * np.cos(t)) / 6.0, k, dim) for k, t in enumerate(axes)]
    stiffness = sum(ks[k] * math.prod(ms[:k] + ms[k + 1:]) for k in range(dim))
    symbol = a_ref * stiffness + c_ref * math.prod(ms)
    if torus:
        symbol[(0,) * dim] = np.inf     # zero the constant mode
    inv_symbol = (1.0 / symbol).astype(dtype, copy=False)
    shape = (n if torus else n - 1,) * dim
    size = math.prod(shape)
    pos = _block_positions(grid, unknowns)
    if not torus:
        from scipy.fft import dstn     # only box solves pay for loading scipy.fft

    def apply(r: np.ndarray) -> np.ndarray:
        if pos is None:
            # a fresh buffer on the box, whose transforms overwrite it
            f = r.astype(dtype, copy=not torus)
        else:
            f = np.zeros(size, dtype)
            f[pos] = r
        f = f.reshape(shape)
        if torus:
            # without out= rfftn allocates per pass: 4% slower at 120^2
            spec = np.fft.rfftn(f, out=np.empty(inv_symbol.shape, complex))
            spec *= inv_symbol
            z = np.fft.irfftn(spec, s=shape, axes=range(dim))
        else:
            z = dstn(f, type=1, norm="ortho", overwrite_x=True)
            z *= inv_symbol
            z = dstn(z, type=1, norm="ortho", overwrite_x=True)
        z = z.ravel()
        return (z if pos is None else z[pos]).astype(np.float64, copy=False)

    return apply


def solve_corrector(grid: Grid, coeff: np.ndarray, xis=None, *,
                    shift: np.ndarray | None = None, source: np.ndarray | None = None
                    ) -> list[tuple[np.ndarray, SolveStats]]:
    """The package's one linear-solve kernel: one solve per direction in ``xis``
    of -div(a grad u) + c u = f on ``grid``, every term given per element:
    the coefficient a is ``coeff``, the zeroth-order term c is ``shift``
    (zero if None) and the source f is ``source``.

    A direction xi gives the corrector w of u = <xi, x - x0> + w, loaded by
    -div(coeff xi) on both topologies: w is periodic and mean-zero on the
    torus (the cell problem) and zero on the boundary of a box (the window
    problem with affine boundary data, whose energy and flux do not depend
    on x0). ``corrector_response`` evaluates xi + grad w
    (``ElementOps.energy_quadratic``, ``ElementOps.flux_average``). With
    ``source`` in place of ``xis`` (box grids only), one solve of
    (K + M_c) w = F with zero boundary values, where K is the stiffness of
    ``coeff``, M_c the mass weighted by ``shift`` (source solves only) and F
    the one-point load of f (``ElementOps.load_from_element_scalars``). The
    elements where ``coeff`` is zero are holes (``_active_elements``): the
    unknowns are then the nodes touching another element, which must form
    one connected component. K + M_c is assembled on the grid block
    (``ElementOps.pattern``, every node of a torus or the interior of a
    box, kept per grid shape), and ``SparseSystem`` sets the rows and
    columns of the block nodes that are not unknowns to 0, checks its
    symmetry on the pattern's stencil table and applies it to the unknowns
    (a scatter into the block, a product and a gather); no CSR matrix is
    sliced or renumbered.

    Symmetric coefficients (``is_symmetric``) are solved by CG, nonsymmetric
    ones by right-preconditioned BiCGStab, both with
    ``spectral_preconditioner``: a_ref is the mean coefficient over the
    elements outside the holes (trace / dim for matrix coefficients, i.e.
    of their symmetric part) and c_ref the node average of c: the mean over the
    unknowns of load_from_element_scalars(shift) / h^dim, whose entry at
    node a is the sum of c_e / 2^dim over the elements e at a, that is the
    diagonal of M_c at a over the reference mass diagonal (4h/6)^dim. The
    preconditioner runs in float64 on the torus and in float32 on the box.
    A constant coefficient gives a direction solve a load that vanishes up
    to the rounding of the element sums, exactly when h and xi are dyadic
    (16 cells per unit, xi = (1, 0.5)); a zero load returns w = 0 without
    iterating. A constant-coefficient source solve on the box takes at most
    two CG iterations, since its inverse is exact only to float32 rounding.
    Assembly, the connectivity check and the preconditioner setup run once
    for all directions; a source solve drops its terms once its load is
    built. Returns the full nodal vector and the solver stats of each solve.
    """
    torus = grid.topology == TORUS
    if (xis is None) == (source is None):
        raise ValueError("give either directions xis or a source, not both")
    if shift is not None and source is None:
        raise ValueError("shift applies to source solves only")
    if torus and source is not None:
        raise ValueError("source solves apply to box grids only")
    coeff = np.asarray(coeff, dtype=float)
    symmetric = is_symmetric(coeff)
    ops = element_ops(grid)
    active = _active_elements(coeff)
    unknowns = None if active is None else _active_nodes_checked(grid, active)
    if not torus:
        unknowns = (ops.interior_nodes if unknowns is None
                    else unknowns[~grid.boundary_node_mask()[unknowns]])
    system = SparseSystem(ops.assemble_stiffness(coeff, shift), symmetric=symmetric,
                          pattern=ops.pattern, positions=_block_positions(grid, unknowns))
    # the trace of a matrix coefficient is the trace of its symmetric part
    c = coeff if active is None else coeff[active]
    a_ref = float(c.mean() if c.ndim == 1
                  else np.trace(c, axis1=1, axis2=2).mean() / grid.dim)
    c_ref = 0.0
    if shift is not None:
        c_ref = (float(ops.load_from_element_scalars(shift)[unknowns].mean())
                 / grid.h ** grid.dim)
    precond = spectral_preconditioner(grid, a_ref, c_ref, unknowns)
    out = []
    for xi in ([None] if xis is None else xis):
        if xi is None:
            rhs = ops.load_from_element_scalars(source)
            coeff = shift = source = c = None   # read: CG runs beside none of them
        else:
            xi = np.asarray(xi, dtype=float)
            flux = coeff[:, None] * xi[None, :] if coeff.ndim == 1 else coeff @ xi
            rhs = -ops.load_from_element_vectors(flux)
        if unknowns is not None:
            rhs = rhs[unknowns]
        solve = cg_solve if symmetric else krylov_solve_nonsymmetric
        w, stats = solve(system, rhs, preconditioner=precond)
        if unknowns is not None:
            w_full = np.zeros(grid.n_nodes)
            w_full[unknowns] = w
            w = w_full
        out.append((w, stats))
    return out


@dataclass
class _PointEvaluation:
    """One point of a ``PEnergyProblem`` (a private copy), its point rows,
    its scale |xi + grad v|^(p-2) per point and its energy."""

    u: np.ndarray
    rows: np.ndarray
    scale: np.ndarray
    energy: float


@dataclass
class PEnergyProblem:
    """Discrete p-power energy sum_e a_e h^d mean_q |xi + grad v|^p.

    The unknown v is the corrector of ``solve_corrector``, constrained by the
    topology: periodic and mean-zero on the torus (``free`` is None, every
    node is unknown) and zero on the boundary of a box (``free`` lists the
    interior nodes), so the affine data of a window enter through xi alone.

    ``value`` and ``gradient`` evaluate xi + grad v at every quadrature point
    as one product of the gathered nodal rows with the grid's precomputed
    gradient matrix (``ElementOps.grad_matrix``); the gradient maps the
    weighted point values back through its transpose
    (``ElementOps.grad_matrix_t``). A point takes one power: the scale
    |xi + grad v|^(p-2) (0 where xi + grad v vanishes), so the energy
    density is |xi + grad v|^2 times the scale and the gradient's point
    factor p |xi + grad v|^(p-2) is p times it; at p = 3 the power is a
    square root (numpy's fast path for ``** 0.5``). An energy and a gradient
    at one point share that pass over the quadrature points: the problem
    keeps a copy of the last point it evaluated with that point's rows,
    scale and energy, and reuses them while the argument's values equal the
    copy's (``np.array_equal``), so a vector changed in place is evaluated
    afresh.
    """

    grid: Grid
    coeff: np.ndarray
    p: float
    xi: np.ndarray
    free: np.ndarray | None = field(init=False, repr=False)
    ops: ElementOps = field(init=False, repr=False)
    _xi_rows: np.ndarray = field(init=False, repr=False)
    _point_weights: np.ndarray = field(init=False, repr=False)
    _last: _PointEvaluation | None = field(init=False, repr=False, compare=False,
                                           default=None)

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.coeff.shape != (self.grid.n_elements,) or not self.coeff.all():
            raise ValueError("coeff must have one nonzero scalar per element "
                             "(p-energy solves take no holes)")
        self.ops = element_ops(self.grid)
        self.free = None if self.grid.topology == TORUS else self.ops.interior_nodes
        self._xi_rows = np.tile(self.xi, len(self.ops.quad_weights))
        # p h^d a_e w_q, the gradient's fixed factor per (element, point)
        self._point_weights = (self.p * self.grid.h ** self.grid.dim) * \
            self.coeff[:, None] * self.ops.quad_weights[None, :]

    @property
    def n_free(self) -> int:
        return self.grid.n_nodes if self.free is None else len(self.free)

    def full_vector(self, u_free: np.ndarray) -> np.ndarray:
        if self.free is None:
            return u_free
        full = np.zeros(self.grid.n_nodes)
        full[self.free] = u_free
        return full

    def _point_rows(self, u_free: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """xi + grad v at the quadrature points as flat rows (n_e, n_q dim),
        its scale |xi + grad v|^(p-2) per point (n_e, n_q) and the energy."""
        v = self.full_vector(u_free)
        g = v[self.ops.elem_nodes] @ self.ops.grad_matrix
        g += self._xi_rows
        mag_sq = (g * g) @ self.ops.point_sum
        with np.errstate(divide="ignore"):
            scale = mag_sq ** (self.p / 2.0 - 1.0)
        if self.p <= 2.0:
            # 0 ** (p/2 - 1) is inf below p = 2 and 1 at it; above, it is 0
            scale[mag_sq == 0.0] = 0.0
        mag_sq *= scale             # the energy density |xi + grad v|^p
        energy = self.grid.h ** self.grid.dim * (self.coeff @ (mag_sq @ self.ops.quad_weights))
        return g, scale, float(energy)

    def _evaluated(self, u_free: np.ndarray) -> _PointEvaluation:
        """The evaluation at u_free: the last one while the values match."""
        last = self._last
        if last is None or not np.array_equal(last.u, u_free):
            self._last = last = _PointEvaluation(np.array(u_free, dtype=float),
                                                 *self._point_rows(u_free))
        return last

    def value(self, u_free: np.ndarray) -> float:
        return self._evaluated(u_free).energy

    def gradient(self, u_free: np.ndarray) -> np.ndarray:
        point = self._evaluated(u_free)
        # p |g|^(p-2) g, with the p=2 case reducing to 2 g exactly.
        w = self._point_weights * point.scale
        contrib = ((w @ self.ops.point_spread) * point.rows) @ self.ops.grad_matrix_t
        full_grad = np.bincount(self.ops.elem_nodes.ravel(), weights=contrib.ravel(),
                                minlength=self.grid.n_nodes)
        if self.free is None:
            return full_grad - full_grad.mean()
        return full_grad[self.free]


def minimize_p_energy(problem: PEnergyProblem) -> tuple[np.ndarray, SolveStats]:
    """Preconditioned L-BFGS with Armijo backtracking; energies are asserted
    non-increasing.

    The initial inverse Hessian of the two-loop recursion is gamma P, with
    P = ``spectral_preconditioner(grid, 1, 0)`` the inverse of the
    unit-coefficient stiffness on the grid block, which the unknowns fill
    (FFT on the torus, whose constant mode it zeroes, DST-I on the interior
    nodes of a box; no assembly pattern is built), and
    gamma = s^T y / y^T P y from the newest curvature pair (Nocedal-Wright,
    Numerical Optimization, 7.2). P is linear, so it is applied once per
    accepted step, to the new gradient: the loop keeps P g of the current
    point, each stored pair keeps P y as the difference of the P g of its
    two ends, and the recursion builds P q from those (``_lbfgs_direction``).
    A solve of k iterations makes k + 1 applies. A pair is stored when
    s^T y passes its positivity test and y^T P y is positive; P g advances
    either way. Each evaluated point takes one power (``PEnergyProblem``),
    shared by its energy and its gradient. P is applied in the precision
    of the Krylov solves, float32 on a box: a p = 3 window of side 8 on the
    2x2 checkerboard (63^2 free unknowns) reaches the decrement target
    below in 14 iterations with it, as with a float64 apply. Before any
    pair is stored, gamma is 1 / (p (p - 1) mean a), the reference Hessian
    scale at |xi + grad v| = 1, and the first trial step is the unit step.
    The iteration count then does not grow with the mesh.

    The descent stops on the decrement of its own direction d = -H g,
    lambda = sqrt(-g^T d), the L-BFGS estimate of the Newton decrement
    (Boyd-Vandenberghe, Convex Optimization, 9.5.1): lambda^2 / 2 estimates
    the energy still to be gained, in the H^-1 norm of the gradient, which
    does not depend on the mesh. It stops once lambda falls to
    ``_DECREMENT_RTOL`` times its value at v = 0, and reports that ratio as
    the residual. A start whose lambda^2 / 2 is below the rounding of its
    energy (a constant coefficient, whose gradient vanishes to rounding) is
    the minimum and returns after 0 iterations with residual 0.

    The descent starts from v = 0 on both topologies, which on a box is the
    affine data itself. Returns the full nodal vector of the corrector:
    zero on the boundary of a box, mean-zero on the torus.
    """
    n = problem.n_free
    u = np.zeros(n)
    energy = problem.value(u)
    grad = problem.gradient(u)
    tol = _DECREMENT_RTOL
    # Energy comparisons bottom out at machine epsilon, after which Armijo
    # decisions are noise; a descent that stalls there with the decrement
    # ratio within three decades of the target is at the float64 minimum
    # and is accepted. Anything coarser stays a hard failure.
    stall_ceiling = 1e3 * tol
    stall_drop = 8.0 * np.finfo(float).eps
    cap = _ITERATIONS_PER_UNKNOWN * n
    precond = spectral_preconditioner(problem.grid, 1.0, 0.0)
    gamma0 = 1.0 / (problem.p * (problem.p - 1.0) * float(problem.coeff.mean()))
    memory: list[tuple[np.ndarray, np.ndarray, float, np.ndarray]] = []
    m_max = 10
    it = 0
    stalled = 0
    floor_hit = False
    pgrad = precond(grad)
    d = _lbfgs_direction(grad, pgrad, memory, gamma0)
    slope = float(grad @ d)
    decrement0 = math.sqrt(-slope) if slope <= 0 else math.nan
    # lambda^2 / 2 estimates the gain still to come: below the rounding of
    # the energy, v = 0 is the minimum (a NaN or an ascent start goes on)
    if 0.5 * decrement0 ** 2 <= stall_drop * max(1.0, abs(energy)):
        return problem.full_vector(u), SolveStats(0, 0.0)
    ratio = decrement0 / decrement0     # 1, or NaN for a NaN gradient
    while not ratio <= tol and it < cap:
        if slope >= 0:
            d = -grad
            slope = -float(grad @ grad)
        step = 1.0
        accepted = False
        for _ in range(60):
            u_try = u + step * d
            e_try = problem.value(u_try)
            if e_try <= energy + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
            # near the floor, halving further only asks for a decrease the
            # energy comparison cannot resolve
            if (ratio <= stall_ceiling
                    and -step * slope <= stall_drop * max(1.0, abs(energy))):
                break
        if not accepted:
            if ratio <= stall_ceiling:
                floor_hit = True
                break
            raise SolverError(f"minimize_p_energy: line search stalled at iteration {it} "
                              f"(decrement ratio {ratio:.3e})")
        if e_try > energy + 1e-12 * (1.0 + abs(energy)):
            raise SolverError("minimize_p_energy: energy increased along accepted step")
        grad_new = problem.gradient(u_try)
        pgrad_new = precond(grad_new)
        s = u_try - u
        y = grad_new - grad
        py = pgrad_new - pgrad
        sy = float(s @ y)
        if (sy > 1e-12 * np.linalg.norm(s) * max(np.linalg.norm(y), 1e-300)
                and float(y @ py) > 0):
            memory.append((s, y, 1.0 / sy, py))
            if len(memory) > m_max:
                memory.pop(0)
        drop = energy - e_try
        u, energy, grad, pgrad = u_try, e_try, grad_new, pgrad_new
        d = _lbfgs_direction(grad, pgrad, memory, gamma0)
        slope = float(grad @ d)
        ratio = math.sqrt(-slope) / decrement0 if slope <= 0 else math.nan
        it += 1
        if drop <= stall_drop * max(1.0, abs(energy)):
            stalled += 1
            if stalled >= 50 and ratio <= stall_ceiling:
                floor_hit = True
                break
        else:
            stalled = 0
    if not ratio <= tol and not floor_hit:
        raise SolverError(f"minimize_p_energy: no convergence in {it} iterations "
                          f"(decrement ratio {ratio:.3e}, target {tol:.3e})")
    return problem.full_vector(u), SolveStats(it, ratio)


def _lbfgs_direction(grad: np.ndarray, pgrad: np.ndarray, memory, gamma0: float
                     ) -> np.ndarray:
    """-H grad by the two-loop recursion with initial inverse Hessian gamma P,
    applying no P: ``pgrad`` is P grad and each pair (s, y, rho, P y) of
    ``memory``, oldest first, holds rho = 1 / s^T y and P y. The first loop
    updates q = grad - sum a_i y_i and P q = P grad - sum a_i P y_i side by
    side, so H0 q = gamma P q with gamma = s^T y / y^T P y of the newest
    pair (``gamma0`` without pairs)."""
    q = grad.copy()
    pq = pgrad.copy()
    alphas = []
    for s, y, rho, py in reversed(memory):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
        pq -= a * py
    gamma = gamma0
    if memory:
        _, y, rho, py = memory[-1]
        gamma = 1.0 / (rho * float(y @ py))
    pq *= gamma
    for (s, y, rho, _), a in zip(memory, reversed(alphas)):
        b = rho * float(y @ pq)
        pq += (a - b) * s
    return -pq


def corrector_response(grid: Grid, coeff: np.ndarray, xis, p: float = 2.0
                       ) -> list[tuple[float, np.ndarray | None, SolveStats]]:
    """What the package reads off the corrector w of each direction in
    ``xis``: the energy of xi + grad w per unit grid volume, the mean flux
    a (xi + grad w) and the solver stats.

    At p = 2 the correctors come from one ``solve_corrector`` call (a zero
    coefficient is a hole), the energy from ``ElementOps.energy_quadratic``
    and the flux from ``ElementOps.flux_average``. For symmetric coefficients
    (``is_symmetric``) w minimizes the energy, so flux . xi equals it; the
    two are cross-checked with ``agrees`` at ``PAIRING_RTOL``. At any other p
    each direction is one L-BFGS minimization of ``PEnergyProblem``, the
    flux is None and a hole is refused (``PEnergyProblem``).
    """
    xis = [np.asarray(xi, dtype=float) for xi in xis]
    for xi in xis:
        if xi.shape != (grid.dim,):
            raise ValueError(f"xi must have shape ({grid.dim},)")
    volume = grid.side_length ** grid.dim
    if p != 2.0:
        out = []
        for xi in xis:
            problem = PEnergyProblem(grid, coeff, p, xi)
            w, stats = minimize_p_energy(problem)
            w_free = w if problem.free is None else w[problem.free]
            out.append((problem.value(w_free) / volume, None, stats))
        return out
    ops = element_ops(grid)
    symmetric = is_symmetric(coeff)
    out = []
    for xi, (w, stats) in zip(xis, solve_corrector(grid, coeff, xis)):
        energy = ops.energy_quadratic(w, coeff, xi) / volume
        flux = ops.flux_average(w, coeff, xi)
        pairing = float(flux @ xi)
        if symmetric and not agrees(pairing, energy, PAIRING_RTOL):
            raise GuardError(f"energy/flux cross-check failed at xi = {xi}: "
                             f"energy {energy:.12g} vs flux . xi {pairing:.12g}")
        out.append((energy, flux, stats))
    return out
