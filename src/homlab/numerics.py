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
element, assembles the stiffness of a plus the c-weighted mass in one
scatter, restricts it to the unknowns (mean-zero on the torus, interior
nodes on a box, nodes of active elements when a mask is given), builds the
right-hand side and prolongs the solution back to a full nodal vector. A
direction xi is solved in one form on both topologies: the corrector w of
u = <xi, x - x0> + w, periodic on the torus and zero on the box boundary
(the window form of Bourgeat and Piatnitski, Ann. IHP 40, 2004), loaded by
-div(a xi). Energies and fluxes are those of xi + grad w; no affine
boundary data are built. Its single solver policy takes no options and
reads symmetry from the coefficients (``is_symmetric``, relative to
``SYMMETRY_RTOL``): symmetric (SPD) systems are solved by CG preconditioned
with the fast-diagonalization inverse of a constant-coefficient reference
operator a_ref K + c_ref M (real FFT on the torus, DST-I on the box; see
``spectral_preconditioner``), so the iteration count is bounded by the
coefficient contrast and does not grow with the resolution; nonsymmetric
systems use BiCGStab right-preconditioned with the same inverse for their
symmetric part. Both stop on the unpreconditioned residual at 1e-10 of the
right-hand side, check the true residual at the end and fail after 20
iterations per unknown. The inverse is applied in float64 on the torus and
in float32 on the box, where it halves the transform's cost; the solvers
themselves run in float64, so the rounding of a float32 apply can cost an
iteration but not accuracy (the mixed-precision split of Higham and Mary,
Acta Numerica 31, 2022).

The p-power energies are minimized by L-BFGS (``minimize_p_energy``) whose
initial inverse Hessian is the same reference inverse for a_ref = 1,
applied in float64 on both topologies and scaled per iteration: a
preconditioned two-loop recursion whose iteration count, like CG's, does
not grow with the mesh. It stops on a Euclidean gradient norm of 1e-8,
under the same iteration cap.

Solvers are written here rather than taken from scipy.sparse.linalg because
the periodic problems are singular (constants in the kernel) and need the
mean-zero subspace handled explicitly, and because reruns must be
bit-identical.

Every soundness guard of the package (field bounds, symmetry, the
homogenized eigenvalue window, the energy/flux cross-checks, the growth
sandwiches and the statistic's homogeneity in t) reads its tolerance from
one table of constants next to ``GuardError``: one row per guard, with its
scale rule and the places that use it. Three rows share the relative rule
|value - reference| <= tol * max(|reference|, 1) through ``agrees``.

scipy is imported where it is first used, never with the module, so the
import, ``validate`` and the p-energy solves load none of it: ``scipy.sparse``
loads at the first assembly (``CsrPattern.matrix``), ``scipy.sparse.csgraph``
at the first masked solve (``_active_nodes_checked``) and ``scipy.fft`` at
the first box solve (``spectral_preconditioner``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

TORUS = "torus"
BOX = "box"
MAX_DIM = 2  # grids are 1D or 2D

# the solver policy; read at call time
_REL_TOLERANCE = 1e-10          # Krylov: residual relative to the rhs
_GRAD_TOLERANCE = 1e-8          # L-BFGS: Euclidean gradient norm
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
# written as its negated pass condition, so a NaN fails it. The two rows of
# one identity (energy/flux, growth sandwich) still differ: making them equal
# would change what fires.
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
# agrees(flux, energy, tol): cell.homogenize_coefficients
CELL_PAIRING_RTOL = 1e-8
# agrees(flux . xi, energy, tol): rve.flux_average_window
WINDOW_PAIRING_RTOL = 1e-10
# alpha |xi|^p - tol <= value <= beta (1 + |xi|^p) + tol, absolute:
# cell.p_energy_result
CELL_GROWTH_ATOL = 1e-9
# the same sandwich, each bound b widened by tol * max(1, b): rve._check_growth
WINDOW_GROWTH_RTOL = 1e-9
# agrees(psi(t), (t / t0)^p psi(t0), tol): stability.run_stability_pair
HOMOGENEITY_RTOL = 1e-12


def agrees(value: float, reference: float, tol: float) -> bool:
    """|value - reference| <= tol * max(|reference|, 1); False when either is
    NaN. The scale rule of the relative guard rows that compare a computed
    value with the one the analysis predicts."""
    return abs(value - reference) <= tol * max(abs(reference), 1.0)


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


def _axis_stencil(nodes: int, torus: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 3-point stencil of one grid axis with ``nodes`` nodes: row x of
    ``column`` lists the distinct stencil nodes of node x in increasing
    order, padded with ``nodes``, and node x + k - 1 is place ``rank[x, k]``
    among them. Box ends have two neighbours; on a 2-node torus x - 1 and
    x + 1 are the same node and share a place.
    """
    target = np.arange(nodes)[:, None] + np.arange(-1, 2)[None, :]
    if torus:
        target %= nodes
        distinct = np.ones(target.shape, dtype=bool)
        distinct[:, 2] = target[:, 2] != target[:, 0]
    else:
        distinct = (target >= 0) & (target < nodes)
    column = np.sort(np.where(distinct, target, nodes), axis=1)
    rank = (column[:, None, :] < target[:, :, None]).sum(axis=2)
    return column, rank


@dataclass(frozen=True)
class CsrPattern:
    """Sparsity of every matrix assembled on one grid shape: the
    3^dim-node stencil in CSR form, rows sorted, no duplicates. ``pos`` sends
    element-local entry (e, a, b), raveled, to its slot in ``indices``. All
    three arrays are read-only; ``indptr`` and ``indices`` have scipy's index
    dtype and are shared by every matrix assembled on the shape."""

    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with entries ``data``; it shares the index arrays."""
        import scipy.sparse as sp    # the first assembly pays for loading it

        n = len(self.indptr) - 1
        mat = sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        mat.has_canonical_format = True
        return mat


@lru_cache(maxsize=8)
def _csr_pattern(dim: int, cells: int, topology: str) -> CsrPattern:
    """The ``CsrPattern`` of a grid shape, built from the per-axis stencils.

    Row r holds the product of its per-axis stencils, the column with the
    highest axis slowest: ``indices`` lists the tensor product of the
    per-axis stencil columns over [row, place], padded places dropped, and a
    column whose axis-k node sits at place rank_k of the row's axis-k
    stencil (of count_k nodes) has slot
    indptr[r] + sum_k rank_k prod_{j<k} count_j. On each axis, element-local
    node b of element e is place rank[b - a + 1] of row node a (node e + a),
    which gives the slot of every element entry (e, a, b). The pattern
    depends on the shape only: grids of one shape, like windows of one size,
    share it.
    """
    nodes = cells + (topology == BOX)
    column, rank = _axis_stencil(nodes, topology == TORUS)
    present = column < nodes
    count = present.sum(axis=1)
    row_len = reduce(np.multiply, (_on_axis(count, k, dim) for k in range(dim)))
    nnz = int(row_len.sum())
    # scipy's choice for CSR index arrays: int32 whenever the values fit
    idx = np.int32 if max(nnz, nodes ** dim) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(nodes ** dim + 1, dtype=idx)
    np.cumsum(row_len, out=indptr[1:])
    # every row's columns over [row node, place] per axis, in C order: rows
    # in order, each row's columns increasing. One pass per combination of
    # places (the highest axis first) writes each entry once; a padded place
    # adds -nodes**dim, which makes the sum negative and drops the entry
    # (dim * nodes**dim <= nnz, so the sum cannot overflow idx)
    terms = [np.where(present, column * nodes ** k, -nodes ** dim).astype(idx)
             for k in range(dim)]
    full = np.empty((nodes,) * dim + (3,) * dim, dtype=idx)
    for places in np.ndindex((3,) * dim):
        full[(...,) + places] = sum(_on_axis(terms[k][:, p], k, dim)
                                    for k, p in enumerate(reversed(places)))
    full = full.ravel()
    indices = full[full >= 0]
    # per-axis arrays over [a, b, e]: the entry's row node and the column's
    # place in the row's stencil; built in this order and transposed once,
    # since element-first broadcasting runs 2-3x slower
    node = (np.arange(2)[:, None] + np.arange(cells)[None, :]) % nodes    # [a, e]
    offset = np.arange(2)[None, :] - np.arange(2)[:, None] + 1           # [a, b]
    place = rank[node[:, None, :], offset[:, :, None]].astype(idx)       # [a, b, e]
    count = count.astype(idx)[node][:, None, :]                         # [a, 1, e]
    node = node.astype(idx)
    row = sum(_on_axis(node[:, None, :] * nodes ** k, k, dim) for k in range(dim))
    slot = np.empty((2,) * (2 * dim) + (cells,) * dim, dtype=idx)       # [a, b, e]
    slot[...] = indptr[row]
    stride = 1
    for k in range(dim):
        slot += _on_axis(place, k, dim) * stride
        stride = stride * _on_axis(count, k, dim)
    # [a, b, e] -> [e, a, b], each block x fastest
    pos = slot.transpose(*range(2 * dim, 3 * dim), *range(2 * dim)).ravel()
    for arr in (indptr, indices, pos):
        arr.setflags(write=False)
    return CsrPattern(indptr, indices, pos)


@dataclass
class ElementOps:
    """Per-grid cached arrays for assembly and energy evaluation.

    Every matrix assembled on the grid has the same sparsity, the 3^dim-node
    stencil: its ``CsrPattern`` is built from the stencil offsets on the
    first assembly (grids that never assemble, like the p-energy ones, never
    build it) and kept per grid shape, and each assembly is then one
    ``np.bincount`` of the element matrices into the pattern's slots.

    Every per-element contraction is a 2-D matrix product on rows gathered
    once by ``v[elem_nodes]``, against small read-only matrices precomputed
    per grid: the gradient matrix ``grad_matrix`` sends an element's nodal
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
    elem_nodes: np.ndarray         # (n_e, 2**dim)
    quad_weights: np.ndarray       # (n_q,)
    grad_matrix: np.ndarray        # (2**dim, n_q * dim)
    mean_grad_matrix: np.ndarray   # (2**dim, dim)
    point_sum: np.ndarray          # (n_q * dim, n_q)
    grad_matrix_t: np.ndarray      # (n_q * dim, 2**dim)
    point_spread: np.ndarray       # (n_q, n_q * dim)
    stiff_blocks: np.ndarray       # (dim, dim, 2**dim, 2**dim), see assemble_stiffness
    mass_ref: np.ndarray           # (2**dim, 2**dim), unit-measure mass matrix

    @property
    def pattern(self) -> CsrPattern:
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
        -div(coeff grad u) + shift u), in one scatter.

        ``coeff`` is (n_e,) for scalar coefficients or (n_e, dim, dim) for
        matrix ones; rows are test functions, so nonsymmetric coefficient
        matrices assemble to nonsymmetric systems.
        """
        coeff = np.asarray(coeff, dtype=float)
        if coeff.ndim == 1:
            data = np.outer(coeff, np.trace(self.stiff_blocks))
        else:
            n_loc = self.elem_nodes.shape[1]
            data = coeff.reshape(len(coeff), -1) @ self.stiff_blocks.reshape(-1, n_loc ** 2)
        if shift is not None:
            data += np.outer(self.h ** self.grid.dim * shift, self.mass_ref)
        return self._scatter(data)

    def assemble_mass(self, weights: np.ndarray | None = None) -> sp.csr_matrix:
        """Mass matrix with per-element ``weights`` (1 on every element if
        None); a boolean mask restricts it to the masked elements."""
        scale = np.full(self.grid.n_elements, self.h ** self.grid.dim)
        if weights is not None:
            scale = scale * weights
        return self._scatter(np.outer(scale, self.mass_ref))

    def _scatter(self, data: np.ndarray) -> sp.csr_matrix:
        pattern = self.pattern
        return pattern.matrix(np.bincount(pattern.pos, weights=data.ravel(),
                                          minlength=len(pattern.indices)))

    def load_from_element_vectors(self, flux: np.ndarray) -> np.ndarray:
        """Nodal load L_a = sum_e h^d <F_e, grad phi_a> for per-element F_e."""
        contrib = (self.h ** self.grid.dim) * (flux @ self.mean_grad_matrix.T)
        return np.bincount(self.elem_nodes.ravel(), weights=contrib.ravel(),
                           minlength=self.grid.n_nodes)

    def load_from_element_scalars(self, values: np.ndarray) -> np.ndarray:
        """Nodal load L_a = sum_e h^d f_e / n_loc (one-point load quadrature)."""
        n_loc = self.elem_nodes.shape[1]
        contrib = (self.h ** self.grid.dim / n_loc) * np.repeat(values, n_loc)
        return np.bincount(self.elem_nodes.ravel(), weights=contrib,
                           minlength=self.grid.n_nodes)

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
    arrays = (wts, grad_matrix, mean_grad_matrix, point_sum, grad_matrix_t,
              point_spread, blocks, mass)
    for arr in arrays:
        arr.setflags(write=False)
    return ElementOps(grid, grid.element_nodes(), *arrays)


@dataclass
class SparseSystem:
    """CSR system with a symmetry declaration checked at construction."""

    matrix: sp.csr_matrix
    symmetric: bool

    def __post_init__(self):
        self.matrix = self.matrix.tocsr()
        self.matrix.sum_duplicates()
        self.matrix.sort_indices()
        if self.symmetric:
            scale = np.abs(self.matrix.data).max() if self.matrix.nnz else 0.0
            defect = np.abs((self.matrix - self.matrix.T).data)
            worst = defect.max() if defect.size else 0.0
            if not worst <= SYMMETRY_RTOL * max(scale, 1e-300):
                raise ValueError(
                    f"matrix declared symmetric but |M - M^T|_max = {worst:.3e} "
                    f"exceeds {SYMMETRY_RTOL:.0e} * |M|_max = {SYMMETRY_RTOL * scale:.3e}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def is_symmetric(coeff: np.ndarray) -> bool:
    """True for scalar per-element coefficients, and for (n_e, d, d) ones
    whose off-diagonal pairs agree to ``SYMMETRY_RTOL`` times max |c|, the
    relative test ``SparseSystem`` applies to the assembled matrix. Pairs
    are compared in place: a transposed copy costs several times more."""
    coeff = np.asarray(coeff)
    if coeff.ndim == 1:
        return True
    tol = SYMMETRY_RTOL * max(float(np.abs(coeff).max()), 1e-300)
    d = coeff.shape[1]
    return all(float(np.abs(coeff[:, k, l] - coeff[:, l, k]).max()) <= tol
               for k in range(d) for l in range(k + 1, d))


@dataclass
class SolveStats:
    iterations: int
    residual: float


def _krylov_frame(name: str, iterate, system: SparseSystem, rhs: np.ndarray,
                  mean_zero: bool, preconditioner) -> tuple[np.ndarray, SolveStats]:
    """Both Krylov solvers around their loop ``iterate(A, b, preconditioner,
    tol, cap) -> (x, iterations)``: the right-hand side checked, copied and
    (with ``mean_zero``) projected, zero answered by zero; then x projected
    likewise and its true residual |b - A x| checked against 10x the target
    and reported."""
    A = system.matrix
    b = np.asarray(rhs, dtype=float).copy()
    if b.shape != (system.n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({system.n},)")
    if mean_zero:
        b -= b.mean()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(b), SolveStats(0, 0.0)
    tol = _REL_TOLERANCE * b_norm
    x, it = iterate(A, b, preconditioner, tol, _ITERATIONS_PER_UNKNOWN * system.n)
    if mean_zero:
        x -= x.mean()
    true_res = float(np.linalg.norm(b - A @ x))
    if not true_res <= 10 * tol:
        raise SolverError(f"{name}: true residual {true_res:.3e} exceeds 10x the "
                          f"target {tol:.3e} after {it} iterations")
    return x, SolveStats(it, true_res)


def cg_solve(system: SparseSystem, rhs: np.ndarray, mean_zero: bool = False, *,
             preconditioner: Callable[[np.ndarray], np.ndarray]
             ) -> tuple[np.ndarray, SolveStats]:
    """Preconditioned conjugate gradients on an SPD (or mean-zero-deflated
    SPSD) system.

    ``preconditioner`` maps a residual r to z ~ A^-1 r and must be symmetric
    positive (semi)definite; ``solve_corrector`` passes one built by
    ``spectral_preconditioner``. With ``mean_zero`` the right-hand side is
    projected onto mean-zero and the solution is returned mean-zero;
    this is how the periodic cell problems remove the constant kernel. The
    stopping rule is on the unpreconditioned residual norm, and the true
    residual |b - A x| is checked at the end (within 10x the target) and
    reported in the stats.
    """
    if not system.symmetric:
        raise ValueError("cg_solve requires a symmetric system")
    return _krylov_frame("cg_solve", _cg_iterate, system, rhs, mean_zero,
                         preconditioner)


def _cg_iterate(A, b: np.ndarray, preconditioner, tol: float,
                cap: int) -> tuple[np.ndarray, int]:
    x = np.zeros_like(b)
    r = b.copy()
    z = preconditioner(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    res = float(np.linalg.norm(r))
    while res > tol and it < cap:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise SolverError(f"cg_solve: non-positive curvature at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = preconditioner(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
        res = float(np.linalg.norm(r))
    if not res <= tol:
        raise SolverError(f"cg_solve: no convergence in {it} iterations "
                          f"(residual {res:.3e}, target {tol:.3e})")
    return x, it


def krylov_solve_nonsymmetric(system: SparseSystem, rhs: np.ndarray,
                              mean_zero: bool = False, *,
                              preconditioner: Callable[[np.ndarray], np.ndarray]
                              ) -> tuple[np.ndarray, SolveStats]:
    """Right-preconditioned BiCGStab for the nonsymmetric weak forms (flux
    problems).

    ``preconditioner`` maps a vector r to z ~ A^-1 r; ``solve_corrector``
    passes the ``spectral_preconditioner`` of the symmetric part. Right
    preconditioning (A M y = b, x = M y) keeps the recurrence on the
    unpreconditioned residual, which is what the stopping rule tests; the
    true residual |b - A x| is checked at the end (within 10x the target).
    ``mean_zero`` works as in ``cg_solve``.
    """
    return _krylov_frame("krylov_solve_nonsymmetric", _bicgstab_iterate, system,
                         rhs, mean_zero, preconditioner)


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
        v = A @ p_hat
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
        t = A @ s_hat
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


def _active_nodes_checked(grid: Grid, active_el: np.ndarray) -> np.ndarray:
    """Nodes adjacent to active elements; errors if empty or disconnected."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components   # masked solves only

    if not np.any(active_el):
        raise RuntimeError("perforation removed every element")
    elem_nodes = element_ops(grid).elem_nodes[active_el]
    active_nodes = np.unique(elem_nodes)
    # consecutive local nodes chain each element's nodes into one clique
    a, b = elem_nodes[:, :-1].ravel(), elem_nodes[:, 1:].ravel()
    n = grid.n_nodes
    adj = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, labels = connected_components(adj.tocsr(), directed=False)
    # nodes not touching any active element form singleton components
    n_active_comp = len(np.unique(labels[active_nodes]))
    if n_active_comp != 1:
        raise RuntimeError(f"perforation complement is disconnected at this "
                           f"resolution ({n_active_comp} components)")
    return active_nodes


def spectral_preconditioner(grid: Grid, a_ref: float, c_ref: float = 0.0,
                            unknowns: np.ndarray | None = None, *,
                            dtype=np.float64) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of the constant-coefficient reference operator a_ref K + c_ref M
    on ``grid``, as a preconditioner (CG, BiCGStab and L-BFGS's initial
    inverse Hessian), exact up to the rounding of ``dtype``.

    On a uniform grid the Q1 stiffness and mass matrices are tensor products
    of the 1D stencils with symbols k(t) = (2 - 2 cos t) / h and
    m(t) = h (4 + 2 cos t) / 6, so the reference operator has the symbol
    a_ref sum_k (k on axis k, m on the others) + c_ref (m on every axis),
    e.g. a_ref (k x m + m x k) + c_ref m x m in 2D. A
    real FFT diagonalizes it on the torus (whose constant mode is zeroed) and
    an orthonormal DST-I on the interior nodes of a box. ``unknowns`` (full
    node ids, sorted) restricts it to a subset of those nodes: zero-extend,
    apply, restrict, which keeps it symmetric positive definite.

    ``dtype`` is the precision of the transforms: the symbol is computed in
    float64 and stored once in ``dtype``, and each apply casts its input
    into a buffer of that type, which the box transforms overwrite in place
    (the caller's vector is never written). The result is always a new
    float64 vector. ``solve_corrector`` passes float32 on box grids, where
    it halves the transform's cost; a Krylov solver's stopping test and
    true-residual check stay float64, so only the iteration count can feel
    the rounding.
    """
    torus = grid.topology == TORUS
    n, h, dim = grid.cells_per_axis, grid.h, grid.dim
    if torus:
        # x is the fastest array axis, the one rfftn halves
        axes = [2.0 * np.pi * np.arange(n // 2 + 1) / n]
        axes += [2.0 * np.pi * np.arange(n) / n] * (dim - 1)
        lattice = np.arange(grid.n_nodes)
    else:
        axes = [np.pi * np.arange(1, n) / n] * dim
        lattice = np.flatnonzero(~grid.boundary_node_mask())
    ks = [_on_axis((2.0 - 2.0 * np.cos(t)) / h, k, dim) for k, t in enumerate(axes)]
    ms = [_on_axis(h * (4.0 + 2.0 * np.cos(t)) / 6.0, k, dim) for k, t in enumerate(axes)]
    stiffness = sum(ks[k] * math.prod(ms[:k] + ms[k + 1:]) for k in range(dim))
    symbol = a_ref * stiffness + c_ref * math.prod(ms)
    if torus:
        symbol[(0,) * dim] = np.inf     # zero the constant mode
    inv_symbol = (1.0 / symbol).astype(dtype, copy=False)
    shape = (n if torus else n - 1,) * dim
    pos = None
    if unknowns is not None and len(unknowns) != len(lattice):
        pos = np.searchsorted(lattice, unknowns)
    if not torus:
        from scipy.fft import dstn     # only box solves pay for loading scipy.fft

    def apply(r: np.ndarray) -> np.ndarray:
        if pos is None:
            # a fresh buffer on the box, whose transforms overwrite it
            f = r.astype(dtype, copy=not torus)
        else:
            f = np.zeros(len(lattice), dtype)
            f[pos] = r
        f = f.reshape(shape)
        if torus:
            z = np.fft.irfftn(np.fft.rfftn(f) * inv_symbol, s=shape, axes=range(dim))
        else:
            z = dstn(f, type=1, norm="ortho", overwrite_x=True)
            z *= inv_symbol
            z = dstn(z, type=1, norm="ortho", overwrite_x=True)
        z = z.ravel()
        return (z if pos is None else z[pos]).astype(np.float64, copy=False)

    return apply


def solve_corrector(grid: Grid, coeff: np.ndarray, xis=None, *,
                    active: np.ndarray | None = None,
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
    on x0). Callers evaluate xi + grad w (``ElementOps.energy_quadratic``,
    ``ElementOps.flux_average``). With ``source`` in place of ``xis`` (box
    grids only), one solve of (K + M_c) w = F with zero boundary values,
    where K is the stiffness of ``coeff``, M_c the mass weighted by
    ``shift`` (source solves only) and F the one-point load of f
    (``ElementOps.load_from_element_scalars``). With an element mask
    ``active`` the unknowns are the nodes touching an active element, which
    must form one connected component. K + M_c is assembled in one scatter
    on the grid's cached ``CsrPattern``.

    Symmetric coefficients (``is_symmetric``) are solved by CG, nonsymmetric
    ones by right-preconditioned BiCGStab, both with
    ``spectral_preconditioner``: a_ref is the mean coefficient over the
    active elements (trace / dim for matrix coefficients, i.e. of their
    symmetric part) and c_ref the node average of c: the mean over the
    unknowns of load_from_element_scalars(shift) / h^dim, whose entry at
    node a is the sum of c_e / 2^dim over the elements e at a, that is the
    diagonal of M_c at a over the reference mass diagonal (4h/6)^dim. The
    preconditioner runs in float64 on the torus and in float32 on the box.
    A constant coefficient gives a direction solve a load that vanishes up
    to the rounding of the element sums, exactly when h and xi are dyadic
    (16 cells per unit, xi = (1, 0.5)); a zero load returns w = 0 without
    iterating. A constant-coefficient source solve on the box takes at most
    two CG iterations, since its inverse is exact only to float32 rounding.
    Assembly, restriction, the connectivity check and the preconditioner
    setup run once for all directions. Returns the full nodal vector and the
    solver stats of each solve.
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
    K = ops.assemble_stiffness(coeff, shift)
    unknowns = None if active is None else _active_nodes_checked(grid, active)
    if not torus:
        boundary = grid.boundary_node_mask()
        unknowns = (np.flatnonzero(~boundary) if unknowns is None
                    else unknowns[~boundary[unknowns]])
    system = SparseSystem(K if unknowns is None else K[unknowns][:, unknowns],
                          symmetric=symmetric)
    # the trace of a matrix coefficient is the trace of its symmetric part
    c = coeff if active is None else coeff[active]
    a_ref = float(c.mean() if c.ndim == 1
                  else np.trace(c, axis1=1, axis2=2).mean() / grid.dim)
    c_ref = 0.0
    if shift is not None:
        c_ref = (float(ops.load_from_element_scalars(shift)[unknowns].mean())
                 / grid.h ** grid.dim)
    # float32 transforms on the box (half the cost of float64); numpy's
    # float32 FFT is no faster on the torus, which keeps float64
    precond = spectral_preconditioner(grid, a_ref, c_ref, unknowns,
                                      dtype=np.float64 if torus else np.float32)
    out = []
    for xi in ([None] if xis is None else xis):
        if xi is None:
            rhs = ops.load_from_element_scalars(source)
        else:
            xi = np.asarray(xi, dtype=float)
            flux = coeff[:, None] * xi[None, :] if coeff.ndim == 1 else coeff @ xi
            rhs = -ops.load_from_element_vectors(flux)
        if unknowns is not None:
            rhs = rhs[unknowns]
        if symmetric:
            w, stats = cg_solve(system, rhs, mean_zero=torus, preconditioner=precond)
        else:
            w, stats = krylov_solve_nonsymmetric(system, rhs, mean_zero=torus,
                                                 preconditioner=precond)
        if unknowns is not None:
            w_full = np.zeros(grid.n_nodes)
            w_full[unknowns] = w
            w = w_full
        out.append((w, stats))
    return out


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
    (``ElementOps.grad_matrix_t``).
    """

    grid: Grid
    coeff: np.ndarray
    p: float
    xi: np.ndarray
    free: np.ndarray | None = field(init=False, repr=False)
    ops: ElementOps = field(init=False, repr=False)
    _xi_rows: np.ndarray = field(init=False, repr=False)
    _point_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=float)
        self.xi = np.asarray(self.xi, dtype=float)
        if self.p <= 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.coeff.shape != (self.grid.n_elements,):
            raise ValueError("coeff must have one scalar per element")
        self.free = (None if self.grid.topology == TORUS
                     else np.flatnonzero(~self.grid.boundary_node_mask()))
        self.ops = element_ops(self.grid)
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

    def _point_rows(self, u_free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """xi + grad v at the quadrature points as flat rows (n_e, n_q dim),
        and its squared length per point (n_e, n_q)."""
        v = self.full_vector(u_free)
        g = v[self.ops.elem_nodes] @ self.ops.grad_matrix
        g += self._xi_rows
        return g, (g * g) @ self.ops.point_sum

    def value(self, u_free: np.ndarray) -> float:
        _, mag_sq = self._point_rows(u_free)
        dens = mag_sq ** (self.p / 2.0) @ self.ops.quad_weights
        return float(self.grid.h ** self.grid.dim * (self.coeff @ dens))

    def gradient(self, u_free: np.ndarray) -> np.ndarray:
        g, mag_sq = self._point_rows(u_free)
        # p |g|^(p-2) g, with the p=2 case reducing to 2 g exactly.
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(mag_sq > 0, mag_sq ** (self.p / 2.0 - 1.0), 0.0)
        w = self._point_weights * scale
        contrib = ((w @ self.ops.point_spread) * g) @ self.ops.grad_matrix_t
        full_grad = np.bincount(self.ops.elem_nodes.ravel(), weights=contrib.ravel(),
                                minlength=self.grid.n_nodes)
        if self.free is None:
            return full_grad - full_grad.mean()
        return full_grad[self.free]


def minimize_p_energy(problem: PEnergyProblem,
                      x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Preconditioned L-BFGS with Armijo backtracking; energies are asserted
    non-increasing.

    The initial inverse Hessian of the two-loop recursion is gamma P, with
    P = ``spectral_preconditioner(grid, 1, 0, free)`` the inverse of the
    unit-coefficient stiffness on the unknowns (FFT on the torus, whose
    constant mode it zeroes, DST-I on the interior nodes of a box) and
    gamma = s^T y / y^T P y from the newest curvature pair (Nocedal-Wright,
    Numerical Optimization, 7.2). P stays float64 on a box too: a float32
    apply, as the box Krylov solves use, takes a 1D p = 3 window with 63
    free unknowns from 5 to 7 iterations. Before any pair is stored, gamma
    is 1 / (p (p - 1) mean a), the reference Hessian scale at
    |xi + grad v| = 1, and the first trial step is the unit step. The
    iteration count then does not grow with the mesh. The stopping rule
    stays on the Euclidean gradient norm.

    ``x0`` warm-starts the free unknowns (continuation from a cheaper
    problem); without it the descent starts from v = 0, which on a box is
    the affine data itself. Returns the full nodal vector of the corrector:
    zero on the boundary of a box, mean-zero on the torus.
    """
    n = problem.n_free
    u = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if u.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    energy = problem.value(u)
    grad = problem.gradient(u)
    tol = _GRAD_TOLERANCE
    # Energy comparisons bottom out at machine epsilon, after which Armijo
    # decisions are noise; a descent that stalls there with the gradient
    # within three decades of the target is at the float64 minimum and is
    # accepted. Anything coarser stays a hard failure.
    stall_ceiling = 1e3 * tol
    stall_drop = 8.0 * np.finfo(float).eps
    cap = _ITERATIONS_PER_UNKNOWN * n
    precond = spectral_preconditioner(problem.grid, 1.0, 0.0, problem.free)
    gamma0 = 1.0 / (problem.p * (problem.p - 1.0) * float(problem.coeff.mean()))
    memory: list[tuple[np.ndarray, np.ndarray]] = []
    m_max = 10
    it = 0
    stalled = 0
    floor_hit = False
    g_norm = float(np.linalg.norm(grad))
    while g_norm > tol and it < cap:
        d = _lbfgs_direction(grad, memory, precond, gamma0)
        slope = float(grad @ d)
        if slope >= 0:
            d = -grad
            slope = -g_norm ** 2
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
            if (g_norm <= stall_ceiling
                    and -step * slope <= stall_drop * max(1.0, abs(energy))):
                break
        if not accepted:
            if g_norm <= stall_ceiling:
                floor_hit = True
                break
            raise SolverError(f"minimize_p_energy: line search stalled at iteration {it} "
                              f"(grad norm {g_norm:.3e})")
        if e_try > energy + 1e-12 * (1.0 + abs(energy)):
            raise SolverError("minimize_p_energy: energy increased along accepted step")
        grad_new = problem.gradient(u_try)
        s = u_try - u
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * max(np.linalg.norm(y), 1e-300):
            memory.append((s, y))
            if len(memory) > m_max:
                memory.pop(0)
        drop = energy - e_try
        u, energy, grad = u_try, e_try, grad_new
        g_norm = float(np.linalg.norm(grad))
        it += 1
        if drop <= stall_drop * max(1.0, abs(energy)):
            stalled += 1
            if stalled >= 50 and g_norm <= stall_ceiling:
                floor_hit = True
                break
        else:
            stalled = 0
    if not g_norm <= tol and not floor_hit:
        raise SolverError(f"minimize_p_energy: no convergence in {it} iterations "
                          f"(grad norm {g_norm:.3e}, target {tol:.3e})")
    return problem.full_vector(u), SolveStats(it, g_norm)


def _lbfgs_direction(grad: np.ndarray, memory, precond, gamma0: float) -> np.ndarray:
    """-H grad by the two-loop recursion with initial inverse Hessian gamma P."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(memory):
        rho = 1.0 / float(s @ y)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    gamma = gamma0
    if memory:
        s, y = memory[-1]
        gamma = float(s @ y) / float(y @ precond(y))
    q = gamma * precond(q)
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q
