"""Perforated-domain homogenization: hole patterns, penalized and masked
cell values, an annulus-to-ball extension operator, and the lambda-problem
convergence experiment.

Holes are realized on-grid by element-center membership, so coefficients
stay piecewise constant per element and assembly is exact. The penalized
variant takes coefficient 1/n inside the holes, the masked variant (Neumann
holes) its n -> infinity limit 0, which ``numerics.solve_corrector`` reads
as holes. The two bracket each other, which is what the sandwich tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import HomogenizedResult, homogenize_coefficients
from .fields import FieldBounds, power_of_two_cells, window_points
from .numerics import (BOX, TORUS, Grid, build_grid, cells_across,
                       corrector_response, element_ops, solve_corrector,
                       tensor_points)
from .rve import window_grid

MIN_CELLS_ACROSS_HOLE = 8


@dataclass(frozen=True)
class DecayingShift:
    """Shift the hole in cell k by min(cap, 1/|k|) along the first axis."""

    cap: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.cap:
            raise ValueError(f"shift cap must be positive, got {self.cap}")


@dataclass(frozen=True)
class SparseRemoval:
    """Remove the holes in cells whose coordinates are all powers of two."""


@dataclass(frozen=True)
class PerforationSet:
    """Periodic array of holes centered in unit cells, radius < 1/2.

    ``radius`` is the ball radius or the square half-width; ``radius = 0``
    means no holes (useful as a control). Perturbations never let holes
    touch cell boundaries, so the complement stays connected.
    """

    shape: str = "ball"
    radius: float = 0.25
    perturbation: DecayingShift | SparseRemoval | None = None

    def __post_init__(self):
        if self.shape not in ("ball", "square"):
            raise ValueError(f"unknown hole shape {self.shape!r}")
        if not 0.0 <= self.radius < 0.5:
            raise ValueError(f"radius must lie in [0, 0.5), got {self.radius}")
        if isinstance(self.perturbation, DecayingShift):
            if self.radius + self.perturbation.cap >= 0.5:
                raise ValueError("shifted holes would touch the cell boundary: "
                                 f"radius {self.radius} + cap "
                                 f"{self.perturbation.cap} >= 0.5")

    def membership(self, pts) -> np.ndarray:
        """True where points fall inside a hole."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("membership expects (n, 2) points")
        if self.radius == 0.0:
            return np.zeros(len(pts), dtype=bool)
        cells = np.floor(pts).astype(np.int64)
        local = pts - cells - 0.5
        if isinstance(self.perturbation, DecayingShift):
            norms = np.hypot(cells[:, 0].astype(float), cells[:, 1].astype(float))
            with np.errstate(divide="ignore"):
                shift = np.where(norms > 0.0,
                                 np.minimum(self.perturbation.cap, 1.0 / norms),
                                 self.perturbation.cap)
            local = local.copy()
            local[:, 0] -= shift
        if self.shape == "ball":
            inside = local[:, 0] ** 2 + local[:, 1] ** 2 <= self.radius ** 2
        else:
            inside = np.maximum(np.abs(local[:, 0]),
                                np.abs(local[:, 1])) <= self.radius
        if isinstance(self.perturbation, SparseRemoval):
            removed = (power_of_two_cells(cells[:, 0])
                       & power_of_two_cells(cells[:, 1]))
            inside &= ~removed
        return inside


def volume_fraction(E: PerforationSet, R: float, resolution: int) -> float:
    """Element-center estimate of theta = |Q_R \\ E| / R^2; RuntimeError
    unless theta lies in (0, 1]."""
    if R < 4:
        raise ValueError(f"window must be at least 4, got {R}")
    pts, _ = window_points(R, resolution, 2, None)
    theta = 1.0 - float(np.mean(E.membership(pts)))
    if not 0.0 < theta <= 1.0:
        raise RuntimeError(f"volume fraction {theta} escapes (0, 1]; "
                           "the perforation admits no nontrivial limit")
    return theta


def symmetric_difference_density(E: PerforationSet, E2: PerforationSet,
                                 R: float, resolution: int) -> float:
    """Element-center estimate of |(E xor E2) ∩ Q_R| / R^2."""
    pts, _ = window_points(R, resolution, 2, None)
    return float(np.mean(E.membership(pts) != E2.membership(pts)))


def check_hole_resolution(radius: float, resolution: int,
                          name: str = "resolution"):
    """Raise ValueError unless a hole of this radius spans at least
    MIN_CELLS_ACROSS_HOLE elements at ``resolution`` elements per unit
    (a radius of 0 means no hole). ``name`` labels the resolution."""
    if radius > 0 and 2.0 * radius * resolution < MIN_CELLS_ACROSS_HOLE:
        raise ValueError(
            f"{name} {resolution} puts fewer than {MIN_CELLS_ACROSS_HOLE} "
            f"elements across a hole of diameter {2 * radius:g}")


def lambda_box_grid(box_size: float, resolution: int) -> Grid:
    """The lambda problem's zero-Dirichlet box: side ``box_size``, centered
    at the origin, at ``resolution`` cells per unit."""
    half = box_size / 2.0
    return build_grid(2, cells_across(box_size, resolution), (-half, -half),
                      box_size, BOX)


def check_hole_cell(E: PerforationSet, resolution: int,
                    name: str = "resolution"):
    """Raise ValueError unless the unit cell at ``resolution`` elements per
    unit resolves the holes of ``E`` (``check_hole_resolution``) and keeps
    some element centre outside them; ``name`` labels the resolution.

    The hole in a cell is convex and the centres form a grid, so every
    centre lies in it exactly when the four corner centres do (also in
    floating point: each coordinate of a centre is monotone in its index).
    Testing those four keeps the rule's cost independent of the resolution.
    """
    check_hole_resolution(E.radius, resolution, name)
    # the outermost element centres, by the Grid.element_centers formula
    ends = 0.0 + (1.0 / resolution) * (np.array([0, resolution - 1]) + 0.5)
    if E.membership(tensor_points([ends, ends])).all():
        raise ValueError(f"{name} {resolution} puts every element centre of "
                         f"the cell in a {E.shape} hole of radius {E.radius:g}")


def _hole_cell(E: PerforationSet, resolution: int) -> tuple[Grid, np.ndarray]:
    """The unit torus at ``resolution`` elements per unit and which of its
    elements have their centre in a hole; ``check_hole_cell`` first."""
    check_hole_cell(E, resolution)
    grid = build_grid(2, resolution, (0.0, 0.0), 1.0, TORUS)
    return grid, E.membership(grid.element_centers())


def _cell_value(E: PerforationSet, hole_coeff: float, xi, resolution: int) -> float:
    """Periodic cell minimum with coefficient 1 outside E, ``hole_coeff`` inside."""
    grid, inside = _hole_cell(E, resolution)
    [(value, _, _)] = corrector_response(grid, np.where(inside, hole_coeff, 1.0), [xi])
    return value


def penalized_cell_value(E: PerforationSet, n: float, xi,
                         resolution: int) -> float:
    """Periodic cell minimum with coefficient 1 outside E, 1/n inside."""
    if n < 1:
        raise ValueError(f"penalization index must be >= 1, got {n}")
    if resolution < 64:
        raise ValueError(f"resolution must be at least 64, got {resolution}")
    return _cell_value(E, 1.0 / n, xi, resolution)


def masked_cell_value(E: PerforationSet, xi, resolution: int) -> float:
    """Perforated cell quadratic form <A_hom^E xi, xi> (Neumann holes), 1/n -> 0."""
    return _cell_value(E, 0.0, xi, resolution)


def masked_cell_matrix(E: PerforationSet,
                       resolution: int) -> tuple[HomogenizedResult, float]:
    """Perforated homogenized matrix and the cell volume fraction theta.

    The eigenvalue window is that of the unit coefficient outside the holes,
    widened by an extension constant of 3, an upper bound on
    ``empirical_extension_constant``: [1/9, 1].
    """
    grid, inside = _hole_cell(E, resolution)
    result = homogenize_coefficients(grid, np.where(inside, 0.0, 1.0),
                                     FieldBounds(1.0, 1.0), extension_constant=3.0)
    return result, float(np.mean(~inside))


def masked_window_value(E: PerforationSet, x0, R: float, xi,
                        resolution: int) -> float:
    """Affine-Dirichlet window minimum on Q_R(x0) minus the holes."""
    check_hole_resolution(E.radius, resolution)
    grid = window_grid(2, x0, R, resolution)
    inside = E.membership(grid.element_centers())
    [(value, _, _)] = corrector_response(grid, np.where(inside, 0.0, 1.0), [xi])
    return value


# --- extension operator -----------------------------------------------------


@dataclass(frozen=True)
class ExtensionResult:
    """Polar-grid extension of annulus data over the inner ball.

    For the scale s and resolution of ``extend_over_ball``,
    ``inner_values`` has shape (2 resolution, 8 resolution) and entry [i, j]
    lives at radius (i + 1/2) s / resolution and angle
    (j + 1/2) 2 pi / (8 resolution); the gradient ratio compares L2 gradient norms of
    the extension (over B_{2s}) and the input (over B_{3s} minus B_{2s}).
    """

    inner_values: np.ndarray
    annulus_mean: float
    gradient_ratio: float


def _polar_gradient_sq_integral(values: np.ndarray, radii: np.ndarray,
                                dr: float, dtheta: float) -> float:
    """Integral of |grad u|^2 over the polar patch via finite differences."""
    ur = np.gradient(values, dr, axis=0)
    ut = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2.0 * dtheta)
    dens = ur ** 2 + (ut / radii[:, None]) ** 2
    return float(np.sum(dens * radii[:, None]) * dr * dtheta)


def extend_over_ball(u, resolution: int, scale: float = 1.0) -> ExtensionResult:
    """Extend annulus data u (sampled on B_{3s} minus B_{2s}) over B_{2s}.

    The extension is the annulus mean on B_s and, on the shell between s and
    2s, blends the mean with the reflected annulus values u((4s - |x|) x/|x|).
    The construction commutes with homotheties, which the scale parameter
    makes testable.
    """
    if resolution < 4:
        raise ValueError(f"resolution must be at least 4, got {resolution}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    s = float(scale)
    dr = s / resolution
    n_t = 8 * resolution
    dtheta = 2.0 * np.pi / n_t
    angles = (np.arange(n_t) + 0.5) * dtheta
    cos_t, sin_t = np.cos(angles), np.sin(angles)

    annulus_radii = 2.0 * s + (np.arange(resolution) + 0.5) * dr
    ann_pts_x = annulus_radii[:, None] * cos_t[None, :]
    ann_pts_y = annulus_radii[:, None] * sin_t[None, :]
    annulus_values = np.asarray(u(ann_pts_x, ann_pts_y), dtype=float)
    if annulus_values.shape != (resolution, n_t):
        raise ValueError("annulus sample function must preserve shape")
    weights = annulus_radii[:, None] * np.ones_like(annulus_values)
    mean = float(np.sum(annulus_values * weights) / np.sum(weights))

    inner_radii = (np.arange(2 * resolution) + 0.5) * dr
    inner_values = np.full((2 * resolution, n_t), mean)
    shell = inner_radii > s
    rho = inner_radii[shell]
    mirror = 4.0 * s - rho
    mir_x = mirror[:, None] * cos_t[None, :]
    mir_y = mirror[:, None] * sin_t[None, :]
    mirrored = np.asarray(u(mir_x, mir_y), dtype=float)
    t = rho / s
    inner_values[shell] = ((t - 1.0)[:, None] * mirrored
                           + (2.0 - t)[:, None] * mean)

    num = _polar_gradient_sq_integral(inner_values, inner_radii, dr, dtheta)
    den = _polar_gradient_sq_integral(annulus_values, annulus_radii, dr, dtheta)
    floor = 1e-14 * max(1.0, float(np.max(np.abs(annulus_values))) ** 2)
    ratio = 0.0 if den <= floor else float(np.sqrt(num / den))
    return ExtensionResult(inner_values, mean, ratio)


def empirical_extension_constant() -> float:
    """Max gradient ratio of the extension over 20 seeded random smooth
    functions, at resolution 24."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n_terms = 3
        lin = rng.normal(size=2)
        amps = rng.normal(size=n_terms) / np.arange(1, n_terms + 1)
        freqs = rng.uniform(0.3, 1.5, size=(n_terms, 2))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)

        def u(x, y, lin=lin, amps=amps, freqs=freqs, phases=phases):
            out = lin[0] * x + lin[1] * y
            for a, (fx, fy), ph in zip(amps, freqs, phases):
                out = out + a * np.sin(fx * x + fy * y + ph)
            return out

        ratio = extend_over_ball(u, 24).gradient_ratio
        if not np.isfinite(ratio):
            raise RuntimeError("extension ratio must be finite")
        worst = max(worst, ratio)
    return worst


# --- lambda problem ----------------------------------------------------------


@dataclass(frozen=True)
class GaussianSource:
    """exp(-|x - center|^2 / (2 sigma^2)), numerically compactly supported."""

    sigma: float = 1.0 / 16.0
    center: tuple[float, float] = (0.0, 0.0)
    amplitude: float = 1.0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        d = pts - np.asarray(self.center)[None, :]
        return self.amplitude * np.exp(-(d[:, 0] ** 2 + d[:, 1] ** 2)
                                       / (2.0 * self.sigma ** 2))


@dataclass(frozen=True)
class LambdaReport:
    epsilons: tuple[float, ...]
    distances: tuple[float, ...]
    hom_matrix: np.ndarray
    theta: float


def lambda_problem_experiment(E: PerforationSet, lam: float, source,
                              epsilons, box_size: float = 2.0,
                              n_penal: float = 256.0, resolution: int = 256,
                              cell_resolution: int = 64) -> LambdaReport:
    """Compare scaled-perforation solves against the homogenized solve.

    Each epsilon problem minimizes the penalized gradient term plus masked
    lower-order terms on a zero-Dirichlet box; the reference uses the masked
    homogenized matrix and volume-fraction weight theta on the same grid.
    Reported distances are L2 norms over the box.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    epsilons = tuple(float(e) for e in epsilons)
    for eps in epsilons:
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
        check_hole_resolution(E.radius * eps, resolution)
    grid = lambda_box_grid(box_size, resolution)
    centers = grid.element_centers()
    f_el = np.asarray(source(centers), dtype=float)
    # each epsilon's holes, read before the solves so that none of them
    # runs beside the element centres
    insides = [E.membership(centers / eps) for eps in epsilons]
    del centers

    hom, theta = masked_cell_matrix(E, cell_resolution)
    # one constant matrix, passed as a read-only view of every element
    coeff_hom = np.broadcast_to(hom.matrix, (grid.n_elements, 2, 2))
    [(u_hom, _)] = solve_corrector(grid, coeff_hom,
                                   shift=np.full(grid.n_elements, lam * theta),
                                   source=theta * f_el)

    # both solutions vanish on the boundary, so the L2 distance needs only
    # their interior values (on the solves' own node list) and the mass on
    # the interior nodes; the mass is assembled once, after the last solve,
    # and each solution is dropped before the next solve, so that no solve
    # runs beside either
    ops = element_ops(grid)
    interior = ops.interior_nodes
    u_hom = u_hom[interior]
    diffs = []
    for inside in insides:
        # temporaries, which the kernel drops before its CG
        [(u_eps, _)] = solve_corrector(grid, np.where(inside, 1.0 / n_penal, 1.0),
                                       shift=lam * ~inside,
                                       source=np.where(inside, 0.0, f_el))
        diffs.append(u_eps[interior] - u_hom)
        del u_eps
    mass = ops.assemble_mass(pattern=ops.block_pattern)
    distances = [float(np.sqrt(diff @ (mass @ diff))) for diff in diffs]
    return LambdaReport(epsilons, tuple(distances), hom.matrix, theta)
