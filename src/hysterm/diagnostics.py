"""Regularity functionals and estimate checks for relay-driven solutions.

Implements the measurable side of the regularity theory: oscillation and
gradient growth ratios at degenerate jump points, one-sided sign checks of
the time derivative at non-degenerate jump points, the heat-kernel
weighted energy and the localized two-phase monotonicity functional, the
space-time normal vector at non-degenerate points, a profile of
|du/dt| + |D^2 u| against the distance to the vertical walls, and a
mean-square gradient bound probe.

Empirical constants are reported, never asserted against theoretical
values: the theory proves existence of bounds, not magnitudes.  This module
only computes; ``hysterm.reports`` writes the growth, phi, signs and profile
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .free_boundary import JUMP_DOWN, JUMP_UP, FreeBoundaryAtlas
from .grid import (
    Grid,
    SpaceTimePoint,
    SpaceTimeSolution,
    boundary_distance,
    cylinder_slices,
    gradient,
    hessian,
    parabolic_distance,
    spread_indices,
    time_derivative,
)

_SLACK = 1e-12


# ---------------------------------------------------------------------------
# heat kernel and cut-off


def heat_kernel(x, t: float, n: int) -> np.ndarray | float:
    """Gaussian heat kernel; identically zero for t <= 0.

    ``x`` is a spatial offset: a scalar (1D), a length-n vector, or an
    array of vectors with trailing axis of length n.
    """
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0 or (n == 1 and xa.shape[-1] != 1):
        s2 = xa * xa
    else:
        s2 = (xa * xa).sum(axis=-1)
    if t <= 0:
        return np.zeros_like(s2) if np.ndim(s2) else 0.0
    val = np.exp(-s2 / (4.0 * t)) / (4.0 * np.pi * t) ** (n / 2.0)
    return val if np.ndim(val) else float(val)


def cutoff(x, x_star, rho0: float) -> np.ndarray | float:
    """Radial C^2 bump: 1 inside half the support radius, 0 outside it.

    The transition is the quintic smoothstep 6q^5 - 15q^4 + 10q^3 of
    q = 2*(1 - |x - x*|/rho0).
    """
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    xs = np.atleast_1d(np.asarray(x_star, dtype=float))
    if xa.shape[-1] == xs.shape[-1]:
        s = np.sqrt(((xa - xs) ** 2).sum(axis=-1)) / rho0
    else:
        s = np.abs(xa - xs) / rho0
    q = np.clip(2.0 * (1.0 - s), 0.0, 1.0)
    val = q**3 * (q * (6.0 * q - 15.0) + 10.0)
    val = np.where(s <= 0.5, 1.0, val)
    return val if val.ndim else float(val)


def _trapezoid_weights(g: Grid) -> np.ndarray:
    w = np.ones(g.shape)
    for axis in range(g.dim):
        sl = [slice(None)] * g.dim
        sl[axis] = 0
        w[tuple(sl)] *= 0.5
        sl[axis] = -1
        w[tuple(sl)] *= 0.5
    return w * np.prod(g.dx)


def weighted_energy_I(
    g: Grid,
    times: np.ndarray,
    v_stack: np.ndarray,
    x_star: np.ndarray,
    t_star_index: int,
    r: float,
) -> float:
    """Heat-kernel weighted Dirichlet energy over the depth-r^2 slab.

    Space-time quadrature of |Dv|^2 * G(x - x*, t* - t): midpoint rule in
    time with the kernel evaluated at cell midtimes (the singular top
    slice never enters), trapezoid-weighted sum in space.
    """
    times = np.asarray(times, dtype=float)
    t_star = times[t_star_index]
    t_lo = t_star - r * r
    if t_lo < times[0] - _SLACK:
        raise ValueError("integration slab exceeds stored snapshots")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    w = _trapezoid_weights(g)
    offsets = np.stack([x - c for x, c in zip(g.mesh(), x_star)], axis=-1)

    # cells [times[k], times[k+1]] that overlap the slab ]t_lo, t_star[
    lo_end, hi_end = times[:t_star_index], times[1 : t_star_index + 1]
    cells = np.nonzero((hi_end > t_lo + _SLACK) & (lo_end < t_star - _SLACK))[0]
    if cells.size == 0:
        return 0.0
    first = cells[0]
    gsq = (gradient(v_stack[first : t_star_index + 1], g) ** 2).sum(axis=0)

    total = 0.0
    for k in cells:
        a_eff, b = max(times[k], t_lo), times[k + 1]
        mid = 0.5 * (a_eff + b)
        kern = heat_kernel(offsets, t_star - mid, g.dim)
        integrand = 0.5 * (gsq[k - first] + gsq[k + 1 - first])
        total += (b - a_eff) * float((integrand * kern * w).sum())
    return float(total)


@dataclass
class PhiTable:
    """Localized two-phase monotonicity functional along a radius ladder."""

    center: SpaceTimePoint
    direction: np.ndarray
    rho0: float
    radii: list
    phi_values: list
    n_emp: float | None = None


def phi_from_pair(
    g: Grid,
    times: np.ndarray,
    theta1_stack: np.ndarray,
    theta2_stack: np.ndarray,
    x_star,
    t_star_index: int,
    rho0: float,
    radii: Sequence[float],
    direction=None,
) -> PhiTable:
    """Phi(r) = I(r, theta1*xi) * I(r, theta2*xi) / r^4 for each radius.

    Also reports the empirical absolute constant of the scale bound,
    max_r Phi(r) * rho0^(2n+8) / (||theta1||^2 ||theta2||^2), when both
    cylinder L2 norms are nonzero.
    """
    radii = sorted(float(r) for r in radii)
    if radii[-1] > rho0 + _SLACK:
        raise ValueError("radii must not exceed rho0")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    xi = cutoff(np.stack(g.mesh(), axis=-1), x_star, rho0)

    phi_vals = []
    for r in radii:
        i1 = weighted_energy_I(g, times, theta1_stack * xi, x_star, t_star_index, r)
        i2 = weighted_energy_I(g, times, theta2_stack * xi, x_star, t_star_index, r)
        phi_vals.append(i1 * i2 / r**4)

    n_emp = None
    norm1 = _cylinder_l2_sq(g, times, theta1_stack, x_star, t_star_index, rho0)
    norm2 = _cylinder_l2_sq(g, times, theta2_stack, x_star, t_star_index, rho0)
    if norm1 > 0 and norm2 > 0:
        n_emp = max(phi_vals) * rho0 ** (2 * g.dim + 8) / (norm1 * norm2)

    center = SpaceTimePoint(int(t_star_index), _nearest_index(g, x_star))
    dirvec = (
        np.asarray(direction, dtype=float)
        if direction is not None
        else np.zeros(g.dim)
    )
    return PhiTable(
        center=center,
        direction=dirvec,
        rho0=float(rho0),
        radii=radii,
        phi_values=phi_vals,
        n_emp=n_emp,
    )


def _nearest_index(g: Grid, x: np.ndarray) -> tuple:
    """Index of the grid point nearest to x, clipped to the grid."""
    return tuple(
        int(np.clip(round(xi / d), 0, n - 1))
        for xi, d, n in zip(np.atleast_1d(x), g.dx, g.nx)
    )


def _cylinder_l2_sq(g, times, v_stack, x_star, t_star_index, rho0) -> float:
    t_star = times[t_star_index]
    d2 = sum((x - c) ** 2 for x, c in zip(g.mesh(), x_star))
    mask = d2 < rho0 * rho0
    w = _trapezoid_weights(g)
    total = 0.0
    for k in range(t_star_index):
        a, b = times[k], times[k + 1]
        if b <= t_star - rho0 * rho0 or a >= t_star:
            continue
        mid_sq = 0.5 * (v_stack[k] ** 2 + v_stack[k + 1] ** 2)
        total += (b - a) * float((mid_sq * w * mask).sum())
    return float(total)


def directional_derivative_stack(
    sol: SpaceTimeSolution, e: np.ndarray
) -> np.ndarray:
    """D_e u per snapshot for a unit direction e."""
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    gvec = gradient(sol.u, sol.grid)
    return sum(e[a] * gvec[a] for a in range(sol.grid.dim))


def probe_directions(dim: int) -> list:
    """Coordinate axes, plus the diagonals in 2D."""
    if dim == 1:
        return [np.array([1.0])]
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([s, s]),
        np.array([s, -s]),
    ]


def acf_phi(
    sol: SpaceTimeSolution,
    z_star: SpaceTimePoint,
    e: np.ndarray,
    rho0: float,
    radii: Sequence[float],
) -> PhiTable:
    """Monotonicity functional with the positive/negative parts of D_e u."""
    t_star = sol.times[z_star.t_index]
    if max(radii) ** 2 > t_star - sol.times[0] + _SLACK:
        raise ValueError("t* must be at least max(radii)^2 above the start")
    de = directional_derivative_stack(sol, e)
    theta1 = np.maximum(de, 0.0)
    theta2 = np.maximum(-de, 0.0)
    x_star = sol.grid.coords(z_star.idx)
    return phi_from_pair(
        sol.grid,
        sol.times,
        theta1,
        theta2,
        x_star,
        z_star.t_index,
        rho0,
        radii,
        direction=e,
    )


# ---------------------------------------------------------------------------
# growth diagnostics


@dataclass
class GrowthSample:
    """Oscillation and gradient growth at one degenerate jump point."""

    center: SpaceTimePoint
    radii: list
    osc_lower: list
    osc_full: list
    sup_grad: list
    ratios_quadratic: list = field(default_factory=list)
    ratios_full: list = field(default_factory=list)
    ratios_linear: list = field(default_factory=list)

    def __post_init__(self):
        if not all(b < a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if not self.ratios_quadratic:
            self.ratios_quadratic = [
                o / r**2 for o, r in zip(self.osc_lower, self.radii)
            ]
        if not self.ratios_full:
            self.ratios_full = [
                o / r**2 for o, r in zip(self.osc_full, self.radii)
            ]
        if not self.ratios_linear:
            self.ratios_linear = [
                s / r for s, r in zip(self.sup_grad, self.radii)
            ]


def eligible_growth_centers(
    sol: SpaceTimeSolution,
    atlas: FreeBoundaryAtlas,
    rmax: float,
    max_centers: int = 32,
):
    """Degenerate jump points far enough from the walls and the boundary.

    Mirrors the growth-estimate hypotheses: parabolic distance to the
    vertical walls and to the parabolic boundary both at least the largest
    radius of the ladder.  Returns (centers, skipped_count).
    """
    centers = []
    skipped = 0
    for z in atlas.points(atlas.gamma_0):
        if boundary_distance(sol, z) < rmax:
            skipped += 1
            continue
        if parabolic_distance(z, atlas.wall_segments, sol) < rmax:
            skipped += 1
            continue
        centers.append(z)
    if len(centers) > max_centers:
        sel = spread_indices(0, len(centers) - 1, max_centers)
        centers = [centers[i] for i in sel]
    return centers, skipped


def quadratic_growth(
    sol: SpaceTimeSolution,
    atlas: FreeBoundaryAtlas,
    radii: Sequence[float],
    max_centers: int = 32,
) -> list:
    """Oscillation of u over lower and full cylinders per radius ladder."""
    radii = sorted((float(r) for r in radii), reverse=True)
    centers, _ = eligible_growth_centers(sol, atlas, radii[0], max_centers)
    gn = atlas.grad_norm_stack
    samples = []
    for z in centers:
        osc_lower, osc_full, sup_grad = [], [], []
        for r in radii:
            tl, ml = cylinder_slices(sol, z, r, lower_only=True)
            block = sol.u[tl][:, ml]
            osc_lower.append(float(block.max() - block.min()))
            tf, mf = cylinder_slices(sol, z, r, lower_only=False)
            blockf = sol.u[tf][:, mf]
            osc_full.append(float(blockf.max() - blockf.min()))
            sup_grad.append(float(gn[tf][:, mf].max()))
        samples.append(
            GrowthSample(
                center=z,
                radii=list(radii),
                osc_lower=osc_lower,
                osc_full=osc_full,
                sup_grad=sup_grad,
            )
        )
    return samples


# ---------------------------------------------------------------------------
# sign conditions, normals, profile


@dataclass
class SignReport:
    checked_alpha: int
    checked_beta: int
    skipped_near_wall: int
    violations_alpha: int
    violations_beta: int
    worst_alpha: float
    worst_beta: float
    tol: float

    @property
    def total_violations(self) -> int:
        return self.violations_alpha + self.violations_beta


def sign_conditions(
    sol: SpaceTimeSolution, atlas: FreeBoundaryAtlas, tol: float
) -> SignReport:
    """One-sided time-derivative checks at non-degenerate jump points.

    Down-jumps must have dt_u <= tol, up-jumps dt_u >= -tol; points within
    parabolic distance 2*sqrt(dt) of a vertical wall are excluded.
    """
    dts = np.diff(sol.times)
    guard = 2.0 * float(np.sqrt(dts.min()))
    rows = atlas.gamma_star
    # no walls, no skips: the distance cap itself may lie below the guard
    if len(atlas.gamma_v):
        near = [
            parabolic_distance(z, atlas.wall_segments, sol) <= guard
            for z in atlas.points(rows)
        ]
        rows = rows[~np.array(near, dtype=bool)]
    down = atlas.dt_u[rows[atlas.kind[rows] == JUMP_DOWN]]
    up = atlas.dt_u[rows[atlas.kind[rows] == JUMP_UP]]
    return SignReport(
        checked_alpha=down.size,
        checked_beta=up.size,
        skipped_near_wall=len(atlas.gamma_star) - rows.size,
        violations_alpha=int((down > tol).sum()),
        violations_beta=int((up < -tol).sum()),
        worst_alpha=float(down.max(initial=-np.inf)),
        worst_beta=float(up.min(initial=np.inf)),
        tol=float(tol),
    )


def normal_vector(
    sol: SpaceTimeSolution, z: SpaceTimePoint, eps: float = 1e-14
) -> np.ndarray:
    """Unit space-time normal (Du, du/dt)/|(Du, du/dt)| at a jump point.

    Raises when the denominator vanishes, which signals that the point is
    degenerate and belongs to the gradient-free part of the jump set.
    """
    if z.t_index < 1:
        raise ValueError("normal_vector needs t_index >= 1")
    gvec = gradient(sol.u[z.t_index], sol.grid)
    du = np.array([gvec[a][z.idx] for a in range(sol.grid.dim)])
    dtu = float(time_derivative(sol, z.t_index)[z.idx])
    vec = np.append(du, dtu)
    norm = float(np.linalg.norm(vec))
    if norm <= eps:
        raise ValueError(
            "vanishing space-time gradient: point is degenerate"
        )
    return vec / norm


def normal_probe(
    sol: SpaceTimeSolution,
    z: SpaceTimePoint,
    n_vec: np.ndarray,
    delta: float,
) -> bool:
    """True when stepping delta along the normal lands in the +1 region."""
    x = sol.grid.coords(z.idx) + delta * n_vec[:-1]
    t = sol.times[z.t_index] + delta * n_vec[-1]
    idx = _nearest_index(sol.grid, x)
    k = int(np.clip(np.searchsorted(sol.times, t), 0, sol.num_snapshots - 1))
    return bool(sol.h[k][idx] > 0)


@dataclass
class ProfileSample:
    point: SpaceTimePoint
    dist_to_gamma_v: float
    dist_to_boundary: float
    abs_dt_u: float
    hess_norm: float


@dataclass
class RegularityProfile:
    samples: list
    r_cap: float

    def band_maxima(self, num_bands: int = 8) -> list:
        """(rho, max of |du/dt| + |D^2 u| over samples at distance >= rho).

        Dyadic ladder of rho values below the cap; the tail maximum is
        non-increasing in rho by construction of the tail sets.
        """
        out = []
        for j in range(num_bands):
            rho = self.r_cap / 2**j
            vals = [
                s.abs_dt_u + s.hess_norm
                for s in self.samples
                if s.dist_to_gamma_v >= rho
            ]
            out.append((rho, max(vals) if vals else 0.0))
        return out

    def global_max(self) -> float:
        return max(
            (s.abs_dt_u + s.hess_norm for s in self.samples), default=0.0
        )


def regularity_profile(
    sol: SpaceTimeSolution,
    atlas: FreeBoundaryAtlas,
    sample_count: int = 256,
) -> RegularityProfile:
    """Deterministic stratified sample of off-boundary, off-event points."""
    on_event = np.zeros(sol.u.shape, dtype=bool)
    on_event[(atlas.t_index, *atlas.idx.T)] = True
    cap = sol.r_max()

    n_time = max(2, int(np.sqrt(sample_count)))
    n_space = max(2, sample_count // n_time)
    t_picks = spread_indices(1, sol.num_snapshots - 1, n_time)

    interior = np.argwhere(sol.grid.interior()).tolist()
    if not interior:
        return RegularityProfile(samples=[], r_cap=cap)
    s_picks = spread_indices(0, len(interior) - 1, n_space)

    hess = np.abs(hessian(sol.u[t_picks], sol.grid)).max(axis=(0, 1))
    dtu = np.abs(time_derivative(sol, t_picks))
    samples = []
    for j, k in enumerate(t_picks.tolist()):
        for si in s_picks:
            idx = tuple(interior[si])
            if on_event[(k, *idx)]:
                continue
            z = SpaceTimePoint(k, idx)
            samples.append(
                ProfileSample(
                    point=z,
                    dist_to_gamma_v=parabolic_distance(z, atlas.wall_segments, sol),
                    dist_to_boundary=boundary_distance(sol, z),
                    abs_dt_u=float(dtu[j][idx]),
                    hess_norm=float(hess[j][idx]),
                )
            )
    return RegularityProfile(samples=samples, r_cap=cap)


def mean_square_gradient_bound(
    sol: SpaceTimeSolution,
    z0: SpaceTimePoint,
    R: float,
    e: np.ndarray,
) -> tuple:
    """(lhs, rhs) of the gradient-from-mean-square bound for v = D_e u.

    lhs is |D_e v| at the center; rhs is sqrt(R^-2 * mean of v^2 over the
    lower cylinder).  The ratio's stability across R is the consumer's
    check; no constant is asserted.
    """
    if sol.grid.boundary_gap(z0.idx) < R or (
        sol.times[z0.t_index] - sol.times[0]
    ) < R * R - _SLACK:
        raise ValueError("cylinder exceeds the domain")
    e = np.asarray(e, dtype=float)
    e = e / np.linalg.norm(e)
    v_stack = directional_derivative_stack(sol, e)
    gvec = gradient(v_stack[z0.t_index], sol.grid)
    lhs = abs(
        float(sum(e[a] * gvec[a][z0.idx] for a in range(sol.grid.dim)))
    )
    tl, ml = cylinder_slices(sol, z0, R, lower_only=True)
    block = v_stack[tl][:, ml]
    rhs = float(np.sqrt((block**2).mean() / R**2))
    return lhs, rhs
