"""Regularity functionals and estimate checks for relay-driven solutions.

Implements the measurable side of the regularity theory: oscillation and
gradient growth ratios at degenerate jump points, one-sided sign checks of
the time derivative at non-degenerate jump points, the heat-kernel
weighted energy and the localized two-phase monotonicity functional, and a
profile of |du/dt| + |D^2 u| against the distance to the vertical walls.

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
    gradient_norm_sq,
    hessian,
    parabolic_distance,
    spread_indices,
    time_derivative,
)
from .growth import cylinder_extremes

_SLACK = 1e-12

#: Growth centres per analysis at most, evenly spread over the eligible ones.
MAX_GROWTH_CENTERS = 32
#: Profile samples before those on an event are dropped.
PROFILE_SAMPLES = 256
#: Dyadic distance bands of the profile below the distance cap.
PROFILE_BANDS = 8


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

    ``x`` is one point or an array of points along its last axis, each of
    ``x_star``'s length (a scalar is a 1D point).  The transition is the
    quintic smoothstep 6q^5 - 15q^4 + 10q^3 of q = 2*(1 - |x - x*|/rho0).
    """
    if rho0 <= 0:
        raise ValueError(f"rho0 must be positive, got {rho0}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    xs = np.atleast_1d(np.asarray(x_star, dtype=float))
    s = np.sqrt(((xa - xs) ** 2).sum(axis=-1)) / rho0
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


class _Quadrature:
    """The space-time quadrature at one centre, shared by radii and pairs.

    Holds everything that depends only on the grid, the snapshot times, the
    centre and the radius ladder (sorted ascending): the trapezoid weights
    in space, the cells of each depth-r^2 slab with their widths, one
    heat-kernel row per distinct cell mid-time and, given ``rho0``, the
    cut-off xi and the cells and spatial mask of the depth-rho0^2 cylinder.
    Fields enter over the snapshots ``lo .. t_star_index`` (``window``),
    the only ones a slab or the cylinder reaches.  Every per-cell sum is one
    row of a C-contiguous ``(rows, points)`` array summed along its rows;
    ``_add_cells`` then adds the rows up cell by cell, in time order, as
    the midpoint rule reads.
    """

    def __init__(self, g: Grid, times, x_star, t_star_index: int, radii,
                 rho0: float | None = None):
        self.radii = sorted(float(r) for r in radii)
        if rho0 is not None and self.radii[-1] > rho0 + _SLACK:
            raise ValueError("radii must not exceed rho0")
        times = np.asarray(times, dtype=float)
        self.g, self.rho0 = g, rho0
        self.k_star = int(t_star_index)
        t_star = times[self.k_star]
        self.w = _trapezoid_weights(g).reshape(-1)
        offsets = np.stack([x - c for x, c in zip(g.mesh(), x_star)], axis=-1)

        # cells [times[k], times[k+1]] that overlap a slab ]t_lo, t_star[;
        # each (cell, mid-time) row is summed once for all radii
        lo_end, hi_end = times[: self.k_star], times[1 : self.k_star + 1]
        rows, taus, self.terms = {}, {}, []
        for r in self.radii:
            t_lo = t_star - r * r
            if t_lo < times[0] - _SLACK:
                raise ValueError("integration slab exceeds stored snapshots")
            cells = np.nonzero((hi_end > t_lo + _SLACK) & (lo_end < t_star - _SLACK))[0]
            terms = []
            for k in cells.tolist():
                a_eff, b = max(times[k], t_lo), times[k + 1]
                tau = t_star - 0.5 * (a_eff + b)
                row = rows.setdefault((k, taus.setdefault(tau, len(taus))), len(rows))
                terms.append((row, b - a_eff))
            self.terms.append(terms)
        self.lo = slab_lo = min((k for k, _ in rows), default=self.k_star)

        if rho0 is not None:
            self.xi = cutoff(np.stack(g.mesh(), axis=-1), x_star, rho0)
            d2 = sum((x - c) ** 2 for x, c in zip(g.mesh(), x_star))
            # the mask is 0 or 1, so folding it into the weights rounds nothing
            self.wm = self.w * (d2 < rho0 * rho0).reshape(-1)
            cyl = np.nonzero((hi_end > t_star - rho0 * rho0) & (lo_end < t_star))[0]
            self.lo = min(self.lo, int(cyl[0])) if cyl.size else self.lo
            self.cyl = cyl - self.lo
            self.cyl_terms = list(enumerate(hi_end[cyl] - lo_end[cyl]))

        kern = np.array([heat_kernel(offsets, t, g.dim) for t in taus])
        kern = kern.reshape(len(taus), self.w.size)
        cell_kern = np.array(list(rows), dtype=np.int64).reshape(-1, 2)
        # energies take gradients from the first slab cell on only
        self.slab_lo = slab_lo - self.lo
        self.row_cell = cell_kern[:, 0] - slab_lo
        self.row_kern = kern[cell_kern[:, 1]]

    def window(self, stack: np.ndarray) -> np.ndarray:
        """The snapshots ``lo .. t_star_index`` of a full stack."""
        return stack[self.lo : self.k_star + 1]

    def energies(self, v: np.ndarray) -> list:
        """I(r, v) for each radius of the ladder, v given over the window."""
        v = v[self.slab_lo :]
        gsq = gradient_norm_sq(v, self.g).reshape(len(v), -1)
        integrand = 0.5 * (gsq[self.row_cell] + gsq[self.row_cell + 1])
        sums = (integrand * self.row_kern * self.w).sum(axis=1).tolist()
        return [_add_cells(sums, terms) for terms in self.terms]

    def l2_sq(self, v: np.ndarray) -> float:
        """Squared L2 norm of v over the depth-rho0^2 cylinder."""
        sq = (v**2).reshape(len(v), -1)
        mid_sq = 0.5 * (sq[self.cyl] + sq[self.cyl + 1])
        return _add_cells((mid_sq * self.wm).sum(axis=1).tolist(), self.cyl_terms)

    def table(self, theta1, theta2, direction) -> PhiTable:
        """The phi table of one pair, both parts given over the window."""
        g, rho0 = self.g, self.rho0
        i1 = self.energies(theta1 * self.xi)
        i2 = self.energies(theta2 * self.xi)
        phi_vals = [a * b / r**4 for a, b, r in zip(i1, i2, self.radii)]

        n_emp = None
        norm1 = self.l2_sq(theta1)
        norm2 = self.l2_sq(theta2)
        if norm1 > 0 and norm2 > 0:
            n_emp = max(phi_vals) * rho0 ** (2 * g.dim + 8) / (norm1 * norm2)

        return PhiTable(
            direction=direction,
            rho0=float(rho0),
            radii=list(self.radii),
            phi_values=phi_vals,
            n_emp=n_emp,
        )


def _add_cells(sums: list, terms) -> float:
    """Sum of ``width * sums[row]`` over the (row, width) terms, in order."""
    total = 0.0
    for row, width in terms:
        total += width * sums[row]
    return float(total)


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
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    quad = _Quadrature(g, times, x_star, t_star_index, [r])
    return quad.energies(quad.window(v_stack))[0]


@dataclass
class PhiTable:
    """Localized two-phase monotonicity functional along a radius ladder;
    ``direction`` is ``acf_phi``'s probe e as given, None from ``phi_from_pair``."""

    direction: np.ndarray | None
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
) -> PhiTable:
    """Phi(r) = I(r, theta1*xi) * I(r, theta2*xi) / r^4 for each radius.

    Also reports the empirical absolute constant of the scale bound,
    max_r Phi(r) * rho0^(2n+8) / (||theta1||^2 ||theta2||^2), when both
    cylinder L2 norms are nonzero.
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    quad = _Quadrature(g, times, x_star, t_star_index, radii, rho0)
    return quad.table(quad.window(theta1_stack), quad.window(theta2_stack), None)


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
    directions: Sequence,
    rho0: float,
    radii: Sequence[float],
) -> list:
    """Monotonicity tables with the positive/negative parts of D_e u.

    One table per direction e, in order.  The tables at the centre share
    one quadrature and one gradient of u over its window; D_e u uses e
    normalised, the table keeps e as given.
    """
    g = sol.grid
    quad = _Quadrature(g, sol.times, g.coords(z_star.idx), z_star.t_index, radii, rho0)
    gvec = gradient(quad.window(sol.u), g)
    tables = []
    for e in directions:
        unit = np.asarray(e, dtype=float)
        unit = unit / np.linalg.norm(unit)
        de = sum(unit[a] * gvec[a] for a in range(g.dim))
        tables.append(quad.table(np.maximum(de, 0.0), np.maximum(-de, 0.0), e))
    return tables


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
    ratios_quadratic: list = field(init=False)
    ratios_full: list = field(init=False)
    ratios_linear: list = field(init=False)

    def __post_init__(self):
        self.ratios_quadratic = [o / r**2 for o, r in zip(self.osc_lower, self.radii)]
        self.ratios_full = [o / r**2 for o, r in zip(self.osc_full, self.radii)]
        self.ratios_linear = [s / r for s, r in zip(self.sup_grad, self.radii)]


def eligible_growth_centers(
    sol: SpaceTimeSolution, atlas: FreeBoundaryAtlas, rmax: float
):
    """Degenerate jump points far enough from the walls and the boundary.

    Mirrors the growth-estimate hypotheses: parabolic distance to the
    vertical walls and to the parabolic boundary both at least the largest
    radius of the ladder.  At most MAX_GROWTH_CENTERS of them, evenly
    spread, as SpaceTimePoints.
    """
    pts = (atlas.t_index[atlas.gamma_0], atlas.idx[atlas.gamma_0])
    near = (boundary_distance(sol, pts) < rmax) | (
        parabolic_distance(pts, atlas.wall_segments, sol) < rmax
    )
    rows = atlas.gamma_0[~near]
    if rows.size > MAX_GROWTH_CENTERS:
        rows = rows[spread_indices(0, rows.size - 1, MAX_GROWTH_CENTERS)]
    return atlas.points(rows)


def quadratic_growth(
    sol: SpaceTimeSolution, atlas: FreeBoundaryAtlas, radii: Sequence[float]
) -> list:
    """Oscillation of u over lower and full cylinders, and sup |Du| over the
    full ones, per radius of the ladder at each eligible centre."""
    radii = sorted((float(r) for r in radii), reverse=True)
    centers = eligible_growth_centers(sol, atlas, radii[0])
    samples = []
    for z in centers:
        fulls = [cylinder_slices(sol, z, r, lower_only=False) for r in radii]
        # a lower cylinder is the full one cut at the centre's snapshot
        lowers = [(t[t <= z.t_index], mask) for t, mask in fulls]
        osc, sup = zip(*cylinder_extremes(sol, fulls + lowers))
        n = len(radii)
        samples.append(
            GrowthSample(
                center=z,
                radii=list(radii),
                osc_lower=list(osc[n:]),
                osc_full=list(osc[:n]),
                sup_grad=list(sup[:n]),
            )
        )
    return samples


# ---------------------------------------------------------------------------
# sign conditions, profile


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
    if len(atlas.walls):
        pts = (atlas.t_index[rows], atlas.idx[rows])
        rows = rows[parabolic_distance(pts, atlas.wall_segments, sol) > guard]
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


@dataclass
class RegularityProfile:
    """The profile samples as columns, one entry per sample: the point
    ``(t_index, idx)``, its parabolic distances to Gamma_v and to the
    parabolic boundary, and |du/dt| and |D^2 u| there.  ``r_cap`` is the
    distance cap, ``SpaceTimeSolution.r_max``."""

    t_index: np.ndarray
    idx: np.ndarray
    dist_to_gamma_v: np.ndarray
    dist_to_boundary: np.ndarray
    abs_dt_u: np.ndarray
    hess_norm: np.ndarray
    r_cap: float

    def band_maxima(self) -> list:
        """(rho, max of |du/dt| + |D^2 u| over samples at distance >= rho).

        Dyadic ladder of PROFILE_BANDS rho values below the cap; the tail
        maximum is non-increasing in rho by construction of the tail sets.
        """
        bound = self.abs_dt_u + self.hess_norm
        return [
            (rho, float(bound[self.dist_to_gamma_v >= rho].max(initial=0.0)))
            for rho in (self.r_cap / 2**j for j in range(PROFILE_BANDS))
        ]

    def global_max(self) -> float:
        return float((self.abs_dt_u + self.hess_norm).max(initial=0.0))


def regularity_profile(
    sol: SpaceTimeSolution, atlas: FreeBoundaryAtlas
) -> RegularityProfile:
    """Deterministic stratified sample of off-boundary, off-event points.

    About PROFILE_SAMPLES points: the product of evenly spread snapshots
    and evenly spread interior points, in snapshot-major order, less those
    on a jump event or a wall point.  Each picked snapshot is taken alone:
    its events and wall points, its Hessian and its time difference.
    """
    n_time = max(2, int(np.sqrt(PROFILE_SAMPLES)))
    n_space = max(2, PROFILE_SAMPLES // n_time)
    t_picks = spread_indices(1, sol.num_snapshots - 1, n_time)
    interior = np.argwhere(sol.grid.interior())
    if len(interior):
        interior = interior[spread_indices(0, len(interior) - 1, n_space)]

    segs = atlas.wall_segments
    cols = []
    for k in t_picks.tolist():
        on_event = np.zeros(sol.grid.shape, dtype=bool)
        on_event[tuple(atlas.idx[atlas.t_index == k].T)] = True
        on_event[tuple(segs[(segs[:, 0] <= k) & (k <= segs[:, 1]), 2:].T)] = True
        at = tuple(interior[~on_event[tuple(interior.T)]].T)
        hess = hessian(sol.u[k], sol.grid)
        cols.append((np.full(len(at[0]), k), np.stack(at, axis=1),
                     np.abs(time_derivative(sol, k)[at]),
                     np.abs(hess, out=hess).max(axis=(0, 1))[at]))
    t_index, idx, abs_dt_u, hess_norm = map(np.concatenate, zip(*cols))
    return RegularityProfile(
        t_index=t_index,
        idx=idx,
        dist_to_gamma_v=parabolic_distance((t_index, idx), segs, sol),
        dist_to_boundary=boundary_distance(sol, (t_index, idx)),
        abs_dt_u=abs_dt_u,
        hess_norm=hess_norm,
        r_cap=sol.r_max(),
    )
