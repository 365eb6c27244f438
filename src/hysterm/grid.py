"""Structured space-time discretization.

Fields live on a uniform tensor grid in one or two space dimensions.
Discrete derivatives use second-order central stencils in the interior and
first-order one-sided stencils at the spatial boundary; diagnostics that
care about stencil order only sample points at least two cells away from
the boundary.

Parabolic cylinders and the parabolic distance follow parabolic scaling:
the lower cylinder of radius ``r`` at ``z0 = (x0, t0)`` collects grid
points with ``|x - x0| < r`` and ``t0 - r**2 <= t <= t0``.  Spatial
membership is strict (the open ball excludes points at distance exactly
``r``) while the bottom time slice is included; both comparisons carry a
1e-12 slack so that coordinates equal up to roundoff behave predictably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .relay import Thresholds

_SLACK = 1e-12

BC_NEUMANN = "neumann"
BC_DIRICHLET = "dirichlet"


class SpaceTimePoint(NamedTuple):
    """Grid point identified by time index and spatial index tuple."""

    t_index: int
    idx: tuple


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid with a single boundary condition kind.

    ``extent`` and ``nx`` are per-axis; spacing is ``extent/(nx-1)``.
    """

    extent: tuple
    nx: tuple
    bc_kind: str = BC_NEUMANN
    bc_value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        object.__setattr__(self, "nx", tuple(int(n) for n in self.nx))
        if len(self.extent) != len(self.nx):
            raise ValueError("extent and nx must have the same length")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if any(n < 3 for n in self.nx):
            raise ValueError(f"nx must be >= 3 per axis, got {self.nx}")
        if any(e <= 0 for e in self.extent):
            raise ValueError(f"extent must be positive, got {self.extent}")
        if self.bc_kind not in (BC_NEUMANN, BC_DIRICHLET):
            raise ValueError(f"unknown boundary condition {self.bc_kind!r}")

    @property
    def dim(self) -> int:
        return len(self.nx)

    @property
    def dx(self) -> tuple:
        return tuple(e / (n - 1) for e, n in zip(self.extent, self.nx))

    @property
    def shape(self) -> tuple:
        return self.nx

    def axes(self) -> list:
        return [np.linspace(0.0, e, n) for e, n in zip(self.extent, self.nx)]

    def coords(self, idx: Sequence[int]) -> np.ndarray:
        return np.array([ax[i] for ax, i in zip(self.axes(), idx)])

    def diameter(self) -> float:
        return float(np.sqrt(sum(e * e for e in self.extent)))

    def boundary_gap(self, idx: Sequence[int]) -> float:
        """Distance from a grid point to the nearest spatial boundary."""
        gaps = []
        for ax_len, n, i, d in zip(self.extent, self.nx, idx, self.dx):
            gaps.append(i * d)
            gaps.append(ax_len - i * d)
        return float(min(gaps))


def _check_field(f: np.ndarray, g: Grid) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != g.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {g.shape}")
    return f


def _second_diff(f: np.ndarray, axis: int, dx: float, g: Grid) -> np.ndarray:
    """Central second difference along one axis with bc-aware edges.

    Neumann edges use a reflected ghost value; Dirichlet edges return 0
    there (boundary nodes are pinned by the solver, so their stencil value
    is never consumed).
    """
    out = np.zeros_like(f)
    fm = np.roll(f, 1, axis=axis)
    fp = np.roll(f, -1, axis=axis)
    lap = (fp - 2.0 * f + fm) / (dx * dx)
    interior = [slice(None)] * f.ndim
    interior[axis] = slice(1, -1)
    out[tuple(interior)] = lap[tuple(interior)]
    if g.bc_kind == BC_NEUMANN:
        lo = [slice(None)] * f.ndim
        hi = [slice(None)] * f.ndim
        lo[axis], hi[axis] = 0, f.shape[axis] - 1
        lo1 = list(lo)
        hi1 = list(hi)
        lo1[axis], hi1[axis] = 1, f.shape[axis] - 2
        out[tuple(lo)] = 2.0 * (f[tuple(lo1)] - f[tuple(lo)]) / (dx * dx)
        out[tuple(hi)] = 2.0 * (f[tuple(hi1)] - f[tuple(hi)]) / (dx * dx)
    return out


def laplacian(f: np.ndarray, g: Grid) -> np.ndarray:
    """Second-order central Laplacian (3-point in 1D, 5-point in 2D)."""
    f = _check_field(f, g)
    out = np.zeros_like(f)
    for axis, d in enumerate(g.dx):
        out += _second_diff(f, axis, d, g)
    return out


def gradient(f: np.ndarray, g: Grid) -> np.ndarray:
    """Spatial gradient; central interior, one-sided at the boundary.

    Returns an array of shape ``(dim,) + f.shape``.
    """
    f = _check_field(f, g)
    grads = np.gradient(f, *g.dx) if g.dim > 1 else [np.gradient(f, g.dx[0])]
    return np.stack(grads)


def hessian(f: np.ndarray, g: Grid) -> np.ndarray:
    """Discrete Hessian, shape ``(dim, dim) + f.shape``; symmetric.

    Diagonal entries use the same second-difference stencil as
    ``laplacian`` so that the trace matches it exactly; off-diagonal
    entries use the central cross stencil.
    """
    f = _check_field(f, g)
    n = g.dim
    out = np.zeros((n, n) + f.shape)
    for i in range(n):
        out[i, i] = _second_diff(f, i, g.dx[i], g)
    if n == 2:
        gx = np.gradient(f, g.dx[0], axis=0)
        gxy = np.gradient(gx, g.dx[1], axis=1)
        out[0, 1] = gxy
        out[1, 0] = gxy
    return out


@dataclass
class SpaceTimeSolution:
    """Stored snapshots of u and the relay field over the time grid.

    ``sup_bound_M`` records the running max of ``|u|`` over every computed
    step (not only the stored ones); it is reported, never enforced.
    """

    grid: Grid
    thresholds: Thresholds
    times: np.ndarray
    u: np.ndarray  # shape (K+1,) + grid.shape
    h: np.ndarray  # int8, same shape as u
    sup_bound_M: float = field(default=0.0)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("times must be a non-empty 1d array")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.u.shape != (self.times.size,) + self.grid.shape:
            raise ValueError("u snapshot stack does not match times/grid")
        if self.h.shape != self.u.shape:
            raise ValueError("h snapshot stack does not match u")

    @property
    def num_snapshots(self) -> int:
        return int(self.times.size)

    def r_max(self) -> float:
        """Cap for parabolic distances: reaches across the whole cylinder."""
        t_span = float(self.times[-1] - self.times[0])
        return max(self.grid.diameter(), float(np.sqrt(max(t_span, 0.0))), 1e-30)


def time_derivative(sol: SpaceTimeSolution, k: int) -> np.ndarray:
    """Backward difference quotient of u between snapshots k-1 and k."""
    if k < 1:
        raise ValueError("time_derivative needs k >= 1")
    tau = sol.times[k] - sol.times[k - 1]
    return (sol.u[k] - sol.u[k - 1]) / tau


def _spatial_mask(g: Grid, x0: np.ndarray, r: float) -> np.ndarray:
    axes = g.axes()
    if g.dim == 1:
        d2 = (axes[0] - x0[0]) ** 2
    else:
        d2 = (axes[0][:, None] - x0[0]) ** 2 + (axes[1][None, :] - x0[1]) ** 2
    return d2 < (r - _SLACK) ** 2 if r > _SLACK else d2 < 0


def cylinder_slices(
    sol: SpaceTimeSolution, z0: SpaceTimePoint, r: float, lower_only: bool = True
):
    """Discrete parabolic cylinder as (time index array, spatial mask).

    The spatial mask is shared by all time slices; the top slice t = t0 is
    included, and so is the bottom slice when it lands exactly on
    ``t0 - r**2``.
    """
    if r <= 0:
        raise ValueError(f"cylinder radius must be positive, got {r}")
    t0 = sol.times[z0.t_index]
    tmask = sol.times > t0 - r * r - _SLACK
    if lower_only:
        tmask &= np.arange(sol.num_snapshots) <= z0.t_index
    else:
        tmask &= sol.times < t0 + r * r + _SLACK
    x0 = sol.grid.coords(z0.idx)
    return np.nonzero(tmask)[0], _spatial_mask(sol.grid, x0, r)


def cylinder_points(
    sol: SpaceTimeSolution, z0: SpaceTimePoint, r: float, lower_only: bool = True
) -> list:
    """Explicit point list of the discrete parabolic cylinder."""
    t_idx, mask = cylinder_slices(sol, z0, r, lower_only)
    pts = []
    spatial = list(zip(*np.nonzero(mask)))
    for k in t_idx:
        pts.extend(SpaceTimePoint(int(k), idx) for idx in spatial)
    return pts


def space_time_coords(sol: SpaceTimeSolution, t_index, idx) -> np.ndarray:
    """(t, x...) coordinate rows of grid points.

    ``t_index`` holds n time indices and ``idx`` one length-n index array
    per spatial axis, the layout ``np.nonzero`` returns.
    """
    axes = sol.grid.axes()
    cols = [sol.times[t_index]] + [axes[a][i] for a, i in enumerate(idx)]
    return np.stack(cols, axis=1)


def parabolic_distance(
    z: SpaceTimePoint, S, sol: SpaceTimeSolution, r_max: float | None = None
) -> float:
    """sup of radii whose discrete lower cylinder at z avoids S.

    Computed in closed form: a point of S at spatial distance d and time
    lag dt below z first enters the lower cylinder at radius
    ``max(d, sqrt(dt))``; points above z never enter.  S holds the
    (t, x...) rows of ``space_time_coords``.  Returns the cap when S is
    empty or never intersected.
    """
    cap = sol.r_max() if r_max is None else float(r_max)
    if S.size == 0:
        return cap
    t0 = sol.times[z.t_index]
    x0 = sol.grid.coords(z.idx)
    lag = t0 - S[:, 0]
    below = lag >= -_SLACK
    if not below.any():
        return cap
    d = np.sqrt(((S[below, 1:] - x0[None, :]) ** 2).sum(axis=1))
    crit = np.maximum(d, np.sqrt(np.maximum(lag[below], 0.0)))
    return float(min(cap, crit.min()))


def boundary_distance(sol: SpaceTimeSolution, z: SpaceTimePoint) -> float:
    """Parabolic distance from z to the parabolic boundary of the cylinder.

    The lateral boundary is reached at radius equal to the spatial gap and
    the bottom at radius sqrt(t).
    """
    gap = sol.grid.boundary_gap(z.idx)
    t = float(sol.times[z.t_index] - sol.times[0])
    return min(gap, float(np.sqrt(max(t, 0.0))))
