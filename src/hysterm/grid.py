"""Structured space-time discretization.

Fields live on a uniform tensor grid in one or two space dimensions.
Discrete derivatives use second-order central stencils in the interior and
first-order one-sided stencils at the spatial boundary; diagnostics that
care about stencil order only sample ``Grid.interior()``, the points at
least ``INTERIOR_MARGIN`` cells away from the boundary.  The derivative
operators act on the trailing ``dim`` axes, so a ``(K,) + shape`` snapshot
stack goes through in one call.

Parabolic cylinders and the parabolic distance follow parabolic scaling:
the lower cylinder of radius ``r`` at ``z0 = (x0, t0)`` collects grid
points with ``|x - x0| < r`` and ``t0 - r**2 <= t <= t0``.  Spatial
membership is strict (the open ball excludes points at distance exactly
``r``) while the bottom time slice is included; both comparisons carry a
1e-12 slack so that coordinates equal up to roundoff behave predictably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .relay import Thresholds

_SLACK = 1e-12

#: Cells between the spatial boundary and the interior sample region: the
#: one-sided boundary stencils and their neighbours stay outside it.
INTERIOR_MARGIN = 2

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

    @cached_property
    def dx(self) -> tuple:
        return tuple(e / (n - 1) for e, n in zip(self.extent, self.nx))

    @property
    def shape(self) -> tuple:
        return self.nx

    @cached_property
    def _axes(self) -> tuple:
        axes = tuple(np.linspace(0.0, e, n) for e, n in zip(self.extent, self.nx))
        for ax in axes:
            ax.flags.writeable = False
        return axes

    def axes(self) -> tuple:
        """Node coordinates per axis, built once; the arrays are read-only."""
        return self._axes

    @cached_property
    def _mesh(self) -> tuple:
        mesh = tuple(np.meshgrid(*self.axes(), indexing="ij"))
        for x in mesh:
            x.flags.writeable = False
        return mesh

    def mesh(self) -> tuple:
        """Coordinate arrays of shape ``self.shape``, one per axis, built
        once; the arrays are read-only."""
        return self._mesh

    def interior(self) -> np.ndarray:
        """Mask of the points at least INTERIOR_MARGIN cells from the boundary."""
        mask = np.zeros(self.shape, dtype=bool)
        m = INTERIOR_MARGIN
        mask[tuple(slice(m, n - m) for n in self.nx)] = True
        return mask

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


def spread_indices(first: int, last: int, count: int) -> np.ndarray:
    """Up to ``count`` evenly spread integers from ``first`` to ``last``
    (``first <= last``), ascending and without repeats.

    The same as ``np.unique`` of the truncated ``linspace``, which is
    already sorted; ``np.unique`` would import ``numpy.ma`` on first use.
    """
    a = np.linspace(first, last, count).astype(int)
    return a[np.diff(a, prepend=first - 1) > 0]


def _check_field(f: np.ndarray, g: Grid) -> np.ndarray:
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape[-g.dim:] != g.shape:
        raise ValueError(f"field shape {f.shape} does not end in grid {g.shape}")
    return f


def _second_diff(
    f: np.ndarray, axis: int, dx: float, g: Grid, out: np.ndarray
) -> np.ndarray:
    """Central second difference along one axis, written into ``out``.

    ``f`` and ``out`` are distinct C-contiguous arrays of one shape.  The
    interior stencil ``((f[2:] - 2.0*f[1:-1]) + f[:-2]) / h2`` runs once
    over their flat views with the axis stride as offset, so every axis
    reads contiguous memory; the entries at either end of the axis, where
    the flat offset wraps into a neighbouring row or snapshot, are then
    overwritten by the edge rule.  Neumann edges use a reflected ghost
    value; Dirichlet edges read 0 (boundary nodes are pinned by the solver,
    so their stencil value is never consumed).  Returns ``out``.
    """
    h2 = dx * dx
    s = math.prod(f.shape[axis + 1:])
    flat, mid = f.reshape(-1), out.reshape(-1)[s:-s]
    np.multiply(flat[s:-s], 2.0, out=mid)
    np.subtract(flat[2 * s:], mid, out=mid)
    np.add(mid, flat[: -2 * s], out=mid)
    np.divide(mid, h2, out=mid)
    lead = (slice(None),) * axis
    lo, hi = lead + (slice(0, 1),), lead + (slice(-1, None),)
    if g.bc_kind == BC_NEUMANN:
        for edge, inner in ((lo, lead + (slice(1, 2),)), (hi, lead + (slice(-2, -1),))):
            e = out[edge]
            np.subtract(f[inner], f[edge], out=e)
            e *= 2.0
            e /= h2
    else:
        out[lo] = out[hi] = 0.0
    return out


def laplacian(f: np.ndarray, g: Grid) -> np.ndarray:
    """Second-order central Laplacian (3-point in 1D, 5-point in 2D)."""
    f = _check_field(f, g)
    lead = f.ndim - g.dim
    out = _second_diff(f, lead, g.dx[0], g, np.empty_like(f))
    for axis in range(1, g.dim):
        out += _second_diff(f, lead + axis, g.dx[axis], g, np.empty_like(f))
    return out


def gradient(f: np.ndarray, g: Grid) -> np.ndarray:
    """Spatial gradient; central interior, one-sided at the boundary.

    Returns an array of shape ``(dim,) + f.shape``.
    """
    f = _check_field(f, g)
    lead = f.ndim - g.dim
    out = np.empty((g.dim,) + f.shape)
    for axis, d in enumerate(g.dx):
        out[axis] = np.gradient(f, d, axis=lead + axis)
    return out


def hessian(f: np.ndarray, g: Grid) -> np.ndarray:
    """Discrete Hessian, shape ``(dim, dim) + f.shape``; symmetric.

    Diagonal entries use the same second-difference stencil as
    ``laplacian`` so that the trace matches it exactly; off-diagonal
    entries use the central cross stencil.
    """
    f = _check_field(f, g)
    lead = f.ndim - g.dim
    out = np.empty((g.dim, g.dim) + f.shape)
    for i, d in enumerate(g.dx):
        _second_diff(f, lead + i, d, g, out[i, i])
    if g.dim == 2:
        gx = np.gradient(f, g.dx[0], axis=lead)
        out[0, 1] = out[1, 0] = np.gradient(gx, g.dx[1], axis=lead + 1)
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


def time_derivative(sol: SpaceTimeSolution, k) -> np.ndarray:
    """Backward difference quotient of u between snapshots k-1 and k.

    ``k`` is one snapshot index or an array of them.
    """
    k = np.asarray(k)
    if (k < 1).any():
        raise ValueError("time_derivative needs k >= 1")
    tau = sol.times[k] - sol.times[k - 1]
    tau = np.reshape(tau, tau.shape + (1,) * sol.grid.dim)
    return (sol.u[k] - sol.u[k - 1]) / tau


def _spatial_mask(g: Grid, x0: np.ndarray, r: float) -> np.ndarray:
    d2 = sum((x - c) ** 2 for x, c in zip(g.mesh(), x0))
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


def time_segments(first, last, idx) -> np.ndarray:
    """A grid point set as maximal runs of consecutive snapshots.

    Row ``j`` of the input puts the point ``idx[j]`` (``idx`` has shape
    ``(n, dim)``) in the set at every snapshot from ``first[j]`` to
    ``last[j]``; a single point has ``first == last``, and runs of one point
    may repeat, overlap or abut.  Returns an int64 array with one row
    ``(first, last, i0, ...)`` per maximal run of the union: the point
    ``(i0, ...)`` belongs to the set at every snapshot from ``first`` to
    ``last``.  Rows are sorted by spatial index, then time.
    """
    idx = np.asarray(idx, dtype=np.int64)
    first = np.asarray(first, dtype=np.int64)
    last = np.asarray(last, dtype=np.int64)
    order = np.lexsort((first, *idx.T[::-1]))
    pt, first, last = idx[order], first[order], last[order]
    new_pt = np.ones(first.size, dtype=bool)
    new_pt[1:] = (pt[1:] != pt[:-1]).any(axis=1)
    # latest snapshot reached so far by the runs of the same point: a
    # running max of ``last`` offset by the point's group number, so that
    # it never carries over from one point to the next
    span = int(last.max(initial=0)) + 1
    group = np.cumsum(new_pt) * span
    reach = np.maximum.accumulate(group + last) - group
    start = new_pt.copy()
    start[1:] |= first[1:] > reach[:-1] + 1
    end = np.ones(first.size, dtype=bool)
    end[:-1] = start[1:]
    return np.column_stack([first[start], reach[end], pt[start]])


def parabolic_distance(
    z: SpaceTimePoint, S, sol: SpaceTimeSolution, r_max: float | None = None
) -> float:
    """sup of radii whose discrete lower cylinder at z avoids S.

    S holds the ``(first, last, i0, ...)`` rows of ``time_segments``.
    Computed in closed form: a point of S at spatial distance d and time
    lag dt below z first enters the lower cylinder at radius
    ``max(d, sqrt(dt))``; points above z never enter.  Along one segment d
    is fixed and the lag is least at its last snapshot not above z, so a
    segment that starts at or before z contributes
    ``max(d, sqrt(t0 - times[min(last, k0)]))`` and the cost is one row
    per segment, not per point.  Returns the cap when S is empty or never
    intersected.
    """
    cap = sol.r_max() if r_max is None else float(r_max)
    k0 = z.t_index
    seg = S[S[:, 0] <= k0]
    if seg.shape[0] == 0:
        return cap
    axes = sol.grid.axes()
    d2 = sum((ax[i] - ax[i0]) ** 2 for ax, i, i0 in zip(axes, seg[:, 2:].T, z.idx))
    lag = sol.times[k0] - sol.times[np.minimum(seg[:, 1], k0)]
    crit = np.maximum(np.sqrt(d2), np.sqrt(lag))
    return float(min(cap, crit.min()))


def boundary_distance(sol: SpaceTimeSolution, z: SpaceTimePoint) -> float:
    """Parabolic distance from z to the parabolic boundary of the cylinder.

    The lateral boundary is reached at radius equal to the spatial gap and
    the bottom at radius sqrt(t).
    """
    gap = sol.grid.boundary_gap(z.idx)
    t = float(sol.times[z.t_index] - sol.times[0])
    return min(gap, float(np.sqrt(max(t, 0.0))))
