"""Structured space-time discretization.

Fields live on a uniform tensor grid in one or two space dimensions.
Discrete derivatives use second-order central stencils in the interior and
first-order one-sided stencils at the spatial boundary; diagnostics that
care about stencil order only sample ``Grid.interior()``, the points at
least ``INTERIOR_MARGIN`` cells away from the boundary.  The derivative
operators act on the trailing ``dim`` axes, so a ``(K,) + shape`` snapshot
stack goes through in one call; ``gradient`` and the 2D ``hessian`` write
straight into their output with no stack-sized temporaries (a 1D
``hessian`` holds ``2f`` in one).  The analysis passes call them on
blocks of snapshots whose scratch fits ``BLOCK_BYTES``.

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

from .errors import CFLError
from .relay import Thresholds

_SLACK = 1e-12

#: Cells between the spatial boundary and the interior sample region: the
#: one-sided boundary stencils and their neighbours stay outside it.
INTERIOR_MARGIN = 2

BC_NEUMANN = "neumann"
BC_DIRICHLET = "dirichlet"

#: Bytes of scratch an analysis pass holds at once while it walks the
#: snapshot stacks a block of rows at a time (``block_len``).
BLOCK_BYTES = 1 << 17


def block_len(row_bytes: int) -> int:
    """Rows of ``row_bytes`` scratch bytes each that one block of a pass
    takes: as many as ``BLOCK_BYTES`` holds, at least one.  The budget is
    read at call time."""
    return max(1, BLOCK_BYTES // max(1, int(row_bytes)))


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

    def boundary_gap(self, idx) -> np.ndarray:
        """Distance from each grid point, ``idx`` of shape ``(n, dim)``, to
        the nearest spatial boundary."""
        near = np.asarray(idx).reshape(-1, self.dim) * self.dx
        return np.minimum(near, np.asarray(self.extent) - near).min(axis=1)


def cfl_limit(g: Grid) -> float:
    """Largest stable dt of the explicit heat stencil (safety factor 1)."""
    return min(g.dx) ** 2 / (2.0 * g.dim)


def check_cfl(g: Grid, dt: float, cfl_safety: float) -> None:
    """Raises CFLError unless ``dt <= cfl_safety * cfl_limit(g)``."""
    bound = cfl_safety * cfl_limit(g)
    if dt > bound:
        raise CFLError(f"CFL violated: dt={dt}, need <= "
                       f"cfl_safety*dx_min^2/(2*dim) = {bound:.6g}")


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


def _run_ops(ops: list) -> None:
    """Makes the calls ``(callable, args)`` in order."""
    for f, args in ops:
        f(*args)


def _second_sum_ops(f: np.ndarray, axis: int, g: Grid, out: np.ndarray) -> list:
    """The calls ``(callable, args)`` that write ``f[i+1] + f[i-1]`` along
    one axis into ``out``, an array distinct from ``f``; both are
    C-contiguous and of one shape.

    One add runs over the flat views with the axis stride as offset, so
    every axis reads contiguous memory.  The entries at either end of the
    axis, where the flat offset wraps into a neighbouring row or snapshot,
    are left as they come out, except that Neumann edges then take the
    reflected ghost, ``f[1] + f[1]`` and ``f[-2] + f[-2]``.  Addition
    commutes, so the sum of a mirrored ``f`` is the mirrored sum, bit for
    bit, and so is every stencil built on it.
    """
    s = math.prod(f.shape[axis + 1:])
    flat = f.reshape(-1)
    ops = [(np.add, (flat[2 * s:], flat[: -2 * s], out.reshape(-1)[s:-s]))]
    if g.bc_kind == BC_NEUMANN:
        lead = (slice(None),) * axis
        for e, i in ((slice(0, 1), slice(1, 2)), (slice(-1, None), slice(-2, -1))):
            ops.append((np.add, (f[lead + (i,)], f[lead + (i,)], out[lead + (e,)])))
    return ops


def _second_diff(f: np.ndarray, axis: int, dx: float, g: Grid, out: np.ndarray,
                 twice: np.ndarray) -> np.ndarray:
    """Central second difference ``((f[i+1] + f[i-1]) - 2f[i]) / dx**2``
    along one axis, written into ``out``, given ``twice`` holding ``2.0*f``
    (``_second_sum_ops`` for the sum; ``out`` is neither array).  Dirichlet edges read 0 (boundary
    nodes are pinned by the solver, so their stencil value is never
    consumed).  Returns ``out``.
    """
    _run_ops(_second_sum_ops(f, axis, g, out))
    np.subtract(out, twice, out=out)
    np.divide(out, dx * dx, out=out)
    if g.bc_kind == BC_DIRICHLET:
        lead = (slice(None),) * axis
        out[lead + (0,)] = out[lead + (-1,)] = 0.0
    return out


def laplacian(f: np.ndarray, g: Grid) -> np.ndarray:
    """Second-order central Laplacian (3-point in 1D, 5-point in 2D)."""
    f = _check_field(f, g)
    lead, twice = f.ndim - g.dim, np.multiply(f, 2.0)
    out = _second_diff(f, lead, g.dx[0], g, np.empty_like(f), twice)
    for axis in range(1, g.dim):
        out += _second_diff(f, lead + axis, g.dx[axis], g, np.empty_like(f), twice)
    return out


def _first_diff(f: np.ndarray, axis: int, dx: float, out: np.ndarray) -> np.ndarray:
    """``np.gradient(f, dx, axis=axis)``, the same rounded operations in the
    same order, written into ``out`` (not ``f``) with no temporaries.

    ``f`` and ``out`` are C-contiguous arrays of one shape.  The central
    difference ``(f[2:] - f[:-2]) / (2*dx)`` runs once over their flat views
    with the axis stride as offset, as in ``_second_sum_ops``: a ufunc over
    views strided in their last axis would allocate numpy's iteration
    buffers, up to 64 KiB per operand.  The entries at either end of the
    axis, where the flat offset wraps into a neighbouring row or snapshot,
    are then overwritten by the one-sided edges."""
    n, s = f.shape[axis], math.prod(f.shape[axis + 1:])
    src, mid = f.reshape(-1), out.reshape(-1)[s:-s]
    np.subtract(src[2 * s:], src[: -2 * s], out=mid)
    np.divide(mid, 2.0 * dx, out=mid)
    ax = (slice(None),) * axis
    for e, hi, lo in ((0, 1, 0), (n - 1, n - 1, n - 2)):
        edge = out[ax + (slice(e, e + 1),)]
        np.subtract(f[ax + (slice(hi, hi + 1),)], f[ax + (slice(lo, lo + 1),)],
                    out=edge)
        np.divide(edge, dx, out=edge)
    return out


def gradient(f: np.ndarray, g: Grid) -> np.ndarray:
    """Spatial gradient; central interior, one-sided at the boundary.

    Returns an array of shape ``(dim,) + f.shape``, equal bit for bit to the
    per-axis ``np.gradient`` stack and computed without temporaries.
    """
    f = _check_field(f, g)
    lead = f.ndim - g.dim
    out = np.empty((g.dim,) + f.shape)
    for axis, d in enumerate(g.dx):
        _first_diff(f, lead + axis, d, out[axis])
    return out


def gradient_norm_sq(f: np.ndarray, g: Grid) -> np.ndarray:
    """``|Df|**2`` in an array of ``f``'s shape: each axis's ``_first_diff``
    squared and added in axis order, with one scratch array of that shape.
    Equal bit for bit to ``(gradient(f, g)**2).sum(axis=0)``."""
    return _norm_sq(_check_field(f, g), g.dx)


def _norm_sq(f: np.ndarray, dx: tuple, out=None) -> np.ndarray:
    """``gradient_norm_sq`` over the trailing ``len(dx)`` axes of ``f``,
    whatever their length, so ``f`` may be a box cut from a grid field: the
    box's edges then take the one-sided stencil.  Written into ``out`` when
    given (an array of ``f``'s shape, not ``f``)."""
    lead = f.ndim - len(dx)
    out = _first_diff(f, lead, dx[0], np.empty_like(f) if out is None else out)
    np.square(out, out=out)
    for axis in range(1, len(dx)):
        d = _first_diff(f, lead + axis, dx[axis], np.empty_like(f))
        out += np.square(d, out=d)
    return out


def hessian(f: np.ndarray, g: Grid) -> np.ndarray:
    """Discrete Hessian, shape ``(dim, dim) + f.shape``; symmetric.

    Diagonal entries use the same second-difference stencil as
    ``laplacian`` so that the trace matches it exactly; off-diagonal
    entries use the central cross stencil, the gradient's first difference
    along x, then along y.
    """
    f = _check_field(f, g)
    lead = f.ndim - g.dim
    out = np.empty((g.dim, g.dim) + f.shape)
    twice = np.multiply(f, 2.0, out=out[0, -1] if g.dim == 2 else None)
    for i, d in enumerate(g.dx):
        _second_diff(f, lead + i, d, g, out[i, i], twice)
    if g.dim == 2:
        gx = _first_diff(f, lead, g.dx[0], out[1, 0])
        out[1, 0] = _first_diff(gx, lead + 1, g.dx[1], out[0, 1])
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
        ok = np.isfinite(self.times) & np.append(True, np.diff(self.times) > 0)
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"snapshot {k} at t={float(self.times[k])!r} is not "
                             f"finite or not after the previous snapshot")
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
    return (sol.u[k] - sol.u[k - 1]) / (sol.times[k] - sol.times[k - 1])


def _spatial_mask(g: Grid, x0: np.ndarray, r: float) -> np.ndarray:
    d2 = sum((x - c) ** 2 for x, c in zip(g.mesh(), x0))
    return d2 < (r - _SLACK) ** 2 if r > _SLACK else d2 < 0


def cylinder_slices(
    sol: SpaceTimeSolution, z0: SpaceTimePoint, r: float, lower_only: bool = True
):
    """Discrete parabolic cylinder as (time index array, spatial mask).

    The time indices are consecutive.  The spatial mask is shared by all
    time slices; the top slice t = t0 is included, and so is the bottom
    slice when it lands exactly on ``t0 - r**2``.
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


def parabolic_distance(points, S, sol: SpaceTimeSolution) -> np.ndarray:
    """sup of radii whose discrete lower cylinder at each point avoids S.

    ``points`` is ``(t_index, idx)``, int arrays of shape ``(n,)`` and
    ``(n, dim)``, and the result holds one distance per point.  S holds the
    ``(first, last, i0, ...)`` rows of ``time_segments``.  Computed in
    closed form: a point of S at spatial distance d and time lag dt below a
    query point z first enters the lower cylinder at radius
    ``max(d, sqrt(dt))``; points above z never enter.  Along one segment d
    is fixed and the lag is least at its last snapshot not above z, so a
    segment that starts at or before z contributes
    ``max(d, sqrt(t0 - times[min(last, k0)]))``.  One pass per segment row
    updates a running minimum over all query points, so memory stays one
    array of points.  A point that no segment starts at or before gets the
    cap ``sol.r_max()``.
    """
    k0, idx = (np.asarray(a, dtype=np.int64) for a in points)
    axes = sol.grid.axes()
    x0 = [ax[i] for ax, i in zip(axes, idx.reshape(k0.size, sol.grid.dim).T)]
    t0 = sol.times[k0]
    out = np.full(k0.size, sol.r_max())
    for first, last, *seg_idx in S.tolist():
        d2 = sum((ax[i] - x) ** 2 for ax, i, x in zip(axes, seg_idx, x0))
        lag = t0 - sol.times[np.minimum(last, k0)]
        crit = np.maximum(np.sqrt(d2), np.sqrt(lag))
        np.minimum(out, crit, out=out, where=k0 >= first)
    return out


def boundary_distance(sol: SpaceTimeSolution, points) -> np.ndarray:
    """Parabolic distance from each point, ``(t_index, idx)`` as in
    ``parabolic_distance``, to the parabolic boundary of the cylinder.

    The lateral boundary is reached at radius equal to the spatial gap and
    the bottom at radius sqrt(t).
    """
    k0, idx = points
    t = sol.times[np.asarray(k0)] - sol.times[0]
    return np.minimum(sol.grid.boundary_gap(idx), np.sqrt(np.maximum(t, 0.0)))
