"""Free boundary extraction and classification.

The relay field partitions space-time into the +1 and -1 regions; its jump
set decomposes into temporal events (down-jumps at the lower threshold,
up-jumps at the upper one) and vertical walls: spatial faces whose two
endpoints keep opposite relay states, with both field values strictly
inside the band, for a persistence window.  Jump events further split by
the size of the spatial gradient into a degenerate part (gradient below
tolerance) and a non-degenerate part.

Events are grid points, not reconstructed sub-grid surfaces; downstream
diagnostics integrate over cylinders and are insensitive to sub-grid
placement.  A wall is held once, as face runs: one row per face and
maximal run of consecutive snapshots, never one row per snapshot.  This
module only computes: ``hysterm.reports`` writes the jump events as
``atlas.csv`` and the face runs as ``walls.csv``.

Neither distance the theory uses scans all pairs of points.  The wall
points are also kept as maximal runs of consecutive snapshots per point
(``FreeBoundaryAtlas.wall_segments``), so a parabolic distance to Gamma_v
costs one row per run, not per wall point.  ``separation_check`` builds an
exact squared distance map per beta slice, on first use, and visits slice
pairs in order of increasing time lag until the lag alone rules out a
closer pair; its memory is a few grid-sized maps instead of a block of
point pairs.  Both give the all-pairs minimum bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    SpaceTimePoint,
    SpaceTimeSolution,
    gradient,
    laplacian,
    spread_indices,
    time_segments,
)

# int8 jump kind codes; reports.KIND_NAMES names them in atlas.csv
JUMP_DOWN, JUMP_UP = 0, 1

DEFAULT_WALL_MIN_STEPS = 3


@dataclass
class FreeBoundaryAtlas:
    """The jump events as one table with the classes as row-index arrays
    into it, and the vertical walls as face runs.

    Row ``i`` of the table is the jump at grid point ``(t_index[i],
    idx[i])`` of kind ``kind[i]``, with the field value, gradient norm and
    backward time difference quotient there.  Rows hold the down-jumps
    (Gamma_alpha) in (t, C-order index) order, then the up-jumps
    (Gamma_beta).  ``grad_norm_stack`` is |Du| per snapshot.

    ``walls`` holds Gamma_v as int64 rows ``(axis, first, last, i0, ...)``:
    the face between the points ``(i0, ...)`` and ``(i0, ...) + e_axis`` is
    a wall at every snapshot from ``first`` to ``last``, and the run is
    maximal.  Rows are sorted by axis, then face index in C order, then
    ``first``.  ``wall_segments`` holds the wall points as
    ``grid.time_segments`` rows, the form ``grid.parabolic_distance``
    takes; it is built from ``walls`` on construction.
    """

    t_index: np.ndarray
    idx: np.ndarray
    kind: np.ndarray
    u: np.ndarray
    grad_norm: np.ndarray
    dt_u: np.ndarray
    gamma_alpha: np.ndarray
    gamma_beta: np.ndarray
    gamma_0: np.ndarray
    gamma_star: np.ndarray
    walls: np.ndarray
    grad_norm_stack: np.ndarray
    level_tol: float
    grad_tol: float
    wall_min_steps: int
    wall_segments: np.ndarray = field(init=False)

    def __post_init__(self):
        axis, first, last = self.walls[:, :3].T
        face = self.walls[:, 3:]
        other = face + (axis[:, None] == np.arange(face.shape[1]))
        self.wall_segments = time_segments(
            np.tile(first, 2), np.tile(last, 2), np.concatenate([face, other])
        )

    @property
    def gamma_v_count(self) -> int:
        """Gamma_v counted as events: both endpoints of each wall face at
        each snapshot, so a point bordering two faces counts once per face."""
        return 2 * int((self.walls[:, 2] - self.walls[:, 1] + 1).sum())

    def points(self, rows) -> list:
        """The selected events as SpaceTimePoints."""
        return [
            SpaceTimePoint(t, tuple(i))
            for t, i in zip(self.t_index[rows].tolist(), self.idx[rows].tolist())
        ]


def default_level_tol(sol: SpaceTimeSolution) -> float:
    """One explicit step overshoots a threshold by at most dt*|drift|."""
    dts = np.diff(sol.times)
    dt = float(dts.min()) if dts.size else 0.0
    dx2 = min(sol.grid.dx) ** 2
    probe = spread_indices(0, sol.num_snapshots - 1, 5)
    resid = laplacian(sol.u[probe], sol.grid) - sol.h[probe]
    drift = max(1.0, float(np.abs(resid).max()))
    return max(1e-8, 2.0 * (dt + dx2) * drift)


def default_grad_tol(sol: SpaceTimeSolution) -> float:
    """One order above the O(dx^2) derivative noise floor."""
    return 5.0 * min(sol.grid.dx)


def grad_norm_stack(sol: SpaceTimeSolution) -> np.ndarray:
    """|Du| at every stored snapshot, accumulated in the gradient's buffer."""
    grad = gradient(sol.u, sol.grid)
    norm = np.square(grad[0], out=grad[0])
    for comp in grad[1:]:
        norm += np.square(comp, out=comp)
    return np.sqrt(norm, out=norm)


def classify(
    sol: SpaceTimeSolution,
    level_tol: float | None = None,
    grad_tol: float | None = None,
    wall_min_steps: int = DEFAULT_WALL_MIN_STEPS,
) -> FreeBoundaryAtlas:
    """Extract and classify all free-boundary events of a solution."""
    if sol.num_snapshots < 2:
        raise ValueError("classify needs at least two snapshots")
    level_tol = default_level_tol(sol) if level_tol is None else float(level_tol)
    grad_tol = default_grad_tol(sol) if grad_tol is None else float(grad_tol)

    k, *space = np.nonzero(sol.h[1:] != sol.h[:-1])
    went_up = sol.h[(k + 1, *space)] > sol.h[(k, *space)]
    jump_idx = np.stack(space, axis=1)

    down = ~went_up
    t_index = np.concatenate([k[down], k[went_up]]) + 1
    idx = np.concatenate([jump_idx[down], jump_idx[went_up]])
    n_alpha = int(down.sum())
    kind = np.repeat(
        np.array([JUMP_DOWN, JUMP_UP], dtype=np.int8), [n_alpha, k.size - n_alpha]
    )

    at = (t_index, *idx.T)
    u = sol.u[at]
    gn = grad_norm_stack(sol)
    grad_norm = gn[at]
    dt_u = (u - sol.u[(t_index - 1, *idx.T)]) / np.diff(sol.times)[t_index - 1]

    jumps = np.arange(k.size)
    return FreeBoundaryAtlas(
        t_index=t_index,
        idx=idx,
        kind=kind,
        u=u,
        grad_norm=grad_norm,
        dt_u=dt_u,
        gamma_alpha=jumps[:n_alpha],
        gamma_beta=jumps[n_alpha:],
        gamma_0=jumps[grad_norm <= grad_tol],
        gamma_star=jumps[grad_norm > grad_tol],
        walls=_vertical_walls(sol, level_tol, wall_min_steps),
        grad_norm_stack=gn,
        level_tol=level_tol,
        grad_tol=grad_tol,
        wall_min_steps=wall_min_steps,
    )


def _vertical_walls(sol, level_tol, wall_min_steps) -> np.ndarray:
    """Faces with opposite relay states and both values strictly in the band,
    persisting for at least ``wall_min_steps`` consecutive snapshots.

    Returns the ``FreeBoundaryAtlas.walls`` rows ``(axis, first, last, i0,
    ...)``, one per face and maximal run of such snapshots that is long
    enough, sorted by axis, then face in C order, then ``first``.  The runs
    come from one pass over time: with the face's activity padded by an
    inactive snapshot at either end and time as the last axis, the changes
    along time alternate between the start of a run and the snapshot after
    its end.
    """
    th = sol.thresholds
    lo, hi = th.alpha + level_tol, th.beta - level_tol
    dim = sol.grid.dim
    K = sol.num_snapshots
    rows = []
    for axis in range(dim):
        sl_a = [slice(None)] * (dim + 1)
        sl_b = [slice(None)] * (dim + 1)
        sl_a[axis + 1] = slice(None, -1)
        sl_b[axis + 1] = slice(1, None)
        sl_a, sl_b = tuple(sl_a), tuple(sl_b)
        ha, hb = sol.h[sl_a], sol.h[sl_b]
        ua, ub = sol.u[sl_a], sol.u[sl_b]
        active = (ha != hb) & (ua > lo) & (ua < hi) & (ub > lo) & (ub < hi)
        padded = np.zeros(active.shape[1:] + (K + 2,), dtype=bool)
        padded[..., 1:-1] = np.moveaxis(active, 0, -1)
        *face, k = np.nonzero(np.diff(padded, axis=-1))
        first, last = k[0::2], k[1::2] - 1
        keep = last - first + 1 >= wall_min_steps
        rows.append(np.column_stack([
            np.full(np.count_nonzero(keep), axis), first[keep], last[keep],
            *(f[0::2][keep] for f in face),
        ]))
    return np.concatenate(rows)


def separation_check(
    sol: SpaceTimeSolution, level_tol: float | None = None
) -> float:
    """Minimum parabolic distance between the two discrete level sets.

    Samples the grid interior (``Grid.interior``) and returns the cap when
    either set is empty.  The value is the minimum over all (alpha point,
    beta point) pairs of ``max(|x_a - x_b|, sqrt(|t_a - t_b|))``, found
    without listing the pairs: each alpha slice walks outward through the
    beta slices in order of increasing time lag, stops once ``sqrt(lag)``
    reaches the best value so far, and reads each beta slice's exact
    squared distance map (``_squared_distance_map``), built on first use.
    Rounded sqrt, max and subtraction are monotone, so the result is the
    pairwise minimum bit for bit.
    """
    level_tol = default_level_tol(sol) if level_tol is None else float(level_tol)
    th = sol.thresholds
    cap = sol.r_max()
    interior = sol.grid.interior()
    near_a = (np.abs(sol.u - th.alpha) <= level_tol) & interior[None]
    near_b = (np.abs(sol.u - th.beta) <= level_tol) & interior[None]
    space = tuple(range(1, sol.u.ndim))
    a_slices = np.nonzero(near_a.any(axis=space))[0].tolist()
    b_slices = np.nonzero(near_b.any(axis=space))[0].tolist()
    if not a_slices or not b_slices:
        return cap

    times = sol.times.tolist()
    b_times = [times[j] for j in b_slices]
    dist2 = {}
    best = cap
    for i in a_slices:
        t = times[i]
        hi = bisect.bisect_left(b_times, t)
        lo = hi - 1
        while lo >= 0 or hi < len(b_slices):
            if hi == len(b_slices) or (lo >= 0 and t - b_times[lo] <= b_times[hi] - t):
                j, lag = b_slices[lo], t - b_times[lo]
                lo -= 1
            else:
                j, lag = b_slices[hi], b_times[hi] - t
                hi += 1
            reach = math.sqrt(lag)
            if reach >= best:
                break
            if j not in dist2:
                dist2[j] = _squared_distance_map(near_b[j], sol.grid)
            best = min(best, max(math.sqrt(float(dist2[j][near_a[i]].min())), reach))
        # alpha slices come in time order and best only falls, so a beta
        # slice this far below t is never reached again
        for j in [j for j in dist2 if times[j] < t and math.sqrt(t - times[j]) >= best]:
            del dist2[j]
    return best


def _squared_distance_map(mask: np.ndarray, g: Grid) -> np.ndarray:
    """Least squared spatial distance from every grid point to ``mask``.

    Exact brute force, one axis at a time: in 2D, first
    ``G[bx, ay] = min over by in mask[bx] of (y[ay] - y[by])**2``, then
    ``D[ax, ay] = min over bx of (x[ax] - x[bx])**2 + G[bx, ay]``.  Rounded
    addition is monotone, so ``D`` equals the minimum of the pairwise
    ``dx**2 + dy**2``.
    """
    x, *rest = g.axes()
    if not rest:
        return ((x[:, None] - x[None, mask]) ** 2).min(axis=1)
    (y,) = rest
    out = np.full(g.shape, np.inf)
    for bx in np.nonzero(mask.any(axis=1))[0]:
        gy = ((y[:, None] - y[None, mask[bx]]) ** 2).min(axis=1)
        np.minimum(out, (x[:, None] - x[bx]) ** 2 + gy[None, :], out=out)
    return out
