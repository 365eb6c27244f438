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
placement.  This module only computes: ``hysterm.reports`` writes the
event table as ``atlas.csv``.

Neither distance the theory uses scans all pairs of points.  The wall
points are also kept as maximal runs of consecutive snapshots
(``FreeBoundaryAtlas.wall_segments``), so a parabolic distance to Gamma_v
costs one row per run, not per wall event.  ``separation_check`` builds an
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
    time_segments,
)

# int8 event kind codes; reports.KIND_NAMES names them in atlas.csv
JUMP_DOWN, JUMP_UP, VERTICAL_WALL = 0, 1, 2

DEFAULT_WALL_MIN_STEPS = 3


@dataclass
class FreeBoundaryAtlas:
    """One event table and the classes as row-index arrays into it.

    Row ``i`` is the event at grid point ``(t_index[i], idx[i])`` of kind
    ``kind[i]``, with the field value, gradient norm and backward time
    difference quotient there.  Rows hold the down-jumps (Gamma_alpha) in
    (t, C-order index) order, then the up-jumps (Gamma_beta), then the wall
    endpoints (Gamma_v) face by face; a point bordering two wall faces
    appears once per face.  ``grad_norm_stack`` is |Du| per snapshot.
    ``wall_segments`` holds the Gamma_v points as ``grid.time_segments``
    rows, the form ``grid.parabolic_distance`` takes; it is built from the
    table on construction.
    """

    t_index: np.ndarray
    idx: np.ndarray
    kind: np.ndarray
    u: np.ndarray
    grad_norm: np.ndarray
    dt_u: np.ndarray
    gamma_alpha: np.ndarray
    gamma_beta: np.ndarray
    gamma_v: np.ndarray
    gamma_0: np.ndarray
    gamma_star: np.ndarray
    grad_norm_stack: np.ndarray
    level_tol: float
    grad_tol: float
    wall_min_steps: int
    wall_segments: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = self.gamma_v
        self.wall_segments = time_segments(self.t_index[rows], self.idx[rows])

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
    probe = np.unique(np.linspace(0, sol.num_snapshots - 1, 5).astype(int))
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
    wall_t, wall_idx = _vertical_walls(sol, level_tol, wall_min_steps)

    down = ~went_up
    t_index = np.concatenate([k[down] + 1, k[went_up] + 1, wall_t])
    idx = np.concatenate([jump_idx[down], jump_idx[went_up], wall_idx])
    n_alpha = int(down.sum())
    n_jump = k.size
    kind = np.repeat(
        np.array([JUMP_DOWN, JUMP_UP, VERTICAL_WALL], dtype=np.int8),
        [n_alpha, n_jump - n_alpha, wall_t.size],
    )

    at = (t_index, *idx.T)
    u = sol.u[at]
    gn = grad_norm_stack(sol)
    grad_norm = gn[at]
    dt_u = np.zeros(t_index.size)
    later = t_index >= 1
    prev = (t_index[later] - 1, *idx[later].T)
    dt_u[later] = (u[later] - sol.u[prev]) / np.diff(sol.times)[prev[0]]

    jumps = np.arange(n_jump)
    return FreeBoundaryAtlas(
        t_index=t_index,
        idx=idx,
        kind=kind,
        u=u,
        grad_norm=grad_norm,
        dt_u=dt_u,
        gamma_alpha=jumps[:n_alpha],
        gamma_beta=jumps[n_alpha:],
        gamma_v=np.arange(n_jump, t_index.size),
        gamma_0=jumps[grad_norm[:n_jump] <= grad_tol],
        gamma_star=jumps[grad_norm[:n_jump] > grad_tol],
        grad_norm_stack=gn,
        level_tol=level_tol,
        grad_tol=grad_tol,
        wall_min_steps=wall_min_steps,
    )


def _vertical_walls(sol, level_tol, wall_min_steps):
    """Faces with opposite relay states and both values strictly in the band,
    persisting for at least ``wall_min_steps`` consecutive snapshots.

    Returns (t_index, idx) of both endpoints of every qualifying face, axis
    by axis, then slice by slice, faces in C order.
    """
    th = sol.thresholds
    lo, hi = th.alpha + level_tol, th.beta - level_tol
    dim = sol.grid.dim
    ts, idxs = [], []
    K = sol.num_snapshots
    for axis in range(dim):
        sl_a = [slice(None)] * (dim + 1)
        sl_b = [slice(None)] * (dim + 1)
        sl_a[axis + 1] = slice(None, -1)
        sl_b[axis + 1] = slice(1, None)
        sl_a, sl_b = tuple(sl_a), tuple(sl_b)
        ha, hb = sol.h[sl_a], sol.h[sl_b]
        ua, ub = sol.u[sl_a], sol.u[sl_b]
        active = (ha != hb) & (ua > lo) & (ua < hi) & (ub > lo) & (ub < hi)
        # forward run length ending at each slice
        runs = np.zeros(active.shape, dtype=np.int64)
        runs[0] = active[0]
        for k in range(1, K):
            runs[k] = (runs[k - 1] + 1) * active[k]
        # a slice belongs to a qualifying run iff the run it sits in reaches
        # length >= wall_min_steps; propagate the run maximum backwards
        peak = runs.copy()
        for k in range(K - 2, -1, -1):
            cont = active[k] & active[k + 1]
            np.maximum(peak[k], np.where(cont, peak[k + 1], 0), out=peak[k])
        t, *face = np.nonzero(active & (peak >= wall_min_steps))
        face = np.stack(face, axis=1)
        other = face.copy()
        other[:, axis] += 1
        ts.append(np.repeat(t, 2))
        idxs.append(np.stack([face, other], axis=1).reshape(-1, dim))
    return np.concatenate(ts), np.concatenate(idxs)


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
