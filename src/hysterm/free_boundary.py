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

Every pass over the snapshot stacks (the jumps, |Du| at the jump
snapshots, the walls and the level slices) walks them a block at a time
under ``grid.BLOCK_BYTES``, so none holds a temporary of the run's size;
the results are those of the whole-stack passes, since masks, ``nonzero``
order and the stencils do not depend on the block.
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
    block_len,
    gradient_norm_sq,
    laplacian,
    spread_indices,
    time_segments,
)

# int8 jump kind codes; reports.KIND_NAMES names them in atlas.csv
JUMP_DOWN, JUMP_UP = 0, 1

#: Consecutive snapshots a face must hold its wall conditions to be a wall.
WALL_MIN_STEPS = 3


@dataclass
class FreeBoundaryAtlas:
    """The jump events as one table with the classes as row-index arrays
    into it, and the vertical walls as face runs.

    Row ``i`` of the table is the jump at grid point ``(t_index[i],
    idx[i])`` of kind ``kind[i]``, with the field value, gradient norm and
    backward time difference quotient there.  Rows hold the down-jumps
    (Gamma_alpha) in (t, C-order index) order, then the up-jumps
    (Gamma_beta).  The atlas holds no stack of the solution's size:
    ``grad_norm`` is |Du| at the events only, and the diagnostics take |Du|
    on their own cylinders.

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
    level_tol: float
    grad_tol: float
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
    drift = 1.0
    for k in spread_indices(0, sol.num_snapshots - 1, 5).tolist():
        resid = laplacian(sol.u[k], sol.grid)
        resid -= sol.h[k]
        drift = max(drift, float(np.abs(resid, out=resid).max()))
    return max(1e-8, 2.0 * (dt + dx2) * drift)


def default_grad_tol(sol: SpaceTimeSolution) -> float:
    """One order above the O(dx^2) derivative noise floor."""
    return 5.0 * min(sol.grid.dx)


def classify(
    sol: SpaceTimeSolution,
    level_tol: float | None = None,
    grad_tol: float | None = None,
) -> FreeBoundaryAtlas:
    """Extract and classify all free-boundary events of a solution."""
    if sol.num_snapshots < 2:
        raise ValueError("classify needs at least two snapshots")
    level_tol = default_level_tol(sol) if level_tol is None else float(level_tol)
    grad_tol = default_grad_tol(sol) if grad_tol is None else float(grad_tol)

    # the walls first, while no event column is alive
    walls = _vertical_walls(sol, level_tol)
    k, jump_idx, went_up = _jumps(sol)
    down = ~went_up
    t_index = np.concatenate([k[down], k[went_up]]) + 1
    idx = np.concatenate([jump_idx[down], jump_idx[went_up]])
    n_alpha = int(down.sum())
    kind = np.repeat(
        np.array([JUMP_DOWN, JUMP_UP], dtype=np.int8), [n_alpha, k.size - n_alpha]
    )

    at = (t_index, *idx.T)
    u = sol.u[at]
    grad_norm = np.sqrt(_grad_norm_sq_at(sol, t_index, idx))
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
        walls=walls,
        level_tol=level_tol,
        grad_tol=grad_tol,
    )


def _jumps(sol: SpaceTimeSolution) -> tuple:
    """Every relay jump ``h[k+1] != h[k]`` as ``(k, idx, went_up)``: the
    snapshot before it, the spatial index ``(n, dim)`` and whether the
    state rose, in the (k, C-order index) order of ``np.nonzero`` over the
    whole stack.  Found a block of snapshot pairs at a time in one reused
    bool buffer."""
    h, pairs = sol.h, sol.num_snapshots - 1
    step = block_len(h[0].size)
    buf = np.empty((min(step, pairs),) + sol.grid.shape, dtype=bool)
    ks, idxs = [], []
    for k in range(0, pairs, step):
        ne = buf[:min(step, pairs - k)]
        np.not_equal(h[k + 1:k + 1 + len(ne)], h[k:k + len(ne)], out=ne)
        kk, *space = np.nonzero(ne)
        ks.append(kk + k)
        idxs.append(np.stack(space, axis=1))
    k, idx = np.concatenate(ks), np.concatenate(idxs)
    space = tuple(idx.T)
    return k, idx, h[(k + 1, *space)] > h[(k, *space)]


def _grad_norm_sq_at(sol: SpaceTimeSolution, t_index, idx) -> np.ndarray:
    """|Du|**2 at the points ``(t_index, idx)``, taken with
    ``gradient_norm_sq`` only on the snapshots that hold a point, a block of
    them at a time; ``slot[k]`` is snapshot k's place among them."""
    has = np.zeros(sol.num_snapshots, dtype=bool)
    has[t_index] = True
    snaps = np.nonzero(has)[0]
    slot = (np.cumsum(has) - 1)[t_index]
    out = np.empty(t_index.size)
    # the block's copy of u, the norm and its scratch
    step = block_len(3 * sol.u[0].nbytes)
    for s in range(0, snaps.size, step):
        block = snaps[s:s + step]
        # consecutive snapshots are a view of the stack, not a copy
        if block[-1] - block[0] == len(block) - 1:
            block = slice(block[0], block[-1] + 1)
        gn_sq = gradient_norm_sq(sol.u[block], sol.grid)
        sel = (slot >= s) & (slot < s + step)
        out[sel] = gn_sq[(slot[sel] - s, *idx[sel].T)]
    return out


def _vertical_walls(sol, level_tol) -> np.ndarray:
    """Faces with opposite relay states and both values strictly in the band,
    persisting for at least ``WALL_MIN_STEPS`` consecutive snapshots.

    Returns the ``FreeBoundaryAtlas.walls`` rows ``(axis, first, last, i0,
    ...)``, one per face and maximal run of such snapshots that is long
    enough, sorted by axis, then face in C order, then ``first``.  The runs
    come from one pass over time per face: with the face's activity padded
    by an inactive snapshot at either end, the changes along time alternate
    between the start of a run and the snapshot after its end, and
    ``np.nonzero`` over them with time as the last axis (a transposed view)
    lists them face by face.  The faces go a block of face rows (the first
    face index) at a time, in C order.  Each block marks the nodes its faces
    join, a view of the stacks, strictly inside the band once; a face's
    activity is the relay's change across it and-ed with the marks at both
    ends.  The marks, their scratch, the padded activity and its changes are
    reused bool buffers that fit ``grid.BLOCK_BYTES``.
    """
    th = sol.thresholds
    lo, hi = th.alpha + level_tol, th.beta - level_tol
    K = sol.num_snapshots
    n0, *rest = sol.grid.shape
    rows = []
    for axis in range(sol.grid.dim):
        a = (slice(None),) * (axis + 1) + (slice(None, -1),)
        b = (slice(None),) * (axis + 1) + (slice(1, None),)
        # m face rows join m node rows, or m + 1 of them along axis 0
        extra = int(axis == 0)
        n_rows, *face_row = sol.u[0][a[1:]].shape
        step = block_len(4 * (K + 2) * math.prod(rest))
        n = min(step, n_rows)
        marks = np.empty((2, K, n + extra, *rest), dtype=bool)
        padded = np.zeros((K + 2, n, *face_row), dtype=bool)
        edges = np.empty((K + 1, n, *face_row), dtype=bool)
        for r in range(0, n_rows, step):
            m = min(step, n_rows - r)
            nodes = (slice(None), slice(r, r + m + extra))
            u, h = sol.u[nodes], sol.h[nodes]
            mark, scratch = marks[:, :, :m + extra]
            np.greater(u, lo, out=mark)
            mark &= np.less(u, hi, out=scratch)
            active = padded[1:-1, :m]
            np.not_equal(h[a], h[b], out=active)
            active &= mark[a]
            active &= mark[b]
            # np.diff of a bool array is this not_equal
            change = edges[:, :m]
            np.not_equal(padded[1:, :m], padded[:-1, :m], out=change)
            f0, *face, k = np.nonzero(np.moveaxis(change, 0, -1))
            first, last = k[0::2], k[1::2] - 1
            keep = last - first + 1 >= WALL_MIN_STEPS
            rows.append(np.column_stack([
                np.full(np.count_nonzero(keep), axis), first[keep], last[keep],
                f0[0::2][keep] + r, *(f[0::2][keep] for f in face),
            ]))
    return np.concatenate(rows)


def separation_check(sol: SpaceTimeSolution, level_tol: float) -> float:
    """Minimum parabolic distance between the two discrete level sets: the
    points within ``level_tol`` of alpha and of beta.

    Samples the grid interior (``Grid.interior``) and returns the cap when
    either set is empty.  The value is the minimum over all (alpha point,
    beta point) pairs of ``max(|x_a - x_b|, sqrt(|t_a - t_b|))``, found
    without listing the pairs: each alpha slice walks outward through the
    beta slices in order of increasing time lag, stops once ``sqrt(lag)``
    reaches the best value so far, and reads each beta slice's exact
    squared distance map (``_squared_distance_map``), built on first use.
    Rounded sqrt, max and subtraction are monotone, so the result is the
    pairwise minimum bit for bit.  One blocked pass (``_level_slices``)
    finds the snapshots that hold a point of either set; a slice's mask of
    near points is rebuilt when the walk first needs it, so no mask of the
    run's size exists.
    """
    th = sol.thresholds
    cap = sol.r_max()
    interior = sol.grid.interior()
    a_slices, b_slices = _level_slices(sol, (th.alpha, th.beta), level_tol, interior)
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
        near_a = None
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
                near_b = _near(sol.u[j], th.beta, level_tol, interior)
                dist2[j] = _squared_distance_map(near_b, sol.grid)
            if near_a is None:
                near_a = _near(sol.u[i], th.alpha, level_tol, interior)
            best = min(best, max(math.sqrt(float(dist2[j][near_a].min())), reach))
        # alpha slices come in time order and best only falls, so a beta
        # slice this far below t is never reached again
        for j in [j for j in dist2 if times[j] < t and math.sqrt(t - times[j]) >= best]:
            del dist2[j]
    return best


def _near(u: np.ndarray, level: float, level_tol: float, interior) -> np.ndarray:
    """The interior points of ``u``, one snapshot or a block of them, with
    ``|u - level| <= level_tol``."""
    d = u - level
    near = np.abs(d, out=d) <= level_tol
    near &= interior
    return near


def _level_slices(sol: SpaceTimeSolution, levels, level_tol: float,
                  interior) -> list:
    """Per level, the snapshots (a sorted list) where ``_near`` holds at
    some point, a block of snapshots at a time."""
    # per snapshot: _near's difference and mask
    step = block_len(sol.u[0].nbytes + sol.u[0].size)
    space = tuple(range(1, sol.u.ndim))
    hits = [[] for _ in levels]
    for k in range(0, sol.num_snapshots, step):
        for level, hit in zip(levels, hits):
            near = _near(sol.u[k:k + step], level, level_tol, interior)
            hit += (np.nonzero(near.any(axis=space))[0] + k).tolist()
    return hits


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
