"""The oscillation of u and sup |Du| over the cylinders of a growth centre.

``diagnostics.quadratic_growth`` reads every cylinder of its radius ladder
at one centre from one walk over the largest one's window.  Only the
analysis imports this module; every command imports ``grid`` and
``free_boundary``, so analysis-only code stays out of them.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import SpaceTimeSolution, _norm_sq, block_len


def cylinder_extremes(sol: SpaceTimeSolution, cyls: list) -> list:
    """``(osc u, sup |Du|)`` over each cylinder ``(t, mask)`` of
    ``cylinder_slices`` at one centre, the first one holding all the others.

    One walk over the first cylinder's window, a block of snapshots at a
    time under ``grid.BLOCK_BYTES``, on the bounding box of its ball
    widened by one node and clipped at the domain faces: every ball node's
    stencil neighbours lie in the box, and at a face the one-sided stencil
    is the grid's own, so |Du|**2 at each ball node is the full grid's bit
    for bit.  The window is cut at every cylinder's first and past-last
    snapshot, and each piece keeps the maxima of u and |Du|**2 and the
    minimum of u along time over the box; a cylinder's extremes are those
    of its pieces over its ball.  Max and min are exact, so the oscillation
    is ``np.ptp``'s max - min, and sqrt is monotone and correctly rounded,
    so the sqrt of the largest |Du|**2 is the largest |Du|.
    """
    box = tuple(slice(max(int(i.min()) - 1, 0), int(i.max()) + 2)
                for i in np.nonzero(cyls[0][1]))
    spans = [(int(t[0]), int(t[-1]) + 1) for t, _ in cyls]
    cuts = sorted({c for span in spans for c in span})
    # per snapshot: u and |Du|**2 over the box, and in 2D the norm's scratch
    step = block_len((sol.grid.dim + 1) * sol.u[0][box].nbytes)
    buf = np.empty((2, min(step, cuts[-1] - cuts[0])) + sol.u[0][box].shape)
    hi_rows = np.full((len(cuts) - 1,) + buf[:, 0].shape, -np.inf)
    lo_rows = np.full((len(cuts) - 1,) + buf.shape[2:], np.inf)
    for k in range(cuts[0], cuts[-1], step):
        v = buf[:, :min(step, cuts[-1] - k)]
        np.copyto(v[0], sol.u[k:k + v.shape[1]][(slice(None), *box)])
        _norm_sq(v[0], sol.grid.dx, out=v[1])
        for hi_acc, lo_acc, lo, hi in zip(hi_rows, lo_rows, cuts, cuts[1:]):
            if k < hi and lo < k + v.shape[1]:
                piece = v[:, max(lo - k, 0):hi - k]
                np.maximum(hi_acc, np.maximum.reduce(piece, axis=1), out=hi_acc)
                np.minimum(lo_acc, np.minimum.reduce(piece[0], axis=0), out=lo_acc)
    out = []
    for (lo, hi), (_, mask) in zip(spans, cyls):
        pieces, ball = slice(cuts.index(lo), cuts.index(hi)), mask[box]
        u_hi, g = hi_rows[pieces][..., ball].max(axis=(0, 2))
        out.append((float(u_hi - lo_rows[pieces][..., ball].min()), math.sqrt(g)))
    return out
