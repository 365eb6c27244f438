"""Explicit-Euler time integration of du/dt = lap(u) - h coupled to the relay.

The update order is Godunov-style: the field moves first, then the relay
reads the new field.  A +1 relay drives the field down, a -1 relay drives
it up, so the homogeneous dynamics is a sawtooth oscillator between the
thresholds with period 2*(beta - alpha).

``run`` integrates in place.  It checks the CFL bound once, allocates its
buffers once and builds the ufunc calls of one Euler step once, over fixed
views (``_step_ops``): ``2*u`` shared by every axis's
``grid._second_diff_ops``, then the update.  A Dirichlet step updates the
flat range of the nodes strictly inside, so it reads no scratch entry the
step did not write, and re-pins the faces with one strided write per axis.
The ``max``/``min`` pair taken after each step gives ``sup_bound_M``,
catches NaN (numpy's max propagates it) and gates the relay: a state turns
+1 only where ``u >= beta`` and -1 only where it is +1 and ``u <= alpha``,
so while ``max u < beta`` and either no state is +1 or ``min u > alpha``,
``relay.relay_rule`` would change nothing and is skipped.  ``step`` runs
the same calls once.  The operations and their order are those of
``u + dt*(laplacian(u) - h)``, so the results are bitwise those of that
expression.

No sub-step event location is attempted; switching times carry an O(dt)
error that refinement studies quantify directly.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig
from .errors import CFLError, HystermError
from .grid import BC_DIRICHLET, Grid, SpaceTimeSolution, _second_diff_ops
from .presets import build_grid, initial_data
from .relay import PLUS, Thresholds, field_init, field_update, relay_rule


def cfl_limit(g: Grid) -> float:
    """Largest stable dt for the explicit heat stencil (safety factor 1)."""
    return min(g.dx) ** 2 / (2.0 * g.dim)


def _check_cfl(g: Grid, dt: float, cfl_safety: float) -> None:
    if dt > cfl_safety * cfl_limit(g):
        raise CFLError(
            f"CFL violated: dt={dt}, need <= {cfl_safety * cfl_limit(g):.6g}"
        )


def _pin_ops(u: np.ndarray, g: Grid) -> list:
    """Calls that write the Dirichlet value on every face of ``u``, one
    strided write per axis (``bc_value * 1.0`` is exact); none under
    Neumann."""
    if g.bc_kind != BC_DIRICHLET:
        return []
    return [(np.multiply, g.bc_value, 1.0,
             u[(slice(None),) * a + (slice(None, None, n - 1),)])
            for a, n in enumerate(g.shape)]


def _run_ops(ops: list) -> None:
    for f, a, b, out in ops:
        f(a, b, out=out)


def _step_ops(u, hf, lap, work, g: Grid, dt: float) -> list:
    """The ufunc calls ``(ufunc, a, b, out)`` of ``u <- u + dt *
    (laplacian(u) - hf)`` in place, over fixed views of C-contiguous arrays;
    ``work`` holds ``2.0*u`` for both stencils, then the y stencil."""
    ops = [(np.multiply, u, 2.0, work)]
    for axis, out in enumerate((lap, work)[: g.dim]):
        ops += _second_diff_ops(u, axis, g.dx[axis], g, out, work)
    inside = slice(None)
    if g.bc_kind == BC_DIRICHLET:  # first to last node strictly inside
        k = sum(math.prod(g.shape[a + 1:]) for a in range(g.dim))
        inside = slice(k, -k)
    L, W, H, U = (x.reshape(-1)[inside] for x in (lap, work, hf, u))
    if g.dim == 2:
        ops.append((np.add, L, W, L))
    ops += [(np.subtract, L, H, W), (np.multiply, W, dt, W), (np.add, U, W, U)]
    return ops + _pin_ops(u, g)


def _extremes(u: np.ndarray) -> tuple:
    """``(max u, min u)`` as floats; raises on NaN, which numpy's max
    propagates."""
    hi, lo = u.max(), u.min()
    if math.isnan(hi):
        raise HystermError("NaN detected in the field update")
    return float(hi), float(lo)


def step(
    u: np.ndarray,
    h: np.ndarray,
    g: Grid,
    dt: float,
    th: Thresholds,
    cfl_safety: float = 1.0,
    freeze_h: bool = False,
):
    """One explicit Euler step; returns the new (u, h) pair."""
    _check_cfl(g, dt, cfl_safety)
    u_new = np.array(u, dtype=float, order="C")
    _run_ops(_step_ops(u_new, np.array(h, dtype=float, order="C"),
                       np.empty(g.shape), np.empty(g.shape), g, dt))
    _extremes(u_new)
    h_new = h if freeze_h else field_update(h, u_new, th)
    return u_new, h_new


def run(cfg: ScenarioConfig) -> SpaceTimeSolution:
    """Integrate the configured scenario and collect snapshots.

    Snapshots are stored every ``snapshot_stride`` steps plus the final
    step; ``freeze_h`` holds the relay field at its initial state (pure
    heat test mode).
    """
    g = build_grid(cfg)
    dt = cfg.dt
    _check_cfl(g, dt, cfg.cfl_safety)
    th = Thresholds(cfg.alpha, cfg.beta)
    u0, hint = initial_data(cfg, g)
    _run_ops(_pin_ops(u0, g))
    h = field_init(u0, hint, th)

    n_steps = int(round(cfg.T / dt))
    keep = list(range(0, n_steps + 1, cfg.snapshot_stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)

    times = np.array([k * dt for k in keep])
    us = np.empty((len(keep),) + g.shape)
    hs = np.empty((len(keep),) + g.shape, dtype=np.int8)
    u = np.array(u0, dtype=float, order="C")
    us[0], hs[0] = u, h
    hi, lo = _extremes(u)
    sup_m = max(hi, -lo)
    plus, scratch = h == PLUS, np.empty(g.shape, dtype=bool)
    hf = h.astype(float)
    ops = _step_ops(u, hf, np.empty(g.shape), np.empty(g.shape), g, dt)
    live = not cfg.freeze_h
    some_plus = bool(plus.any())
    slot = 1
    for k in range(1, n_steps + 1):
        _run_ops(ops)
        hi, lo = _extremes(u)
        sup_m = max(sup_m, max(hi, -lo))
        if live and (hi >= th.beta or (some_plus and lo <= th.alpha)):
            relay_rule(plus, u, th, scratch)
            np.copyto(hf, plus)
            hf *= 2.0
            hf -= 1.0
            some_plus = bool(plus.any())
        if k == keep[slot]:
            us[slot], hs[slot] = u, hf
            slot += 1

    return SpaceTimeSolution(
        grid=g, thresholds=th, times=times, u=us, h=hs, sup_bound_M=sup_m
    )
