"""Explicit-Euler time integration of du/dt = lap(u) - h coupled to the relay.

The update order is Godunov-style: the field moves first, then the relay
reads the new field.  A +1 relay drives the field down, a -1 relay drives
it up, so the homogeneous dynamics is a sawtooth oscillator between the
thresholds with period 2*(beta - alpha).

``run`` integrates in place.  It checks the CFL bound once, allocates its
buffers once and builds the calls of one Euler step once, over fixed views
(``_step_ops``): ``2*u``, each axis's ``grid._second_sum_ops`` less ``2*u``
times ``r_a = dt/dx_a**2``, then ``u + (sum - dt*h)``; ``dt*h`` is rebuilt
only when the relay runs.  A Dirichlet step updates the flat range of the
nodes strictly inside, so it reads no scratch entry the step did not
write, and re-pins the faces that ``_pin_ops`` names.
The ``max``/``min`` pair taken after each step gives ``sup_bound_M``,
catches NaN (numpy's max propagates it) and gates the relay: a state turns
+1 only where ``u >= beta`` and -1 only where it is +1 and ``u <= alpha``,
so while ``max u < beta`` and either no state is +1 or ``min u > alpha``,
``relay.relay_rule`` would change nothing and is skipped.  ``step`` runs
the same calls once.  Every operation commutes with the mirror, the
negation and, on square grids, the swap of the axes, so a mapped input
gives the mapped run bit for bit.

No sub-step event location is attempted; switching times carry an O(dt)
error that refinement studies quantify directly.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig, build_grid
from .errors import HystermError
from .grid import (BC_DIRICHLET, Grid, SpaceTimeSolution, _run_ops,
                   _second_sum_ops, check_cfl)
from .presets import initial_data
from .relay import PLUS, Thresholds, field_init, field_update, relay_rule


def _pin_ops(u: np.ndarray, g: Grid) -> list:
    """Calls that write the Dirichlet value on every face of ``u``, one
    strided ``fill`` per axis in axis order; none under Neumann.  The
    ``_step_ops`` update never writes the faces of axis 0, so its list
    holds only the other axes' pins (``[1:]``); ``run`` pins axis 0 once
    before its loop, ``step`` after the list (``[:1]``)."""
    if g.bc_kind != BC_DIRICHLET:
        return []
    return [(u[(slice(None),) * a + (slice(None, None, n - 1),)].fill, (g.bc_value,))
            for a, n in enumerate(g.shape)]


def _step_ops(u, hdt, scratch, g: Grid, dt: float) -> list:
    """The calls ``(callable, args)`` of ``u <- u + (sum_a r_a*((u[i+1] +
    u[i-1]) - 2u) - hdt)`` with ``r_a = dt/dx_a**2``, in place, over fixed
    views of C-contiguous arrays; ``hdt`` holds ``dt*h``, ``scratch``
    (``1 + dim`` arrays) ``2.0*u`` and then each axis's sum; see
    ``_pin_ops`` for the faces it pins."""
    twice, sums = scratch[0], scratch[1:]
    inside = slice(None)
    if g.bc_kind == BC_DIRICHLET:  # first to last node strictly inside
        k = sum(math.prod(g.shape[a + 1:]) for a in range(g.dim))
        inside = slice(k, -k)
    T, H, U, *S = (x.reshape(-1)[inside] for x in (twice, hdt, u, *sums))
    ops = [(np.multiply, (u, 2.0, twice))]
    for a, d in enumerate(g.dx):
        ops += _second_sum_ops(u, a, g, sums[a])
        ops += [(np.subtract, (S[a], T, S[a])),
                (np.multiply, (S[a], dt / (d * d), S[a]))]
    if g.dim == 2:
        ops.append((np.add, (S[0], S[1], S[0])))
    ops += [(np.subtract, (S[0], H, S[0])), (np.add, (U, S[0], U))]
    return ops + _pin_ops(u, g)[1:]


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
    check_cfl(g, dt, cfl_safety)
    u_new = np.array(u, dtype=float, order="C")
    scratch = np.empty((1 + g.dim,) + g.shape)
    _run_ops(_step_ops(u_new, np.multiply(h, dt), scratch, g, dt))
    _run_ops(_pin_ops(u_new, g)[:1])
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
    check_cfl(g, dt, cfg.cfl_safety)
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
    hdt = np.multiply(h, dt)
    ops = _step_ops(u, hdt, np.empty((1 + g.dim,) + g.shape), g, dt)
    live = not cfg.freeze_h
    some_plus = bool(plus.any())
    slot = 1
    for k in range(1, n_steps + 1):
        _run_ops(ops)
        hi, lo = _extremes(u)
        sup_m = max(sup_m, max(hi, -lo))
        if live and (hi >= th.beta or (some_plus and lo <= th.alpha)):
            relay_rule(plus, u, th, scratch)
            np.copyto(hdt, plus)
            hdt *= 2.0 * dt
            hdt -= dt
            some_plus = bool(plus.any())
        if k == keep[slot]:
            us[slot], hs[slot] = u, plus
            hs[slot] *= 2
            hs[slot] -= 1
            slot += 1

    return SpaceTimeSolution(
        grid=g, thresholds=th, times=times, u=us, h=hs, sup_bound_M=sup_m
    )
