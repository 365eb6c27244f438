"""Explicit-Euler time integration of du/dt = lap(u) - h coupled to the relay.

The update order is Godunov-style: the field moves first, then the relay
reads the new field.  A +1 relay drives the field down, a -1 relay drives
it up, so the homogeneous dynamics is a sawtooth oscillator between the
thresholds with period 2*(beta - alpha).

``run`` integrates in place.  It checks the CFL bound once and allocates
its buffers once: the field, a Laplacian and a work buffer, the relay's
boolean states and their ±1 float copy for the ``- h`` term.  Each step
makes one ``grid._second_diff`` pass per axis, the Euler update with the
Dirichlet values re-pinned, one ``max``/``min`` pair for the running
``sup_bound_M`` (numpy's max propagates NaN, so a NaN field is caught
there) and one ``relay.relay_rule``; int8 relay values are written only at
stored snapshots.  ``step`` is the checked single step on the same kernel.
The operations and their order are those of ``u + dt*(laplacian(u) - h)``,
so the results are bitwise those of that expression.

No sub-step event location is attempted; switching times carry an O(dt)
error that refinement studies quantify directly.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig
from .errors import CFLError, HystermError
from .grid import BC_DIRICHLET, Grid, SpaceTimeSolution, _second_diff
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


def _apply_bc(u: np.ndarray, g: Grid) -> None:
    if g.bc_kind == BC_DIRICHLET:
        if g.dim == 1:
            u[0] = u[-1] = g.bc_value
        else:
            u[0, :] = u[-1, :] = g.bc_value
            u[:, 0] = u[:, -1] = g.bc_value


def _advance(u, hf, lap, work, g: Grid, dt: float) -> None:
    """``u <- u + dt * (laplacian(u) - hf)`` in place, boundary re-pinned;
    ``lap`` and ``work`` are field-sized scratch buffers."""
    _second_diff(u, 0, g.dx[0], g, lap)
    for axis in range(1, g.dim):
        lap += _second_diff(u, axis, g.dx[axis], g, work)
    np.subtract(lap, hf, out=work)
    work *= dt
    u += work
    _apply_bc(u, g)


def _sup_abs(u: np.ndarray) -> float:
    """``max |u|`` as ``max(u.max(), -u.min())``; raises on NaN, which
    numpy's max propagates."""
    hi, lo = u.max(), u.min()
    if math.isnan(hi):
        raise HystermError("NaN detected in the field update")
    return float(max(hi, -lo))


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
    u_new = np.array(u, dtype=float)
    _advance(u_new, h.astype(float), np.empty_like(u_new), np.empty_like(u_new),
             g, dt)
    _sup_abs(u_new)
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
    _apply_bc(u0, g)
    h = field_init(u0, hint, th)

    n_steps = int(round(cfg.T / dt))
    keep = list(range(0, n_steps + 1, cfg.snapshot_stride))
    if keep[-1] != n_steps:
        keep.append(n_steps)

    times = np.array([k * dt for k in keep])
    us = np.empty((len(keep),) + g.shape)
    hs = np.empty((len(keep),) + g.shape, dtype=np.int8)
    u = np.array(u0, dtype=float)
    us[0], hs[0] = u, h
    sup_m = _sup_abs(u)
    lap, work = np.empty_like(u), np.empty_like(u)
    plus, scratch = h == PLUS, np.empty(g.shape, dtype=bool)
    hf = h.astype(float)
    freeze_h = cfg.freeze_h
    slot = 1
    for k in range(1, n_steps + 1):
        _advance(u, hf, lap, work, g, dt)
        sup_m = max(sup_m, _sup_abs(u))
        if not freeze_h:
            relay_rule(plus, u, th, scratch)
            np.copyto(hf, plus)
            hf *= 2.0
            hf -= 1.0
        if k == keep[slot]:
            us[slot], hs[slot] = u, hf
            slot += 1

    return SpaceTimeSolution(
        grid=g, thresholds=th, times=times, u=us, h=hs, sup_bound_M=sup_m
    )
