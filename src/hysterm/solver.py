"""Explicit-Euler time integration of du/dt = lap(u) - h coupled to the relay.

The update order is Godunov-style: the field moves first, then the relay
reads the new field.  A +1 relay drives the field down, a -1 relay drives
it up, so the homogeneous dynamics is a sawtooth oscillator between the
thresholds with period 2*(beta - alpha).

No sub-step event location is attempted; switching times carry an O(dt)
error that refinement studies quantify directly.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .errors import CFLError, HystermError
from .grid import BC_DIRICHLET, Grid, SpaceTimeSolution, laplacian
from .presets import build_grid, initial_data
from .relay import Thresholds, field_init, field_update


def cfl_limit(g: Grid) -> float:
    """Largest stable dt for the explicit heat stencil (safety factor 1)."""
    return min(g.dx) ** 2 / (2.0 * g.dim)


def _apply_bc(u: np.ndarray, g: Grid) -> None:
    if g.bc_kind == BC_DIRICHLET:
        if g.dim == 1:
            u[0] = u[-1] = g.bc_value
        else:
            u[0, :] = u[-1, :] = g.bc_value
            u[:, 0] = u[:, -1] = g.bc_value


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
    if dt > cfl_safety * cfl_limit(g):
        raise CFLError(
            f"CFL violated: dt={dt}, need <= {cfl_safety * cfl_limit(g):.6g}"
        )
    u_new = u + dt * (laplacian(u, g) - h)
    _apply_bc(u_new, g)
    if np.isnan(u_new).any():
        raise HystermError("NaN detected in the field update")
    h_new = h if freeze_h else field_update(h, u_new, th)
    return u_new, h_new


def run(cfg: ScenarioConfig) -> SpaceTimeSolution:
    """Integrate the configured scenario and collect snapshots.

    Snapshots are stored every ``snapshot_stride`` steps plus the final
    step; ``freeze_h`` holds the relay field at its initial state (pure
    heat test mode).
    """
    g = build_grid(cfg)
    th = Thresholds(cfg.alpha, cfg.beta)
    u0, hint = initial_data(cfg, g)
    _apply_bc(u0, g)
    h = field_init(u0, hint, th)
    u = u0.astype(float)

    n_steps = int(round(cfg.T / cfg.dt))
    stride = cfg.snapshot_stride
    keep = [k for k in range(0, n_steps + 1, stride)]
    if keep[-1] != n_steps:
        keep.append(n_steps)
    keep_set = set(keep)

    times = np.array([k * cfg.dt for k in keep])
    us = np.empty((len(keep),) + g.shape)
    hs = np.empty((len(keep),) + g.shape, dtype=np.int8)
    us[0], hs[0] = u, h
    sup_m = float(np.abs(u).max())

    slot = 1
    for k in range(1, n_steps + 1):
        u, h = step(u, h, g, cfg.dt, th, cfg.cfl_safety, cfg.freeze_h)
        sup_m = max(sup_m, float(np.abs(u).max()))
        if k in keep_set:
            us[slot], hs[slot] = u, h
            slot += 1

    return SpaceTimeSolution(
        grid=g, thresholds=th, times=times, u=us, h=hs, sup_bound_M=sup_m
    )

