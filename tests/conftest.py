"""Shared fixtures: bundled scenario runs (session-scoped) and oracles,
the scalar relay fold among them."""

import numpy as np
import pytest
from hypothesis import strategies as st

from hysterm.free_boundary import WALL_MIN_STEPS, classify
from hysterm.grid import (
    BC_DIRICHLET,
    BC_NEUMANN,
    Grid,
    SpaceTimeSolution,
    cylinder_slices,
    gradient_norm_sq,
)
from hysterm.presets import bundled_config
from hysterm.relay import Thresholds
from hysterm.solver import run


def relay_init(u0: float, h_hint: int, th: Thresholds) -> int:
    """Initial state of one relay for input value ``u0``.

    Outside the open band the state is forced by the input; inside it the
    prescribed ``h_hint`` selects the branch of the multivalued relation.
    """
    if u0 <= th.alpha:
        return -1
    if u0 >= th.beta:
        return 1
    if h_hint not in (-1, 1):
        raise ValueError(f"h_hint must be -1 or +1, got {h_hint}")
    return h_hint


def relay_step(prev: int, u_new: float, th: Thresholds) -> int:
    """Advance one relay by one sample.

    Pure function of (prev, u_new): lands exactly on a threshold give the
    saturated value even when that repeats the previous state.
    """
    if u_new >= th.beta:
        return 1
    if u_new <= th.alpha:
        return -1
    return prev


def relay_trace(u_samples, h0: int, th: Thresholds) -> np.ndarray:
    """The scalar relay: the left-fold of ``relay_step`` along a sampled
    trajectory, the oracle ``relay.relay_rule`` and ``relay.field_init``
    are held against.

    ``out[0] = relay_step(h0, u_samples[0])``; output length equals input
    length.  Depends only on sample order, not on spacing.
    """
    samples = np.asarray(u_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("u_samples must be non-empty")
    out = np.empty(samples.size, dtype=np.int8)
    h = h0
    for k, u in enumerate(samples):
        h = relay_step(h, u, th)
        out[k] = h
    return out


@pytest.fixture(scope="session")
def oscillator_sol():
    return run(bundled_config("oscillator"))


@pytest.fixture(scope="session")
def oscillator_atlas(oscillator_sol):
    return classify(oscillator_sol)


@pytest.fixture(scope="session")
def gaussian_sol():
    return run(bundled_config("gaussian_bump"))


@pytest.fixture(scope="session")
def gaussian_atlas(gaussian_sol):
    return classify(gaussian_sol)


@pytest.fixture(scope="session")
def plateau_sol():
    return run(bundled_config("plateau"))


@pytest.fixture(scope="session")
def plateau_atlas(plateau_sol):
    return classify(plateau_sol)


@pytest.fixture(scope="session")
def wall_sol():
    return run(bundled_config("two_phase_wall"))


@pytest.fixture(scope="session")
def wall_atlas(wall_sol):
    return classify(wall_sol)


def wall_points(atlas):
    """Gamma_v as events from the face runs: (t_index, idx) of both
    endpoints of every wall face at every snapshot of its run, so a point
    bordering two faces appears once per face."""
    dim = atlas.walls.shape[1] - 3
    ts, idxs = [], []
    for axis, first, last, *face in atlas.walls.tolist():
        other = list(face)
        other[axis] += 1
        for k in range(first, last + 1):
            ts += [k, k]
            idxs += [face, other]
    return (np.array(ts, dtype=np.int64),
            np.array(idxs, dtype=np.int64).reshape(len(ts), dim))


def point_arrays(pts) -> tuple:
    """SpaceTimePoints as the ``(t_index, idx)`` arrays the distances take."""
    return (np.array([p.t_index for p in pts], dtype=np.int64),
            np.array([p.idx for p in pts], dtype=np.int64).reshape(len(pts), -1))


def reference_parabolic_distance(z, S, sol) -> float:
    """The per-point parabolic distance as it stood before the batched one:
    one query ``z`` (a SpaceTimePoint) against ``time_segments`` rows S."""
    cap = sol.r_max()
    k0 = z.t_index
    seg = S[S[:, 0] <= k0]
    if seg.shape[0] == 0:
        return cap
    axes = sol.grid.axes()
    d2 = sum((ax[i] - ax[i0]) ** 2 for ax, i, i0 in zip(axes, seg[:, 2:].T, z.idx))
    lag = sol.times[k0] - sol.times[np.minimum(seg[:, 1], k0)]
    crit = np.maximum(np.sqrt(d2), np.sqrt(lag))
    return float(min(cap, crit.min()))


def reference_jumps(sol) -> tuple:
    """Every relay jump as ``(k, idx, went_up)``, found over the whole stack
    at once as ``classify`` found them before its blocked jump pass."""
    k, *space = np.nonzero(sol.h[1:] != sol.h[:-1])
    went_up = sol.h[(k + 1, *space)] > sol.h[(k, *space)]
    return k, np.stack(space, axis=1), went_up


def reference_walls(sol, level_tol) -> np.ndarray:
    """The wall face runs from one padded activity array per axis of the
    whole run, as ``classify`` built them before its blocked wall pass."""
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
        ua, ub = sol.u[sl_a], sol.u[sl_b]
        padded = np.zeros(ua.shape[1:] + (K + 2,), dtype=bool)
        active = np.moveaxis(padded[..., 1:-1], -1, 0)
        np.not_equal(sol.h[sl_a], sol.h[sl_b], out=active)
        active &= ua > lo
        active &= ua < hi
        active &= ub > lo
        active &= ub < hi
        *face, k = np.nonzero(np.diff(padded, axis=-1))
        first, last = k[0::2], k[1::2] - 1
        keep = last - first + 1 >= WALL_MIN_STEPS
        rows.append(np.column_stack([
            np.full(np.count_nonzero(keep), axis), first[keep], last[keep],
            *(f[0::2][keep] for f in face),
        ]))
    return np.concatenate(rows)


def reference_grad_norm_stack(sol) -> np.ndarray:
    """|Du| at every stored snapshot, in one array of the u stack's size: the
    stack that ``classify`` built and the atlas kept for the diagnostics
    before they took |Du| only at jump snapshots and on growth cylinders."""
    norm = gradient_norm_sq(sol.u, sol.grid)
    return np.sqrt(norm, out=norm)


def reference_sup_grad(sol, z, radii, gn=None) -> list:
    """sup |Du| over the full cylinder of each radius at ``z``, read from
    the whole-run |Du| stack ``gn`` as ``quadratic_growth`` read it then."""
    gn = reference_grad_norm_stack(sol) if gn is None else gn
    sups = []
    for r in radii:
        t, mask = cylinder_slices(sol, z, r, lower_only=False)
        sups.append(float(np.max(gn[t[0]:t[-1] + 1][:, mask])))
    return sups


def reference_osc(sol, z, radii, lower_only) -> list:
    """``np.ptp`` of u over the lower or full cylinder of each radius at
    ``z``, each ball copied out of its slab as ``quadratic_growth`` read it
    before it reduced the slab along time first."""
    osc = []
    for r in radii:
        t, mask = cylinder_slices(sol, z, r, lower_only=lower_only)
        osc.append(float(np.ptp(sol.u[t[0]:t[-1] + 1][:, mask])))
    return osc


@st.composite
def jump_stacks(draw):
    """Random u on uneven snapshot times and a +-1 relay on a small 1D or 2D
    grid, Neumann or Dirichlet.  Each snapshot after the first either keeps
    every state or redraws a drawn share of them, so the jumps come many to
    a snapshot, with jump-free snapshots between."""
    dim = draw(st.sampled_from([1, 2]))
    nx = tuple(draw(st.integers(3, 9)) for _ in range(dim))
    bc = draw(st.sampled_from([BC_NEUMANN, BC_DIRICHLET]))
    K = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    still = draw(st.sampled_from([0.0, 0.5, 0.8]))
    redraw = draw(st.sampled_from([0.1, 0.5, 1.0]))
    h = np.empty((K,) + nx, dtype=np.int8)
    h[0] = rng.choice([-1, 1], size=nx)
    for k in range(1, K):
        flip = rng.random(nx) < (0.0 if rng.random() < still else redraw)
        h[k] = np.where(flip, rng.choice([-1, 1], size=nx), h[k - 1])
    return SpaceTimeSolution(
        grid=Grid(extent=(1.0,) * dim, nx=nx, bc_kind=bc),
        thresholds=Thresholds(0.0, 1.0),
        times=np.concatenate([[0.0], np.cumsum(rng.uniform(0.005, 0.015, K - 1))]),
        u=rng.standard_normal((K,) + nx),
        h=h,
    )


def reference_boundary_distance(sol, z) -> float:
    """The per-point boundary distance as it stood before the batched one."""
    gaps = []
    for ax_len, i, d in zip(sol.grid.extent, z.idx, sol.grid.dx):
        gaps.append(i * d)
        gaps.append(ax_len - i * d)
    t = float(sol.times[z.t_index] - sol.times[0])
    return min(float(min(gaps)), float(np.sqrt(max(t, 0.0))))


def fourier_heat_oracle(x: np.ndarray, t: float, kmax: int = 199) -> np.ndarray:
    """Exact solution of du/dt = u'' + 1 on [0,1], u(0)=u(1)=0, u0=sin(pi x).

    Steady part x(1-x)/2 plus the decaying transient of u0 minus the steady
    part; the steady part's sine coefficients are 4/(k^3 pi^3) for odd k.
    """
    u = x * (1.0 - x) / 2.0 + np.sin(np.pi * x) * np.exp(-np.pi**2 * t)
    for k in range(1, kmax + 1, 2):
        u -= (
            4.0 / (k**3 * np.pi**3)
            * np.sin(k * np.pi * x)
            * np.exp(-(k**2) * np.pi**2 * t)
        )
    return u


def frozen_heat_config(nx: int, dt: float, T: float = 0.1):
    """Frozen-relay scenario realizing du/dt = u'' + 1 with the oracle's data."""
    from hysterm.config import config_from_dict

    return config_from_dict(
        {
            "name": f"frozen_heat_{nx}",
            "dim": 1,
            "extent": [1.0],
            "nx": [nx],
            "dt": dt,
            "T": T,
            "alpha": -1.0,
            "beta": 2.0,
            "bc": {"kind": "dirichlet", "value": 0.0},
            "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
            "freeze_h": True,
        }
    )
