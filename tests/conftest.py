"""Shared fixtures: bundled scenario runs (session-scoped) and oracles."""

import numpy as np
import pytest

from hysterm.free_boundary import classify
from hysterm.presets import bundled_config
from hysterm.solver import run


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
