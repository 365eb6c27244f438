"""Initial data families for the simulator.

Each preset builds (u0, h_hint) on a grid.  The hint selects the relay
branch only where the initial value lies strictly inside the band; outside
it the relay state is forced by the value itself.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError
from .grid import Grid


#: Tuned scenario dictionaries exercising each free-boundary regime:
#: an exact relay oscillator, a diffusion-flattened bump that crosses the
#: upper threshold without forming walls, a plateau whose degenerate vertex
#: seeds a stalling front, and a seeded permanent vertical wall.
BUNDLED = {
    "oscillator": {
        "name": "oscillator",
        "dim": 1,
        "extent": [1.0],
        "nx": [11],
        "dt": 1e-3,
        "T": 10.0,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "preset": {"kind": "homogeneous", "u0": 0.5, "h0": 1},
    },
    "gaussian_bump": {
        "name": "gaussian_bump",
        "dim": 1,
        "extent": [1.0],
        "nx": [101],
        "dt": 4e-5,
        "T": 0.5,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "snapshot_stride": 5,
        "preset": {
            "kind": "gaussian_bump",
            "base": 0.4,
            "amplitude": 0.5,
            "width": 0.15,
            "center": [0.5],
            "h0": -1,
        },
    },
    "plateau": {
        "name": "plateau",
        "dim": 1,
        "extent": [2.0],
        "nx": [201],
        "dt": 4e-5,
        "T": 0.6,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "snapshot_stride": 5,
        "preset": {"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
    },
    "two_phase_wall": {
        "name": "two_phase_wall",
        "dim": 1,
        "extent": [1.0],
        "nx": [101],
        "dt": 4e-5,
        "T": 0.25,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "snapshot_stride": 5,
        "preset": {"kind": "two_phase_wall", "u0": 0.5, "wall_position": 0.5},
    },
}


def bundled_config(name: str, **overrides) -> ScenarioConfig:
    """One of the tuned bundled scenarios, optionally with overrides."""
    from .config import config_from_dict

    if name not in BUNDLED:
        raise ConfigError(f"unknown bundled scenario {name!r}; known: {sorted(BUNDLED)}")
    data = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
            for k, v in BUNDLED[name].items()}
    data.update(overrides)
    return config_from_dict(data)


def initial_data(cfg: ScenarioConfig, g: Grid):
    """Returns (u0 field, h_hint) for the configured preset: the hint is the
    preset's ``h0``, a scalar, or for ``two_phase_wall`` a field; see
    ``relay.field_init``."""
    p = cfg.preset
    kind = p["kind"]
    xs = g.mesh()
    if kind == "homogeneous":
        u0 = np.full(g.shape, float(p["u0"]))
    elif kind == "sine":
        u0 = float(p["amplitude"]) * np.ones(g.shape)
        for x, e in zip(xs, g.extent):
            u0 = u0 * np.sin(np.pi * int(p["modes"]) * x / e)
    elif kind == "gaussian_bump":
        w = float(p["width"])
        d2 = sum((x - c) ** 2 for x, c in zip(xs, p["center"]))
        u0 = float(p["base"]) + float(p["amplitude"]) * np.exp(
            -d2 / (2.0 * w * w)
        )
    elif kind == "plateau":
        center = [e / 2.0 for e in g.extent]
        d2 = sum((x - c) ** 2 for x, c in zip(xs, center))
        u0 = float(p["level"]) + float(p["curvature"]) * d2
    else:  # two_phase_wall, the last kind config.PRESET_KINDS admits
        u0 = np.full(g.shape, float(p["u0"]))
        return u0, np.where(xs[0] < float(p["wall_position"]), -1, 1).astype(np.int8)
    return u0, int(p["h0"])
