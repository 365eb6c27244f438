"""Scenario configuration: strict JSON schema, validation, round-trip.

Unknown keys are fatal so that programmatic sweeps catch typos.  All
validation failures raise :class:`ConfigError` naming the violated
invariant; nothing is truncated or coerced.  The ``Grid`` and ``Thresholds``
built here check their own invariants, ``grid.check_cfl`` the time step.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .grid import BC_NEUMANN, Grid, check_cfl
from .relay import Thresholds

PRESET_KINDS = {
    "homogeneous": {"u0", "h0"},
    "sine": {"amplitude", "modes", "h0"},
    "gaussian_bump": {"amplitude", "width", "center", "base", "h0"},
    "plateau": {"level", "curvature", "h0"},
    "two_phase_wall": {"u0", "wall_position"},
}

_PRESET_DEFAULTS = {
    "sine": {"h0": -1},
}

_BC_KEYS = {"kind", "value"}

# relative slack of T / dt against a whole step count: float rounding only
_STEP_SLACK = 1e-12


@dataclass
class ScenarioConfig:
    name: str
    dim: int
    extent: tuple
    nx: tuple
    dt: float
    T: float
    alpha: float
    beta: float
    bc: dict = field(default_factory=lambda: {"kind": BC_NEUMANN})
    preset: dict = field(default_factory=dict)
    snapshot_stride: int = 1
    freeze_h: bool = False
    cfl_safety: float = 0.9
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        validate_config(self)
        self.extent = tuple(float(e) for e in self.extent)
        self.nx = tuple(int(n) for n in self.nx)

    def to_dict(self) -> dict:
        """The fields in declaration order, as the config JSON holds them."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def build_grid(cfg: ScenarioConfig) -> Grid:
    """The grid of a config; ``Grid`` checks its geometry and bc kind."""
    return Grid(cfg.extent, cfg.nx, bc_kind=cfg.bc.get("kind"),
                bc_value=float(cfg.bc.get("value", 0.0)))


def _plain(value):
    """A field value with tuples as lists and dicts copied."""
    if isinstance(value, tuple):
        return list(value)
    return dict(value) if isinstance(value, dict) else value


_TOP_KEYS = {f.name for f in fields(ScenarioConfig)}


def whole_steps(T: float, dt: float) -> int | None:
    """T / dt when it is a positive whole number up to float rounding."""
    ratio = T / dt
    if not (math.isfinite(ratio) and ratio >= 0.5):
        return None
    n = round(ratio)
    return n if abs(ratio - n) <= _STEP_SLACK * n else None


_INT_KEYS = ("dim", "nx", "snapshot_stride", "seed", "preset.h0", "preset.modes")


def _check_numbers(values: dict) -> None:
    """Integer keys hold integers, the others finite numbers; no bools."""
    for key, v in values.items():
        integer = key.split("[")[0] in _INT_KEYS
        if isinstance(v, bool) or not (
            isinstance(v, numbers.Integral) if integer
            else isinstance(v, numbers.Real) and math.isfinite(v)
        ):
            need = "an integer" if integer else "a finite number"
            raise ConfigError(f"{key} must be {need}, got {v!r}")


def validate_config(cfg: ScenarioConfig) -> None:
    _check_numbers({
        "dim": cfg.dim, "snapshot_stride": cfg.snapshot_stride, "seed": cfg.seed,
        "dt": cfg.dt, "T": cfg.T, "alpha": cfg.alpha, "beta": cfg.beta,
        "cfl_safety": cfg.cfl_safety,
        **{f"nx[{i}]": n for i, n in enumerate(cfg.nx)},
        **{f"extent[{i}]": e for i, e in enumerate(cfg.extent)},
        **{f"bc.{k}": v for k, v in cfg.bc.items() if k == "value"},
    })
    if not isinstance(cfg.freeze_h, bool):
        raise ConfigError(f"freeze_h must be true or false, got {cfg.freeze_h!r}")
    if len(cfg.extent) != cfg.dim or len(cfg.nx) != cfg.dim:
        raise ConfigError("extent and nx must have length dim")
    try:
        grid = build_grid(cfg)
        Thresholds(cfg.alpha, cfg.beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.T <= 0:
        raise ConfigError(f"T must be positive, got {cfg.T}")
    if cfg.dt <= 0:
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    if whole_steps(cfg.T, cfg.dt) is None:
        raise ConfigError(
            f"T={cfg.T} is not a whole multiple of dt={cfg.dt}"
        )
    if not 0 < cfg.cfl_safety <= 1:
        raise ConfigError(f"cfl_safety must be in ]0,1], got {cfg.cfl_safety}")
    check_cfl(grid, cfg.dt, cfg.cfl_safety)
    if cfg.snapshot_stride < 1:
        raise ConfigError("snapshot_stride must be >= 1")
    extra_bc = set(cfg.bc) - _BC_KEYS
    if extra_bc:
        raise ConfigError(f"unknown bc keys: {sorted(extra_bc)}")
    _validate_preset(cfg)


def _validate_preset(cfg: ScenarioConfig) -> None:
    preset = cfg.preset
    kind = preset.get("kind")
    if kind not in PRESET_KINDS:
        raise ConfigError(
            f"unknown preset {kind!r}; known: {sorted(PRESET_KINDS)}"
        )
    allowed = PRESET_KINDS[kind] | {"kind"}
    extra = set(preset) - allowed
    if extra:
        raise ConfigError(f"unknown preset keys for {kind}: {sorted(extra)}")
    defaults = _PRESET_DEFAULTS.get(kind, {})
    missing = PRESET_KINDS[kind] - set(preset) - set(defaults)
    if missing:
        raise ConfigError(f"preset {kind} missing keys: {sorted(missing)}")
    for key, val in defaults.items():
        preset.setdefault(key, val)
    _check_numbers({
        f"preset.{k}": v for k, v in preset.items() if k not in ("kind", "center")
    } | {f"preset.center[{i}]": c for i, c in enumerate(preset.get("center", ()))})
    if kind == "gaussian_bump" and len(preset["center"]) != cfg.dim:
        raise ConfigError("gaussian_bump center must have dim components")
    if kind == "gaussian_bump" and preset["width"] <= 0:
        raise ConfigError("gaussian_bump width must be positive")
    inside = lambda v: cfg.alpha < v < cfg.beta
    if kind == "two_phase_wall" and not inside(preset["u0"]):
        raise ConfigError(
            "two_phase_wall u0 must lie strictly inside ]alpha, beta["
        )
    if kind == "plateau" and not inside(preset["level"]):
        raise ConfigError("plateau level must lie strictly inside ]alpha, beta[")
    if "h0" in PRESET_KINDS[kind] and preset["h0"] not in (-1, 1):
        raise ConfigError(f"preset h0 must be -1 or +1, got {preset['h0']}")


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    # preset has a default factory but no default preset is valid
    required = {"name", "dim", "extent", "nx", "dt", "T", "alpha", "beta",
                "preset"}
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        return ScenarioConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return config_from_dict(data)
