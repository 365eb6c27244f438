"""hysterm: relay-hysteresis heat equation simulator and regularity diagnostics."""

__version__ = "0.1.0"

from .config import ScenarioConfig, load_config
from .errors import (
    CFLError,
    ConfigError,
    DataIntegrityError,
    DiagnosticError,
    HystermError,
)
from .grid import Grid, SpaceTimePoint, SpaceTimeSolution
from .relay import Thresholds
from .reports import save_config

__all__ = [
    "__version__",
    "ScenarioConfig",
    "load_config",
    "save_config",
    "Grid",
    "SpaceTimePoint",
    "SpaceTimeSolution",
    "Thresholds",
    "HystermError",
    "ConfigError",
    "CFLError",
    "DataIntegrityError",
    "DiagnosticError",
]
