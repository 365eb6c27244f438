"""Benchmark workloads: scenario generation from a seed, the CLI command
sequence each repetition runs, and the checks on its outputs.

Seed 0 reproduces the bundled scenarios exactly (the oscillator with a
shorter ``T``, so that a sweep repetition takes seconds, not minutes); other
seeds jitter the scenario parameters in ways that keep each workload in its
regime and its amount of work nearly constant.  The program
receives only the generated config.

The checks read the run directories with their own parsers and digests, not
with the program's loaders, and run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Bundled scenarios at the commit that defined the benchmark (they are
# copied, not imported, so that the benchmark's inputs cannot drift with the
# program).
OSCILLATOR = {
    "name": "oscillator", "dim": 1, "extent": [1.0], "nx": [11], "dt": 1e-3,
    "T": 10.0, "alpha": 0.0, "beta": 1.0, "bc": {"kind": "neumann"},
    "preset": {"kind": "homogeneous", "u0": 0.5, "h0": 1},
}
PLATEAU = {
    "name": "plateau", "dim": 1, "extent": [2.0], "nx": [201], "dt": 4e-5,
    "T": 0.6, "alpha": 0.0, "beta": 1.0, "bc": {"kind": "neumann"},
    "snapshot_stride": 5,
    "preset": {"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
}
# The two fixed 2D scenarios.  heat_2d: 10,000 steps on 81x81 whose initial
# sine crosses beta and later decays through alpha, 21 snapshots.
HEAT_2D = {
    "name": "heat_2d", "dim": 2, "extent": [1.0, 1.0], "nx": [81, 81],
    "dt": 3e-5, "T": 0.3, "alpha": 0.25, "beta": 0.75,
    "bc": {"kind": "dirichlet", "value": 0.0}, "snapshot_stride": 500,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}
# levelsets_2d: 21x21, 31 snapshots, both threshold level sets populated so
# that the default-tolerance separation check compares about 1e7 point pairs
# (a few hundred MiB at peak; 5e7 pairs would need about 2.3 GB).
LEVELSETS_2D = {
    "name": "levelsets_2d", "dim": 2, "extent": [1.0, 1.0], "nx": [21, 21],
    "dt": 5e-4, "T": 0.075, "alpha": 0.2, "beta": 0.7,
    "bc": {"kind": "dirichlet", "value": 0.0}, "snapshot_stride": 5,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}

OSCILLATOR_T = 3.0
SWEEP_MEMBERS = 2
# heat_2d has no analysis step; its outputs are classified once per
# benchmark run with an explicit level tolerance, because the default one
# makes the separation check compare billions of pairs on this run.
HEAT_CHECK_LEVEL_TOL = "0.01"

# Free-boundary counts and separation at seed 0, pinned from the commit
# that defined the benchmark.
PINNED = {
    "plateau_walls": {
        "counts": {"gamma_alpha": 119, "gamma_beta": 0, "gamma_v": 52184,
                   "gamma_0": 119, "gamma_star": 0},
        "separation": 2.0,
    },
    "heat_2d": {
        "counts": {"gamma_alpha": 1093, "gamma_beta": 0, "gamma_v": 888,
                   "gamma_0": 21, "gamma_star": 1072},
        "separation": 0.1629800601300662,
    },
    "levelsets_2d": {
        "counts": {"gamma_alpha": 52, "gamma_beta": 0, "gamma_v": 64,
                   "gamma_0": 16, "gamma_star": 36},
        "separation": 0.04999999999999999,
    },
}
COUNT_KEYS = ("gamma_alpha", "gamma_beta", "gamma_v", "gamma_0", "gamma_star")


@dataclass
class Workload:
    """What one benchmark run executes.

    ``prepare`` runs once, untimed, in ``input/``; ``commands`` run in every
    repetition, timed, in a fresh copy of ``input/``.  ``{config}`` in an
    argument stands for the path of the generated config.
    """

    name: str
    seed: int
    config: dict
    commands: list
    prepare: list = field(default_factory=list)
    values: list = field(default_factory=list)

    @property
    def ops_per_rep(self) -> int:
        return len(self.values) if self.values else len(self.commands)


def _jitter(rng: random.Random, seed: int, value: float, rel: float) -> float:
    """``value`` at seed 0, else scaled by a factor in [1 - rel, 1 + rel]."""
    if seed == 0:
        return value
    return round(value * (1.0 + rel * rng.uniform(-1.0, 1.0)), 6)


def _copy(d: dict) -> dict:
    return json.loads(json.dumps(d))


def make(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "oscillator_sweep":
        cfg = _copy(OSCILLATOR)
        cfg["T"] = OSCILLATOR_T
        values = [round(rng.uniform(0.1, 0.9), 4) for _ in range(SWEEP_MEMBERS)]
        argv = ["sweep", "{config}", "--param", "/preset/u0",
                "--values", ",".join(repr(v) for v in values)]
        return Workload(name, seed, cfg, [argv], values=values)
    if name == "plateau_walls":
        # The wall count swings by 50 % under a 2 % change of the plateau's
        # shape, so seeds shift u, alpha and beta together instead: the
        # dynamics only sees u relative to the thresholds, and the wall
        # count stays 52,184 while every stored value changes.  The offsets
        # keep u (0 to 0.35 here) inside [0.5, 1), one binade, so that the
        # shortest decimal forms, and the bytes on disk, keep their length.
        cfg = _copy(PLATEAU)
        offset = 0.0 if seed == 0 else round(rng.uniform(0.52, 0.62), 4)
        cfg["alpha"] = round(cfg["alpha"] + offset, 6)
        cfg["beta"] = round(cfg["beta"] + offset, 6)
        cfg["preset"]["level"] = round(cfg["preset"]["level"] + offset, 6)
        run_dir = f"runs/{cfg['name']}"
        return Workload(name, seed, cfg, [["run", "{config}"], ["analyze", run_dir]])
    if name == "heat_2d":
        cfg = _copy(HEAT_2D)
        cfg["preset"]["amplitude"] = _jitter(rng, seed, cfg["preset"]["amplitude"], 0.02)
        return Workload(name, seed, cfg, [["run", "{config}"]])
    if name == "levelsets_2d":
        cfg = _copy(LEVELSETS_2D)
        # a larger jitter moves the pair count and with it the peak memory
        cfg["preset"]["amplitude"] = _jitter(rng, seed, cfg["preset"]["amplitude"], 0.005)
        run_dir = f"runs/{cfg['name']}"
        return Workload(name, seed, cfg, [["analyze", run_dir]],
                        prepare=[["run", "{config}"]])
    raise KeyError(name)


NAMES = ("oscillator_sweep", "plateau_walls", "heat_2d", "levelsets_2d")


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is
# correct


def verify_digests(run_dir: Path) -> list:
    """Every file listed in ``manifest.json`` exists and has its sha256."""
    path = run_dir / "manifest.json"
    if not path.is_file():
        return [f"{run_dir.name}: no manifest.json"]
    manifest = json.loads(path.read_text())
    problems = []
    for name, digest in manifest.get("files", {}).items():
        f = run_dir / name
        if not f.is_file():
            problems.append(f"{run_dir.name}: {name} listed but missing")
        elif hashlib.sha256(f.read_bytes()).hexdigest() != digest:
            problems.append(f"{run_dir.name}: digest mismatch for {name}")
    n = manifest.get("num_snapshots")
    found = len(list(run_dir.glob("u_*.csv")))
    if n != found:
        problems.append(f"{run_dir.name}: manifest says {n} snapshots, found {found}")
    return problems


def read_snapshot(path: Path) -> tuple:
    """(t, rows) of one snapshot CSV: a ``# t=`` line, then rows of floats."""
    lines = path.read_text().split("\n")
    if not lines[0].startswith("# t="):
        raise ValueError(f"{path.name}: no '# t=' header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return float(lines[0][4:]), rows


def oscillator_period_problems(run_dir: Path, cfg: dict) -> list:
    """The relay at the middle cell switches with period 2*(beta - alpha)
    within 2*dt, measured between switches in the same direction.  The
    stored times are multiples of dt rounded to doubles, so the comparison
    allows their rounding error on top of 2*dt."""
    mid = cfg["nx"][0] // 2
    expected = 2.0 * (cfg["beta"] - cfg["alpha"])
    tol = 2.0 * cfg["dt"] + 1e-9 * expected
    switches = {+1: [], -1: []}
    prev = None
    for path in sorted(run_dir.glob("h_*.csv")):
        t, rows = read_snapshot(path)
        h = rows[0][mid]
        if prev is not None and h != prev:
            switches[1 if h > prev else -1].append(t)
        prev = h
    periods = [b - a for times in switches.values() for a, b in zip(times, times[1:])]
    if not periods:
        return [f"{run_dir.name}: no full relay period in the run"]
    return [
        f"{run_dir.name}: period {p!r} differs from {expected!r} by more than {tol!r}"
        for p in periods if abs(p - expected) > tol
    ]


def relay_state_problems(run_dir: Path, cfg: dict) -> list:
    """In every snapshot the relay is +1 where u >= beta and -1 where u <= alpha."""
    problems = []
    for up in sorted(run_dir.glob("u_*.csv")):
        _, u = read_snapshot(up)
        _, h = read_snapshot(run_dir / ("h_" + up.name[2:]))
        for urow, hrow in zip(u, h):
            for uv, hv in zip(urow, hrow):
                if (uv >= cfg["beta"] and hv != 1) or (uv <= cfg["alpha"] and hv != -1):
                    problems.append(f"{up.name}: relay {hv} at u={uv!r}")
                    return problems
    return problems


def summary_problems(run_dir: Path, workload: str, seed: int) -> list:
    """``summary.json`` has every class count, the jump events split
    exactly into degenerate and non-degenerate ones, and at seed 0 the counts
    and separation equal the pinned values."""
    path = run_dir / "summary.json"
    if not path.is_file():
        return [f"{run_dir.name}: no summary.json"]
    summary = json.loads(path.read_text())
    counts = summary.get("counts", {})
    missing = [k for k in COUNT_KEYS if k not in counts]
    if missing:
        return [f"{run_dir.name}: summary counts lack {missing}"]
    problems = []
    if counts["gamma_0"] + counts["gamma_star"] != counts["gamma_alpha"] + counts["gamma_beta"]:
        problems.append(f"{run_dir.name}: degenerate split does not add up: {counts}")
    pinned = PINNED.get(workload)
    if seed == 0 and pinned is not None:
        got = {k: counts[k] for k in COUNT_KEYS}
        if got != pinned["counts"]:
            problems.append(f"{run_dir.name}: counts {got} != pinned {pinned['counts']}")
        sep = summary.get("separation")
        want = pinned["separation"]
        if not (isinstance(sep, (int, float)) and math.isclose(sep, want, rel_tol=1e-9)):
            problems.append(f"{run_dir.name}: separation {sep!r} != pinned {want!r}")
    return problems


def sweep_rows(out_root: Path) -> dict:
    """Sweep summary rows keyed by member directory name."""
    path = out_root / "sweep_summary.csv"
    if not path.is_file():
        return {}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {f"v{i:03d}": row for i, row in enumerate(rows)}
