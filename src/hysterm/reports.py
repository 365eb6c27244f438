"""Every file hysterm writes: run persistence and analysis reports.

A run directory holds the scenario config, one CSV pair per stored
snapshot (``u_XXXXXX.csv``, ``h_XXXXXX.csv``), 8-bit PGM heatmaps of the
final slices, and ``manifest.json`` with a sha256 digest of each of these
files, taken from the bytes as they are written.  u snapshots hold shortest
round-trip decimals and h snapshots the integers -1/1 (older ``-1.0``/``1.0``
files load too), so reloading is loss-free and reruns are byte-identical.

Analysis reconstructs the solution from disk (verifying digests), runs the
free-boundary classification and the diagnostics, and writes the jump
events (``atlas.csv``), the wall face runs (``walls.csv``), one CSV per
diagnostic and ``summary.json`` with the empirical constants.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, build_grid, config_from_dict
from .errors import ConfigError, DataIntegrityError
from .free_boundary import (WALL_MIN_STEPS, FreeBoundaryAtlas, classify,
                            separation_check)
from .grid import SpaceTimeSolution
from .relay import Thresholds

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
MANIFEST_KEYS = {"config": dict, "files": dict, "num_snapshots": int,
                 "sup_bound_M": (int, float)}
SNAPSHOT_NAME = re.compile(r"[uh]_(\d{6})\.csv")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def _write(path, data: bytes) -> str:
    """Write ``data`` to ``path``; returns its sha256, taken from memory."""
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def save_config(cfg: ScenarioConfig, path) -> str:
    """Write the config as indented JSON; returns the file's sha256."""
    return _write(path, _json_bytes(cfg.to_dict()))


# ---------------------------------------------------------------------------
# snapshot CSV


def write_snapshot_csv(path, f: np.ndarray, t: float) -> str:
    """``# t=<time>`` comment line, then one row per grid row; returns the sha256.
    Integer arrays are written as integers, any other as float64, by ``repr``."""
    # a row at a time, as Python numbers and then as bytes: the file's text
    # exists once, as the lines, before they are joined
    dtype = f.dtype if np.issubdtype(f.dtype, np.integer) else float
    rows = (row.astype(dtype, copy=False).tolist() for row in np.atleast_2d(f))
    lines = [f"# t={float(t)!r}\n".encode()]
    lines += ((",".join(map(repr, row)) + "\n").encode() for row in rows)
    return _write(path, b"".join(lines))


def _parse_snapshot(data: bytes, name) -> tuple:
    """(t, array) of one snapshot file's bytes; ``name`` labels errors."""
    try:
        lines = data.decode().strip().splitlines()
        if not lines or not lines[0].startswith("# t="):
            raise DataIntegrityError(f"missing '# t=' header in {name}")
        t = float(lines[0][4:])
        tokens = [line.split(",") for line in lines[1:]]
        if not tokens or len({len(row) for row in tokens}) > 1:
            raise DataIntegrityError(f"malformed snapshot {name}: no rows or "
                                     f"rows of unequal length")
        arr = np.array(tokens, dtype=float)
    except ValueError as exc:
        raise DataIntegrityError(f"malformed snapshot {name}: {exc}") from exc
    return t, arr[0] if len(arr) == 1 else arr


def read_snapshot_csv(path) -> tuple:
    """Returns (t, array); the array is 1D or 2D per the row layout."""
    return _parse_snapshot(Path(path).read_bytes(), path)


# ---------------------------------------------------------------------------
# PGM


def write_pgm(path, f: np.ndarray) -> str:
    """Binary (P5) PGM; linear scaling of [min, max] to [0, 255], row-major;
    returns the sha256."""
    img = np.atleast_2d(np.asarray(f, dtype=float))
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return _write(path, header + data.tobytes())


# ---------------------------------------------------------------------------
# manifest


def load_manifest(run_dir) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise DataIntegrityError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataIntegrityError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataIntegrityError(f"manifest {path} is not a JSON object")
    bad = [k for k, t in MANIFEST_KEYS.items()
           if not isinstance(manifest.get(k), t) or isinstance(manifest[k], bool)]
    if bad:
        raise DataIntegrityError(f"manifest {path} lacks a valid {', '.join(bad)}")
    n, files = manifest["num_snapshots"], manifest["files"]
    if not 2 <= n <= len(files) // 2:
        raise DataIntegrityError(
            f"manifest {path} has num_snapshots {n}, needs at least 2 and a "
            f"u and an h file listed for each"
        )
    # checked by index: the names are unique, so with none beyond n, 2n
    # snapshot names are every u and h file of snapshots 0 .. n-1
    listed, beyond = 0, []
    for name in files:
        match = SNAPSHOT_NAME.fullmatch(name)
        if match:
            listed += 1
            if int(match[1]) >= n:
                beyond.append(name)
    if beyond or listed != 2 * n:
        missing = [name for name in (f"{kind}_{k:06d}.csv" for kind in "hu"
                                     for k in range(n)) if name not in files]
        raise DataIntegrityError(
            f"manifest {path} does not list the snapshot files of num_snapshots "
            f"{n}: missing {missing[:3]}, beyond {sorted(beyond)[:3]}"
        )
    return manifest


def _read_listed(run_dir: Path, files: dict, name: str) -> bytes:
    """One read of a file the manifest lists, checked against its digest."""
    try:
        # a string path, as in save_run: pathlib would intern the name
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DataIntegrityError(f"missing file listed in manifest: {name}") from None
    if hashlib.sha256(data).hexdigest() != files[name]:
        raise DataIntegrityError(f"digest mismatch for {name}")
    return data


def verify_manifest(run_dir) -> dict:
    """Check every listed digest; raises on the first mismatch."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    for name in manifest["files"]:
        _read_listed(run_dir, manifest["files"], name)
    return manifest


# ---------------------------------------------------------------------------
# run persistence


def save_run(sol: SpaceTimeSolution, cfg: ScenarioConfig, run_dir) -> Path:
    """Write the run files and a manifest listing exactly those files.

    Snapshot files of an earlier, longer run in ``run_dir`` (index at or
    above this run's snapshot count) are removed; other files already there
    stay, out of the manifest.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for path in run_dir.iterdir():
        match = SNAPSHOT_NAME.fullmatch(path.name)
        if match and int(match[1]) >= sol.num_snapshots:
            path.unlink()
    # written in name order, so that the manifest lists the files sorted
    # as they come: config.json, h_*.csv, h_final.pgm, u_*.csv, u_final.pgm.
    # Paths are joined as strings: pathlib interns every name it parses, and
    # growing the interpreter's intern table by thousands of names costs
    # more memory than the manifest.
    files = {CONFIG_NAME: save_config(cfg, run_dir / CONFIG_NAME)}
    for kind, stack in (("h", sol.h), ("u", sol.u)):
        for k, t in enumerate(sol.times):
            name = f"{kind}_{k:06d}.csv"
            files[name] = write_snapshot_csv(os.path.join(run_dir, name), stack[k], t)
        name = f"{kind}_final.pgm"
        files[name] = write_pgm(os.path.join(run_dir, name), stack[-1])
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "files": files,
        "sup_bound_M": sol.sup_bound_M,
        "num_snapshots": sol.num_snapshots,
    }
    # streamed, so that the text never exists whole; the same bytes as
    # _json_bytes
    with open(run_dir / MANIFEST_NAME, "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return run_dir


def load_run(run_dir) -> tuple:
    """Rebuild (solution, config) from a run directory; each listed file is
    read once, digest-checked, and snapshots are parsed from those bytes."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    files = manifest["files"]
    cfg = config_from_dict(manifest["config"])
    g = build_grid(cfg)
    n = manifest["num_snapshots"]
    for name in sorted(name for name in files if not SNAPSHOT_NAME.fullmatch(name)):
        _read_listed(run_dir, files, name)
    times = np.empty(n)
    us = np.empty((n,) + g.shape)
    hs = np.empty((n,) + g.shape, dtype=np.int8)
    for k in range(n):
        u_name, h_name = f"u_{k:06d}.csv", f"h_{k:06d}.csv"
        t, u = _parse_snapshot(_read_listed(run_dir, files, u_name), u_name)
        t_h, h = _parse_snapshot(_read_listed(run_dir, files, h_name), h_name)
        for bad, what in (
            (u.size != us[k].size or h.size != us[k].size, f"holds {u.size} u and "
             f"{h.size} h values, grid {g.shape} needs {us[k].size}"),
            # a NaN pair is left for SpaceTimeSolution to name
            (t_h != t and not (math.isnan(t) and math.isnan(t_h)),
             f"has u at t={t!r} and h at t={t_h!r}"),
            (not np.isfinite(u).all(), "holds a u value that is not finite"),
            (not (np.abs(h) == 1).all(), "holds an h value other than -1 or +1"),
        ):
            if bad:
                raise DataIntegrityError(f"snapshot {k} ({u_name}, {h_name}) {what}")
        times[k] = t
        us[k] = u.reshape(g.shape)
        hs[k] = h.reshape(g.shape)
    try:
        sol = SpaceTimeSolution(g, Thresholds(cfg.alpha, cfg.beta), times, us,
                                hs, float(manifest["sup_bound_M"]))
    except ValueError as exc:
        raise DataIntegrityError(f"{run_dir}: {exc}") from None
    return sol, cfg


# ---------------------------------------------------------------------------
# analysis


def default_radii(sol: SpaceTimeSolution) -> list:
    """Dyadic ladder fitting the domain, time span, and grid resolution."""
    cap = 0.45 * min(
        min(e / 2.0 for e in sol.grid.extent),
        np.sqrt(max(float(sol.times[-1] - sol.times[0]), 0.0)) or 1.0,
    )
    r0 = max(cap, 4.0 * min(sol.grid.dx))
    return [r0, r0 / 2.0, r0 / 4.0]


def analyze_run(
    run_dir,
    grad_tol: float | None = None,
    level_tol: float | None = None,
    radii=None,
) -> dict:
    """Classify, diagnose, and write the report files into the run directory;
    returns the summary written as ``summary.json``.  ``radii`` (default:
    ``default_radii``) must not repeat a value."""
    from . import diagnostics as dg

    if radii:
        radii = sorted((float(r) for r in radii), reverse=True)
        if any(a == b for a, b in zip(radii, radii[1:])):
            raise ConfigError(f"radii must not repeat a value, got {radii}")
    sol, cfg = load_run(run_dir)
    run_dir = Path(run_dir)

    atlas = classify(sol, level_tol=level_tol, grad_tol=grad_tol)
    radii = radii or default_radii(sol)

    dim = sol.grid.dim
    write_atlas_csv(atlas, run_dir / "atlas.csv", dim)
    _write_table(run_dir / "walls.csv", WALL_COLUMNS[: dim + 3], atlas.walls.tolist())

    samples = dg.quadratic_growth(sol, atlas, radii)
    _write_point_table(run_dir / "growth.csv", dim, [
        "r", "osc_lower", "osc_full", "sup_grad",
        "ratio_quadratic", "ratio_full", "ratio_linear",
    ], (
        (s.center.t_index, s.center.idx, *vals) for s in samples
        for vals in zip(s.radii, s.osc_lower, s.osc_full, s.sup_grad,
                        s.ratios_quadratic, s.ratios_full, s.ratios_linear)
    ))

    phi_tables = _phi_tables(sol, atlas, radii)
    _write_point_table(run_dir / "phi.csv", dim, ["e", "rho0", "r", "phi"], (
        (z.t_index, z.idx, ";".join(repr(float(c)) for c in t.direction), t.rho0, r, p)
        for z, t in phi_tables for r, p in zip(t.radii, t.phi_values)
    ))

    dt_min = float(np.diff(sol.times).min())
    signs = dg.sign_conditions(sol, atlas, tol=10.0 * dt_min)
    _write_table(run_dir / "signs.csv", list(vars(signs)), [vars(signs).values()])

    profile = dg.regularity_profile(sol, atlas)
    columns = ["dist_to_gamma_v", "dist_to_boundary", "abs_dt_u", "hess_norm"]
    _write_point_table(run_dir / "profile.csv", dim, columns, zip(
        profile.t_index.tolist(), profile.idx.tolist(),
        *(getattr(profile, c).tolist() for c in columns),
    ))

    summary = _summary(sol, cfg, atlas, samples, phi_tables, signs, profile)
    (run_dir / "summary.json").write_bytes(_json_bytes(summary))
    return summary


def _phi_tables(sol, atlas, radii) -> list:
    """Monotonicity tables at degenerate centers deep enough in space-time,
    as (centre, table) pairs."""
    from . import diagnostics as dg

    tables = []
    r_need = max(radii)
    directions = dg.probe_directions(sol.grid.dim)
    rows = atlas.gamma_0[:4]
    gaps = sol.grid.boundary_gap(atlas.idx[rows]).tolist()
    for z, gap in zip(atlas.points(rows), gaps):
        if sol.times[z.t_index] - sol.times[0] < r_need**2 or gap < r_need:
            continue
        tables += [(z, t) for t in dg.acf_phi(sol, z, directions,
                                              min(gap, 2.0 * r_need), radii)]
    return tables


def _summary(sol, cfg, atlas, samples, phi_tables, signs, profile) -> dict:
    ratios_q = [r for s in samples for r in s.ratios_quadratic]
    ratios_f = [r for s in samples for r in s.ratios_full]
    ratios_l = [r for s in samples for r in s.ratios_linear]
    n_emps = [t.n_emp for _, t in phi_tables if t.n_emp is not None]
    return {
        "name": cfg.name,
        "counts": {
            "gamma_alpha": len(atlas.gamma_alpha),
            "gamma_beta": len(atlas.gamma_beta),
            "gamma_v": atlas.gamma_v_count,
            "gamma_0": len(atlas.gamma_0),
            "gamma_star": len(atlas.gamma_star),
        },
        "tolerances": {
            "level_tol": atlas.level_tol,
            "grad_tol": atlas.grad_tol,
            "wall_min_steps": WALL_MIN_STEPS,
        },
        "separation": separation_check(sol, level_tol=atlas.level_tol),
        "sup_bound_M": sol.sup_bound_M,
        "sign_violations": {
            "alpha": signs.violations_alpha,
            "beta": signs.violations_beta,
            "checked": signs.checked_alpha + signs.checked_beta,
            "skipped_near_wall": signs.skipped_near_wall,
            "tol": signs.tol,
        },
        "empirical_constants": {
            "C0_osc_lower": max(ratios_q) if ratios_q else None,
            "C1_osc_full": max(ratios_f) if ratios_f else None,
            "C2_grad": max(ratios_l) if ratios_l else None,
            "C3_dt_u": float(profile.abs_dt_u.max()) if profile.abs_dt_u.size else None,
            "C4_hess": float(profile.hess_norm.max()) if profile.hess_norm.size else None,
            "N_emp_phi": max(n_emps) if n_emps else None,
        },
        "profile_bands": [
            {"rho": rho, "max_bound": val}
            for rho, val in profile.band_maxima()
        ],
        "profile_global_max": profile.global_max(),
    }


# ---------------------------------------------------------------------------
# CSV tables


def _write_table(path, columns, rows) -> None:
    """A header row, then the rows, in the csv module's default dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _write_point_table(path, dim: int, columns, rows) -> None:
    """Rows of (t_index, spatial index, *values); non-string values by repr."""
    _write_table(
        path,
        ["t_index", "x_index", "y_index"][: dim + 1] + columns,
        ([t, *idx, *(v if isinstance(v, str) else repr(v) for v in vals)]
         for t, idx, *vals in rows),
    )


# atlas.csv names of the free_boundary kind codes, in code order
KIND_NAMES = ("JumpDown", "JumpUp")
# walls.csv header; rows are FreeBoundaryAtlas.walls, in its order
WALL_COLUMNS = ("axis", "first_t_index", "last_t_index", "x_index", "y_index")


def write_atlas_csv(atlas: FreeBoundaryAtlas, path, dim: int) -> None:
    """The jump events sorted by (t_index, spatial index, kind name)."""
    order = np.lexsort((atlas.kind, *atlas.idx.T[::-1], atlas.t_index))
    t, idx, kind, u, gn, dt_u = (a[order].tolist() for a in (
        atlas.t_index, atlas.idx, atlas.kind, atlas.u, atlas.grad_norm, atlas.dt_u))
    _write_point_table(path, dim, ["kind", "u_value", "grad_norm", "dt_u"],
                       zip(t, idx, (KIND_NAMES[c] for c in kind), u, gn, dt_u))


def write_sweep_csv(rows, path) -> None:
    """One row per sweep member, from dicts keyed by the column names."""
    cols = ["value", "status", "gamma_v_count", "profile_max", "error"]
    _write_table(path, cols, ([row[c] for c in cols] for row in rows))
