"""Every file hysterm writes: run persistence and analysis reports.

A run directory holds the scenario config, one CSV pair per stored
snapshot (``u_XXXXXX.csv``, ``h_XXXXXX.csv``), 8-bit PGM heatmaps of the
final slices, and ``manifest.json`` with a sha256 digest of each of these
files, taken from the bytes as they are written.
Snapshots use shortest round-trip decimal formatting so reloading them is
loss-free and reruns are byte-identical.

Analysis reconstructs the solution from disk (verifying digests), runs the
free-boundary classification and the diagnostics, and writes the jump
events (``atlas.csv``), the wall face runs (``walls.csv``), one CSV per
diagnostic and ``summary.json`` with the empirical constants.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_from_dict
from .errors import DataIntegrityError
from .free_boundary import FreeBoundaryAtlas, classify, separation_check
from .grid import SpaceTimeSolution
from .presets import build_grid
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
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def save_config(cfg: ScenarioConfig, path) -> str:
    """Write the config as indented JSON; returns the file's sha256."""
    return _write(path, _json_bytes(cfg.to_dict()))


# ---------------------------------------------------------------------------
# snapshot CSV


def _format_row(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


def write_snapshot_csv(path, f: np.ndarray, t: float) -> str:
    """``# t=<time>`` comment line, then one row per grid row; returns the sha256."""
    rows = "".join(_format_row(row) + "\n" for row in np.atleast_2d(f))
    return _write(path, f"# t={float(t)!r}\n{rows}".encode())


def _parse_snapshot(data: bytes, name) -> tuple:
    """(t, array) of one snapshot file's bytes; ``name`` labels errors."""
    try:
        lines = data.decode().strip().splitlines()
        if not lines or not lines[0].startswith("# t="):
            raise DataIntegrityError(f"missing '# t=' header in {name}")
        t = float(lines[0][4:])
        arr = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
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


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5":
        raise DataIntegrityError(f"not a binary PGM: {path}")
    w, h = (int(v) for v in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=w * h).reshape(h, w)


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
    want = {f"{kind}_{k:06d}.csv" for k in range(n) for kind in "uh"}
    have = {name for name in files if SNAPSHOT_NAME.fullmatch(name)}
    if have != want:
        raise DataIntegrityError(
            f"manifest {path} does not list the snapshot files of num_snapshots "
            f"{n}: missing {sorted(want - have)[:3]}, beyond {sorted(have - want)[:3]}"
        )
    return manifest


def _read_listed(run_dir: Path, files: dict, name: str) -> bytes:
    """One read of a file the manifest lists, checked against its digest."""
    try:
        data = (run_dir / name).read_bytes()
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
    files = {CONFIG_NAME: save_config(cfg, run_dir / CONFIG_NAME)}
    for k, t in enumerate(sol.times):
        for kind, stack in (("u", sol.u), ("h", sol.h)):
            name = f"{kind}_{k:06d}.csv"
            files[name] = write_snapshot_csv(run_dir / name, stack[k], t)
    files["u_final.pgm"] = write_pgm(run_dir / "u_final.pgm", sol.u[-1])
    files["h_final.pgm"] = write_pgm(run_dir / "h_final.pgm", sol.h[-1])
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "files": dict(sorted(files.items())),
        "sup_bound_M": sol.sup_bound_M,
        "num_snapshots": sol.num_snapshots,
    }
    (run_dir / MANIFEST_NAME).write_bytes(_json_bytes(manifest))
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
    pairs = [(f"u_{k:06d}.csv", f"h_{k:06d}.csv") for k in range(n)]
    for name in sorted(files.keys() - {name for pair in pairs for name in pair}):
        _read_listed(run_dir, files, name)
    times = np.empty(n)
    us = np.empty((n,) + g.shape)
    hs = np.empty((n,) + g.shape, dtype=np.int8)
    for k, (u_name, h_name) in enumerate(pairs):
        t, u = _parse_snapshot(_read_listed(run_dir, files, u_name), u_name)
        t_h, h = _parse_snapshot(_read_listed(run_dir, files, h_name), h_name)
        for bad, what in (
            (u.size != us[k].size or h.size != us[k].size, f"holds {u.size} u and "
             f"{h.size} h values, grid {g.shape} needs {us[k].size}"),
            (t_h != t, f"has u at t={t!r} and h at t={t_h!r}"),
            (not (np.isfinite(t) and (k == 0 or t > times[k - 1])),
             f"at t={t!r} is not finite or not after the previous snapshot"),
            (not np.isfinite(u).all(), "holds a u value that is not finite"),
            (not (np.abs(h) == 1).all(), "holds an h value other than -1 or +1"),
        ):
            if bad:
                raise DataIntegrityError(f"snapshot {k} ({u_name}, {h_name}) {what}")
        times[k] = t
        us[k] = u.reshape(g.shape)
        hs[k] = h.reshape(g.shape)
    sol = SpaceTimeSolution(g, Thresholds(cfg.alpha, cfg.beta), times, us, hs,
                            float(manifest["sup_bound_M"]))
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
    out_dir=None,
    grad_tol: float | None = None,
    level_tol: float | None = None,
    radii=None,
) -> dict:
    """Classify, diagnose, and write the report files into ``out_dir``
    (default: the run directory); returns the summary written as
    ``summary.json``."""
    from . import diagnostics as dg

    sol, cfg = load_run(run_dir)
    out_dir = Path(out_dir) if out_dir is not None else Path(run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    atlas = classify(sol, level_tol=level_tol, grad_tol=grad_tol)
    radii = sorted(
        (float(r) for r in radii), reverse=True
    ) if radii else default_radii(sol)

    dim = sol.grid.dim
    write_atlas_csv(atlas, out_dir / "atlas.csv", dim)
    _write_table(out_dir / "walls.csv", WALL_COLUMNS[: dim + 3], atlas.walls.tolist())

    samples = dg.quadratic_growth(sol, atlas, radii)
    _write_point_table(out_dir / "growth.csv", dim, [
        "r", "osc_lower", "osc_full", "sup_grad",
        "ratio_quadratic", "ratio_full", "ratio_linear",
    ], (
        (s.center.t_index, s.center.idx, *vals) for s in samples
        for vals in zip(s.radii, s.osc_lower, s.osc_full, s.sup_grad,
                        s.ratios_quadratic, s.ratios_full, s.ratios_linear)
    ))

    phi_tables = _phi_tables(sol, atlas, radii)
    _write_point_table(out_dir / "phi.csv", dim, ["e", "rho0", "r", "phi"], (
        (t.center.t_index, t.center.idx,
         ";".join(repr(float(c)) for c in t.direction), t.rho0, r, p)
        for t in phi_tables for r, p in zip(t.radii, t.phi_values)
    ))

    dt_min = float(np.diff(sol.times).min())
    signs = dg.sign_conditions(sol, atlas, tol=10.0 * dt_min)
    _write_table(out_dir / "signs.csv", list(vars(signs)), [vars(signs).values()])

    profile = dg.regularity_profile(sol, atlas)
    _write_point_table(out_dir / "profile.csv", dim, [
        "dist_to_gamma_v", "dist_to_boundary", "abs_dt_u", "hess_norm"
    ], (
        (s.point.t_index, s.point.idx, s.dist_to_gamma_v,
         s.dist_to_boundary, s.abs_dt_u, s.hess_norm)
        for s in profile.samples
    ))

    summary = _summary(sol, cfg, atlas, samples, phi_tables, signs, profile)
    (out_dir / "summary.json").write_bytes(_json_bytes(summary))
    return summary


def _phi_tables(sol, atlas, radii) -> list:
    """Monotonicity tables at degenerate centers deep enough in space-time."""
    from . import diagnostics as dg

    tables = []
    r_need = max(radii)
    for z in atlas.points(atlas.gamma_0[:4]):
        t_depth = float(sol.times[z.t_index] - sol.times[0])
        gap = sol.grid.boundary_gap(z.idx)
        if t_depth < r_need**2 or gap < r_need:
            continue
        rho0 = min(gap, max(r_need, 2.0 * r_need))
        directions = dg.probe_directions(sol.grid.dim)
        tables.extend(dg.acf_phi(sol, z, directions, rho0, radii))
    return tables


def _summary(sol, cfg, atlas, samples, phi_tables, signs, profile) -> dict:
    ratios_q = [r for s in samples for r in s.ratios_quadratic]
    ratios_f = [r for s in samples for r in s.ratios_full]
    ratios_l = [r for s in samples for r in s.ratios_linear]
    n_emps = [t.n_emp for t in phi_tables if t.n_emp is not None]
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
            "wall_min_steps": atlas.wall_min_steps,
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
            "C3_dt_u": max((s.abs_dt_u for s in profile.samples), default=None),
            "C4_hess": max((s.hess_norm for s in profile.samples), default=None),
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
