"""Run persistence and analysis reports.

A run directory holds the scenario config, one CSV pair per stored
snapshot (``u_XXXXXX.csv``, ``h_XXXXXX.csv``), 8-bit PGM heatmaps of the
final slices, and ``manifest.json`` with a sha256 digest of each of these
files.
Snapshots use shortest round-trip decimal formatting so reloading them is
loss-free and reruns are byte-identical.

Analysis reconstructs the solution from disk (verifying digests), runs the
free-boundary classification and the diagnostics, and writes one CSV per
diagnostic plus ``summary.json`` with the empirical constants.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_from_dict, save_config
from .errors import DataIntegrityError
from .free_boundary import (
    classify,
    separation_check,
    write_atlas_csv,
)
from .grid import SpaceTimePoint, SpaceTimeSolution, boundary_distance
from .presets import build_grid
from .relay import Thresholds

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.json"
MANIFEST_KEYS = {"config": dict, "files": dict, "num_snapshots": int}


# ---------------------------------------------------------------------------
# snapshot CSV


def _format_row(vals) -> str:
    return ",".join(repr(float(v)) for v in vals)


def write_snapshot_csv(path, f: np.ndarray, t: float) -> None:
    """``# t=<time>`` comment line, then one row per grid row."""
    lines = [f"# t={repr(float(t))}"]
    if f.ndim == 1:
        lines.append(_format_row(f))
    else:
        lines.extend(_format_row(row) for row in f)
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot_csv(path) -> tuple:
    """Returns (t, array); the array is 1D or 2D per the row layout."""
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("# t="):
        raise DataIntegrityError(f"missing '# t=' header in {path}")
    t = float(text[0][4:])
    try:
        arr = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    except ValueError as exc:
        raise DataIntegrityError(f"malformed snapshot rows in {path}: {exc}") from exc
    return t, arr[0] if len(arr) == 1 else arr


# ---------------------------------------------------------------------------
# PGM


def write_pgm(path, f: np.ndarray) -> None:
    """Binary (P5) PGM; linear scaling of [min, max] to [0, 255], row-major."""
    img = np.atleast_2d(np.asarray(f, dtype=float))
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if parts[0] != b"P5":
        raise DataIntegrityError(f"not a binary PGM: {path}")
    w, h = (int(v) for v in parts[1].split())
    return np.frombuffer(parts[3], dtype=np.uint8, count=w * h).reshape(h, w)


# ---------------------------------------------------------------------------
# manifest


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    bad = [k for k, t in MANIFEST_KEYS.items() if not isinstance(manifest.get(k), t)]
    if bad:
        raise DataIntegrityError(f"manifest {path} lacks a valid {', '.join(bad)}")
    return manifest


def verify_manifest(run_dir) -> dict:
    """Check every listed digest; raises on the first mismatch."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    for name, digest in manifest["files"].items():
        p = run_dir / name
        if not p.exists():
            raise DataIntegrityError(f"missing file listed in manifest: {name}")
        actual = _sha256(p)
        if actual != digest:
            raise DataIntegrityError(
                f"digest mismatch for {name}: manifest {digest[:12]}..., "
                f"file {actual[:12]}..."
            )
    return manifest


# ---------------------------------------------------------------------------
# run persistence


def save_run(sol: SpaceTimeSolution, cfg: ScenarioConfig, run_dir) -> Path:
    """Write the run files and a manifest listing exactly those files.

    Files already in ``run_dir`` that this run does not write stay out of
    the manifest.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, run_dir / CONFIG_NAME)
    written = [CONFIG_NAME, "u_final.pgm", "h_final.pgm"]
    for k, t in enumerate(sol.times):
        for kind, stack in (("u", sol.u), ("h", sol.h)):
            written.append(f"{kind}_{k:06d}.csv")
            write_snapshot_csv(run_dir / written[-1], stack[k], t)
    write_pgm(run_dir / "u_final.pgm", sol.u[-1])
    write_pgm(run_dir / "h_final.pgm", sol.h[-1])
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "files": {name: _sha256(run_dir / name) for name in sorted(written)},
        "sup_bound_M": sol.sup_bound_M,
        "num_snapshots": sol.num_snapshots,
    }
    (run_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")
    return run_dir


def load_run(run_dir) -> tuple:
    """Rebuild (solution, config) from a digest-verified run directory."""
    run_dir = Path(run_dir)
    manifest = verify_manifest(run_dir)
    cfg = config_from_dict(manifest["config"])
    g = build_grid(cfg)
    n = int(manifest["num_snapshots"])
    times = np.empty(n)
    us = np.empty((n,) + g.shape)
    hs = np.empty((n,) + g.shape, dtype=np.int8)
    for k in range(n):
        up = run_dir / f"u_{k:06d}.csv"
        hp = run_dir / f"h_{k:06d}.csv"
        if not up.exists() or not hp.exists():
            raise DataIntegrityError(f"missing snapshot pair {k} in {run_dir}")
        t, u = read_snapshot_csv(up)
        _, h = read_snapshot_csv(hp)
        if u.size != us[k].size or h.size != us[k].size:
            raise DataIntegrityError(
                f"snapshot {k} holds {u.size} u and {h.size} h values, "
                f"grid {g.shape} needs {us[k].size}"
            )
        times[k] = t
        us[k] = u.reshape(g.shape)
        hs[k] = h.reshape(g.shape)
    sol = SpaceTimeSolution(
        grid=g,
        thresholds=Thresholds(cfg.alpha, cfg.beta),
        times=times,
        u=us,
        h=hs,
        sup_bound_M=float(manifest.get("sup_bound_M", np.abs(us).max())),
    )
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
) -> Path:
    """Classify, diagnose, and write the report files; returns the out dir."""
    from . import diagnostics as dg

    sol, cfg = load_run(run_dir)
    out_dir = Path(out_dir) if out_dir is not None else Path(run_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    atlas = classify(sol, level_tol=level_tol, grad_tol=grad_tol)
    radii = sorted(
        (float(r) for r in radii), reverse=True
    ) if radii else default_radii(sol)

    write_atlas_csv(atlas, out_dir / "atlas.csv", sol.grid.dim)

    samples = dg.quadratic_growth(sol, atlas, radii)
    dg.write_growth_csv(samples, out_dir / "growth.csv", sol.grid.dim)

    phi_tables = _phi_tables(sol, atlas, radii)
    dg.write_phi_csv(phi_tables, out_dir / "phi.csv", sol.grid.dim)

    dt_min = float(np.diff(sol.times).min())
    signs = dg.sign_conditions(sol, atlas, tol=10.0 * dt_min)
    dg.write_signs_csv(signs, out_dir / "signs.csv")

    profile = dg.regularity_profile(sol, atlas)
    dg.write_profile_csv(profile, out_dir / "profile.csv", sol.grid.dim)

    summary = _summary(sol, cfg, atlas, samples, phi_tables, signs, profile)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return out_dir


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
        for e in dg.probe_directions(sol.grid.dim):
            tables.append(dg.acf_phi(sol, z, e, rho0, radii))
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
            "gamma_v": len(atlas.gamma_v),
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
