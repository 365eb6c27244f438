"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Quantitative targets come from exactly solvable regimes (relay oscillator,
heat-kernel mass, half-space monotonicity pair, Fourier heat oracle);
the regularity estimates are checked as measured-ratio stability because
the underlying theory proves existence of bounds, not their magnitude.
"""

import json
import time

import numpy as np
import pytest

from hysterm import diagnostics as dg
from hysterm.cli import main, measure_oscillator_period
from hysterm.config import config_from_dict
from hysterm.free_boundary import classify
from hysterm.grid import Grid
from hysterm.presets import bundled_config
from hysterm.solver import run

from conftest import fourier_heat_oracle, frozen_heat_config


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_relay_oscillator_exactness():
    t0 = time.perf_counter()
    sol = run(bundled_config("oscillator"))
    elapsed = time.perf_counter() - t0
    dt = 1e-3
    trace = sol.h[:, 5]
    ups = np.nonzero((trace[1:] > 0) & (trace[:-1] < 0))[0] + 1
    periods = np.diff(sol.times[ups])
    period_err = float(np.abs(periods - 2.0).max())
    in_range = bool(
        (sol.u.min() >= 0.0 - dt - 1e-12) and (sol.u.max() <= 1.0 + dt + 1e-12)
    )
    ok = period_err <= 2 * dt and in_range and elapsed < 1.0
    report(
        1,
        ok,
        f"period 2.0 +/- {period_err:.2e} (tol {2*dt}), "
        f"u in [{sol.u.min():.4f}, {sol.u.max():.4f}], runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_02_heat_kernel_normalization():
    worst = 0.0
    xs = np.arange(-12.0, 12.0 + 1e-12, 2e-3)
    w = np.ones_like(xs)
    w[0] = w[-1] = 0.5
    dx = 2e-3
    for t in (0.01, 0.1, 1.0):
        mass = float((dg.heat_kernel(xs, t, 1) * w).sum() * dx)
        worst = max(worst, abs(mass - 1.0))
    xs2 = np.linspace(-12.0, 12.0, 1201)
    dx2 = xs2[1] - xs2[0]
    X, Y = np.meshgrid(xs2, xs2, indexing="ij")
    off = np.stack([X, Y], axis=-1)
    w2 = np.ones_like(xs2)
    w2[0] = w2[-1] = 0.5
    W = np.outer(w2, w2)
    for t in (0.01, 0.1, 1.0):
        mass = float((dg.heat_kernel(off, t, 2) * W).sum() * dx2 * dx2)
        worst = max(worst, abs(mass - 1.0))
    zero_ok = dg.heat_kernel(0.7, -0.1, 1) == 0.0 and dg.heat_kernel(0.7, 0.0, 2) == 0.0
    ok = worst <= 1e-6 and zero_ok
    report(2, ok, f"max |mass - 1| = {worst:.2e} (tol 1e-6), G(t<=0) == 0: {zero_ok}")


def test_criterion_03_acf_closed_form():
    g = Grid(extent=(8.0,), nx=(1601,))
    times = np.arange(0.0, 0.16 + 1e-12, 5e-4)
    x = g.axes()[0]
    th1 = np.tile(np.maximum(x - 4.0, 0.0), (times.size, 1))
    th2 = np.tile(np.maximum(4.0 - x, 0.0), (times.size, 1))
    tab = dg.phi_from_pair(
        g, times, th1, th2, [4.0], times.size - 1, 2.0, [0.1, 0.2, 0.4]
    )
    rel = [abs(phi - 0.25) / 0.25 for phi in tab.phi_values]
    ok = max(rel) <= 0.05
    report(
        3,
        ok,
        "Phi(r) = "
        + ", ".join(f"{p:.4f}" for p in tab.phi_values)
        + f" for r in (0.1, 0.2, 0.4); worst deviation {max(rel)*100:.1f}% (tol 5%)",
    )


def test_criterion_04_solver_convergence():
    t0 = time.perf_counter()
    errs = []
    for nx, dt in ((51, 1e-4), (101, 2.5e-5)):
        sol = run(frozen_heat_config(nx=nx, dt=dt))
        x = sol.grid.axes()[0]
        errs.append(float(np.abs(sol.u[-1] - fourier_heat_oracle(x, 0.1)).max()))
    elapsed = time.perf_counter() - t0
    ratio = errs[0] / errs[1]
    ok = ratio >= 3.0 and elapsed < 10.0
    report(
        4,
        ok,
        f"max errors {errs[0]:.3e} -> {errs[1]:.3e}, ratio {ratio:.2f} >= 3, "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_05_quadratic_growth(
    oscillator_sol, oscillator_atlas, plateau_sol, plateau_atlas
):
    radii = [0.2, 0.1, 0.05]
    osc_samples = dg.quadratic_growth(oscillator_sol, oscillator_atlas, radii)
    osc_ratios = [r for s in osc_samples for r in s.ratios_quadratic]
    osc_ok = bool(osc_samples) and all(
        0.8 - 1e-9 <= r <= 1.2 for r in osc_ratios
    )
    plat_samples = dg.quadratic_growth(plateau_sol, plateau_atlas, radii)
    spreads = [
        max(s.ratios_quadratic) / min(s.ratios_quadratic)
        for s in plat_samples
        if min(s.ratios_quadratic) > 0
    ]
    plat_ok = bool(spreads) and max(spreads) <= 10.0
    ok = osc_ok and plat_ok
    report(
        5,
        ok,
        f"oscillator osc/r^2 in [{min(osc_ratios):.3f}, {max(osc_ratios):.3f}] "
        f"(target [0.8, 1.2]); plateau max/min ratio {max(spreads):.2f} <= 10 "
        f"over {len(plat_samples)} centers",
    )


def test_criterion_06_gradient_growth(plateau_sol, plateau_atlas):
    radii = [0.2, 0.1, 0.05]
    samples = dg.quadratic_growth(plateau_sol, plateau_atlas, radii)
    spreads = [
        max(s.ratios_linear) / min(s.ratios_linear)
        for s in samples
        if min(s.ratios_linear) > 0
    ]
    ok = bool(spreads) and max(spreads) <= 10.0
    report(
        6,
        ok,
        f"plateau sup|Du|/r max/min spread {max(spreads):.2f} <= 10 "
        f"over {len(samples)} eligible centers",
    )


def test_criterion_07_sign_conditions(
    gaussian_sol, gaussian_atlas, plateau_sol, plateau_atlas
):
    details = []
    ok = True
    for name, sol, atlas in (
        ("gaussian_bump", gaussian_sol, gaussian_atlas),
        ("plateau", plateau_sol, plateau_atlas),
    ):
        dt = float(np.diff(sol.times).min())
        rep = dg.sign_conditions(sol, atlas, tol=10.0 * dt)
        violations = rep.violations_alpha + rep.violations_beta
        ok = ok and violations == 0
        details.append(
            f"{name}: {violations} violations "
            f"({rep.checked_alpha + rep.checked_beta} checked, "
            f"{rep.skipped_near_wall} near-wall skipped)"
        )
    report(7, ok, "; ".join(details))


def test_criterion_08_regularity_profile(wall_sol, wall_atlas):
    prof = dg.regularity_profile(wall_sol, wall_atlas)
    bands = prof.band_maxima()
    vals = [v for _, v in bands]  # decreasing rho order
    monotone = all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    # gamma_v-free refinement stability: gaussian run at dt and dt/2 with the
    # snapshot stride doubled so both solutions share the same time grid
    maxima = []
    for dt, stride in ((4e-5, 5), (2e-5, 10)):
        cfg = bundled_config("gaussian_bump", dt=dt, snapshot_stride=stride)
        sol = run(cfg)
        atlas = classify(sol)
        assert atlas.gamma_v_count == 0
        maxima.append(dg.regularity_profile(sol, atlas).global_max())
    drift = abs(maxima[1] - maxima[0]) / maxima[0]
    ok = monotone and np.isfinite(maxima).all() and drift <= 0.20
    report(
        8,
        ok,
        f"wall band maxima non-increasing in rho: {monotone} "
        f"(values {', '.join(f'{v:.3f}' for v in vals)}); "
        f"gamma_v-free profile max {maxima[0]:.3f} -> {maxima[1]:.3f} "
        f"under dt/2, drift {drift*100:.1f}% <= 20%",
    )


def test_criterion_09_gamma_v_detection(
    oscillator_atlas, gaussian_atlas, wall_atlas
):
    n_wall = wall_atlas.gamma_v_count
    n_osc = oscillator_atlas.gamma_v_count
    n_gauss = gaussian_atlas.gamma_v_count
    ok = n_wall > 0 and n_osc == 0 and n_gauss == 0
    report(
        9,
        ok,
        f"gamma_v_count: two_phase_wall {n_wall} > 0, "
        f"oscillator {n_osc} == 0, gaussian_bump {n_gauss} == 0",
    )


def test_criterion_10_determinism_and_integrity(tmp_path):
    cfg_data = {
        "name": "accept10",
        "dim": 1,
        "extent": [1.0],
        "nx": [11],
        "dt": 1e-3,
        "T": 1.0,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "preset": {"kind": "homogeneous", "u0": 0.5, "h0": 1},
    }
    reports = ("atlas.csv", "growth.csv", "phi.csv", "signs.csv", "profile.csv",
               "summary.json")
    outs = []
    for tag in ("a", "b"):
        data = dict(cfg_data, output_dir=str(tmp_path / tag))
        p = tmp_path / f"{tag}.json"
        p.write_text(json.dumps(data))
        assert main(["run", str(p)]) == 0
        assert main(["analyze", str(tmp_path / tag)]) == 0
        outs.append(tmp_path / tag)
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in reports
    )
    snaps = sorted(outs[0].glob("*.csv"))
    csv_identical = all(
        p.read_bytes() == (outs[1] / p.name).read_bytes() for p in snaps
    )

    target = outs[0] / "u_000100.csv"
    raw = bytearray(target.read_bytes())
    raw[6] ^= 0x01
    target.write_bytes(bytes(raw))
    code = main(["analyze", str(outs[0])])
    ok = identical and csv_identical and code == 3
    report(
        10,
        ok,
        f"repeated run+analyze byte-identical: {identical and csv_identical}; "
        f"flipped byte -> analyze exit code {code} (expect 3)",
    )
