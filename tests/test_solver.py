"""Explicit Euler integration: ODE exactness, convergence, invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hysterm.config import config_from_dict
from hysterm.errors import CFLError, ConfigError, HystermError
from hysterm.grid import BC_DIRICHLET, BC_NEUMANN, Grid, laplacian
from hysterm.presets import build_grid, bundled_config, initial_data
from hysterm.relay import Thresholds, field_init, field_update
from hysterm.solver import cfl_limit, run, step

from conftest import fourier_heat_oracle, frozen_heat_config

# An overflow or invalid operation anywhere in a solve fails the test: a
# scratch entry carried over from one step to the next shows up this way.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TH = Thresholds(0.0, 1.0)


def homogeneous_config(**overrides):
    data = {
        "name": "homog",
        "dim": 1,
        "extent": [1.0],
        "nx": [11],
        "dt": 1e-3,
        "T": 5.0,
        "alpha": 0.0,
        "beta": 1.0,
        "bc": {"kind": "neumann"},
        "preset": {"kind": "homogeneous", "u0": 0.5, "h0": 1},
    }
    data.update(overrides)
    return config_from_dict(data)


class TestStep:
    def setup_method(self):
        self.g = Grid(extent=(1.0,), nx=(11,))

    def test_ode_up_phase(self):
        u = np.full(self.g.shape, 0.5)
        h = np.full(self.g.shape, -1, dtype=np.int8)
        u2, h2 = step(u, h, self.g, 1e-3, TH)
        assert np.allclose(u2, 0.501, atol=1e-15)
        assert (h2 == -1).all()

    def test_ode_down_phase(self):
        u = np.full(self.g.shape, 0.5)
        h = np.full(self.g.shape, 1, dtype=np.int8)
        u2, h2 = step(u, h, self.g, 1e-3, TH)
        assert np.allclose(u2, 0.499, atol=1e-15)
        assert (h2 == 1).all()

    def test_up_jump_fires_at_threshold(self):
        u = np.full(self.g.shape, 1.0 - 1e-9)
        h = np.full(self.g.shape, -1, dtype=np.int8)
        u2, h2 = step(u, h, self.g, 1e-3, TH)
        assert (u2 >= 1.0).all()
        assert (h2 == 1).all()

    def test_cfl_refusal(self):
        u = np.zeros(self.g.shape)
        h = np.full(self.g.shape, -1, dtype=np.int8)
        with pytest.raises(CFLError):
            step(u, h, self.g, self.g.dx[0] ** 2, TH, cfl_safety=0.9)

    def test_cfl_limit_value(self):
        assert cfl_limit(self.g) == pytest.approx(0.1**2 / 2.0)


class TestRunOscillator:
    def test_period_and_range(self):
        sol = run(homogeneous_config())
        mid = sol.u[:, 5]
        assert mid.min() >= 0.0 - 1e-3 - 1e-12
        assert mid.max() <= 1.0 + 1e-3 + 1e-12
        trace = sol.h[:, 5]
        ups = np.nonzero((trace[1:] > 0) & (trace[:-1] < 0))[0] + 1
        periods = np.diff(sol.times[ups])
        assert np.all(np.abs(periods - 2.0) <= 2e-3)

    def test_init_override_above_beta(self):
        """u0 = beta + 1 forces h=+1; u decays linearly until alpha."""
        cfg = homogeneous_config(
            preset={"kind": "homogeneous", "u0": 2.0, "h0": -1}, T=3.0
        )
        sol = run(cfg)
        assert (sol.h[0] == 1).all()
        k1 = int(round(1.0 / cfg.dt))
        assert np.allclose(sol.u[k1], 1.0, atol=1e-9)
        # after reaching alpha at t=2 the relay oscillates upward again
        k25 = int(round(2.5 / cfg.dt))
        assert np.allclose(sol.u[k25], 0.5, atol=2e-3)
        assert (sol.h[k25] == -1).all()

    def test_sawtooth_deviation_bounded(self):
        sol = run(homogeneous_config(T=4.0))
        t = sol.times
        # exact sawtooth from u0=0.5, h0=+1: minima u=0 at t=0.5+2k, maxima
        # u=1 at t=1.5+2k; parametrize by time tau since the last minimum
        tau = (t + 1.5) % 2.0
        exact = np.where(tau <= 1.0, tau, 2.0 - tau)
        assert np.abs(sol.u[:, 5] - exact).max() <= 2e-3 + 1e-12


class TestFrozenHeat:
    def test_constant_plus_source(self):
        cfg = homogeneous_config(
            preset={"kind": "homogeneous", "u0": 0.2, "h0": -1},
            alpha=-5.0,
            beta=5.0,
            T=1.0,
            freeze_h=True,
        )
        sol = run(cfg)
        assert np.allclose(sol.u[-1], 0.2 + 1.0, atol=1e-10)
        assert (sol.h[-1] == -1).all()

    def test_freeze_hysteresis_hook(self):
        cfg = homogeneous_config(
            preset={"kind": "homogeneous", "u0": 0.5, "h0": 1}, T=2.0, freeze_h=True
        )
        sol = run(cfg)
        assert (sol.h == 1).all()
        assert np.allclose(sol.u[-1], 0.5 - 2.0, atol=1e-10)

    def test_matches_fourier_oracle(self):
        cfg = frozen_heat_config(nx=51, dt=1e-4)
        sol = run(cfg)
        x = sol.grid.axes()[0]
        exact = fourier_heat_oracle(x, 0.1)
        err = np.abs(sol.u[-1] - exact).max()
        assert err <= 2e-3

    def test_refinement_ratio(self):
        errs = []
        for nx, dt in ((51, 1e-4), (101, 2.5e-5)):
            sol = run(frozen_heat_config(nx=nx, dt=dt))
            x = sol.grid.axes()[0]
            errs.append(np.abs(sol.u[-1] - fourier_heat_oracle(x, 0.1)).max())
        assert errs[0] / errs[1] >= 3.0

    def test_max_principle_surrogate(self):
        g = Grid(extent=(1.0,), nx=(41,), bc_kind=BC_DIRICHLET, bc_value=0.0)
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, 1.0, size=g.shape)
        u[0] = u[-1] = 0.0
        h = np.full(g.shape, 1, dtype=np.int8)
        dt = 2e-4
        u2, _ = step(u, h, g, dt, Thresholds(-5, 5), freeze_h=True)
        assert u2.max() <= max(u.max(), 0.0) + dt + 1e-12
        assert u2.min() >= min(u.min(), 0.0) - dt - 1e-12


class TestInvariants:
    def test_h_changes_only_at_crossings(self):
        cfg = config_from_dict(
            {
                "name": "crossing",
                "dim": 1,
                "extent": [1.0],
                "nx": [21],
                "dt": 1e-3,
                "T": 3.0,
                "alpha": 0.0,
                "beta": 1.0,
                "bc": {"kind": "neumann"},
                "preset": {
                    "kind": "sine",
                    "amplitude": 0.9,
                    "modes": 1,
                    "h0": -1,
                },
            }
        )
        sol = run(cfg)
        flips = sol.h[1:] != sol.h[:-1]
        ks, xs = np.nonzero(flips)
        assert ks.size > 0
        u_at_flip = sol.u[ks + 1, xs]
        assert np.all((u_at_flip <= 0.0) | (u_at_flip >= 1.0))

    def test_determinism_bitwise(self):
        cfg = homogeneous_config(T=1.0)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.h, b.h)
        assert a.sup_bound_M == b.sup_bound_M

    def test_config_cfl_error(self):
        with pytest.raises(CFLError, match="CFL violated"):
            homogeneous_config(dt=0.01)

    def test_nan_rejected(self):
        g = Grid(extent=(1.0,), nx=(5,))
        u = np.zeros(g.shape)
        u[2] = np.nan
        h = np.full(g.shape, -1, dtype=np.int8)
        with pytest.raises(Exception, match="NaN"):
            step(u, h, g, 1e-3, TH)

    def test_snapshot_stride(self):
        cfg = homogeneous_config(T=1.0, snapshot_stride=10)
        sol = run(cfg)
        assert sol.num_snapshots == 101
        assert np.allclose(np.diff(sol.times), 1e-2)

    def test_sup_bound_reported(self):
        sol = run(homogeneous_config(T=3.0))
        assert 1.0 <= sol.sup_bound_M <= 1.0 + 1e-3 + 1e-12


def reference_run(cfg):
    """The unfused loop: ``u + dt*(laplacian(u) - h)``, the Dirichlet values
    pinned, then ``field_update``; ``sup_bound_M`` from ``np.abs``."""
    g = build_grid(cfg)
    th = Thresholds(cfg.alpha, cfg.beta)
    u, hint = initial_data(cfg, g)

    def pin(f):
        if g.bc_kind == BC_DIRICHLET:
            for axis in range(g.dim):
                idx = [slice(None)] * g.dim
                for end in (0, -1):
                    idx[axis] = end
                    f[tuple(idx)] = g.bc_value

    pin(u)
    h = field_init(u, hint, th)
    n_steps = int(round(cfg.T / cfg.dt))
    us, hs, sup_m = [u], [h], float(np.abs(u).max())
    for k in range(1, n_steps + 1):
        u = u + cfg.dt * (laplacian(u, g) - h)
        pin(u)
        h = h if cfg.freeze_h else field_update(h, u, th)
        sup_m = max(sup_m, float(np.abs(u).max()))
        if k % cfg.snapshot_stride == 0 or k == n_steps:
            us.append(u)
            hs.append(h)
    return np.array(us), np.array(hs), sup_m


def assert_bitwise_reference(sol, reference):
    us, hs, sup_m = reference
    assert np.array_equal(sol.u, us)
    assert np.array_equal(sol.h, hs)
    assert sol.sup_bound_M == sup_m


def small_config(dim, bc, **overrides):
    """A small plateau scenario: 9 points in 1D, 9x6 with unequal spacings
    in 2D; with the default thresholds and no frozen relay, relays flip
    before T."""
    data = {
        "name": f"small_{dim}d",
        "dim": dim,
        "extent": [2.0, 1.0][:dim],
        "nx": [9, 6][:dim],
        "dt": 0.008,
        "T": 0.2,
        "alpha": 0.28,
        "beta": 0.31,
        "bc": bc,
        "snapshot_stride": 3,
        "preset": {"kind": "plateau", "level": 0.29, "curvature": 0.01, "h0": 1},
    }
    data.update(overrides)
    return config_from_dict(data)


REFERENCE_CASES = {
    "1d_neumann": lambda: small_config(1, {"kind": "neumann"}),
    "1d_dirichlet": lambda: small_config(1, {"kind": "dirichlet", "value": 0.3}),
    "2d_neumann": lambda: small_config(2, {"kind": "neumann"}, snapshot_stride=1),
    "2d_dirichlet": lambda: small_config(2, {"kind": "dirichlet", "value": 0.3}),
    "2d_dirichlet_zero": lambda: small_config(
        2, {"kind": "dirichlet", "value": 0.0}, alpha=0.0, beta=1.0,
        preset={"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
    ),
    "wall": lambda: bundled_config("two_phase_wall", T=0.02),
}


class TestFusedKernel:
    @pytest.mark.parametrize("freeze_h", [False, True])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_run_equals_unfused_loop_bitwise(self, case, freeze_h):
        cfg = dataclasses.replace(REFERENCE_CASES[case](), freeze_h=freeze_h)
        us, hs, sup_m = reference_run(cfg)
        sol = run(cfg)
        assert np.array_equal(sol.u, us)
        assert np.array_equal(sol.h, hs)
        assert sol.sup_bound_M == sup_m
        if not freeze_h and case != "wall":
            assert (sol.h[1:] != sol.h[:-1]).any()

    def test_step_equals_unfused_expression(self):
        g = Grid(extent=(2.0, 1.0), nx=(9, 6), bc_kind=BC_DIRICHLET, bc_value=0.3)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 1.0, size=g.shape)
        h = rng.choice(np.array([-1, 1], dtype=np.int8), size=g.shape)
        u2, h2 = step(u, h, g, 0.008, TH)
        expected = u + 0.008 * (laplacian(u, g) - h)
        expected[0, :] = expected[-1, :] = expected[:, 0] = expected[:, -1] = 0.3
        assert np.array_equal(u2, expected)
        assert np.array_equal(h2, field_update(h, expected, TH))

    def test_config_changed_after_validation_checked_for_cfl(self):
        cfg = homogeneous_config(T=0.01)
        cfg.dt = 0.01
        with pytest.raises(CFLError, match="CFL violated"):
            run(cfg)

    def test_nan_caught_in_run(self, monkeypatch):
        """A NaN made at step 5 in the shared ``2*u`` buffer reaches the
        field and stops the run on that step, 1D Neumann and 2D Dirichlet."""
        import hysterm.solver as solver

        real, calls = solver._step_ops, []

        def nan_at_step_5(a, b, out):
            calls.append(None)
            if len(calls) == 5:
                out.reshape(-1)[out.size // 2] = np.nan

        def poisoned(u, hf, lap, work, g, dt):
            ops = real(u, hf, lap, work, g, dt)
            return ops[:1] + [(nan_at_step_5, None, None, work)] + ops[1:]

        monkeypatch.setattr(solver, "_step_ops", poisoned)
        for cfg in (homogeneous_config(T=0.01), REFERENCE_CASES["2d_dirichlet"]()):
            calls.clear()
            with pytest.raises(HystermError, match="NaN"):
                run(cfg)
            assert len(calls) == 5

    @pytest.mark.parametrize("dim", [1, 2])
    def test_coarse_dirichlet_near_cfl_limit(self, dim):
        """dt at 0.99 of the CFL limit on a grid spaced 25 apart: a scratch
        entry that each step read from the step before would grow like
        (1 + dt)**k and overflow within a few hundred steps."""
        extent, nx = [100.0, 75.0][:dim], [5, 4][:dim]
        dt = 0.99 * 25.0**2 / (2 * dim)
        cfg = config_from_dict({
            "name": f"coarse_{dim}d", "dim": dim, "extent": extent, "nx": nx,
            "dt": dt, "cfl_safety": 1.0, "T": 400 * dt, "alpha": -1.0, "beta": 1.0,
            "bc": {"kind": "dirichlet", "value": 0.5}, "snapshot_stride": 7,
            "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": 1},
        })
        assert_bitwise_reference(run(cfg), reference_run(cfg))


    @pytest.mark.parametrize("dim", [1, 2])
    def test_dirichlet_step_reads_only_what_it_wrote(self, dim):
        """With NaN-filled scratch buffers, a Dirichlet step without its
        face pins leaves the field finite; with them it is the unfused
        expression."""
        import hysterm.solver as solver

        g = Grid(extent=(2.0, 1.0)[:dim], nx=(9, 6)[:dim],
                 bc_kind=BC_DIRICHLET, bc_value=0.3)
        rng = np.random.default_rng(4)
        u = rng.uniform(0.0, 1.0, size=g.shape)
        hf = rng.choice([-1.0, 1.0], size=g.shape)
        expected = u + 0.008 * (laplacian(u, g) - hf)
        for axis in range(dim):
            np.moveaxis(expected, axis, 0)[[0, -1]] = 0.3
        ops = solver._step_ops(u, hf, np.full(g.shape, np.nan),
                               np.full(g.shape, np.nan), g, 0.008)
        solver._run_ops(ops[:-dim])
        assert np.isfinite(u).all()
        solver._run_ops(ops[-dim:])
        assert np.array_equal(u, expected)


class TestRelaySkip:
    """``run`` applies the relay rule only on steps where a state can
    change; the skipped steps must leave every output bitwise as it is."""

    def test_exact_threshold_landings(self):
        """dt = 1/8 on a flat field: u lands exactly on alpha and on beta,
        where the closed comparisons must wake the relay."""
        cfg = homogeneous_config(nx=[3], dt=0.125, cfl_safety=1.0, T=6.0)
        sol = run(cfg)
        assert (sol.u == 0.0).any() and (sol.u == 1.0).any()
        assert_bitwise_reference(sol, reference_run(cfg))

    def test_bundled_oscillator_equals_reference(self):
        """Every switch of the homogeneous oscillator wakes the relay after
        a long idle stretch inside the band."""
        cfg = bundled_config("oscillator")
        sol = run(cfg)
        assert sol.num_snapshots == 10_001
        assert_bitwise_reference(sol, reference_run(cfg))

    def test_relay_rule_runs_on_every_flip_and_not_every_step(self, monkeypatch):
        import hysterm.solver as solver

        cfg = config_from_dict({
            "name": "sine_2d", "dim": 2, "extent": [1.0, 1.0], "nx": [21, 21],
            "dt": 5e-4, "T": 0.3, "alpha": 0.25, "beta": 0.75,
            "bc": {"kind": "dirichlet", "value": 0.0},
            "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
        })
        us, hs, sup_m = reference_run(cfg)
        step_of = {u.tobytes(): k for k, u in enumerate(us)}
        assert len(step_of) == len(us)
        real, called = solver.relay_rule, []

        def counting(plus, u_new, th, scratch):
            called.append(step_of[u_new.tobytes()])
            return real(plus, u_new, th, scratch)

        monkeypatch.setattr(solver, "relay_rule", counting)
        assert_bitwise_reference(run(cfg), (us, hs, sup_m))
        flips = {k for k in range(1, len(hs)) if (hs[k] != hs[k - 1]).any()}
        assert flips and flips <= set(called)
        assert called == sorted(set(called))
        assert len(called) < len(us) - 1

    @given(dim=st.sampled_from([1, 2]),
           bc=st.sampled_from([None, -0.2, 0.3, 0.8]),
           level=st.floats(0.21, 0.39), curvature=st.floats(-0.3, 0.3),
           h0=st.sampled_from([-1, 1]), stride=st.sampled_from([1, 4]),
           freeze_h=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_run_equals_reference_across_band_exits(
        self, dim, bc, level, curvature, h0, stride, freeze_h
    ):
        """The field starts around the band (0.2, 0.4), is driven out of it
        and back for about three relay periods, so skipped and active steps
        alternate."""
        cfg = small_config(
            dim,
            {"kind": "neumann"} if bc is None else {"kind": "dirichlet", "value": bc},
            alpha=0.2, beta=0.4, T=0.6, snapshot_stride=stride, freeze_h=freeze_h,
            preset={"kind": "plateau", "level": level, "curvature": curvature,
                    "h0": h0},
        )
        assert_bitwise_reference(run(cfg), reference_run(cfg))


fields = st.lists(
    st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])),
    min_size=5, max_size=12,
)


class TestSolverProperties:
    @given(u0=fields, signs=st.lists(st.sampled_from([-1, 1]), min_size=12,
                                     max_size=12),
           bc=st.sampled_from([BC_NEUMANN, BC_DIRICHLET]))
    @settings(max_examples=60, deadline=None)
    def test_h_flips_only_where_u_reaches_a_threshold(self, u0, signs, bc):
        g = Grid(extent=(1.0,), nx=(len(u0),), bc_kind=bc, bc_value=0.5)
        u = np.array(u0)
        h = field_init(u, np.array(signs[: len(u0)], dtype=np.int8), TH)
        dt = 0.4 * g.dx[0] ** 2
        for _ in range(8):
            u, h_new = step(u, h, g, dt, TH)
            up, down = (h_new > h), (h_new < h)
            assert (u[up] >= TH.beta).all() and (u[down] <= TH.alpha).all()
            h = h_new

    @given(u0=st.floats(0.05, 0.95), wall=st.floats(0.1, 0.9),
           ny=st.integers(3, 6), steps=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_2d_wall_equals_1d_along_every_column(self, u0, wall, ny, steps):
        """The y-uniform 2D Neumann wall is the 1D wall on every column: the
        y stencil's wrap entries across rows must all be overwritten."""
        base = {
            "name": "wall", "dt": 5e-4, "T": steps * 5e-4, "alpha": 0.0,
            "beta": 1.0, "bc": {"kind": "neumann"},
            "preset": {"kind": "two_phase_wall", "u0": u0, "wall_position": wall},
        }
        one = run(config_from_dict(dict(base, dim=1, extent=[1.0], nx=[21])))
        two = run(config_from_dict(
            dict(base, dim=2, extent=[1.0, 0.25], nx=[21, ny])
        ))
        for j in range(ny):
            assert np.array_equal(two.u[:, :, j], one.u)
            assert np.array_equal(two.h[:, :, j], one.h)
        assert two.sup_bound_M == one.sup_bound_M

    @given(level=st.floats(-0.9, 0.9), curvature=st.floats(-2.0, 2.0),
           dim=st.sampled_from([1, 2]),
           bc=st.sampled_from([None, -1.2, 0.0, 0.3, 1.2]),
           freeze_h=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_maximum_principle_and_sup_bound(
        self, level, curvature, dim, bc, freeze_h
    ):
        """With the CFL bound, one step moves max u up and min u down by at
        most dt (the relay term), Dirichlet values included; with every
        step stored, sup_bound_M is max |u| over the snapshots exactly."""
        cfg = small_config(
            dim,
            {"kind": "neumann"} if bc is None else {"kind": "dirichlet", "value": bc},
            alpha=-1.0, beta=1.0, snapshot_stride=1, T=0.08, freeze_h=freeze_h,
            preset={"kind": "plateau", "level": level, "curvature": curvature,
                    "h0": 1},
        )
        sol = run(cfg)
        pinned = [] if bc is None else [bc]
        tol = cfg.dt + 1e-12
        for prev, nxt in zip(sol.u[:-1], sol.u[1:]):
            assert nxt.max() <= max([prev.max(), *pinned]) + tol
            assert nxt.min() >= min([prev.min(), *pinned]) - tol
        assert sol.sup_bound_M == np.abs(sol.u).max()
