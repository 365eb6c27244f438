"""Explicit Euler integration: ODE exactness, convergence, invariants."""

import numpy as np
import pytest

from hysterm.config import config_from_dict
from hysterm.errors import CFLError, ConfigError
from hysterm.grid import BC_DIRICHLET, Grid
from hysterm.relay import Thresholds
from hysterm.solver import cfl_limit, run, step

from conftest import fourier_heat_oracle, frozen_heat_config

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
