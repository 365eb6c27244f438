"""Free-boundary extraction: jump events, walls, separation, serialization."""

import numpy as np
import pytest

from hysterm.config import config_from_dict
from hysterm.free_boundary import (
    VERTICAL_WALL,
    classify,
    default_grad_tol,
    default_level_tol,
    separation_check,
)
from hysterm.grid import Grid, SpaceTimeSolution
from hysterm.relay import Thresholds
from hysterm.reports import write_atlas_csv
from hysterm.solver import run


def small_config(**overrides):
    data = {
        "name": "fb",
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


class TestOscillatorAtlas:
    def test_slab_events_all_degenerate(self, oscillator_sol, oscillator_atlas):
        at = oscillator_atlas
        n_space = oscillator_sol.grid.nx[0]
        assert len(at.gamma_alpha) > 0 and len(at.gamma_alpha) % n_space == 0
        assert len(at.gamma_beta) > 0 and len(at.gamma_beta) % n_space == 0
        assert len(at.gamma_v) == 0
        assert len(at.gamma_star) == 0
        jumps = np.concatenate([at.gamma_alpha, at.gamma_beta])
        assert set(at.gamma_0.tolist()) == set(jumps.tolist())

    def test_event_levels(self, oscillator_atlas):
        at = oscillator_atlas
        assert (np.abs(at.u[at.gamma_alpha] - 0.0) <= at.level_tol).all()
        assert (np.abs(at.u[at.gamma_beta] - 1.0) <= at.level_tol).all()

    def test_down_jump_crossing_witness(self, oscillator_sol, oscillator_atlas):
        sol, at = oscillator_sol, oscillator_atlas
        rows = at.gamma_alpha
        assert (at.u[rows] <= 0.0 + at.level_tol).all()
        before = (at.t_index[rows] - 1, *at.idx[rows].T)
        assert (sol.u[before] > 0.0).all()

    def test_alternation_at_fixed_point(self, oscillator_atlas):
        at = oscillator_atlas
        per_point = {}
        for r in np.concatenate([at.gamma_alpha, at.gamma_beta]).tolist():
            per_point.setdefault(tuple(at.idx[r].tolist()), []).append(
                (int(at.t_index[r]), int(at.kind[r]))
            )
        for evs in per_point.values():
            evs.sort()
            kinds = [kind for _, kind in evs]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_omega_masks_partition(self, oscillator_sol):
        omega_plus, omega_minus = oscillator_sol.h > 0, oscillator_sol.h < 0
        assert not (omega_plus & omega_minus).any()
        assert (omega_plus | omega_minus).all()


class TestNoBoundaryCases:
    def test_no_crossing_empty_atlas(self):
        cfg = small_config(
            alpha=-10.0,
            T=2.0,
            preset={"kind": "homogeneous", "u0": 0.5, "h0": 1},
        )
        sol = run(cfg)
        at = classify(sol)
        assert len(at.gamma_alpha) == len(at.gamma_beta) == len(at.gamma_v) == 0
        assert (sol.h > 0).all()

    def test_single_snapshot_rejected(self):
        g = Grid(extent=(1.0,), nx=(5,))
        sol = SpaceTimeSolution(
            grid=g,
            thresholds=Thresholds(0, 1),
            times=np.array([0.0]),
            u=np.zeros((1,) + g.shape),
            h=np.full((1,) + g.shape, -1, dtype=np.int8),
        )
        with pytest.raises(ValueError):
            classify(sol)


class TestVerticalWalls:
    def test_two_phase_wall_detected_at_midline(self, wall_sol, wall_atlas):
        at = wall_atlas
        assert len(at.gamma_v) > 0
        xs = set(at.idx[at.gamma_v, 0].tolist())
        mid = wall_sol.grid.nx[0] // 2
        assert xs <= {mid - 1, mid, mid + 1}
        u = at.u[at.gamma_v]
        assert ((at.level_tol < u) & (u < 1.0 - at.level_tol)).all()

    def test_wall_values_strictly_inside_band(self, wall_atlas):
        at = wall_atlas
        u = at.u[at.gamma_v]
        assert ((0.0 + at.level_tol < u) & (u < 1.0 - at.level_tol)).all()

    def test_short_lived_interface_not_a_wall(self):
        """An h-interface that a sweeping front erases within two snapshots
        stays out of gamma_v."""
        g = Grid(extent=(1.0,), nx=(11,))
        times = np.arange(0, 0.011, 1e-3)
        K = times.size
        u = np.full((K,) + g.shape, 0.5)
        h = np.full((K,) + g.shape, -1, dtype=np.int8)
        h[3, :5] = 1  # one-snapshot interface at face (4,5)
        sol = SpaceTimeSolution(
            grid=g, thresholds=Thresholds(0, 1), times=times, u=u, h=h
        )
        at = classify(sol, level_tol=1e-3, wall_min_steps=3)
        assert (at.kind[at.gamma_v] != VERTICAL_WALL).all()

    def test_persistent_interface_is_a_wall(self):
        g = Grid(extent=(1.0,), nx=(11,))
        times = np.arange(0, 0.011, 1e-3)
        K = times.size
        u = np.full((K,) + g.shape, 0.5)
        h = np.full((K,) + g.shape, -1, dtype=np.int8)
        h[:, :5] = 1
        sol = SpaceTimeSolution(
            grid=g, thresholds=Thresholds(0, 1), times=times, u=u, h=h
        )
        at = classify(sol, level_tol=1e-3, wall_min_steps=3)
        assert len(at.gamma_v) == 2 * K  # both endpoints of one face, all slices
        assert set(at.idx[at.gamma_v, 0].tolist()) == {4, 5}

    def test_point_between_two_walls_listed_twice(self):
        """x=5 borders the persistent faces (4,5) and (5,6): one row per face."""
        g = Grid(extent=(1.0,), nx=(11,))
        times = np.arange(0, 0.011, 1e-3)
        K = times.size
        u = np.full((K,) + g.shape, 0.5)
        h = np.full((K,) + g.shape, 1, dtype=np.int8)
        h[:, 5] = -1
        sol = SpaceTimeSolution(
            grid=g, thresholds=Thresholds(0, 1), times=times, u=u, h=h
        )
        at = classify(sol, level_tol=1e-3, wall_min_steps=3)
        assert len(at.gamma_v) == 4 * K
        xs = at.idx[at.gamma_v, 0]
        ts = at.t_index[at.gamma_v]
        for k in range(K):
            assert sorted(xs[ts == k].tolist()) == [4, 5, 5, 6]


class TestSeparation:
    def test_flat_solution_gives_cap(self):
        g = Grid(extent=(1.0,), nx=(11,))
        times = np.arange(0, 0.011, 1e-3)
        u = np.full((times.size,) + g.shape, 0.5)
        sol = SpaceTimeSolution(
            grid=g,
            thresholds=Thresholds(0, 1),
            times=times,
            u=u,
            h=np.full(u.shape, -1, dtype=np.int8),
        )
        assert separation_check(sol, level_tol=1e-6) == sol.r_max()

    def test_oscillator_separation_near_sqrt_band(self, oscillator_sol):
        sep = separation_check(oscillator_sol)
        assert 0.9 <= sep <= 1.0

    def test_consecutive_sweep_gives_sqrt_dt(self):
        dt = 1e-4
        g = Grid(extent=(1.0,), nx=(11,))
        times = np.array([0.0, dt])
        u = np.stack([np.full(g.shape, 0.0), np.full(g.shape, 1.0)])
        h = np.stack(
            [np.full(g.shape, -1, dtype=np.int8), np.full(g.shape, 1, dtype=np.int8)]
        )
        sol = SpaceTimeSolution(
            grid=g, thresholds=Thresholds(0, 1), times=times, u=u, h=h
        )
        sep = separation_check(sol, level_tol=1e-9)
        assert sep == pytest.approx(np.sqrt(dt), abs=1e-12)


class TestRefinement:
    @pytest.mark.parametrize("dt", [1e-3, 5e-4, 2.5e-4])
    def test_event_times_converge_first_order(self, dt):
        """First down-switch of the oscillator is at t=0.5 exactly."""
        cfg = small_config(dt=dt, T=1.0)
        sol = run(cfg)
        at = classify(sol)
        t_first = sol.times[at.t_index[at.gamma_alpha]].min()
        assert abs(t_first - 0.5) <= dt + 1e-12


class TestDefaultsAndSerialization:
    def test_default_tolerances(self, oscillator_sol):
        lt = default_level_tol(oscillator_sol)
        gt = default_grad_tol(oscillator_sol)
        assert lt == pytest.approx(2.0 * (1e-3 + 0.1**2), rel=1e-9)
        assert gt == pytest.approx(0.5)

    def test_atlas_csv_columns_and_determinism(self, oscillator_atlas, tmp_path):
        p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        write_atlas_csv(oscillator_atlas, p1, dim=1)
        write_atlas_csv(oscillator_atlas, p2, dim=1)
        lines = p1.read_text().splitlines()
        assert lines[0] == "t_index,x_index,kind,u_value,grad_norm,dt_u"
        assert p1.read_bytes() == p2.read_bytes()
        assert len(lines) == 1 + len(oscillator_atlas.gamma_0) + len(
            oscillator_atlas.gamma_star
        )

    def test_classify_deterministic(self, oscillator_sol):
        a1 = classify(oscillator_sol)
        a2 = classify(oscillator_sol)
        for name in ("t_index", "idx", "kind", "u", "grad_norm", "dt_u",
                     "gamma_alpha", "gamma_v"):
            assert np.array_equal(getattr(a1, name), getattr(a2, name))


SINE_2D = {
    "name": "sine_2d",
    "dim": 2,
    "extent": [1.0, 1.0],
    "nx": [21, 21],
    "dt": 5e-4,
    "T": 0.075,
    "alpha": 0.2,
    "beta": 0.7,
    "bc": {"kind": "dirichlet", "value": 0.0},
    "snapshot_stride": 3,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}


@pytest.fixture(scope="module")
def sine_2d():
    sol = run(config_from_dict(SINE_2D))
    return sol, classify(sol)


class TestClassify2D:
    def test_class_counts(self, sine_2d):
        _, at = sine_2d
        counts = {
            name: len(getattr(at, name))
            for name in ("gamma_alpha", "gamma_beta", "gamma_v", "gamma_0",
                         "gamma_star")
        }
        assert counts == {"gamma_alpha": 52, "gamma_beta": 0, "gamma_v": 856,
                          "gamma_0": 16, "gamma_star": 36}

    def test_walls_are_face_endpoint_pairs(self, sine_2d):
        sol, at = sine_2d
        first, second = at.gamma_v.reshape(-1, 2).T
        assert np.array_equal(at.t_index[first], at.t_index[second])
        step = at.idx[second] - at.idx[first]
        assert ((step == 0) | (step == 1)).all()
        assert (step.sum(axis=1) == 1).all()
        h_first = sol.h[(at.t_index[first], *at.idx[first].T)]
        h_second = sol.h[(at.t_index[second], *at.idx[second].T)]
        assert (h_first != h_second).all()

    def test_atlas_csv_2d(self, sine_2d, tmp_path):
        _, at = sine_2d
        p = tmp_path / "atlas.csv"
        write_atlas_csv(at, p, dim=2)
        lines = p.read_text().splitlines()
        assert lines[0] == "t_index,x_index,y_index,kind,u_value,grad_norm,dt_u"
        assert len(lines) == 1 + len(at.gamma_alpha) + len(at.gamma_beta) + len(
            at.gamma_v
        )
