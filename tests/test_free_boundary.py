"""Free-boundary extraction: jump events, walls, separation, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wall_points
from hysterm.config import config_from_dict
from hysterm.free_boundary import (
    classify,
    default_grad_tol,
    default_level_tol,
    separation_check,
)
from hysterm.grid import BC_DIRICHLET, BC_NEUMANN, Grid, SpaceTimeSolution
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
        assert len(at.walls) == 0 and at.gamma_v_count == 0
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
        assert len(at.gamma_alpha) == len(at.gamma_beta) == at.gamma_v_count == 0
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
        assert at.gamma_v_count > 0
        t, idx = wall_points(at)
        xs = set(idx[:, 0].tolist())
        mid = wall_sol.grid.nx[0] // 2
        assert xs <= {mid - 1, mid, mid + 1}
        u = wall_sol.u[(t, *idx.T)]
        assert ((at.level_tol < u) & (u < 1.0 - at.level_tol)).all()

    def test_wall_values_strictly_inside_band(self, wall_sol, wall_atlas):
        at = wall_atlas
        t, idx = wall_points(at)
        u = wall_sol.u[(t, *idx.T)]
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
        assert len(at.walls) == 0 and at.gamma_v_count == 0

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
        assert at.walls.tolist() == [[0, 0, K - 1, 4]]  # one face, all slices
        assert at.gamma_v_count == 2 * K  # both endpoints of the face
        assert set(wall_points(at)[1][:, 0].tolist()) == {4, 5}

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
        assert at.walls.tolist() == [[0, 0, K - 1, 4], [0, 0, K - 1, 5]]
        assert at.gamma_v_count == 4 * K
        ts, idx = wall_points(at)
        xs = idx[:, 0]
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
                     "gamma_alpha", "walls", "wall_segments"):
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
            for name in ("gamma_alpha", "gamma_beta", "gamma_0", "gamma_star")
        }
        counts["gamma_v"] = at.gamma_v_count
        assert counts == {"gamma_alpha": 52, "gamma_beta": 0, "gamma_v": 856,
                          "gamma_0": 16, "gamma_star": 36}

    def test_walls_are_face_endpoint_pairs(self, sine_2d):
        """Every face run joins two neighbours along its axis, in opposite
        relay states at every snapshot of the run."""
        sol, at = sine_2d
        assert len(at.walls) > 0
        for axis, first, last, *face in at.walls.tolist():
            assert axis in (0, 1) and first <= last
            other = list(face)
            other[axis] += 1
            span = slice(first, last + 1)
            assert (sol.h[(span, *face)] != sol.h[(span, *other)]).all()

    def test_atlas_csv_2d(self, sine_2d, tmp_path):
        _, at = sine_2d
        p = tmp_path / "atlas.csv"
        write_atlas_csv(at, p, dim=2)
        lines = p.read_text().splitlines()
        assert lines[0] == "t_index,x_index,y_index,kind,u_value,grad_norm,dt_u"
        assert len(lines) == 1 + len(at.gamma_alpha) + len(at.gamma_beta)


def reference_vertical_walls(sol, level_tol, wall_min_steps):
    """The per-snapshot wall extraction the face runs replaced, kept as the
    reference: (t_index, idx) of both endpoints of every qualifying face,
    from a forward run length and a backward run maximum, snapshot by
    snapshot."""
    th = sol.thresholds
    lo, hi = th.alpha + level_tol, th.beta - level_tol
    dim = sol.grid.dim
    ts, idxs = [], []
    K = sol.num_snapshots
    for axis in range(dim):
        sl_a = [slice(None)] * (dim + 1)
        sl_b = [slice(None)] * (dim + 1)
        sl_a[axis + 1] = slice(None, -1)
        sl_b[axis + 1] = slice(1, None)
        sl_a, sl_b = tuple(sl_a), tuple(sl_b)
        ha, hb = sol.h[sl_a], sol.h[sl_b]
        ua, ub = sol.u[sl_a], sol.u[sl_b]
        active = (ha != hb) & (ua > lo) & (ua < hi) & (ub > lo) & (ub < hi)
        runs = np.zeros(active.shape, dtype=np.int64)
        runs[0] = active[0]
        for k in range(1, K):
            runs[k] = (runs[k - 1] + 1) * active[k]
        peak = runs.copy()
        for k in range(K - 2, -1, -1):
            cont = active[k] & active[k + 1]
            np.maximum(peak[k], np.where(cont, peak[k + 1], 0), out=peak[k])
        t, *face = np.nonzero(active & (peak >= wall_min_steps))
        face = np.stack(face, axis=1)
        other = face.copy()
        other[:, axis] += 1
        ts.append(np.repeat(t, 2))
        idxs.append(np.stack([face, other], axis=1).reshape(-1, dim))
    return np.concatenate(ts), np.concatenate(idxs)


def reference_segments(t, idx) -> list:
    """Maximal runs of consecutive snapshots per point, as lists
    ``[first, last, i0, ...]`` sorted by point, then time."""
    rows = []
    for point, k in sorted({(tuple(i), k) for k, i in zip(t.tolist(), idx.tolist())}):
        if rows and rows[-1][2:] == list(point) and rows[-1][1] == k - 1:
            rows[-1][1] = k
        else:
            rows.append([k, k, *point])
    return rows


@st.composite
def relay_stacks(draw):
    """Random +-1 relay and u stacks on a small 1D or 2D grid; h keeps its
    value from one snapshot to the next with a drawn probability, and one
    drawn row of points may sit between two opposite neighbours throughout,
    so that it borders two wall faces."""
    dim = draw(st.sampled_from([1, 2]))
    nx = tuple(draw(st.integers(3, 7)) for _ in range(dim))
    bc = draw(st.sampled_from([BC_NEUMANN, BC_DIRICHLET]))
    K = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    h = np.empty((K,) + nx, dtype=np.int8)
    h[0] = rng.choice([-1, 1], size=nx)
    for k in range(1, K):
        h[k] = np.where(rng.random(nx) < keep, h[k - 1], rng.choice([-1, 1], size=nx))
    if draw(st.booleans()):
        j = draw(st.integers(1, nx[0] - 2))
        h[:, j - 1] = h[:, j + 1] = 1
        h[:, j] = -1
    # inside the band (0.05, 0.95) that level_tol 0.05 leaves, or outside it,
    # its two ends included
    inside = rng.random((K,) + nx) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    u = np.where(inside, rng.choice([0.3, 0.5, 0.9], size=inside.shape),
                 rng.choice([-0.1, 0.05, 0.95, 1.1], size=inside.shape))
    return SpaceTimeSolution(
        grid=Grid(extent=(1.0,) * dim, nx=nx, bc_kind=bc),
        thresholds=Thresholds(0.0, 1.0),
        times=np.arange(K) * 1e-3,
        u=u,
        h=h,
    )


class TestWallRuns:
    @given(sol=relay_stacks(), wall_min_steps=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_runs_expand_to_reference_walls(self, sol, wall_min_steps):
        """The face runs expand to exactly the per-snapshot endpoint
        multiset, the count is its length, and the segments equal the
        reference runs of those points."""
        at = classify(sol, level_tol=0.05, wall_min_steps=wall_min_steps)
        ref_t, ref_idx = reference_vertical_walls(sol, 0.05, wall_min_steps)
        t, idx = wall_points(at)

        def multiset(t, idx):
            return sorted(zip(t.tolist(), map(tuple, idx.tolist())))

        assert multiset(t, idx) == multiset(ref_t, ref_idx)
        assert at.gamma_v_count == ref_t.size
        assert at.wall_segments.tolist() == reference_segments(ref_t, ref_idx)
        assert at.wall_segments.dtype == np.int64
        lengths = at.walls[:, 2] - at.walls[:, 1] + 1
        assert (lengths >= wall_min_steps).all()
        order = np.lexsort((at.walls[:, 1], *at.walls[:, 3:].T[::-1], at.walls[:, 0]))
        assert (order == np.arange(len(at.walls))).all()
