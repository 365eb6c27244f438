"""Exact distance kernels against their brute-force all-pairs definitions.

``separation_check`` and the segment form of ``parabolic_distance`` must
give the same floats, bit for bit, as the direct minimum over every pair
of points; the references below are those direct definitions.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wall_points
from hysterm.config import config_from_dict
from hysterm.free_boundary import classify, separation_check
from hysterm.grid import (
    BC_DIRICHLET,
    BC_NEUMANN,
    Grid,
    SpaceTimePoint,
    SpaceTimeSolution,
    parabolic_distance,
    time_segments,
)
from hysterm.relay import Thresholds
from hysterm.solver import run

TH = Thresholds(0.0, 1.0)


def point_coords(sol, t_index, idx) -> np.ndarray:
    """(t, x...) rows of grid points given as (n,) times and (n, dim) indices."""
    axes = sol.grid.axes()
    cols = [sol.times[t_index]] + [axes[a][idx[:, a]] for a in range(sol.grid.dim)]
    return np.stack(cols, axis=1)


def brute_separation(sol, level_tol) -> float:
    """min over every (alpha point, beta point) pair, all pairs at once."""
    interior = sol.grid.interior()[None]
    near_a = (np.abs(sol.u - sol.thresholds.alpha) <= level_tol) & interior
    near_b = (np.abs(sol.u - sol.thresholds.beta) <= level_tol) & interior
    a, b = (
        point_coords(sol, nz[0], np.stack(nz[1:], axis=1))
        for nz in (np.nonzero(near_a), np.nonzero(near_b))
    )
    if a.shape[0] == 0 or b.shape[0] == 0:
        return sol.r_max()
    lag = np.abs(a[:, :1] - b[None, :, 0])
    d2 = ((a[:, None, 1:] - b[None, :, 1:]) ** 2).sum(axis=-1)
    crit = np.maximum(np.sqrt(d2), np.sqrt(lag))
    return min(sol.r_max(), float(crit.min()))


def brute_parabolic_distance(z, t_index, idx, sol) -> float:
    """min over every point of S at or below z of max(d, sqrt(lag))."""
    S = point_coords(sol, t_index, idx)
    below = t_index <= z.t_index
    if not below.any():
        return sol.r_max()
    x0 = sol.grid.coords(z.idx)
    d = np.sqrt(((S[below, 1:] - x0[None, :]) ** 2).sum(axis=1))
    lag = sol.times[z.t_index] - S[below, 0]
    return float(min(sol.r_max(), np.maximum(d, np.sqrt(lag)).min()))


@st.composite
def solutions(draw, values=(0.0, 1.0, 0.5, 0.02, 0.97, 0.45, 0.55)):
    """Small 1D or 2D solutions whose values are drawn from ``values``."""
    dim = draw(st.sampled_from([1, 2]))
    nx = tuple(draw(st.integers(5, 9)) for _ in range(dim))
    extent = tuple(draw(st.floats(0.5, 3.0)) for _ in range(dim))
    bc = draw(st.sampled_from([BC_NEUMANN, BC_DIRICHLET]))
    K = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(1e-4, 0.3), min_size=K - 1, max_size=K - 1))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    weights = np.array(
        draw(st.lists(st.integers(0, 4), min_size=len(values), max_size=len(values))
             .filter(any)),
        dtype=float,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.choice(values, size=(K,) + nx, p=weights / weights.sum())
    return SpaceTimeSolution(
        grid=Grid(extent=extent, nx=nx, bc_kind=bc),
        thresholds=TH,
        times=times,
        u=u,
        h=np.where(u > 0.5, 1, -1).astype(np.int8),
    )


class TestSeparationKernel:
    @given(sol=solutions(), level_tol=st.sampled_from([1e-9, 0.05, 0.5, 0.6]))
    @settings(max_examples=150, deadline=None)
    def test_equals_all_pairs(self, sol, level_tol):
        """Sparse, dense, empty and same-slice alpha/beta sets (a value's
        weight may be 0); at 0.5 and 0.6 a point near 0.5 lies in both sets
        at once."""
        assert separation_check(sol, level_tol) == brute_separation(sol, level_tol)


LEVELSETS_2D = {
    "name": "levelsets_2d", "dim": 2, "extent": [1.0, 1.0], "nx": [21, 21],
    "dt": 5e-4, "T": 0.075, "alpha": 0.2, "beta": 0.7,
    "bc": {"kind": "dirichlet", "value": 0.0}, "snapshot_stride": 5,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}
HEAT_2D = {
    "name": "heat_2d", "dim": 2, "extent": [1.0, 1.0], "nx": [81, 81],
    "dt": 3e-5, "T": 0.3, "alpha": 0.25, "beta": 0.75,
    "bc": {"kind": "dirichlet", "value": 0.0}, "snapshot_stride": 500,
    "preset": {"kind": "sine", "amplitude": 1.0, "modes": 1, "h0": -1},
}


@pytest.fixture(scope="module")
def levelsets_sol():
    return run(config_from_dict(LEVELSETS_2D))


class TestSeparationPinned:
    def test_levelsets_2d_default_tolerance(self, levelsets_sol):
        assert separation_check(levelsets_sol) == 0.04999999999999999

    def test_heat_2d_explicit_tolerance(self):
        sol = run(config_from_dict(HEAT_2D))
        assert separation_check(sol, level_tol=0.01) == 0.1629800601300662

    def test_peak_memory(self, levelsets_sol):
        """The all-pairs scan peaked near 320 MiB on this 21x21 run with
        31 snapshots; the kernel needs a few distance maps."""
        tracemalloc.start()
        try:
            separation_check(levelsets_sol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def expand(first, last, idx):
    """(t_index, idx) of every point the runs put in the set, repeats kept."""
    t = [k for a, b in zip(first.tolist(), last.tolist()) for k in range(a, b + 1)]
    return np.array(t, dtype=np.int64), np.repeat(idx, last - first + 1, axis=0)


@st.composite
def point_sets(draw):
    """A solution, random runs of points (single points, repeats, and runs
    that overlap or abut), and a query."""
    sol = draw(solutions(values=(0.5,)))
    K, shape = sol.num_snapshots, sol.grid.shape
    n = draw(st.integers(0, 40))
    first = np.array(draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n)),
                     dtype=np.int64)
    length = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n,
                                    max_size=n)), dtype=np.int64)
    last = np.minimum(first + length, K - 1)
    idx = np.array(
        [draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)) for m in shape],
        dtype=np.int64,
    ).reshape(len(shape), n).T
    if n and draw(st.booleans()):
        # stretch the first point into a run over consecutive snapshots
        lo = draw(st.integers(0, K - 1))
        hi = draw(st.integers(lo, K - 1))
        first = np.concatenate([first, [lo]])
        last = np.concatenate([last, [hi]])
        idx = np.concatenate([idx, idx[:1]])
    z = SpaceTimePoint(
        draw(st.integers(0, K - 1)), tuple(draw(st.integers(0, m - 1)) for m in shape)
    )
    return sol, first, last, idx, z


class TestSegmentDistance:
    @given(case=point_sets())
    @settings(max_examples=200, deadline=None)
    def test_equals_per_point_scan(self, case):
        sol, first, last, idx, z = case
        seg = time_segments(first, last, idx)
        assert parabolic_distance(z, seg, sol) == brute_parabolic_distance(
            z, *expand(first, last, idx), sol
        )

    @given(case=point_sets())
    @settings(max_examples=100, deadline=None)
    def test_segments_cover_the_point_set(self, case):
        """Runs are maximal and disjoint, and expand to the distinct points."""
        _, first, last, idx, _ = case
        seg = time_segments(first, last, idx)
        assert (seg[:, 0] <= seg[:, 1]).all()
        expanded = {
            (k, *row[2:].tolist()) for row in seg for k in range(row[0], row[1] + 1)
        }
        t, pts = expand(first, last, idx)
        assert expanded == {(k, *i) for k, i in zip(t.tolist(), pts.tolist())}
        assert len(expanded) == int((seg[:, 1] - seg[:, 0] + 1).sum())
        same_point = (seg[1:, 2:] == seg[:-1, 2:]).all(axis=1)
        assert (seg[1:, 0][same_point] > seg[:-1, 1][same_point] + 1).all()

    def test_plateau_walls_are_few_segments(self, plateau_sol, plateau_atlas):
        """The bundled plateau's wall points collapse to a few runs, and
        every query through them matches the per-point scan."""
        at = plateau_atlas
        t, idx = wall_points(at)
        assert at.wall_segments.shape[0] < t.size // 100
        queries = at.points(at.gamma_0) + [
            SpaceTimePoint(k, tuple(i))
            for k, i in zip(t[::997].tolist(), idx[::997].tolist())
        ]
        for z in queries:
            assert parabolic_distance(z, at.wall_segments, plateau_sol) == (
                brute_parabolic_distance(z, t, idx, plateau_sol)
            )


def test_classify_builds_wall_segments_2d(levelsets_sol):
    at = classify(levelsets_sol)
    t, idx = wall_points(at)
    assert t.size > 0
    assert np.array_equal(at.wall_segments, time_segments(t, t, idx))
