"""Discrete derivatives, parabolic cylinders, parabolic distance."""

import numpy as np
import pytest

from hysterm.free_boundary import grad_norm_stack
from hysterm.grid import (
    INTERIOR_MARGIN,
    Grid,
    SpaceTimePoint,
    SpaceTimeSolution,
    boundary_distance,
    cylinder_slices,
    gradient,
    hessian,
    laplacian,
    parabolic_distance,
    time_derivative,
    time_segments,
)
from hysterm.relay import Thresholds

TH = Thresholds(0.0, 1.0)


def make_sol(g: Grid, times, u=None, h_val=-1) -> SpaceTimeSolution:
    times = np.asarray(times, dtype=float)
    shape = (times.size,) + g.shape
    u = np.zeros(shape) if u is None else u
    return SpaceTimeSolution(
        grid=g,
        thresholds=TH,
        times=times,
        u=u,
        h=np.full(shape, h_val, dtype=np.int8),
    )


def segments(sol: SpaceTimeSolution, pts) -> np.ndarray:
    """``time_segments`` rows of a list of SpaceTimePoints."""
    t = np.array([p.t_index for p in pts], dtype=np.int64)
    idx = np.array([p.idx for p in pts], dtype=np.int64)
    return time_segments(t, t, idx.reshape(len(pts), sol.grid.dim))


def cylinder_set(sol: SpaceTimeSolution, z0: SpaceTimePoint, r: float) -> set:
    """The points of the discrete lower cylinder of radius r at z0."""
    t_idx, mask = cylinder_slices(sol, z0, r)
    spatial = [tuple(i) for i in np.argwhere(mask).tolist()]
    return {SpaceTimePoint(k, idx) for k in t_idx.tolist() for idx in spatial}


class TestGridBasics:
    def test_spacing(self):
        g = Grid(extent=(1.0,), nx=(11,))
        assert g.dx == (0.1,)
        assert np.allclose(g.axes()[0], np.linspace(0, 1, 11))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid(extent=(1.0,), nx=(2,))
        with pytest.raises(ValueError):
            Grid(extent=(-1.0,), nx=(5,))
        with pytest.raises(ValueError):
            Grid(extent=(1.0, 1.0, 1.0), nx=(5, 5, 5))

    def test_boundary_gap(self):
        g = Grid(extent=(1.0,), nx=(11,))
        assert g.boundary_gap((5,)) == pytest.approx(0.5)
        assert g.boundary_gap((1,)) == pytest.approx(0.1)


class TestLaplacian:
    def test_constant_is_harmonic(self):
        g = Grid(extent=(1.0,), nx=(21,))
        assert np.allclose(laplacian(np.full(g.shape, 3.7), g), 0.0)

    def test_exact_on_quadratic(self):
        g = Grid(extent=(1.0,), nx=(21,))
        f = g.axes()[0] ** 2
        assert np.allclose(laplacian(f, g)[1:-1], 2.0, atol=1e-10)

    def test_sine_truncation(self):
        g = Grid(extent=(np.pi,), nx=(201,))
        x = g.axes()[0]
        err = np.abs(laplacian(np.sin(x), g)[1:-1] + np.sin(x)[1:-1])
        assert err.max() <= 1e-3

    def test_2d_five_point(self):
        g = Grid(extent=(1.0, 1.0), nx=(21, 21))
        X, Y = np.meshgrid(*g.axes(), indexing="ij")
        assert np.allclose(laplacian(X**2 + Y**2, g)[1:-1, 1:-1], 4.0, atol=1e-9)

    def test_linearity(self):
        g = Grid(extent=(1.0,), nx=(31,))
        rng = np.random.default_rng(7)
        f1, f2 = rng.normal(size=g.shape), rng.normal(size=g.shape)
        lhs = laplacian(2.0 * f1 - 3.0 * f2, g)
        rhs = 2.0 * laplacian(f1, g) - 3.0 * laplacian(f2, g)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_shape_mismatch(self):
        g = Grid(extent=(1.0,), nx=(11,))
        with pytest.raises(ValueError):
            laplacian(np.zeros(12), g)


class TestGradientHessian:
    def test_gradient_constant_and_affine(self):
        g = Grid(extent=(1.0,), nx=(21,))
        assert np.allclose(gradient(np.full(g.shape, 2.0), g), 0.0)
        assert np.allclose(gradient(g.axes()[0], g)[0][1:-1], 1.0)

    def test_gradient_cubic_truncation(self):
        g = Grid(extent=(2.0,), nx=(201,))
        x = g.axes()[0]
        val = gradient(x**3, g)[0][100]
        assert x[100] == pytest.approx(1.0)
        assert val == pytest.approx(3.0, abs=1e-3)

    def test_hessian_bilinear_cross(self):
        g = Grid(extent=(1.0, 1.0), nx=(15, 15))
        X, Y = np.meshgrid(*g.axes(), indexing="ij")
        H = hessian(X * Y, g)
        assert np.allclose(H[0, 1][1:-1, 1:-1], 1.0, atol=1e-10)
        assert np.allclose(H[0, 1], H[1, 0])

    def test_hessian_quartic_truncation(self):
        g = Grid(extent=(1.0,), nx=(101,))
        x = g.axes()[0]
        val = hessian(x**4, g)[0, 0][50]
        assert x[50] == pytest.approx(0.5)
        assert val == pytest.approx(3.0, abs=1e-3)

    def test_hessian_trace_equals_laplacian(self):
        g = Grid(extent=(1.0, 1.0), nx=(13, 17))
        rng = np.random.default_rng(3)
        f = rng.normal(size=g.shape)
        H = hessian(f, g)
        assert np.allclose((H[0, 0] + H[1, 1])[1:-1, 1:-1],
                           laplacian(f, g)[1:-1, 1:-1], atol=1e-9)


STACK_GRIDS = [
    pytest.param(Grid(extent=(2.0,), nx=(21,)), id="1d"),
    pytest.param(Grid(extent=(1.0, 1.5), nx=(9, 13)), id="2d"),
    pytest.param(
        Grid(extent=(1.0, 1.5), nx=(9, 13), bc_kind="dirichlet"), id="2d_dirichlet"
    ),
]


class TestSnapshotStacks:
    """Operators on a (K,) + shape stack against the per-snapshot loop."""

    @pytest.mark.parametrize("op", [laplacian, gradient, hessian])
    @pytest.mark.parametrize("g", STACK_GRIDS)
    def test_stack_matches_per_snapshot_loop(self, g, op):
        stack = np.random.default_rng(5).normal(size=(4,) + g.shape)
        # the snapshot axis follows the operator's component axes
        axis = op(stack[0], g).ndim - g.dim
        loop = np.stack([op(f, g) for f in stack], axis=axis)
        assert np.array_equal(op(stack, g), loop)

    @pytest.mark.parametrize("g", STACK_GRIDS)
    def test_grad_norm_matches_per_snapshot_loop(self, g):
        u = np.random.default_rng(6).normal(size=(3,) + g.shape)
        sol = make_sol(g, [0.0, 0.1, 0.3], u=u)
        loop = [np.sqrt((gradient(f, g) ** 2).sum(axis=0)) for f in u]
        assert np.array_equal(grad_norm_stack(sol), np.stack(loop))

    def test_time_derivative_index_array(self):
        g = Grid(extent=(1.0, 1.0), nx=(5, 6))
        u = np.random.default_rng(7).normal(size=(4,) + g.shape)
        sol = make_sol(g, [0.0, 0.1, 0.3, 0.35], u=u)
        loop = np.stack([time_derivative(sol, k) for k in (1, 3)])
        assert np.array_equal(time_derivative(sol, np.array([1, 3])), loop)

    def test_trailing_axes_must_match_grid(self):
        g = Grid(extent=(1.0, 1.0), nx=(5, 6))
        with pytest.raises(ValueError):
            gradient(np.zeros((3, 6, 5)), g)

    def test_mesh_and_axes_built_once_read_only(self):
        g = Grid(extent=(1.0, 2.0), nx=(6, 9))
        assert g.mesh() is g.mesh() and g.axes() is g.axes()
        for arr in (*g.mesh(), *g.axes()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        fresh = np.meshgrid(*g.axes(), indexing="ij")
        assert all(np.array_equal(a, b) for a, b in zip(g.mesh(), fresh))

    def test_mesh_and_interior(self):
        g = Grid(extent=(1.0, 2.0), nx=(6, 9))
        X, Y = g.mesh()
        assert np.array_equal(X[:, 0], g.axes()[0])
        assert np.array_equal(Y[0], g.axes()[1])
        assert X.shape == Y.shape == g.shape
        mask = g.interior()
        assert mask.sum() == (6 - 2 * INTERIOR_MARGIN) * (9 - 2 * INTERIOR_MARGIN)
        assert mask[2, 2] and not mask[1, 4] and not mask[4, 4]


class TestTimeDerivative:
    def test_identical_snapshots(self):
        g = Grid(extent=(1.0,), nx=(5,))
        sol = make_sol(g, [0.0, 0.1], u=np.ones((2,) + g.shape))
        assert np.allclose(time_derivative(sol, 1), 0.0)

    def test_affine_in_time(self):
        g = Grid(extent=(1.0,), nx=(5,))
        times = np.array([0.0, 0.25])
        u = np.stack([np.full(g.shape, t) for t in times])
        sol = make_sol(g, times, u=u)
        assert np.allclose(time_derivative(sol, 1), 1.0)

    def test_k_zero_rejected(self):
        g = Grid(extent=(1.0,), nx=(5,))
        sol = make_sol(g, [0.0, 0.1])
        with pytest.raises(ValueError):
            time_derivative(sol, 0)


@pytest.fixture
def cyl_sol():
    g = Grid(extent=(1.0,), nx=(11,))
    times = np.arange(0, 0.1001, 0.0025)
    return make_sol(g, times)


class TestCylinders:
    def test_tiny_radius_is_singleton(self, cyl_sol):
        z0 = SpaceTimePoint(20, (5,))
        assert cylinder_set(cyl_sol, z0, 0.01) == {z0}

    def test_domain_spanning_radius(self, cyl_sol):
        z0 = SpaceTimePoint(20, (5,))
        pts = cylinder_set(cyl_sol, z0, 10.0)
        n_space = cyl_sol.grid.nx[0]
        assert len(pts) == 21 * n_space
        assert all(p.t_index <= 20 for p in pts)

    def test_documented_band_and_slice_counts(self, cyl_sol):
        """dx=0.1, dt=0.0025, r=0.2: 3-wide band x 17 slices."""
        z0 = SpaceTimePoint(30, (5,))
        t_idx, mask = cylinder_slices(cyl_sol, z0, 0.2)
        assert int(mask.sum()) == 3
        assert t_idx.size == 17

    def test_monotone_in_radius(self, cyl_sol):
        z0 = SpaceTimePoint(30, (5,))
        prev = set()
        for r in (0.05, 0.1, 0.2, 0.3):
            cur = cylinder_set(cyl_sol, z0, r)
            assert prev <= cur
            prev = cur

    def test_full_cylinder_extends_upward(self, cyl_sol):
        z0 = SpaceTimePoint(20, (5,))
        t_idx, _ = cylinder_slices(cyl_sol, z0, 0.2, lower_only=False)
        assert t_idx.max() > 20

    def test_nonpositive_radius(self, cyl_sol):
        with pytest.raises(ValueError):
            cylinder_slices(cyl_sol, SpaceTimePoint(5, (5,)), 0.0)


class TestParabolicDistance:
    def test_empty_set_gives_cap(self, cyl_sol):
        z = SpaceTimePoint(20, (5,))
        assert parabolic_distance(z, segments(cyl_sol, []), cyl_sol) == cyl_sol.r_max()

    def test_pure_time_lag(self, cyl_sol):
        """Same x, lag s below: dist = sqrt(s) (time reach of Q_r^- is r^2)."""
        z = SpaceTimePoint(30, (5,))
        s_pt = SpaceTimePoint(10, (5,))
        lag = cyl_sol.times[30] - cyl_sol.times[10]
        d = parabolic_distance(z, segments(cyl_sol, [s_pt]), cyl_sol)
        assert d == pytest.approx(np.sqrt(lag), abs=1e-12)

    def test_pure_spatial_offset(self, cyl_sol):
        z = SpaceTimePoint(30, (5,))
        s_pt = SpaceTimePoint(30, (8,))
        d = parabolic_distance(z, segments(cyl_sol, [s_pt]), cyl_sol)
        assert d == pytest.approx(0.3, abs=1e-12)

    def test_points_above_never_enter(self, cyl_sol):
        z = SpaceTimePoint(10, (5,))
        S = segments(cyl_sol, [SpaceTimePoint(30, (5,))])
        d = parabolic_distance(z, S, cyl_sol)
        assert d == cyl_sol.r_max()

    def test_union_is_min(self, cyl_sol):
        z = SpaceTimePoint(35, (5,))
        rng = np.random.default_rng(11)
        pts = [
            SpaceTimePoint(int(rng.integers(0, 36)), (int(rng.integers(0, 11)),))
            for _ in range(12)
        ]
        s1, s2 = pts[:5], pts[5:]
        d_union = parabolic_distance(z, segments(cyl_sol, s1 + s2), cyl_sol)
        assert d_union == pytest.approx(
            min(
                parabolic_distance(z, segments(cyl_sol, s1), cyl_sol),
                parabolic_distance(z, segments(cyl_sol, s2), cyl_sol),
            ),
            abs=1e-12,
        )

    def test_consistent_with_cylinder_predicate(self, cyl_sol):
        """dist r*: lower cylinders of radius < r* avoid S, radius > r* hit it."""
        z = SpaceTimePoint(35, (5,))
        S = [SpaceTimePoint(20, (7,)), SpaceTimePoint(33, (3,))]
        r_star = parabolic_distance(z, segments(cyl_sol, S), cyl_sol)
        sset = set(S)
        below = cylinder_set(cyl_sol, z, max(r_star - 0.01, 1e-3))
        above = cylinder_set(cyl_sol, z, r_star + 0.06)
        assert not (below & sset)
        assert above & sset

    def test_boundary_distance(self, cyl_sol):
        assert boundary_distance(cyl_sol, SpaceTimePoint(16, (5,))) == pytest.approx(
            np.sqrt(0.04), abs=1e-12
        )
        assert boundary_distance(cyl_sol, SpaceTimePoint(40, (1,))) == pytest.approx(
            0.1, abs=1e-12
        )
