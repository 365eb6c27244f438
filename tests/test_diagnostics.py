"""Regularity diagnostics: kernels, energies, growth, signs, profile."""

from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    jump_stacks,
    reference_boundary_distance,
    reference_grad_norm_stack,
    reference_osc,
    reference_parabolic_distance,
    reference_sup_grad,
    wall_points,
)
from hysterm import diagnostics as dg
from hysterm import grid
from hysterm.config import config_from_dict
from hysterm.errors import ConfigError
from hysterm.free_boundary import JUMP_DOWN, JUMP_UP, FreeBoundaryAtlas, classify
from hysterm.grid import (
    Grid,
    SpaceTimePoint,
    SpaceTimeSolution,
    cylinder_slices,
    gradient,
    hessian,
    spread_indices,
    time_derivative,
)
from hysterm.growth import cylinder_extremes
from hysterm.relay import Thresholds
from hysterm.reports import analyze_run, default_radii
from hysterm.solver import run

TH = Thresholds(0.0, 1.0)


def make_sol(g, times, u, h=None):
    times = np.asarray(times, dtype=float)
    if h is None:
        h = np.full(u.shape, -1, dtype=np.int8)
    return SpaceTimeSolution(grid=g, thresholds=TH, times=times, u=u, h=h)


class Event(NamedTuple):
    """One hand-made row of the event table."""

    point: SpaceTimePoint
    kind: int
    u: float
    grad_norm: float
    dt_u: float


def make_atlas(sol, gamma_0=(), gamma_star=(), walls=()):
    """Atlas whose rows are gamma_0, then gamma_star; ``walls`` holds face
    runs ``(axis, first, last, i0, ...)``."""
    events = list(gamma_0) + list(gamma_star)
    n_0 = len(gamma_0)
    kind = np.array([e.kind for e in events], dtype=np.int8)
    jumps = np.arange(len(events))
    return FreeBoundaryAtlas(
        t_index=np.array([e.point.t_index for e in events], dtype=np.int64),
        idx=np.array([e.point.idx for e in events], dtype=np.int64).reshape(
            len(events), sol.grid.dim
        ),
        kind=kind,
        u=np.array([e.u for e in events], dtype=float),
        grad_norm=np.array([e.grad_norm for e in events], dtype=float),
        dt_u=np.array([e.dt_u for e in events], dtype=float),
        gamma_alpha=jumps[kind == JUMP_DOWN],
        gamma_beta=jumps[kind == JUMP_UP],
        gamma_0=jumps[:n_0],
        gamma_star=jumps[n_0:],
        walls=np.array(walls, dtype=np.int64).reshape(len(walls), 3 + sol.grid.dim),
        level_tol=1e-6,
        grad_tol=0.05,
    )


class TestHeatKernel:
    def test_origin_value_1d(self):
        for t in (0.01, 0.3, 2.0):
            assert dg.heat_kernel(0.0, t, 1) == pytest.approx(
                (4 * np.pi * t) ** -0.5, rel=1e-14
            )

    def test_zero_for_nonpositive_time(self):
        assert dg.heat_kernel(1.3, -0.1, 1) == 0.0
        assert dg.heat_kernel(1.3, 0.0, 1) == 0.0
        assert dg.heat_kernel(np.array([0.0, 1.0]), -0.1, 2) == 0.0

    def test_mass_one_1d(self):
        xs = np.arange(-5.0, 5.0 + 1e-12, 1e-3)
        w = np.ones_like(xs)
        w[0] = w[-1] = 0.5
        mass = float((dg.heat_kernel(xs, 0.05, 1) * w).sum() * 1e-3)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_mass_one_2d(self):
        xs = np.linspace(-8.0, 8.0, 801)
        dx = xs[1] - xs[0]
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        off = np.stack([X, Y], axis=-1)
        w = np.ones_like(xs)
        w[0] = w[-1] = 0.5
        W = np.outer(w, w)
        for t in (0.05, 0.5):
            mass = float((dg.heat_kernel(off, t, 2) * W).sum() * dx * dx)
            assert mass == pytest.approx(1.0, abs=1e-6)


class TestCutoff:
    def test_plateau_support_midpoint(self):
        assert dg.cutoff(0.25, 0.0, 1.0) == pytest.approx(1.0)
        assert dg.cutoff(1.5, 0.0, 1.0) == pytest.approx(0.0)
        assert dg.cutoff(0.75, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_radial_symmetry_2d(self):
        a = dg.cutoff(np.array([0.6, 0.0]), np.array([0.0, 0.0]), 1.0)
        b = dg.cutoff(np.array([0.0, -0.6]), np.array([0.0, 0.0]), 1.0)
        assert a == pytest.approx(b, rel=1e-14)

    def test_invalid_rho0(self):
        with pytest.raises(ValueError):
            dg.cutoff(0.1, 0.0, 0.0)


@pytest.fixture(scope="module")
def energy_setup():
    g = Grid(extent=(8.0,), nx=(1601,))
    times = np.arange(0.0, 0.16 + 1e-12, 5e-4)
    x = g.axes()[0]
    return g, times, x


class TestWeightedEnergy:
    def test_zero_field(self, energy_setup):
        g, times, x = energy_setup
        v = np.zeros((times.size,) + g.shape)
        assert dg.weighted_energy_I(g, times, v, [4.0], times.size - 1, 0.2) == 0.0

    def test_half_space_closed_form(self, energy_setup):
        """v = (x - x*)_+: |Dv|^2 G integrates to 1/2 per unit time."""
        g, times, x = energy_setup
        v = np.tile(np.maximum(x - 4.0, 0.0), (times.size, 1))
        for r in (0.1, 0.2, 0.4):
            val = dg.weighted_energy_I(g, times, v, [4.0], times.size - 1, r)
            assert val == pytest.approx(r**2 / 2.0, rel=0.02)

    def test_affine_kernel_normalization(self, energy_setup):
        g, times, x = energy_setup
        v = np.tile(x, (times.size, 1))
        for r in (0.1, 0.2, 0.4):
            val = dg.weighted_energy_I(g, times, v, [4.0], times.size - 1, r)
            assert val == pytest.approx(r**2, rel=0.02)

    def test_slab_exceeding_snapshots(self, energy_setup):
        g, times, x = energy_setup
        v = np.zeros((times.size,) + g.shape)
        with pytest.raises(ValueError, match="slab"):
            dg.weighted_energy_I(g, times, v, [4.0], times.size - 1, 1.0)


class TestPhi:
    def test_half_space_pair_quarter(self, energy_setup):
        g, times, x = energy_setup
        th1 = np.tile(np.maximum(x - 4.0, 0.0), (times.size, 1))
        th2 = np.tile(np.maximum(4.0 - x, 0.0), (times.size, 1))
        tab = dg.phi_from_pair(
            g, times, th1, th2, [4.0], times.size - 1, 2.0, [0.1, 0.2, 0.4]
        )
        for phi in tab.phi_values:
            assert phi == pytest.approx(0.25, rel=0.05)
        assert tab.n_emp is not None and tab.n_emp > 0

    def test_one_sided_pair_vanishes(self, energy_setup):
        g, times, x = energy_setup
        th1 = np.tile(np.maximum(x - 4.0, 0.0), (times.size, 1))
        th2 = np.zeros_like(th1)
        tab = dg.phi_from_pair(
            g, times, th1, th2, [4.0], times.size - 1, 2.0, [0.2]
        )
        assert tab.phi_values == [0.0]

    def test_oscillator_flat_field_vanishes(self, oscillator_sol):
        (tab,) = dg.acf_phi(
            oscillator_sol, SpaceTimePoint(5000, (5,)), [[1.0]], 0.4, [0.1, 0.2]
        )
        assert max(abs(v) for v in tab.phi_values) <= 1e-20

    def test_radii_exceeding_rho0(self, energy_setup):
        g, times, x = energy_setup
        v = np.zeros((times.size,) + g.shape)
        with pytest.raises(ValueError, match="rho0"):
            dg.phi_from_pair(g, times, v, v, [4.0], times.size - 1, 0.1, [0.2])


# Reference: the phi tables computed radius by radius and direction by
# direction, each radius rebuilding its cells, offsets, weights and kernel
# values and each direction taking the gradient of the whole snapshot stack.
# The shared quadrature must reproduce these floats exactly.


def reference_energy(g, times, v_stack, x_star, t_star_index, r):
    t_star = times[t_star_index]
    t_lo = t_star - r * r
    w = dg._trapezoid_weights(g)
    offsets = np.stack([x - c for x, c in zip(g.mesh(), x_star)], axis=-1)
    lo_end, hi_end = times[:t_star_index], times[1 : t_star_index + 1]
    cells = np.nonzero((hi_end > t_lo + 1e-12) & (lo_end < t_star - 1e-12))[0]
    if cells.size == 0:
        return 0.0
    first = cells[0]
    gsq = (gradient(v_stack[first : t_star_index + 1], g) ** 2).sum(axis=0)
    total = 0.0
    for k in cells:
        a_eff, b = max(times[k], t_lo), times[k + 1]
        mid = 0.5 * (a_eff + b)
        kern = dg.heat_kernel(offsets, t_star - mid, g.dim)
        integrand = 0.5 * (gsq[k - first] + gsq[k + 1 - first])
        total += (b - a_eff) * float((integrand * kern * w).sum())
    return float(total)


def reference_l2_sq(g, times, v_stack, x_star, t_star_index, rho0):
    t_star = times[t_star_index]
    d2 = sum((x - c) ** 2 for x, c in zip(g.mesh(), x_star))
    mask = d2 < rho0 * rho0
    w = dg._trapezoid_weights(g)
    total = 0.0
    for k in range(t_star_index):
        a, b = times[k], times[k + 1]
        if b <= t_star - rho0 * rho0 or a >= t_star:
            continue
        mid_sq = 0.5 * (v_stack[k] ** 2 + v_stack[k + 1] ** 2)
        total += (b - a) * float((mid_sq * w * mask).sum())
    return float(total)


def reference_phi(g, times, th1, th2, x_star, t_star_index, rho0, radii):
    """(radii, phi values, n_emp) of one pair."""
    radii = sorted(float(r) for r in radii)
    xi = dg.cutoff(np.stack(g.mesh(), axis=-1), x_star, rho0)
    phi = []
    for r in radii:
        i1 = reference_energy(g, times, th1 * xi, x_star, t_star_index, r)
        i2 = reference_energy(g, times, th2 * xi, x_star, t_star_index, r)
        phi.append(i1 * i2 / r**4)
    norm1 = reference_l2_sq(g, times, th1, x_star, t_star_index, rho0)
    norm2 = reference_l2_sq(g, times, th2, x_star, t_star_index, rho0)
    n_emp = None
    if norm1 > 0 and norm2 > 0:
        n_emp = max(phi) * rho0 ** (2 * g.dim + 8) / (norm1 * norm2)
    return radii, phi, n_emp


def reference_acf(sol, z, e, rho0, radii):
    e = np.asarray(e, dtype=float)
    unit = e / np.linalg.norm(e)
    gvec = gradient(sol.u, sol.grid)
    de = sum(unit[a] * gvec[a] for a in range(sol.grid.dim))
    x_star = sol.grid.coords(z.idx)
    return reference_phi(
        sol.grid, sol.times, np.maximum(de, 0.0), np.maximum(-de, 0.0),
        x_star, z.t_index, rho0, radii,
    )


def uneven_sol(g, num_snapshots, seed):
    """Random fields on uneven snapshot times, so that slabs start mid-cell."""
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.008, 0.012, num_snapshots - 1))])
    u = rng.standard_normal((num_snapshots,) + g.shape)
    return make_sol(g, times, u)


# (grid, snapshots, centre, rho0, radii, directions); the directions include
# the 2D diagonals and one that is not a unit vector
EQUIVALENCE_CASES = {
    "1d": (Grid(extent=(2.0,), nx=(41,)), 40, SpaceTimePoint(31, (20,)), 0.65,
           [0.3, 0.13, 0.21], [[1.0], [-2.5]]),
    "2d_neumann": (Grid(extent=(1.0, 1.5), nx=(13, 17)), 30, SpaceTimePoint(24, (6, 9)),
                   0.6, [0.12, 0.25, 0.4], dg.probe_directions(2) + [[2.0, -1.0]]),
    "2d_dirichlet": (Grid(extent=(1.2, 1.2), nx=(15, 15), bc_kind="dirichlet"), 26,
                     SpaceTimePoint(25, (8, 6)), 0.55, [0.35, 0.1], dg.probe_directions(2)),
}


class TestSharedQuadrature:
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_acf_tables_equal_per_radius_loop(self, case):
        g, n, z, rho0, radii, directions = EQUIVALENCE_CASES[case]
        sol = uneven_sol(g, n, seed=len(case))
        t_star = sol.times[z.t_index]
        # every slab starts inside a cell, the cylinder reaches snapshot 0
        for r in radii:
            assert not np.isin(t_star - r * r, sol.times)
        assert t_star - rho0 * rho0 < sol.times[1]
        tables = dg.acf_phi(sol, z, directions, rho0, radii)
        assert len(tables) == len(directions)
        for e, tab in zip(directions, tables):
            want_radii, want_phi, want_n = reference_acf(sol, z, e, rho0, radii)
            assert tab.radii == want_radii
            assert tab.phi_values == want_phi
            assert tab.n_emp == want_n and tab.n_emp is not None
            assert tab.rho0 == rho0
            assert np.array_equal(tab.direction, np.asarray(e, dtype=float))

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_pair_and_energy_equal_per_radius_loop(self, case):
        g, n, z, rho0, radii, _ = EQUIVALENCE_CASES[case]
        sol = uneven_sol(g, n, seed=len(case) + 1)
        th1 = np.maximum(sol.u, 0.0)
        th2 = np.abs(np.roll(sol.u, 1, axis=0))
        x_star = g.coords(z.idx)
        tab = dg.phi_from_pair(g, sol.times, th1, th2, x_star, z.t_index, rho0, radii)
        want = reference_phi(g, sol.times, th1, th2, x_star, z.t_index, rho0, radii)
        assert (tab.radii, tab.phi_values, tab.n_emp) == want
        assert tab.direction is None
        for r in radii + [rho0 / 7.0]:
            got = dg.weighted_energy_I(g, sol.times, th1, x_star, z.t_index, r)
            assert type(got) is float
            assert got == reference_energy(g, sol.times, th1, x_star, z.t_index, r)


class TestGrowth:
    def test_oscillator_quadratic_ratios_near_one(
        self, oscillator_sol, oscillator_atlas
    ):
        samples = dg.quadratic_growth(
            oscillator_sol, oscillator_atlas, [0.2, 0.1, 0.05]
        )
        assert samples
        for s in samples:
            assert s.osc_lower == s.osc_full or all(
                a <= b + 1e-15 for a, b in zip(s.osc_lower, s.osc_full)
            )
            for ratio in s.ratios_quadratic:
                assert 0.8 - 1e-9 <= ratio <= 1.2
            for lin in s.ratios_linear:
                assert lin <= 1e-8

    def test_constant_region_zero_oscillation(self):
        g = Grid(extent=(1.0,), nx=(21,))
        times = np.arange(0.0, 0.05 + 1e-12, 2e-3)
        u = np.full((times.size,) + g.shape, 0.4)
        sol = make_sol(g, times, u)
        ev = Event(
            point=SpaceTimePoint(times.size - 1, (10,)),
            kind=JUMP_DOWN,
            u=0.4,
            grad_norm=0.0,
            dt_u=0.0,
        )
        samples = dg.quadratic_growth(sol, make_atlas(sol, gamma_0=[ev]), [0.2, 0.1])
        assert samples[0].osc_lower == [0.0, 0.0]
        assert samples[0].ratios_quadratic == [0.0, 0.0]

    def test_parabolic_sheet_linear_ratio(self):
        """u = (x-1)^2: sup |Du| over the discrete ball of radius r at the
        vertex is 2(r - dx), ratio close to 2."""
        g = Grid(extent=(2.0,), nx=(201,))
        x = g.axes()[0]
        times = np.arange(0.0, 0.05 + 1e-12, 2e-3)
        u = np.tile((x - 1.0) ** 2, (times.size, 1))
        sol = make_sol(g, times, u)
        ev = Event(
            point=SpaceTimePoint(times.size - 1, (100,)),
            kind=JUMP_DOWN,
            u=0.0,
            grad_norm=0.0,
            dt_u=0.0,
        )
        samples = dg.quadratic_growth(sol, make_atlas(sol, gamma_0=[ev]), [0.2, 0.1])
        for r, lin in zip(samples[0].radii, samples[0].ratios_linear):
            assert lin == pytest.approx(2.0 * (r - 0.01) / r, rel=1e-6)

    def test_ineligible_centers_skipped(self, oscillator_sol, oscillator_atlas):
        centers = dg.eligible_growth_centers(
            oscillator_sol, oscillator_atlas, rmax=0.2
        )
        assert centers
        for z in centers:
            assert oscillator_sol.times[z.t_index] >= 0.04 - 1e-12

    def test_decreasing_radii_invariant(self, tmp_path):
        """The ladder is sorted decreasing, so only a repeated radius could
        break it: ``analyze_run`` refuses one before it reads the run."""
        with pytest.raises(ConfigError, match="radii must not repeat"):
            analyze_run(tmp_path / "no_run", radii=[0.1, 0.2, 0.1])


@st.composite
def growth_cases(draw):
    """A ``jump_stacks`` solution, any grid point at any snapshot as the
    centre, and one to three decreasing radii.  A radius may be a whole
    number of cells, so that nodes sit at the ball's edge, and may exceed
    the gap to a face, so that the ball and its box reach it."""
    sol = draw(jump_stacks())
    g = sol.grid
    z = SpaceTimePoint(draw(st.integers(0, sol.num_snapshots - 1)),
                       tuple(draw(st.integers(0, n - 1)) for n in g.nx))
    r = draw(st.one_of(st.floats(0.03, 0.8),
                       st.integers(1, 6).map(lambda m: m * min(g.dx))))
    radii = [r]
    for _ in range(draw(st.integers(0, 2))):
        radii.append(radii[-1] * draw(st.floats(0.2, 0.9)))
    return sol, z, radii


# a 2D plateau with Gamma_0 centres deep enough for the default ladder
PLATEAU_2D = {
    "name": "plateau_2d", "dim": 2, "extent": [2.0, 2.0], "nx": [21, 21],
    "dt": 0.002, "T": 0.3, "alpha": 0.0, "beta": 1.0,
    "bc": {"kind": "neumann"}, "snapshot_stride": 15,
    "preset": {"kind": "plateau", "level": 0.05, "curvature": 0.3, "h0": 1},
}


# block budgets in bytes: one box row per block, a few rows of a 1D box,
# tens of rows, and the default budget (the whole window)
BUDGETS = [1, 100, 400, grid.BLOCK_BYTES]


class TestSupGrad:
    """``quadratic_growth`` takes sup |Du| from |Du|**2 on the window of the
    largest full cylinder only, a block of snapshots at a time; it equals,
    with ``==``, the sup read from the whole-run |Du| stack."""

    @given(case=growth_cases(), budget=st.sampled_from(BUDGETS))
    @settings(max_examples=300, deadline=None)
    def test_window_equals_whole_stack(self, case, budget):
        sol, z, radii = case
        cyls = [cylinder_slices(sol, z, r, lower_only=lower)
                for lower in (False, True) for r in radii]
        with mock.patch.object(grid, "BLOCK_BYTES", budget):
            osc, sup = map(list, zip(*cylinder_extremes(sol, cyls)))
        assert sup[:len(radii)] == reference_sup_grad(sol, z, radii)
        assert osc == (reference_osc(sol, z, radii, False)
                       + reference_osc(sol, z, radii, True))

    @given(sol=jump_stacks(), r=st.floats(0.03, 0.4),
           budget=st.sampled_from(BUDGETS))
    @settings(max_examples=100, deadline=None)
    def test_quadratic_growth_on_random_fields(self, sol, r, budget):
        """Every grid point at every snapshot is a Gamma_0 candidate."""
        centres = [SpaceTimePoint(k, tuple(i)) for k in range(sol.num_snapshots)
                   for i in np.ndindex(sol.grid.shape)]
        atlas = make_atlas(sol, gamma_0=[Event(z, JUMP_DOWN, 0.0, 0.0, 0.0)
                                         for z in centres])
        radii = [r, r / 2.0]
        with mock.patch.object(grid, "BLOCK_BYTES", budget):
            samples = dg.quadratic_growth(sol, atlas, radii)
        gn = reference_grad_norm_stack(sol)
        for s in samples:
            assert s.sup_grad == reference_sup_grad(sol, s.center, radii, gn)
            assert s.osc_full == reference_osc(sol, s.center, radii, False)
            assert s.osc_lower == reference_osc(sol, s.center, radii, True)

    @pytest.mark.parametrize("name", ["oscillator", "gaussian", "plateau", "plateau_2d"])
    def test_bundled(self, request, name):
        """The default ladder, whose largest window on plateau spans about
        1,200 snapshots, many blocks."""
        if name == "plateau_2d":
            sol = run(config_from_dict(PLATEAU_2D))
            atlas = classify(sol)
        else:
            sol = request.getfixturevalue(f"{name}_sol")
            atlas = request.getfixturevalue(f"{name}_atlas")
        radii = default_radii(sol)
        samples = dg.quadratic_growth(sol, atlas, radii)
        assert samples
        gn = reference_grad_norm_stack(sol)
        for s in samples:
            assert s.sup_grad == reference_sup_grad(sol, s.center, radii, gn)
            assert s.osc_full == reference_osc(sol, s.center, radii, False)
            assert s.osc_lower == reference_osc(sol, s.center, radii, True)


class TestSignConditions:
    def test_adversarial_atlas_fires(self):
        g = Grid(extent=(1.0,), nx=(21,))
        times = np.arange(0.0, 0.01 + 1e-12, 1e-3)
        u = np.zeros((times.size,) + g.shape)
        sol = make_sol(g, times, u)
        bad = Event(
            point=SpaceTimePoint(3, (10,)),
            kind=JUMP_DOWN,
            u=0.0,
            grad_norm=1.0,
            dt_u=+1.0,
        )
        report = dg.sign_conditions(sol, make_atlas(sol, gamma_star=[bad]), tol=0.01)
        assert report.violations_alpha == 1
        assert report.violations_alpha + report.violations_beta == 1
        assert report.worst_alpha == pytest.approx(1.0)

    def test_correct_signs_pass(self):
        g = Grid(extent=(1.0,), nx=(21,))
        times = np.arange(0.0, 0.01 + 1e-12, 1e-3)
        sol = make_sol(g, times, np.zeros((times.size,) + g.shape))
        evs = [
            Event(SpaceTimePoint(3, (10,)), JUMP_DOWN, 0.0, 1.0, -0.5),
            Event(SpaceTimePoint(4, (12,)), JUMP_UP, 1.0, 1.0, +0.5),
        ]
        report = dg.sign_conditions(sol, make_atlas(sol, gamma_star=evs), tol=0.01)
        assert report.violations_alpha + report.violations_beta == 0
        assert report.checked_alpha == 1 and report.checked_beta == 1

    def test_near_wall_events_excluded(self):
        g = Grid(extent=(1.0,), nx=(21,))
        times = np.arange(0.0, 0.01 + 1e-12, 1e-3)
        sol = make_sol(g, times, np.zeros((times.size,) + g.shape))
        wall = (0, 3, 3, 10)  # the face (10, 11) at snapshot 3 only
        bad = Event(SpaceTimePoint(3, (10,)), JUMP_DOWN, 0.0, 1.0, +1.0)
        report = dg.sign_conditions(
            sol, make_atlas(sol, gamma_star=[bad], walls=[wall]), tol=0.01
        )
        assert report.violations_alpha + report.violations_beta == 0
        assert report.skipped_near_wall == 1

    def test_gaussian_run_zero_violations(self, gaussian_sol, gaussian_atlas):
        dt = float(np.diff(gaussian_sol.times).min())
        report = dg.sign_conditions(gaussian_sol, gaussian_atlas, tol=10 * dt)
        assert report.violations_alpha + report.violations_beta == 0


def reference_profile(sol, atlas) -> list:
    """The profile as the per-sample loop built it before the columns:
    (t_index, idx, dist_to_gamma_v, dist_to_boundary, abs_dt_u, hess_norm)
    per sample, 256 requested, in snapshot-major order."""
    on_event = np.zeros(sol.u.shape, dtype=bool)
    on_event[(atlas.t_index, *atlas.idx.T)] = True
    for first, last, *idx in atlas.wall_segments.tolist():
        on_event[(slice(first, last + 1), *idx)] = True
    n_time = max(2, int(np.sqrt(256)))
    n_space = max(2, 256 // n_time)
    t_picks = spread_indices(1, sol.num_snapshots - 1, n_time)
    interior = np.argwhere(sol.grid.interior()).tolist()
    if not interior:
        return []
    s_picks = spread_indices(0, len(interior) - 1, n_space)
    hess = np.abs(hessian(sol.u[t_picks], sol.grid)).max(axis=(0, 1))
    dtu = np.abs(np.stack([time_derivative(sol, k) for k in t_picks.tolist()]))
    samples = []
    for j, k in enumerate(t_picks.tolist()):
        for si in s_picks:
            idx = tuple(interior[si])
            if on_event[(k, *idx)]:
                continue
            z = SpaceTimePoint(k, idx)
            samples.append((
                k, idx,
                reference_parabolic_distance(z, atlas.wall_segments, sol),
                reference_boundary_distance(sol, z),
                float(dtu[j][idx]),
                float(hess[j][idx]),
            ))
    return samples


def profile_rows(prof) -> list:
    """The profile columns as one tuple per sample, as reference_profile."""
    return list(zip(
        prof.t_index.tolist(), map(tuple, prof.idx.tolist()),
        prof.dist_to_gamma_v.tolist(), prof.dist_to_boundary.tolist(),
        prof.abs_dt_u.tolist(), prof.hess_norm.tolist(),
    ))


class TestRegularityProfile:
    def test_oscillator_profile(self, oscillator_sol, oscillator_atlas):
        prof = dg.regularity_profile(oscillator_sol, oscillator_atlas)
        assert prof.t_index.size
        cap = oscillator_sol.r_max()
        assert (prof.dist_to_gamma_v == cap).all()
        gmax = prof.global_max()
        assert 1.0 - 1e-6 <= gmax <= 1.0 + 1e-3
        assert prof.hess_norm.max() <= 1e-8

    def test_frozen_heat_profile_bounded(self):
        from conftest import frozen_heat_config
        from hysterm.free_boundary import classify
        from hysterm.solver import run

        sol = run(frozen_heat_config(nx=51, dt=1e-4, T=0.05))
        prof = dg.regularity_profile(sol, classify(sol))
        # |du/dt| <= pi^2 + 1 and |u''| <= pi^2 for the analytic solution
        assert prof.global_max() <= (np.pi**2 + 1.0) + np.pi**2 + 1.0

    def test_wall_band_maxima_monotone(self, wall_sol, wall_atlas):
        prof = dg.regularity_profile(wall_sol, wall_atlas)
        bands = prof.band_maxima()
        rhos = [r for r, _ in bands]
        vals = [v for _, v in bands]
        assert rhos == sorted(rhos, reverse=True)
        for big, small in zip(vals, vals[1:]):
            assert big <= small + 1e-12

    def test_samples_avoid_events(
        self, oscillator_sol, oscillator_atlas, wall_sol, wall_atlas
    ):
        """No sample sits on a jump event or a wall point."""
        for sol, at in ((oscillator_sol, oscillator_atlas), (wall_sol, wall_atlas)):
            prof = dg.regularity_profile(sol, at)
            wall_t, wall_idx = wall_points(at)
            events = set(zip(at.t_index.tolist(), map(tuple, at.idx.tolist())))
            events |= set(zip(wall_t.tolist(), map(tuple, wall_idx.tolist())))
            assert prof.t_index.size
            assert all(
                (t, tuple(i)) not in events
                for t, i in zip(prof.t_index.tolist(), prof.idx.tolist())
            )

    @pytest.mark.parametrize("scenario", ["oscillator", "gaussian", "plateau", "wall"])
    def test_columns_equal_per_sample_reference(self, request, scenario):
        """The columns hold, sample by sample, the floats of the per-sample
        loop on each bundled scenario."""
        sol = request.getfixturevalue(f"{scenario}_sol")
        atlas = request.getfixturevalue(f"{scenario}_atlas")
        prof = dg.regularity_profile(sol, atlas)
        want = reference_profile(sol, atlas)
        assert want
        assert profile_rows(prof) == want
        values = [row[4] + row[5] for row in want]
        assert prof.global_max() == max(values)
        assert prof.band_maxima() == [
            (rho, max((v for v, row in zip(values, want) if row[2] >= rho), default=0.0))
            for rho in (sol.r_max() / 2**j for j in range(8))
        ]


class TestProbeDirections:
    def test_counts_and_norms(self):
        d1 = dg.probe_directions(1)
        d2 = dg.probe_directions(2)
        assert len(d1) == 1 and len(d2) == 4
        for e in d1 + d2:
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)
