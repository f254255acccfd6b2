"""Profiles module: sampling, x . grad(rho), norms and ball geometry; and the
surface form of A3 for balls, which lives in tests/oracles.py as the
continuum reference for energy's A3."""

import numpy as np
import pytest

from spwaves.grid import Grid3
from spwaves.profiles import (
    BallGeometry,
    BallSpec,
    BallsProfile,
    GaussianProfile,
    PowerLawProfile,
    UnsupportedDerivativeError,
    ZeroProfile,
    ball_geometry,
    powerlaw_tail_bound,
    rho_norms,
    sample_rho,
    sample_x_grad_rho,
)

from oracles import a3_boundary

# D(B_1) closed form: 1 * (4pi/3)^{1/6} * (4pi)^{1/2} * (3 (4pi/3)^{1/3} + 1)^{1/2}
D_UNIT_BALL = (
    (4.0 * np.pi / 3.0) ** (1.0 / 6.0)
    * (4.0 * np.pi) ** 0.5
    * (3.0 * (4.0 * np.pi / 3.0) ** (1.0 / 3.0) + 1.0) ** 0.5
)


class TestProfileValidation:
    def test_gaussian_amplitudes_positive(self):
        with pytest.raises(ValueError):
            GaussianProfile(-1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianProfile(1.0, 0.0)

    def test_powerlaw_exponent_above_two(self):
        with pytest.raises(ValueError):
            PowerLawProfile(1.0, 2.0)
        PowerLawProfile(1.0, 2.5)

    def test_balls_disjoint(self):
        a = BallSpec((0.0, 0.0, 0.0), 1.0, 1.0)
        b = BallSpec((1.5, 0.0, 0.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            BallsProfile((a, b))
        BallsProfile((a, BallSpec((3.0, 0.0, 0.0), 1.0, 1.0)))
        with pytest.raises(ValueError, match="at least one ball"):
            BallsProfile(())

    def test_ball_positive_radius(self):
        with pytest.raises(ValueError):
            BallSpec((0.0, 0.0, 0.0), -1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: GaussianProfile(x, 1.0),
            lambda x: GaussianProfile(1.0, x),
            lambda x: PowerLawProfile(x, 3.0),
            lambda x: PowerLawProfile(1.0, x),
            lambda x: BallSpec((0.0, 0.0, 0.0), x, 1.0),
            lambda x: BallSpec((0.0, 0.0, 0.0), 1.0, x),
            lambda x: BallSpec((0.0, x, 0.0), 1.0, 1.0),
        ],
        ids=["gauss-eps", "gauss-alpha", "power-eps", "power-alpha", "ball-radius", "ball-amp", "ball-center"],
    )
    def test_parameter_that_is_not_finite_is_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)


class TestSampleRho:
    def test_gaussian_at_origin(self, grid64):
        f = sample_rho(GaussianProfile(1.0, 1.0), grid64)
        r = grid64.radius_sq()
        assert f[r == 0.0][0] == 1.0

    def test_powerlaw_at_unit_radius(self, grid64):
        f = sample_rho(PowerLawProfile(1.0, 3.0), grid64)
        x, _, _ = grid64.coords()
        idx = np.argmin(np.abs(grid64.axis_coords() - 1.0))
        mid = grid64.n // 2
        assert f[idx, mid, mid] == pytest.approx(1.0 / 8.0)

    def test_ball_indicator_values(self, grid64):
        prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 1.0, 2.0),))
        f = sample_rho(prof, grid64)
        r2 = grid64.radius_sq()
        assert np.all(f[r2 <= 0.25] == 2.0)
        assert np.all(f[r2 >= 2.25] == 0.0)

    def test_nonnegative_everywhere(self, grid64):
        for prof in (
            GaussianProfile(0.3, 2.0),
            PowerLawProfile(0.5, 3.5),
            BallsProfile((BallSpec((1.0, -1.0, 0.5), 1.5, 0.7),)),
            ZeroProfile(),
        ):
            assert np.all(sample_rho(prof, grid64) >= 0.0)

    def test_ball_touching_boundary_rejected(self, grid64):
        prof = BallsProfile((BallSpec((7.0, 0.0, 0.0), 1.0, 1.0),))
        with pytest.raises(ValueError):
            sample_rho(prof, grid64)

    def test_decay_bound(self, grid64):
        # rho <= C / (1 + |x|^alpha) with C = eps * sup over the grid
        prof = GaussianProfile(0.8, 1.0)
        vals = sample_rho(prof, grid64)
        r = np.sqrt(grid64.radius_sq())
        alpha = 3.0
        bound = vals.max() * (1.0 + r**alpha)
        assert np.all(vals <= bound + 1e-15)


class TestXGradRho:
    def test_zero_at_origin(self, grid64):
        for prof in (GaussianProfile(1.0, 1.0), PowerLawProfile(1.0, 3.0)):
            f = sample_x_grad_rho(prof, grid64)
            assert f[grid64.radius_sq() == 0.0][0] == 0.0

    def test_gaussian_at_unit_radius(self, grid64):
        f = sample_x_grad_rho(GaussianProfile(1.0, 1.0), grid64)
        idx = np.argmin(np.abs(grid64.axis_coords() - 1.0))
        mid = grid64.n // 2
        assert f[idx, mid, mid] == pytest.approx(-2.0 * np.exp(-1.0))

    def test_powerlaw_at_unit_radius(self, grid64):
        f = sample_x_grad_rho(PowerLawProfile(1.0, 3.0), grid64)
        idx = np.argmin(np.abs(grid64.axis_coords() - 1.0))
        mid = grid64.n // 2
        assert f[idx, mid, mid] == pytest.approx(-3.0 / 16.0)

    def test_finite_difference_oracle(self, grid64):
        # r d/dr of rho via central differences in the radius
        prof = GaussianProfile(0.7, 1.3)
        f = sample_x_grad_rho(prof, grid64)
        r = np.sqrt(grid64.radius_sq())
        dr = 1e-6
        rho_of = lambda rr: prof.epsilon * np.exp(-prof.alpha * rr**2)
        fd = r * (rho_of(r + dr) - rho_of(r - dr)) / (2.0 * dr)
        assert np.max(np.abs(f - fd)) < 1e-6

    def test_balls_rejected(self, grid64):
        prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 1.0, 1.0),))
        with pytest.raises(UnsupportedDerivativeError):
            sample_x_grad_rho(prof, grid64)


class TestRhoNorms:
    def test_zero_profile(self, grid64):
        assert rho_norms(ZeroProfile(), grid64) == (0.0, 0.0)

    def test_unit_ball_norm(self, grid64):
        prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 1.0, 1.0),))
        n1, n2 = rho_norms(prof, grid64)
        exact = (4.0 * np.pi / 3.0) ** (5.0 / 6.0)
        assert n1 == pytest.approx(exact, rel=0.05)
        assert n2 is None

    def test_amplitude_homogeneity(self, grid64):
        base = GaussianProfile(1.0, 2.0)
        scaled = GaussianProfile(3.0, 2.0)
        nb = rho_norms(base, grid64)
        ns = rho_norms(scaled, grid64)
        assert ns[0] == pytest.approx(3.0 * nb[0], rel=1e-12)
        assert ns[1] == pytest.approx(3.0 * nb[1], rel=1e-12)

    def test_powerlaw_tail_bound_positive(self, grid64):
        prof = PowerLawProfile(1.0, 3.0)
        bound = powerlaw_tail_bound(prof, grid64)
        assert bound > 0.0
        # bound shrinks when the box grows
        assert powerlaw_tail_bound(prof, Grid3(64, 32.0)) < bound

    def test_powerlaw_tail_bound_closed_form(self, grid64):
        # alpha = 3: ((3 eps)^{6/5} 4 pi (1 + L/2)^{-3/5} / (3/5))^{5/6}
        tail = 3.0**1.2 * 4.0 * np.pi * (1.0 + grid64.length / 2.0) ** -0.6 / 0.6
        assert powerlaw_tail_bound(PowerLawProfile(1.0, 3.0), grid64) == pytest.approx(tail ** (1.0 / 1.2), rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.2, 2.5])
    def test_powerlaw_tail_bound_is_infinite_up_to_five_halves(self, alpha, grid64):
        # x.grad rho decays like r^-alpha, which is in L^{6/5} only for alpha > 5/2
        assert powerlaw_tail_bound(PowerLawProfile(1.0, alpha), grid64) == np.inf


class TestBallGeometry:
    def test_unit_ball_closed_forms(self):
        geo = ball_geometry(BallSpec((0.0, 0.0, 0.0), 1.0, 1.0))
        assert geo.kappa1 == pytest.approx(3.0)
        assert geo.kappa2 == 1.0
        assert geo.volume == pytest.approx(4.0 * np.pi / 3.0)
        assert geo.surface == pytest.approx(4.0 * np.pi)
        assert geo.boundary_sup == 1.0
        assert geo.d_value == pytest.approx(D_UNIT_BALL, abs=1e-9)
        assert geo.d_value == pytest.approx(10.873, abs=1e-3)

    def test_radius_scaling(self):
        geo2 = ball_geometry(BallSpec((0.0, 0.0, 0.0), 2.0, 1.0))
        assert geo2.d_value == pytest.approx(2.0**2.5 * D_UNIT_BALL, rel=1e-12)
        assert geo2.d_value == pytest.approx(61.50, abs=0.01)

    def test_kappa2_at_least_one(self):
        for r in (0.3, 1.0, 5.0):
            geo = ball_geometry(BallSpec((1.0, 2.0, 3.0), r, 1.0))
            assert geo.kappa2 >= 1.0

    def test_offcenter_sup(self):
        geo = ball_geometry(BallSpec((3.0, 0.0, 0.0), 0.5, 1.0))
        assert geo.boundary_sup == pytest.approx(3.5)

    def test_isoperimetric_lower_bound(self):
        # D >= C |B|^{5/6} with the explicit constant; equality for balls
        b1 = 4.0 * np.pi / 3.0
        c = np.sqrt(3.0) * b1 ** (-1.0 / 6.0) * (3.0 * b1 ** (1.0 / 3.0) + 1.0) ** 0.5
        for r in (0.4, 1.0, 2.7):
            geo = ball_geometry(BallSpec((0.0, 0.0, 0.0), r, 1.0))
            vol = 4.0 * np.pi * r**3 / 3.0
            assert geo.d_value >= c * vol ** (5.0 / 6.0) * (1.0 - 1e-12)


class TestA3Boundary:
    """The continuum surface form of A3 for balls, the reference that
    energy_breakdown's A3 from S2 approaches as the grid refines."""

    def test_zero_field(self, grid64):
        balls = [BallSpec((0.0, 0.0, 0.0), 1.0, 1.0)]
        assert a3_boundary(np.zeros((64,) * 3), grid64, balls) == 0.0

    def test_constant_field_divergence_theorem(self, grid64):
        # constant S1 = c: the surface integral of x.n is 3|B|, so the value
        # is -(alpha/2) c 4 pi R^3
        c, alpha, radius = 0.7, 2.0, 1.5
        f = np.full((64,) * 3, c)
        balls = [BallSpec((0.5, -0.25, 0.0), radius, alpha)]
        expected = -(alpha / 2.0) * c * 4.0 * np.pi * radius**3
        got = a3_boundary(f, grid64, balls)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_richardson_node_refinement(self, grid64):
        # smooth nonconstant field: doubling both node counts should not
        # move the value beyond the trilinear-interpolation noise floor
        r2 = grid64.radius_sq()
        f = np.exp(-r2 / 4.0)
        balls = [BallSpec((0.0, 0.0, 0.0), 1.25, 1.0)]
        coarse = a3_boundary(f, grid64, balls)
        fine = a3_boundary(f, grid64, balls, n_theta=64, n_phi=128)
        assert coarse == pytest.approx(fine, rel=1e-4)

    def test_additive_over_balls(self, grid64):
        r2 = grid64.radius_sq()
        f = np.exp(-r2 / 8.0)
        b1 = BallSpec((-2.0, 0.0, 0.0), 1.0, 1.0)
        b2 = BallSpec((2.0, 0.0, 0.0), 0.8, 0.5)
        total = a3_boundary(f, grid64, [b1, b2])
        assert total == pytest.approx(a3_boundary(f, grid64, [b1]) + a3_boundary(f, grid64, [b2]), rel=1e-12)
