"""Energy module: potentials, breakdown, gradient, identities, scaling.

Closed-form Gaussian oracles:
  S1 of exp(-r^2/2):       (sqrt(pi)/8) erf(r)/r, value 1/4 at the origin
  |grad u|^2, width sigma: (3/2) pi^{3/2} sigma
  A1, width sigma:         pi^{3/2} sigma^5 / (16 sqrt(2))
  A2, Gaussian rho:        two-Gaussian Coulomb interaction (erf limit)
"""

import gc
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import erf

from spwaves import minimize
from spwaves.energy import (
    Evaluation,
    PhysParams,
    RegimeWarning,
    compute_S2,
    energy_breakdown,
    grad_E,
    lagrange_multiplier,
    lemma23_residual,
    nehari_residual,
    pohozaev_residual,
    profile_fields,
    scaling_check,
)
from spwaves.grid import ComplexField, Grid3, GridMismatchError, SpectralWorkspace
from spwaves.profiles import BallSpec, BallsProfile, GaussianProfile, ZeroProfile, sample_rho

from conftest import smooth_random_complex


def gaussian_state(grid, width=1.0, amp=1.0):
    return ComplexField(grid, (amp * np.exp(-grid.radius_sq() / (2.0 * width**2))).astype(complex))


def a1_gaussian_exact(width):
    return np.pi**1.5 * width**5 / (16.0 * np.sqrt(2.0))


def gaussian_coulomb_interaction(a, b):
    """Integral of exp(-a x^2) exp(-b y^2) / |x - y| over both variables."""
    q1 = (np.pi / a) ** 1.5
    q2 = (np.pi / b) ** 1.5
    s = np.sqrt(1.0 / a + 1.0 / b)
    return q1 * q2 * 2.0 / (np.sqrt(np.pi) * s)


class TestPhysParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysParams(1.0, 1.0)
        with pytest.raises(ValueError):
            PhysParams(5.0, 1.0)
        with pytest.raises(ValueError):
            PhysParams(2.2, 0.0)

    @pytest.mark.parametrize("e", [float("nan"), float("inf")])
    def test_coupling_that_is_not_finite_is_rejected(self, e):
        with pytest.raises(ValueError, match="positive and finite"):
            PhysParams(2.2, e)

    def test_coupling_whose_square_overflows_is_rejected(self):
        with pytest.raises(ValueError, match="positive and finite"):
            PhysParams(2.1, 1e200)
        assert PhysParams(2.1, 1e154).e == 1e154

    def test_regime_flag(self):
        assert PhysParams(2.2, 1.0).in_theory_regime
        assert not PhysParams(3.0, 1.0).in_theory_regime

    def test_regime_warning(self):
        with pytest.warns(RegimeWarning):
            PhysParams(3.0, 1.0).warn_outside_regime("test")


class TestS1:
    def test_zero_state(self, grid32, ws32):
        u = ComplexField(grid32, np.zeros((32,) * 3, dtype=complex))
        assert np.max(np.abs(Evaluation(u.values, ws32).s1)) < 1e-14

    def test_gaussian_closed_form(self, grid64, ws64):
        u = gaussian_state(grid64)
        s1 = Evaluation(u.values, ws64).s1
        r = np.sqrt(grid64.radius_sq())
        with np.errstate(invalid="ignore"):
            exact = (np.sqrt(np.pi) / 8.0) * erf(r) / np.where(r == 0.0, 1.0, r)
        exact[r == 0.0] = 0.25
        assert np.max(np.abs(s1 - exact) / np.abs(exact)) < 1e-6

    def test_translation_covariance(self, grid32, ws32):
        u = gaussian_state(grid32)
        shift = (2, -3, 5)
        s_moved = Evaluation(np.roll(u.values, shift, axis=(0, 1, 2)), ws32).s1
        s_base = Evaluation(u.values, ws32).s1
        # covariance is exact only away from wrap-around; compare centre half
        n = grid32.n
        sl = slice(n // 4, 3 * n // 4)
        diff = s_moved - np.roll(s_base, shift, axis=(0, 1, 2))
        assert np.max(np.abs(diff[sl, sl, sl])) < 1e-6

    def test_pointwise_nonnegative(self, grid32, ws32, rng):
        s1 = Evaluation(smooth_random_complex(grid32, rng), ws32).s1
        assert s1.min() > -1e-12 * max(1.0, s1.max())


class TestS2:
    def test_zero_profile(self, grid32, ws32):
        # rho = 0 runs the Coulomb solve like any profile; its -0.0 source
        # must come back +0.0, with no sign bit
        s2 = compute_S2(ZeroProfile(), ws32)
        assert np.max(np.abs(s2)) == 0.0
        assert not np.any(np.signbit(s2))

    def test_unit_ball_center(self, grid64, ws64):
        prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 1.0, 1.0),))
        s2 = compute_S2(prof, ws64)
        r = grid64.radius_sq()
        assert s2[r == 0.0][0] == pytest.approx(-0.25, rel=0.05)

    def test_gaussian_center(self, grid64, ws64):
        # rho = exp(-r^2): S2(0) = -(1/(8 pi)) * 4 pi * int r exp(-r^2) dr = -1/4
        prof = GaussianProfile(1.0, 1.0)
        s2 = compute_S2(prof, ws64)
        r = grid64.radius_sq()
        assert s2[r == 0.0][0] == pytest.approx(-0.25, abs=1e-7)

    def test_nonpositive_and_decaying(self, grid64, ws64):
        prof = GaussianProfile(0.5, 1.0)
        s2 = compute_S2(prof, ws64)
        assert s2.max() <= 1e-14
        edge = np.abs(s2[0, :, :]).max()
        center = np.abs(s2).max()
        assert edge < 0.2 * center

    def test_cached_per_profile(self, grid32, ws32):
        prof = GaussianProfile(1.0, 1.0)
        a = compute_S2(prof, ws32)
        b = compute_S2(prof, ws32)
        assert np.array_equal(a, b)
        fields = profile_fields(prof, ws32)
        assert profile_fields(prof, ws32) is fields
        assert np.array_equal(fields.s2, a)


class TestEnergyBreakdown:
    def test_zero_state(self, grid32, ws32):
        u = ComplexField(grid32, np.zeros((32,) * 3, dtype=complex))
        prof = GaussianProfile(0.5, 1.0)
        params = PhysParams(2.2, 1.0)
        bd = energy_breakdown(u, prof, params, ws32)
        assert bd.energy == 0.0
        assert bd.a1 == 0.0
        assert bd.a2 == 0.0
        assert bd.script_energy == pytest.approx(params.e**2 * bd.a0)
        assert bd.a0 > 0.0

    def test_gaussian_closed_forms_zero_rho(self, grid64, ws64):
        params = PhysParams(2.2, 1.0)
        u = gaussian_state(grid64)
        bd = energy_breakdown(u, ZeroProfile(), params, ws64)
        assert bd.kinetic == pytest.approx(0.75 * np.pi**1.5, rel=1e-10)
        assert bd.a1 == pytest.approx(a1_gaussian_exact(1.0), rel=1e-8)
        p1 = params.p + 1.0
        power_exact = np.pi**1.5 * (2.0 / p1) ** 1.5 / p1
        assert bd.power == pytest.approx(power_exact, rel=1e-10)
        assert bd.mass == pytest.approx(np.pi**1.5, rel=1e-10)
        assert bd.a2 == 0.0
        assert type(bd.a3) is float and bd.a3 == 0.0

    def test_gaussian_rho_a2_closed_form(self, grid64, ws64):
        params = PhysParams(2.2, 1.0)
        u = gaussian_state(grid64)  # |u|^2 = exp(-r^2)
        prof = GaussianProfile(0.3, 0.5)  # rho = 0.3 exp(-r^2/2)
        bd = energy_breakdown(u, prof, params, ws64)
        exact = -(0.3 / (32.0 * np.pi)) * gaussian_coulomb_interaction(1.0, 0.5)
        assert bd.a2 == pytest.approx(exact, rel=1e-8)

    def test_coulomb_solve_is_symmetric(self, grid64, ws64, rng):
        # <coulomb(f), g> = <f, coulomb(g)>: why A2 = 1/4 int S2 |u|^2, the
        # form computed, equals -1/4 int S1(u) rho
        f = np.abs(smooth_random_complex(grid64, rng)) ** 2
        g = sample_rho(GaussianProfile(0.3, 1.0), grid64)
        lhs = float(np.sum(ws64.coulomb(f) * g))
        rhs = float(np.sum(f * ws64.coulomb(g)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_energy_from_components(self, grid32, ws32, rng):
        params = PhysParams(2.2, 1.3)
        u = ComplexField(grid32, smooth_random_complex(grid32, rng))
        bd = energy_breakdown(u, GaussianProfile(0.2, 1.0), params, ws32)
        e2 = params.e**2
        recon = bd.kinetic - bd.power + e2 * bd.a1 + 2.0 * e2 * bd.a2
        assert bd.energy == pytest.approx(recon, rel=1e-12)

    def test_direct_sum_oracle_a_terms(self):
        from oracles import direct_coulomb_sum

        grid = Grid3(12, 12.0)
        ws = SpectralWorkspace(grid)
        params = PhysParams(2.2, 1.0)
        u = gaussian_state(grid, width=2.3)
        prof = GaussianProfile(0.4, 0.2)
        bd = energy_breakdown(u, prof, params, ws)
        dens = np.abs(u.values) ** 2
        rho = prof.epsilon * np.exp(-prof.alpha * grid.radius_sq())
        s1_direct = direct_coulomb_sum(grid, 0.5 * dens)
        dv = grid.cell_volume
        a1_direct = 0.25 * np.sum(s1_direct * dens) * dv
        a2_direct = -0.25 * np.sum(s1_direct * rho) * dv
        assert bd.a1 == pytest.approx(a1_direct, rel=1e-3)
        assert bd.a2 == pytest.approx(a2_direct, rel=1e-3)

    def test_a3_smooth_matches_quadrature(self, grid64, ws64):
        from spwaves.profiles import sample_x_grad_rho

        params = PhysParams(2.2, 1.0)
        u = gaussian_state(grid64)
        prof = GaussianProfile(0.3, 1.0)
        bd = energy_breakdown(u, prof, params, ws64)
        s1 = Evaluation(u.values, ws64).s1
        xgr = sample_x_grad_rho(prof, grid64)
        expected = 0.5 * float(np.sum(s1 * xgr)) * grid64.cell_volume
        assert bd.a3 == pytest.approx(expected, rel=1e-12)

    def test_a3_boundary_for_balls(self, grid64, ws64):
        params = PhysParams(2.2, 1.0)
        u = gaussian_state(grid64)
        prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 1.0, 0.5),))
        bd = energy_breakdown(u, prof, params, ws64)
        assert np.isfinite(bd.a3) and bd.a3 != 0.0

    def test_a3_weight_is_built_once_and_read_only(self, ws32):
        fields = profile_fields(GaussianProfile(0.3, 1.0), ws32)
        assert fields.a3_weight is profile_fields(GaussianProfile(0.3, 1.0), ws32).a3_weight
        assert not fields.a3_weight.flags.writeable

    def test_cached_fields_let_their_workspace_go(self):
        # the cache holds workspaces weakly, and the fields, a3_weight
        # included, refer to the grid only
        ws = SpectralWorkspace(Grid3(8, 8.0))
        energy_breakdown(gaussian_state(ws.grid), GaussianProfile(0.3, 1.0), PhysParams(2.2, 1.0), ws)
        ref = weakref.ref(ws)
        del ws
        gc.collect()
        assert ref() is None

    def test_a3_for_balls_approaches_the_surface_form(self, grid32, ws32, grid64, ws64):
        # A3 from S2 sees the sampled indicator, so it meets the continuum
        # surface form as h shrinks: relative gaps 2.6e-2 at N=32, 1.1e-2 at N=64
        from oracles import a3_boundary

        prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 2.0, 1.0),))
        gaps = []
        for grid, ws in ((grid32, ws32), (grid64, ws64)):
            u = gaussian_state(grid, width=1.5)
            a3 = energy_breakdown(u, prof, PhysParams(2.2, 1.0), ws).a3
            ref = a3_boundary(Evaluation(u.values, ws).s1, grid, prof.balls)
            gaps.append(abs(a3 - ref) / abs(ref))
        assert gaps[1] < 0.5 * gaps[0] and gaps[1] < 0.015


class TestSignStructure:
    def test_a1_nonneg_a2_negative_random(self, grid24, ws24, rng):
        params = PhysParams(2.2, 1.0)
        prof = GaussianProfile(0.5, 1.0)
        for _ in range(10):
            u = ComplexField(grid24, smooth_random_complex(grid24, rng))
            bd = energy_breakdown(u, prof, params, ws24)
            assert bd.a1 >= 0.0
            assert bd.a2 < 0.0

    def test_sp_fields_signs(self, grid32, ws32, rng):
        u = ComplexField(grid32, smooth_random_complex(grid32, rng))
        prof = GaussianProfile(0.5, 1.0)
        s1 = Evaluation(u.values, ws32).s1
        s2 = compute_S2(prof, ws32)
        assert s1.min() > -1e-12
        assert s2.max() <= 1e-14
        # by linearity S1 + S2 is the potential of (|u|^2 - rho) / 2
        src = 0.5 * (np.abs(u.values) ** 2 - sample_rho(prof, grid32))
        assert np.allclose(ws32.coulomb(src), s1 + s2)


class TestGridCheck:
    def test_grid_mismatch_rejected(self):
        # A state sampled on an 8-box handed to a 16-box workspace would be
        # read with the workspace's spacing: its mass as 44.55, not pi^1.5.
        u = gaussian_state(Grid3(16, 8.0))
        ws = SpectralWorkspace(Grid3(16, 16.0))
        params = PhysParams(2.2, 1.0)
        with pytest.raises(GridMismatchError):
            energy_breakdown(u, ZeroProfile(), params, ws)
        with pytest.raises(GridMismatchError):
            grad_E(u, ZeroProfile(), params, ws)


class TestGradE:
    def test_zero_state(self, grid32, ws32):
        u = ComplexField(grid32, np.zeros((32,) * 3, dtype=complex))
        g = grad_E(u, GaussianProfile(0.5, 1.0), PhysParams(2.2, 1.0), ws32)
        assert np.max(np.abs(g.values)) == 0.0

    def test_finite_difference_directional(self, grid32, ws32, rng):
        params = PhysParams(2.2, 1.0)
        prof = GaussianProfile(0.3, 1.0)
        u = ComplexField(grid32, gaussian_state(grid32).values + 0.1 * smooth_random_complex(grid32, rng))

        def energy_of(vals):
            return energy_breakdown(ComplexField(grid32, vals), prof, params, ws32).energy

        g = grad_E(u, prof, params, ws32)
        t = 1e-5
        for _ in range(5):
            phi = smooth_random_complex(grid32, rng)
            directional = (energy_of(u.values + t * phi) - energy_of(u.values - t * phi)) / (2.0 * t)
            pairing = (np.vdot(g.values, phi) * grid32.cell_volume).real
            assert directional == pytest.approx(pairing, rel=1e-6)


def _count_coulomb(monkeypatch):
    """Count every Coulomb solve, on any workspace, from now on."""
    count = [0]
    solve = SpectralWorkspace.coulomb

    def counting(self, values):
        count[0] += 1
        return solve(self, values)

    monkeypatch.setattr(SpectralWorkspace, "coulomb", counting)
    return count


class TestSharedEvaluation:
    """energy_breakdown and grad_E keep the Evaluation of the last state: one
    solve per (field, workspace) in a row, keyed by identity, held weakly."""

    PROF, PARAMS = GaussianProfile(0.3, 1.0), PhysParams(2.1, 0.3)

    def fresh(self, u, ws):
        """The breakdown and gradient of u from a new Evaluation."""
        ev = Evaluation(u.values, ws)
        fields = profile_fields(self.PROF, ws)
        return ev.breakdown(fields, self.PARAMS), ev.gradient(fields, self.PARAMS)

    def test_breakdown_then_gradient_solve_once(self, grid32, ws32, rng, monkeypatch):
        u = ComplexField(grid32, gaussian_state(grid32).values + 0.1 * smooth_random_complex(grid32, rng))
        profile_fields(self.PROF, ws32)
        solves = _count_coulomb(monkeypatch)
        bd = energy_breakdown(u, self.PROF, self.PARAMS, ws32)
        grad = grad_E(u, self.PROF, self.PARAMS, ws32)
        assert solves[0] == 1
        assert energy_breakdown(u, self.PROF, self.PARAMS, ws32) == bd
        assert solves[0] == 1
        fresh_bd, fresh_grad = self.fresh(u, ws32)
        assert bd == fresh_bd
        # the gradient is read-only and keeps a fresh one's bits
        assert np.array_equal(grad.values, fresh_grad) and not grad.values.flags.writeable

    def test_an_equal_field_or_another_workspace_costs_a_solve(self, grid32, ws32, monkeypatch):
        u = gaussian_state(grid32)
        twin = ComplexField(grid32, u.values)
        other_ws = SpectralWorkspace(grid32)
        for ws in (ws32, other_ws):
            profile_fields(self.PROF, ws)
        solves = _count_coulomb(monkeypatch)
        bd = energy_breakdown(u, self.PROF, self.PARAMS, ws32)
        grad = grad_E(twin, self.PROF, self.PARAMS, ws32)
        assert solves[0] == 2
        assert energy_breakdown(u, self.PROF, self.PARAMS, other_ws) == bd
        assert solves[0] == 3
        # the slot holds the last state only
        assert np.array_equal(grad_E(u, self.PROF, self.PARAMS, ws32).values, grad.values)
        assert solves[0] == 4

    def test_the_gradient_is_a_read_only_copy(self, grid32, ws32, monkeypatch):
        made = []
        gradient = Evaluation.gradient

        def keeping(ev, fields, params):
            made.append(gradient(ev, fields, params))
            return made[-1]

        monkeypatch.setattr(Evaluation, "gradient", keeping)
        grad = grad_E(gaussian_state(grid32), self.PROF, self.PARAMS, ws32)
        assert np.array_equal(grad.values, made[0]) and not grad.values.flags.writeable

    def test_fields_are_read_only_copies_equal_by_identity(self, grid32):
        vals = gaussian_state(grid32).values.copy()
        u = ComplexField(grid32, vals)
        with pytest.raises(ValueError):
            u.values[0, 0, 0] = 1.0
        vals[...] = 0.0
        assert np.array_equal(u.values, gaussian_state(grid32).values)
        twin = ComplexField(grid32, u.values)
        assert u == u and u != twin and len({u, twin}) == 2

    def track_evaluations(self, monkeypatch):
        """Weak refs to every Evaluation made from now on."""
        refs = []
        init = Evaluation.__init__

        def tracking(ev, vals, ws):
            init(ev, vals, ws)
            refs.append(weakref.ref(ev))

        monkeypatch.setattr(Evaluation, "__init__", tracking)
        return refs

    def test_the_state_dying_frees_its_evaluation_at_once(self, monkeypatch):
        ws = SpectralWorkspace(Grid3(8, 8.0))
        u = gaussian_state(ws.grid)
        evs = self.track_evaluations(monkeypatch)
        energy_breakdown(u, self.PROF, self.PARAMS, ws)
        grad_E(u, self.PROF, self.PARAMS, ws)
        assert len(evs) == 1
        u_ref = weakref.ref(u)
        # no reference cycle is left for the collector: both go on del
        gc.disable()
        try:
            del u
            assert u_ref() is None and evs[0]() is None
        finally:
            gc.enable()

    def test_the_workspace_dying_frees_the_evaluation_and_not_the_state(self, monkeypatch):
        # as in test_cached_fields_let_their_workspace_go: the slot holds its
        # workspace weakly, and the Evaluation refers to the k2 table only
        ws = SpectralWorkspace(Grid3(8, 8.0))
        u = gaussian_state(ws.grid)
        evs = self.track_evaluations(monkeypatch)
        energy_breakdown(u, self.PROF, self.PARAMS, ws)
        ws_ref = weakref.ref(ws)
        del ws
        gc.collect()
        assert ws_ref() is None and evs[0]() is None
        # the state lives on, and on a new workspace it is evaluated anew
        energy_breakdown(u, self.PROF, self.PARAMS, SpectralWorkspace(u.grid))
        assert len(evs) == 2

    def test_threads_alternating_on_two_states_get_the_serial_results(self, grid32, ws32, rng):
        # four threads on two cores, two per state, switching every
        # microsecond, share the one slot: each must get its own state's bits
        states = [
            ComplexField(grid32, gaussian_state(grid32, width).values + 0.1 * smooth_random_complex(grid32, rng))
            for width in (1.0, 1.5)
        ]
        serial = [self.fresh(u, ws32) for u in states]
        barrier = threading.Barrier(4, timeout=60)
        got: list[list] = [[] for _ in range(4)]

        def work(i):
            barrier.wait()
            u = states[i % 2]
            for _ in range(10):
                bd = energy_breakdown(u, self.PROF, self.PARAMS, ws32)
                got[i].append((bd, grad_E(u, self.PROF, self.PARAMS, ws32).values))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, rows in enumerate(got):
            bd, grad = serial[i % 2]
            assert len(rows) == 10
            for row_bd, row_grad in rows:
                assert row_bd == bd and np.array_equal(row_grad, grad)

    @pytest.mark.parametrize("exit", ["converged", "cap", "stall", "no_descent"])
    def test_minimize_at_mass_solves_only_in_the_flow(self, exit, monkeypatch):
        # the closing breakdown reads the flow's Evaluation of its last iterate;
        # only the no-descent exit, whose last Evaluation is a trial's, pays one
        if exit == "stall":
            monkeypatch.setattr(minimize, "ENERGY_TOL", 1e3)
            monkeypatch.setattr(minimize, "STALL_ITERS", 5)
        elif exit == "no_descent":
            # one trial, a step far too long to descend
            monkeypatch.setattr(minimize, "BACKTRACK_MAX", 1)
            monkeypatch.setattr(minimize, "TAU0", 1e3)
        ws = SpectralWorkspace(Grid3(16, 8.0))
        solves = _count_coulomb(monkeypatch)
        at_flow_end = []
        flow = minimize._normalized_flow

        def counted_flow(*args):
            state = flow(*args)
            at_flow_end.append(solves[0])
            return state

        monkeypatch.setattr(minimize, "_normalized_flow", counted_flow)
        config = minimize.MinimizeConfig(max_iters=3 if exit == "cap" else 4000)
        res = minimize.minimize_at_mass(10.0, self.PROF, self.PARAMS, config, ws)
        assert res.converged is (exit == "converged")
        if exit != "converged":
            assert res.iterations == {"cap": 3, "stall": 5, "no_descent": 0}[exit]
        assert solves[0] == at_flow_end[0] + (exit == "no_descent")
        assert res.breakdown == self.fresh(res.u_min, ws)[0]


class TestLagrangeMultiplier:
    def test_matches_projection(self, grid32, ws32, rng):
        params = PhysParams(2.2, 1.0)
        prof = GaussianProfile(0.2, 1.0)
        u = ComplexField(grid32, gaussian_state(grid32).values + 0.05 * smooth_random_complex(grid32, rng))
        bd = energy_breakdown(u, prof, params, ws32)
        omega = lagrange_multiplier(bd)
        g = grad_E(u, prof, params, ws32)
        proj = -(np.vdot(g.values, u.values) * grid32.cell_volume).real / bd.mass
        assert omega == pytest.approx(proj, rel=1e-8)

    def test_zero_mass_rejected(self, grid32, ws32):
        u = ComplexField(grid32, np.zeros((32,) * 3, dtype=complex))
        bd = energy_breakdown(u, ZeroProfile(), PhysParams(2.2, 1.0), ws32)
        with pytest.raises(ValueError):
            lagrange_multiplier(bd)


class TestResiduals:
    def _random_breakdown(self, grid, ws, rng, profile=None):
        params = PhysParams(2.2, 1.1)
        prof = profile if profile is not None else GaussianProfile(0.3, 1.0)
        u = ComplexField(grid, gaussian_state(grid).values + 0.2 * smooth_random_complex(grid, rng))
        return energy_breakdown(u, prof, params, ws)

    def test_nehari_forced_zero_with_extracted_omega(self, grid32, ws32, rng):
        bd = self._random_breakdown(grid32, ws32, rng)
        omega = lagrange_multiplier(bd)
        res = nehari_residual(bd, omega)
        assert abs(res.normalized) < 1e-14

    def test_nehari_term_by_term(self, grid32, ws32, rng):
        bd = self._random_breakdown(grid32, ws32, rng)
        omega = 1.0
        res = nehari_residual(bd, omega)
        e2 = bd.e**2
        expected = (
            bd.grad_l2_sq + omega * bd.mass - bd.lp1_power() + 4 * e2 * bd.a1 + 4 * e2 * bd.a2
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_lemma23_is_combination_of_identities(self, grid32, ws32, rng):
        # (5p-7)E - [...] = 2 * Nehari + (p-3) * Pohozaev, identically in
        # (u, omega); verified on random states and multipliers.
        for prof in (GaussianProfile(0.3, 1.0), BallsProfile((BallSpec((0.0, 0.0, 0.0), 1.2, 0.4),)), ZeroProfile()):
            bd = self._random_breakdown(grid32, ws32, rng, profile=prof)
            for omega in (-0.7, 0.9, 2.3):
                lhs = lemma23_residual(bd, omega).value
                rhs = 2.0 * nehari_residual(bd, omega).value + (bd.p - 3.0) * pohozaev_residual(bd, omega).value
                scale = max(abs(lhs), abs(rhs), 1e-30)
                assert abs(lhs - rhs) / scale < 1e-12

    def test_pohozaev_nonzero_for_wrong_width(self, grid32, ws32):
        # a Gaussian of arbitrary width is not a solution: residual visible
        params = PhysParams(2.2, 1.0)
        u = gaussian_state(grid32, width=1.3)
        bd = energy_breakdown(u, ZeroProfile(), params, ws32)
        omega = lagrange_multiplier(bd)
        res = pohozaev_residual(bd, omega)
        assert abs(res.normalized) > 1e-2

    def test_zero_state_residuals(self, grid32, ws32):
        u = ComplexField(grid32, np.zeros((32,) * 3, dtype=complex))
        bd = energy_breakdown(u, ZeroProfile(), PhysParams(2.2, 1.0), ws32)
        assert nehari_residual(bd, 0.5).value == 0.0
        assert pohozaev_residual(bd, 0.5).value == 0.0
        assert lemma23_residual(bd, 0.5).value == 0.0


class TestEstimateBattery:
    def test_lemma21_bounds_with_calibrated_constant(self, grid24, ws24, rng):
        # A1 <= C m^{3/2} g   and |A2| <= C |rho|_{6/5} m^{3/4} g^{1/2}
        # with m = |u|_2^2, g = |grad u|_2; one constant calibrated on a
        # separate batch, asserted with margin on a fresh batch.
        from spwaves.profiles import rho_norms

        params = PhysParams(2.2, 1.0)
        prof = GaussianProfile(0.5, 1.0)
        rho_norm = rho_norms(prof, grid24)[0]

        def ratios(batch_rng):
            out = []
            for _ in range(8):
                u = ComplexField(grid24, smooth_random_complex(grid24, batch_rng, decay=rng.uniform(0.2, 1.0)))
                bd = energy_breakdown(u, prof, params, ws24)
                m = bd.mass**0.5
                g = bd.grad_l2_sq**0.5
                out.append(
                    (
                        bd.a1 / (m**3 * g),
                        abs(bd.a2) / (rho_norm * m**1.5 * g**0.5),
                    )
                )
            return np.array(out)

        calib = ratios(np.random.default_rng(7))
        c = 2.0 * calib.max(axis=0)
        fresh = ratios(np.random.default_rng(8))
        assert np.all(fresh[:, 0] <= c[0])
        assert np.all(fresh[:, 1] <= c[1])


class TestTranslationDecay:
    def test_a2_decays_monotonically(self, grid64, ws64):
        params = PhysParams(2.2, 1.0)
        prof = GaussianProfile(0.5, 1.0)
        base = gaussian_state(grid64, width=0.6)
        vals = []
        for cells in (0, 4, 8, 12, 16, 20):
            moved = ComplexField(grid64, np.roll(base.values, cells, axis=0))
            bd = energy_breakdown(moved, prof, params, ws64)
            vals.append(abs(bd.a2))
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
        # S2 falls off like 1/|k|, so half-box translation roughly quarters A2
        assert vals[-1] < 0.5 * vals[0]


class TestBrezisLiebSplitting:
    def test_disjoint_supports_cross_term(self, grid64, ws64):
        # u, v with distant supports: A1(u+v) - A1(u) - A1(v) equals the
        # cross term (1/2) int S1(u) |v|^2 and decays like 1/distance.
        params = PhysParams(2.2, 1.0)
        width = 0.5
        gaps = [5.0, 7.5]
        excess = []
        for gap in gaps:
            x, y, z = grid64.coords()
            u_vals = np.exp(-((x + gap / 2) ** 2 + y**2 + z**2) / (2 * width**2)).astype(complex)
            v_vals = np.exp(-((x - gap / 2) ** 2 + y**2 + z**2) / (2 * width**2)).astype(complex)
            u = ComplexField(grid64, u_vals)
            v = ComplexField(grid64, v_vals)
            both = ComplexField(grid64, u_vals + v_vals)
            a1 = lambda w: energy_breakdown(w, ZeroProfile(), params, ws64).a1
            ex = a1(both) - a1(u) - a1(v)
            s1_u = Evaluation(u.values, ws64).s1
            cross = 0.5 * float(np.sum(s1_u * np.abs(v.values) ** 2)) * grid64.cell_volume
            assert ex == pytest.approx(cross, rel=1e-6)
            excess.append(ex)
        # 1/distance decay: ratio of excesses approx gap2/gap1
        assert excess[0] / excess[1] == pytest.approx(gaps[1] / gaps[0], rel=0.05)


class TestScalingCheck:
    def test_a1_exponents(self, ws64):
        rep = scaling_check(1.0, 1.5, 1.0, 2.0, ws64)
        ent = rep.entry("a1")
        assert ent.exponent_exact == 1.0
        assert ent.exponent_error < 1e-6
        rep = scaling_check(1.0, 0.0, -1.0, 2.0, ws64)
        ent = rep.entry("a1")
        assert ent.exponent_exact == 5.0
        assert ent.exponent_error < 1e-6

    def test_mass_kinetic_s1_exponents(self, ws64):
        rep = scaling_check(1.0, 1.5, 1.0, 2.0, ws64)
        assert rep.entry("mass").exponent_exact == 0.0
        assert rep.entry("mass").exponent_error < 1e-10
        assert rep.entry("kinetic").exponent_exact == 2.0
        assert rep.entry("kinetic").exponent_error < 1e-8
        assert rep.entry("s1_origin").exponent_exact == 1.0
        assert rep.entry("s1_origin").exponent_error < 1e-6

    def test_bad_args_rejected(self, ws32):
        with pytest.raises(ValueError):
            scaling_check(-1.0, 0.0, 1.0, 2.0, ws32)
        with pytest.raises(ValueError):
            scaling_check(1.0, 0.0, 1.0, -2.0, ws32)
        with pytest.raises(ValueError, match="lam != 1"):  # a dilation by 1 measures no exponent
            scaling_check(1.0, 1.5, 1.0, 1.0, ws32)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["width", "a", "b", "lam", "amplitude"])
    def test_arg_that_is_not_finite_is_rejected(self, ws32, name, bad):
        args = dict(width=1.0, a=1.5, b=1.0, lam=2.0, amplitude=1.0)
        args[name] = bad
        with pytest.raises(ValueError, match="finite"):
            scaling_check(ws=ws32, **args)

    def test_zero_amplitude_is_rejected_before_solving(self, ws32, monkeypatch):
        # the zero state has no mass, kinetic energy, A1 or S1 to take ratios of
        def no_solve(values):
            raise AssertionError("scaling_check solved before checking its arguments")

        monkeypatch.setattr(ws32, "coulomb", no_solve)
        with pytest.raises(ValueError, match="amplitude must be nonzero"):
            scaling_check(1.0, 1.5, 1.0, 2.0, ws32, amplitude=0.0)

    def test_amplitude_whose_measures_underflow_is_rejected(self):
        # |1e-170|^2 underflows to 0: no ratio of the base measures exists
        with pytest.raises(ValueError, match="amplitude"):
            scaling_check(1.0, 1.5, 1.0, 2.0, SpectralWorkspace(Grid3(8, 8.0)), amplitude=1e-170)

    def test_scaled_state_whose_measures_underflow_is_rejected(self):
        # u_lam = 2^-400 u: its A1 ~ 2^-1600 underflows to 0, so log(0) has no exponent
        with pytest.raises(ValueError, match="scaled state"):
            scaling_check(1.0, -400.0, 0.0, 2.0, SpectralWorkspace(Grid3(16, 8.0)))

    @pytest.mark.parametrize(
        "width, a, b, state",
        [
            (1.0, 0.0, 600.0, "scaled"),  # width 2^-600 squares to 0
            (1e-200, 0.0, 1.0, "base"),  # width 1e-200 squares to 0
            (1.0, 400.0, 0.0, "scaled"),  # amplitude 2^400: A1 ~ 2^1600 overflows
            (1.0, 0.0, -600.0, "scaled"),  # width 2^600 squares to inf
        ],
    )
    def test_extreme_dilation_is_rejected_without_a_warning(self, width, a, b, state):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"{state} state"):
                scaling_check(width, a, b, 2.0, SpectralWorkspace(Grid3(16, 8.0)))
        assert not caught


class TestDilationCovariance:
    """Take A = B^(-2/(p-1)).  The state v(x) = A u(x/B) on the box B L at the
    same N, with e' = e/(A B^2) and rho' = A^2 rho(x/B), has E'(v) = A^2 B E(u)
    term by term and mass A^2 B^3 |u|^2: the samples of v are A times those
    of u, so the map is exact on the grid and needs no oracle."""

    P, E = 2.1, 0.3

    @pytest.mark.parametrize("b", [0.5, 1.7, 2.0, 3.0])
    @pytest.mark.parametrize("doping", ["gaussian", "ball"])
    def test_breakdown_terms_scale_with_the_dilation(self, doping, b, grid32, ws32, rng):
        a = b ** (-2.0 / (self.P - 1.0))
        if doping == "gaussian":
            profile, image = GaussianProfile(1.0, 1.0), GaussianProfile(a * a, 1.0 / b**2)
        else:
            profile = BallsProfile((BallSpec((0.5, 0.0, -0.25), 2.0, 1.0),))
            image = BallsProfile((BallSpec((0.5 * b, 0.0, -0.25 * b), 2.0 * b, a * a),))
        params, image_params = PhysParams(self.P, self.E), PhysParams(self.P, self.E / (a * b**2))
        ws_b = SpectralWorkspace(Grid3(32, 16.0 * b))
        u = ComplexField(grid32, smooth_random_complex(grid32, rng))
        bd = energy_breakdown(u, profile, params, ws32)
        img = energy_breakdown(ComplexField(ws_b.grid, a * u.values), image, image_params, ws_b)
        for name in ("kinetic", "power", "energy"):
            assert getattr(img, name) == pytest.approx(a * a * b * getattr(bd, name), rel=1e-13, abs=0.0)
        for name in ("a0", "a1", "a2", "a3"):
            scaled = a * a * b * params.e**2 * getattr(bd, name)
            assert image_params.e**2 * getattr(img, name) == pytest.approx(scaled, rel=1e-13, abs=0.0)
        assert img.mass == pytest.approx(a * a * b**3 * bd.mass, rel=1e-13, abs=0.0)
        if doping == "ball":
            # the scaled ball covers the scaled nodes: its samples are exact
            assert np.array_equal(sample_rho(image, ws_b.grid), a * a * sample_rho(profile, grid32))
