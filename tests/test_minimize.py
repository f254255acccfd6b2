"""Minimize module: the flow objective and the warm start."""

import numpy as np

from spwaves.energy import PhysParams, energy_breakdown, grad_E
from spwaves.grid import ComplexField
from spwaves.minimize import MinimizeConfig, _Objective, minimize_at_mass
from spwaves.profiles import GaussianProfile

from conftest import smooth_random_complex


def test_objective_matches_breakdown_and_gradient(grid32, ws32, rng):
    prof, params = GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3)
    u = ComplexField(grid32, smooth_random_complex(grid32, rng))
    energy, grad, ksq, mass = _Objective(prof, params, ws32)(u.values, need_grad=True)
    bd = energy_breakdown(u, prof, params, ws32)
    assert abs(energy - bd.energy) <= 1e-14 * abs(bd.energy)
    assert abs(ksq - bd.grad_l2_sq) <= 1e-14 * bd.grad_l2_sq
    assert abs(mass - bd.mass) <= 1e-14 * bd.mass
    ref = grad_E(u, prof, params, ws32).values
    assert np.max(np.abs(grad - ref)) <= 1e-14 * np.max(np.abs(ref))
    energy_only, no_grad, _, _ = _Objective(prof, params, ws32)(u.values, need_grad=False)
    assert energy_only == energy and no_grad is None


def test_init_field_is_the_start_of_a_zero_iteration_flow(grid32, ws32, rng):
    f = ComplexField(grid32, smooth_random_complex(grid32, rng))
    mu = 100.0
    config = MinimizeConfig(init_field=f, n_restarts=1, max_iters=0)
    res = minimize_at_mass(mu, GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), config, ws32)
    assert res.iterations == 0
    assert abs(res.breakdown.mass - mu) <= 1e-12 * mu
    # u_min = c f for one complex c: f up to its phase and mass
    c = np.vdot(f.values, res.u_min.values) / np.vdot(f.values, f.values)
    assert np.allclose(res.u_min.values, c * f.values, rtol=0.0, atol=1e-12 * np.max(np.abs(res.u_min.values)))
