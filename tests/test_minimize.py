"""Minimize module: the flow objective, the warm start, evaluation reuse in
the flow, the sweeps' and the mu* bisection's bookkeeping around
minimize_at_mass, and the spectral floor against a dense eigensolver."""

from types import SimpleNamespace

import numpy as np
import pytest

from spwaves import minimize
from spwaves.energy import PhysParams, energy_breakdown, grad_E, profile_fields
from spwaves.grid import ComplexField, Grid3, GridMismatchError, SpectralWorkspace
from spwaves.minimize import (
    BracketError,
    HomogeneityPoint,
    MinimizeConfig,
    NumericalAbort,
    SplitPoint,
    SubadditivityReport,
    _gaussian_trial,
    _normalized_flow,
    _Objective,
    c_curve,
    minimize_at_mass,
    mu_star,
    spectral_floor,
    subadditivity_scan,
)
from spwaves.profiles import GaussianProfile, ZeroProfile

from conftest import smooth_random_complex


def test_objective_matches_breakdown_and_gradient(grid32, ws32, rng):
    prof, params = GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3)
    u = ComplexField(grid32, smooth_random_complex(grid32, rng))
    energy, grad, ksq = _Objective(prof, params, ws32)(u.values, need_grad=True)
    bd = energy_breakdown(u, prof, params, ws32)
    assert abs(energy - bd.energy) <= 1e-14 * abs(bd.energy)
    assert abs(ksq - bd.grad_l2_sq) <= 1e-14 * bd.grad_l2_sq
    ref = grad_E(u, prof, params, ws32).values
    assert np.max(np.abs(grad - ref)) <= 1e-14 * np.max(np.abs(ref))
    energy_only, no_grad, _ = _Objective(prof, params, ws32)(u.values, need_grad=False)
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


def test_init_field_on_another_grid_is_rejected(grid24, ws32):
    f = ComplexField(grid24, _gaussian_trial(grid24, 1.0, 1.0))
    config = MinimizeConfig(init_field=f, n_restarts=1, max_iters=0)
    with pytest.raises(GridMismatchError):
        minimize_at_mass(1.0, ZeroProfile(), PhysParams(2.1, 0.3), config, ws32)


class _Calls:
    """Counts the flow's trial evaluations (need_grad=False); with copy=True it
    hands the objective a copy of every state, so nothing can be reused."""

    def __init__(self, objective, copy):
        self.objective, self.copy = objective, copy
        self.dv = objective.dv
        self.trials = 0

    def __call__(self, vals, need_grad):
        self.trials += not need_grad
        return self.objective(vals.copy() if self.copy else vals, need_grad)


def _count_solves(ws):
    count = [0]
    solve = ws.coulomb

    def counting(values):
        count[0] += 1
        return solve(values)

    ws.coulomb = counting
    return count


def test_flow_reuses_the_accepted_trial(grid24):
    # A workspace of its own, so the counting wrapper touches no fixture.
    ws = SpectralWorkspace(grid24)
    prof, params, mu = GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), 100.0
    config = MinimizeConfig(max_iters=40)
    u0 = _gaussian_trial(grid24, 1.5, mu)
    copied_obj, reused_obj = (_Calls(_Objective(prof, params, ws), copy) for copy in (True, False))
    solves = _count_solves(ws)
    copied = _normalized_flow(mu, copied_obj, u0, config)
    copied_solves, solves[0] = solves[0], 0
    reused = _normalized_flow(mu, reused_obj, u0, config)
    assert np.array_equal(reused.vals, copied.vals)
    assert reused.energy == copied.energy
    assert reused.iterations == copied.iterations == config.max_iters
    # one solve per trial plus the start; the copies also pay one per accepted step
    assert reused_obj.trials == copied_obj.trials
    assert solves[0] == 1 + reused_obj.trials
    assert copied_solves == 1 + copied_obj.trials + copied.iterations


def test_c_curve_restarts_cold_after_an_abort(grid24, monkeypatch):
    first = ComplexField(grid24, np.ones((24,) * 3, dtype=complex))
    configs = []

    def fake_minimize(mu, profile, params, cfg, ws):
        configs.append(cfg)
        if len(configs) == 2:
            raise NumericalAbort("injected")
        residuals = dict(nehari=0.0, pohozaev=0.0, lemma23=0.0, gradient=0.0)
        return SimpleNamespace(u_min=first, c_value=-mu, omega=1.0, residuals=residuals, iterations=1, converged=True)

    monkeypatch.setattr(minimize, "minimize_at_mass", fake_minimize)
    config = MinimizeConfig()
    table = c_curve([1.0, 2.0, 3.0], ZeroProfile(), PhysParams(2.1, 0.3), config, SpectralWorkspace(grid24))
    assert configs[0] is config
    assert configs[1].init_field is first and configs[1].n_restarts == 1
    assert configs[2] is config
    assert [p.c for p in table.points][::2] == [-1.0, -3.0] and np.isnan(table.points[1].c)


def test_subadditivity_scan_minimizes_each_mass_once(grid24, monkeypatch):
    def c_of(mu, profile):
        return -(mu**1.5) - (0.0 if isinstance(profile, ZeroProfile) else 0.1 * mu)

    calls = []

    def fake_minimize(mu, profile, params, cfg, ws):
        calls.append((mu, profile))
        return SimpleNamespace(c_value=c_of(mu, profile), converged=True)

    monkeypatch.setattr(minimize, "minimize_at_mass", fake_minimize)
    prof, mu = GaussianProfile(1.0, 1.0), 10.0
    report = subadditivity_scan(mu, (0.5,), prof, PhysParams(2.1, 0.3), MinimizeConfig(), SpectralWorkspace(grid24))
    # 7 minimizations unmemoized: total, part, rest, base and three scaled
    assert len(calls) == len(set(calls)) == 5
    s, zero = 0.5 * mu, ZeroProfile()
    split = SplitPoint(0.5, s, c_of(s, prof), c_of(s, zero), c_of(s, prof) + c_of(s, zero) - c_of(mu, prof), True)
    homogeneity = tuple(
        HomogeneityPoint(lam, s, c_of(lam * s, prof) - lam * c_of(s, prof), True) for lam in (1.25, 1.5, 2.0)
    )
    assert report == SubadditivityReport(mu, c_of(mu, prof), (split,), homogeneity)


def _fake_c_inf(monkeypatch, threshold):
    """Replaces minimize_at_mass by c_inf(mu) = threshold - mu and records
    the (mass, profile, config, workspace) of every call."""
    calls = []

    def fake_minimize(mu, profile, params, cfg, ws):
        calls.append((mu, profile, cfg, ws))
        if len(calls) > 200:
            raise AssertionError("mu_star is still bisecting after 200 minimizations")
        return SimpleNamespace(c_value=threshold - mu)

    monkeypatch.setattr(minimize, "minimize_at_mass", fake_minimize)
    return calls


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
def test_mu_star_rejects_a_disordered_bracket_before_minimizing(bracket, ws24, monkeypatch):
    calls = _fake_c_inf(monkeypatch, 5.0)
    with pytest.raises(BracketError, match="0 < low < high"):
        mu_star(PhysParams(2.1, 0.3), MinimizeConfig(), bracket, 0.1, ws24)
    assert calls == []


@pytest.mark.parametrize("bracket", [(1.0, 4.0), (6.0, 9.0)])
def test_mu_star_reports_both_energies_of_a_non_straddling_bracket(bracket, ws24, monkeypatch):
    calls = _fake_c_inf(monkeypatch, 5.0)
    with pytest.raises(BracketError) as err:
        mu_star(PhysParams(2.1, 0.3), MinimizeConfig(), bracket, 0.1, ws24)
    lo, hi = bracket
    assert f"c_inf({lo}) = {5.0 - lo:.3e}" in str(err.value)
    assert f"c_inf({hi}) = {5.0 - hi:.3e}" in str(err.value)
    assert [c[0] for c in calls] == [lo, hi]


def test_mu_star_bisects_to_the_threshold(ws24, monkeypatch):
    calls = _fake_c_inf(monkeypatch, 3.7)
    config, tol = MinimizeConfig(), 1.0 / 64.0
    res = mu_star(PhysParams(2.1, 0.3), config, (1.0, 9.0), tol, ws24)
    # c_inf(mu) < -eps_neg exactly when mu > 3.7 + eps_neg
    assert abs(res.value - (3.7 + config.eps_neg)) <= tol
    assert res.bracket_low <= 3.7 + config.eps_neg < res.bracket_high
    assert res.bracket_high - res.bracket_low <= tol
    assert (res.energy_low, res.energy_high) == (3.7 - 1.0, 3.7 - 9.0)
    # the width 8 halves 9 times to 1/64
    assert res.evaluations == len(calls) == 2 + 9
    assert all(isinstance(prof, ZeroProfile) and cfg is config and ws is ws24 for _, prof, cfg, ws in calls)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_mu_star_rejects_a_tol_that_is_not_positive_and_finite(tol, ws24, monkeypatch):
    calls = _fake_c_inf(monkeypatch, 3.7)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        mu_star(PhysParams(2.1, 0.3), MinimizeConfig(), (1.0, 9.0), tol, ws24)
    assert calls == []


def test_mu_star_stops_at_the_float_spacing(ws24, monkeypatch):
    calls = _fake_c_inf(monkeypatch, 3.7)
    config = MinimizeConfig()
    res = mu_star(PhysParams(2.1, 0.3), config, (1.0, 9.0), 1e-20, ws24)
    assert res.evaluations == len(calls) <= 2 + 60
    # the bracket ends as two adjacent floats around the threshold
    assert res.bracket_high == np.nextafter(res.bracket_low, np.inf)
    assert res.bracket_low <= 3.7 + config.eps_neg < res.bracket_high


def _dense_floor(grid, potential):
    """Lowest eigenvalue of -Delta + potential as a dense matrix: the 1-D
    spectral second derivative from the DFT matrix, Kronecker-summed over
    the three axes, with no FFT and no iteration."""
    n = grid.n
    idx = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(idx, idx) / n)
    k2 = grid.wavenumbers() ** 2
    minus_d2 = (dft.conj().T @ (k2[:, None] * dft)).real / n
    eye = np.eye(n)
    minus_lap = (
        np.kron(np.kron(minus_d2, eye), eye) + np.kron(np.kron(eye, minus_d2), eye) + np.kron(np.kron(eye, eye), minus_d2)
    )
    return np.linalg.eigvalsh(minus_lap + np.diag(potential.ravel()))[0]


@pytest.mark.parametrize("n", [8, 10])
def test_spectral_floor_matches_dense_eigenvalue(n):
    prof, e, length = GaussianProfile(1.0, 1.0), 0.3, 8.0
    (pt,) = spectral_floor(prof, e, (length,), MinimizeConfig(), n)
    grid = Grid3(n, length)
    dense = _dense_floor(grid, 2.0 * e**2 * profile_fields(prof, SpectralWorkspace(grid)).s2)
    assert pt.converged and pt.box_length == length
    assert abs(pt.floor - dense) <= 1e-9 * abs(dense)


def test_spectral_floor_converges_in_few_iterations():
    (pt,) = spectral_floor(GaussianProfile(1.0, 1.0), 0.3, (16.0,), MinimizeConfig(), 16)
    assert pt.converged and pt.iterations <= 30


def test_spectral_floor_reports_the_iteration_cap():
    (pt,) = spectral_floor(GaussianProfile(1.0, 1.0), 0.3, (16.0,), MinimizeConfig(max_iters=2), 16)
    assert (pt.converged, pt.iterations) == (False, 2)


def test_spectral_floor_of_zero_doping_is_zero():
    rows = spectral_floor(ZeroProfile(), 0.3, (8.0, 12.0), MinimizeConfig(), 16)
    assert rows == [minimize.FloorPoint(8.0, 0.0, True, 0), minimize.FloorPoint(12.0, 0.0, True, 0)]


def test_spectral_floor_turns_an_abort_into_a_nan_row(monkeypatch):
    def overflowing(profile, ws):
        return SimpleNamespace(s2=np.full(ws.k2.shape, np.inf))

    monkeypatch.setattr(minimize, "profile_fields", overflowing)
    (pt,) = spectral_floor(GaussianProfile(1.0, 1.0), 0.3, (8.0,), MinimizeConfig(), 8)
    assert np.isnan(pt.floor) and (pt.box_length, pt.converged, pt.iterations) == (8.0, False, 0)
