"""Minimize module: the flow objective, the cold and warm starts, evaluation
reuse in the flow, the flow's exits, input checks, the sweeps' and the mu*
bisection's bookkeeping around minimize_at_mass, the spectral floor against
a dense eigensolver, the radial free-space floor, and the small-mass slope
of c(mu) against the operator E linearizes to."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erf

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
    _cold_start,
    _gaussian_trial,
    _normalized_flow,
    _Objective,
    c_curve,
    minimize_at_mass,
    mu_star,
    spectral_floor,
    subadditivity_scan,
)
from spwaves.profiles import BallSpec, BallsProfile, GaussianProfile, ZeroProfile

from conftest import smooth_random_complex
from oracles import radial_floor, shell_s2


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


def test_cold_start_is_the_real_gaussian_of_lowest_energy():
    grid = Grid3(16, 8.0)
    objective = _Objective(GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), SpectralWorkspace(grid))
    mu = 100.0
    widths = np.geomspace(3.0 * grid.spacing, grid.length / 5.0, 10)
    best = min(widths, key=lambda w: objective(_gaussian_trial(grid, w, mu), need_grad=False)[0])
    vals = _cold_start(mu, objective)
    assert not np.any(vals.imag)
    assert np.array_equal(vals, _gaussian_trial(grid, float(best), mu))


# Every solve runs one flow, so every count of starts but 1 is rejected.
@pytest.mark.parametrize("n_restarts", [0, -1, 3, 5, 6, 2.5, 2.0, "2"])
def test_n_restarts_outside_the_start_widths_is_rejected(n_restarts):
    with pytest.raises(ValueError, match="n_restarts"):
        MinimizeConfig(n_restarts=n_restarts)


def test_default_config_runs_one_flow():
    assert MinimizeConfig() == MinimizeConfig(n_restarts=1) == MinimizeConfig(n_restarts=np.int64(1))
    with pytest.raises(ValueError, match="n_restarts"):
        MinimizeConfig(n_restarts=2)


@pytest.mark.parametrize("max_iters", [-1, 2.5, "3", None])
def test_max_iters_that_is_not_a_nonnegative_integer_is_rejected(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        MinimizeConfig(max_iters=max_iters)


@pytest.mark.parametrize("n", [np.int32(2), np.int64(2)])
def test_numpy_integer_counts_are_stored_as_int(n):
    config = MinimizeConfig(max_iters=n, n_restarts=type(n)(1))
    assert type(config.max_iters) is type(config.n_restarts) is int
    assert (config.max_iters, config.n_restarts) == (2, 1)


def test_cold_restarts_are_deterministic():
    ws = SpectralWorkspace(Grid3(16, 8.0))
    config = MinimizeConfig(max_iters=20)
    runs = [minimize_at_mass(100.0, GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), config, ws) for _ in range(2)]
    assert np.array_equal(runs[0].u_min.values, runs[1].u_min.values)


def test_warm_start_is_the_start_of_a_zero_iteration_flow(grid32, ws32, rng):
    f = ComplexField(grid32, smooth_random_complex(grid32, rng))
    mu = 100.0
    config = MinimizeConfig(max_iters=0)
    res = minimize_at_mass(mu, GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), config, ws32, start=f)
    assert res.iterations == 0
    assert abs(res.breakdown.mass - mu) <= 1e-12 * mu
    # u_min = c f for one complex c: f up to its phase and mass
    c = np.vdot(f.values, res.u_min.values) / np.vdot(f.values, f.values)
    assert np.allclose(res.u_min.values, c * f.values, rtol=0.0, atol=1e-12 * np.max(np.abs(res.u_min.values)))


def test_warm_start_on_another_grid_is_rejected(grid24, ws32):
    f = ComplexField(grid24, _gaussian_trial(grid24, 1.0, 1.0))
    with pytest.raises(GridMismatchError):
        minimize_at_mass(1.0, ZeroProfile(), PhysParams(2.1, 0.3), MinimizeConfig(max_iters=0), ws32, start=f)


class _Calls:
    """Counts the flow's trial (need_grad=False) and gradient evaluations;
    with copy=True it hands the objective a copy of every state, so nothing
    can be reused."""

    def __init__(self, objective, copy=False):
        self.objective, self.copy = objective, copy
        self.dv = objective.dv
        self.trials = self.grads = 0

    def __call__(self, vals, need_grad):
        self.trials += not need_grad
        self.grads += need_grad
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
    assert reused.iterations == copied.iterations == config.max_iters
    # one solve per trial plus the start; the copies also pay one per accepted step
    assert reused_obj.trials == copied_obj.trials
    assert solves[0] == 1 + reused_obj.trials
    assert copied_solves == 1 + copied_obj.trials + copied.iterations


def test_flow_computes_each_energy_once(grid24, monkeypatch):
    counts = {"evaluations": 0, "energy_terms": 0}
    init, energy_terms = minimize.Evaluation.__init__, minimize.Evaluation.energy_terms

    def counting_init(self, vals, ws):
        counts["evaluations"] += 1
        init(self, vals, ws)

    def counting_energy_terms(self, fields, params):
        counts["energy_terms"] += 1
        return energy_terms(self, fields, params)

    monkeypatch.setattr(minimize.Evaluation, "__init__", counting_init)
    monkeypatch.setattr(minimize.Evaluation, "energy_terms", counting_energy_terms)
    mu, objective = 100.0, _Objective(GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), SpectralWorkspace(grid24))
    state = _normalized_flow(mu, objective, _gaussian_trial(grid24, 1.5, mu), MinimizeConfig(max_iters=20))
    assert state.iterations == 20
    assert counts["energy_terms"] == counts["evaluations"] > state.iterations


def _flow_case(n=16, length=8.0, mu=10.0):
    """The objective of Gaussian(1, 1) doping at p=2.1, e=0.3 on an n-point
    box, and the real Gaussian start of width 1.5 at mass mu."""
    grid = Grid3(n, length)
    objective = _Objective(GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), SpectralWorkspace(grid))
    return objective, _gaussian_trial(grid, 1.5, mu)


def test_flow_converges_at_grad_tol():
    config = MinimizeConfig()
    ws = SpectralWorkspace(Grid3(16, 8.0))
    res = minimize_at_mass(10.0, GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), config, ws)
    assert res.converged and res.iterations < config.max_iters
    assert res.residuals["gradient"] < minimize.GRAD_TOL


def test_gradient_residuals_are_python_floats():
    ws = SpectralWorkspace(Grid3(16, 8.0))
    args = (GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), MinimizeConfig(max_iters=3), ws)
    res = minimize_at_mass(10.0, *args)
    (point,) = c_curve([10.0], *args).points
    assert type(res.residuals["gradient"]) is float
    assert type(point.grad_res) is float


def test_ball_ground_state_meets_the_pohozaev_identity(ws32):
    # A3 from S2 sees the same sampled indicator as A2; the surface form of
    # the continuum ball left a residual of 7e-4 here (3.2e-5 now)
    prof = BallsProfile((BallSpec((0.0, 0.0, 0.0), 2.0, 1.0),))
    res = minimize_at_mass(100.0, prof, PhysParams(2.1, 0.3), MinimizeConfig(max_iters=400), ws32)
    assert abs(res.residuals["pohozaev"]) < 1e-4


def test_flow_stops_after_stall_iters_without_an_energy_drop(monkeypatch):
    monkeypatch.setattr(minimize, "ENERGY_TOL", 1e3)  # no drop counts
    monkeypatch.setattr(minimize, "STALL_ITERS", 5)
    objective, u0 = _flow_case()
    state = _normalized_flow(10.0, objective, u0, MinimizeConfig())
    assert (state.iterations, state.converged) == (5, False)


def _never_descends(objective, u0):
    """An objective whose every trial lies above the start u0."""
    grad = objective(u0, need_grad=True)[1]

    def never_descends(vals, need_grad):
        return (0.0, grad, 1.0) if need_grad else (1.0, None, 1.0)

    never_descends.dv = objective.dv
    return never_descends


def test_flow_without_a_descending_trial_stops_in_its_first_iteration():
    objective, u0 = _flow_case()
    calls = _Calls(_never_descends(objective, u0))
    state = _normalized_flow(10.0, calls, u0, MinimizeConfig())
    assert (state.iterations, state.converged) == (0, False)
    assert (calls.grads, calls.trials) == (1, minimize.BACKTRACK_MAX)


@pytest.mark.parametrize("exit", ["converged", "stall", "no_descent", "cap"])
def test_flow_iterations_count_the_accepted_steps_on_every_exit(exit, monkeypatch):
    # the start and every accepted step each take one gradient
    objective, u0 = _flow_case()
    config = MinimizeConfig(max_iters=3 if exit == "cap" else 4000)
    if exit == "stall":
        monkeypatch.setattr(minimize, "ENERGY_TOL", 1e3)
        monkeypatch.setattr(minimize, "STALL_ITERS", 5)
    elif exit == "no_descent":
        objective = _never_descends(objective, u0)
    calls = _Calls(objective)
    state = _normalized_flow(10.0, calls, u0, config)
    assert state.iterations == calls.grads - 1
    assert state.converged is (exit == "converged")
    if exit != "converged":
        assert state.iterations == {"stall": 5, "no_descent": 0, "cap": 3}[exit]


def test_warm_start_without_mass_aborts(grid24, ws24):
    zero = ComplexField(grid24, np.zeros((24,) * 3))
    with pytest.raises(NumericalAbort, match="lost all mass"):
        minimize_at_mass(1.0, ZeroProfile(), PhysParams(2.1, 0.3), MinimizeConfig(), ws24, start=zero)


def test_objective_of_a_nan_state_aborts():
    objective, u0 = _flow_case()
    with pytest.raises(NumericalAbort, match="non-finite"):
        objective(np.full_like(u0, np.nan), need_grad=False)


def test_c_curve_restarts_cold_after_an_abort(grid24, monkeypatch):
    first = ComplexField(grid24, np.ones((24,) * 3, dtype=complex))
    calls = []

    def fake_minimize(mu, profile, params, cfg, ws, start):
        calls.append((cfg, start))
        if len(calls) == 2:
            raise NumericalAbort("injected")
        residuals = dict(pohozaev=0.0, gradient=0.0)
        return SimpleNamespace(u_min=first, c_value=-mu, omega=1.0, residuals=residuals, iterations=1, converged=True)

    monkeypatch.setattr(minimize, "minimize_at_mass", fake_minimize)
    config = MinimizeConfig()
    table = c_curve([1.0, 2.0, 3.0], ZeroProfile(), PhysParams(2.1, 0.3), config, SpectralWorkspace(grid24))
    assert all(cfg is config for cfg, _ in calls)
    assert calls[0][1] is None and calls[1][1] is first and calls[2][1] is None
    assert [p.c for p in table.points][::2] == [-1.0, -3.0] and np.isnan(table.points[1].c)


def _fake_curve(monkeypatch, c_values):
    """Replaces minimize_at_mass by one that returns the next of c_values,
    or raises NumericalAbort where that value is None."""
    values = iter(c_values)

    def fake_minimize(mu, profile, params, cfg, ws, start):
        c = next(values)
        if c is None:
            raise NumericalAbort("injected")
        residuals = dict(pohozaev=0.0, gradient=0.0)
        u_min = ComplexField(ws.grid, np.ones(ws.k2.shape, dtype=complex))
        return SimpleNamespace(u_min=u_min, c_value=c, omega=1.0, residuals=residuals, iterations=1, converged=True)

    monkeypatch.setattr(minimize, "minimize_at_mass", fake_minimize)


@pytest.mark.parametrize(
    "c_values, nonincreasing",
    [
        ((-1.0, -1.0 + 3 * minimize.ENERGY_TOL), False),  # a rise of 3 ENERGY_TOL
        ((-1.0, -1.0 + minimize.ENERGY_TOL), True),  # a rise of 1 ENERGY_TOL
        ((-1.0, None, -2.0), True),  # the aborted row is skipped
        ((-1.0, None, -1.0 + 3 * minimize.ENERGY_TOL), False),  # and does not hide a rise across it
    ],
)
def test_c_curve_nonincreasing_allows_twice_energy_tol(c_values, nonincreasing, ws24, monkeypatch):
    _fake_curve(monkeypatch, c_values)
    config = MinimizeConfig()
    mus = [float(k) for k in range(1, len(c_values) + 1)]
    table = c_curve(mus, ZeroProfile(), PhysParams(2.1, 0.3), config, ws24)
    assert [np.isnan(p.c) for p in table.points] == [c is None for c in c_values]
    assert table.nonincreasing is nonincreasing


@pytest.mark.parametrize("mu", [float("nan"), float("inf")])
def test_mass_that_is_not_finite_is_rejected_before_solving(mu, ws24, monkeypatch):
    prof, params, config = GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3), MinimizeConfig()
    with pytest.raises(ValueError, match="positive and finite"):
        minimize_at_mass(mu, prof, params, config, ws24)
    calls = []
    monkeypatch.setattr(minimize, "minimize_at_mass", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="positive and finite"):
        c_curve([mu], prof, params, config, ws24)
    with pytest.raises(ValueError, match="positive and finite"):
        subadditivity_scan(mu, (0.5,), prof, params, config, ws24)
    assert calls == []


def test_c_curve_rejects_unsorted_masses_before_solving(ws24, monkeypatch):
    calls = []
    monkeypatch.setattr(minimize, "minimize_at_mass", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="sorted ascending"):
        c_curve([2.0, 1.0], ZeroProfile(), PhysParams(2.1, 0.3), MinimizeConfig(), ws24)
    assert calls == []


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
def test_subadditivity_scan_rejects_a_split_outside_the_unit_interval(fraction, ws24, monkeypatch):
    calls = []
    monkeypatch.setattr(minimize, "minimize_at_mass", lambda *args: calls.append(args))
    prof, params = GaussianProfile(1.0, 1.0), PhysParams(2.1, 0.3)
    with pytest.raises(ValueError, match="split fractions"):
        subadditivity_scan(10.0, (0.5, fraction), prof, params, MinimizeConfig(), ws24)
    assert calls == []


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


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, float("inf"))])
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
    # c_inf(mu) < -EPS_NEG exactly when mu > 3.7 + EPS_NEG
    assert abs(res.value - (3.7 + minimize.EPS_NEG)) <= tol
    assert res.bracket_low <= 3.7 + minimize.EPS_NEG < res.bracket_high
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
    assert res.bracket_low <= 3.7 + minimize.EPS_NEG < res.bracket_high


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


def test_spectral_floor_without_the_previous_direction_matches_dense_eigenvalue(monkeypatch):
    # every 3x3 Gram matrix counts as singular, so each update drops p
    cholesky, rejected = np.linalg.cholesky, []

    def rejects_three(gram):
        if gram.shape == (3, 3):
            rejected.append(gram)
            raise np.linalg.LinAlgError("rejected")
        return cholesky(gram)

    monkeypatch.setattr(np.linalg, "cholesky", rejects_three)
    prof, e, length, n = GaussianProfile(1.0, 1.0), 0.3, 8.0, 8
    (pt,) = spectral_floor(prof, e, (length,), MinimizeConfig(), n)
    grid = Grid3(n, length)
    dense = _dense_floor(grid, 2.0 * e**2 * profile_fields(prof, SpectralWorkspace(grid)).s2)
    assert pt.converged and len(rejected) == pt.iterations - 1 > 0
    assert abs(pt.floor - dense) <= 1e-9 * abs(dense)


def test_spectral_floor_converges_in_few_iterations():
    (pt,) = spectral_floor(GaussianProfile(1.0, 1.0), 0.3, (16.0,), MinimizeConfig(), 16)
    assert pt.converged and pt.iterations <= 30


def test_spectral_floor_reports_the_iteration_cap():
    (pt,) = spectral_floor(GaussianProfile(1.0, 1.0), 0.3, (16.0,), MinimizeConfig(max_iters=2), 16)
    assert (pt.converged, pt.iterations) == (False, 2)


@pytest.mark.parametrize("e", [0.0, float("nan"), float("inf")])
def test_spectral_floor_rejects_a_coupling_that_is_not_positive_and_finite(e):
    with pytest.raises(ValueError, match="positive and finite"):
        spectral_floor(GaussianProfile(1.0, 1.0), e, (8.0,), MinimizeConfig(), 8)


def test_spectral_floor_of_zero_doping_is_zero():
    # rho = 0 runs the same eigensolver on S2 = +0.0: the floor of -Delta on
    # the periodic box, 0 up to roundoff
    rows = spectral_floor(ZeroProfile(), 0.3, (8.0, 12.0), MinimizeConfig(), 16)
    assert [pt.box_length for pt in rows] == [8.0, 12.0]
    assert all(pt.converged and abs(pt.floor) < 1e-12 for pt in rows)


def test_spectral_floor_turns_an_abort_into_a_nan_row(monkeypatch):
    def overflowing(profile, ws):
        return SimpleNamespace(s2=np.full(ws.k2.shape, np.inf))

    monkeypatch.setattr(minimize, "profile_fields", overflowing)
    (pt,) = spectral_floor(GaussianProfile(1.0, 1.0), 0.3, (8.0,), MinimizeConfig(), 8)
    assert np.isnan(pt.floor) and (pt.box_length, pt.converged, pt.iterations) == (8.0, False, 0)


def test_small_mass_slope_tends_to_the_operator_e_linearizes_to():
    """E's quadratic part is 1/2 <u, (-Delta + e^2 S2) u>, so 2 c(mu) / mu
    tends to its lowest eigenvalue as mu falls: the floor at coupling
    e / sqrt(2), not the floor at e, whose operator is -Delta + 2 e^2 S2."""
    prof, e, length, n = GaussianProfile(1.0, 1.0), 0.3, 8.0, 16
    ws = SpectralWorkspace(Grid3(n, length))
    params = PhysParams(2.1, e)
    slopes = [2.0 * minimize_at_mass(mu, prof, params, MinimizeConfig(), ws).c_value / mu for mu in (1e-2, 1e-3, 1e-4)]
    (linear,) = spectral_floor(prof, e / np.sqrt(2.0), (length,), MinimizeConfig(), n)
    (floor,) = spectral_floor(prof, e, (length,), MinimizeConfig(), n)
    gaps = [abs(slope - linear.floor) for slope in slopes]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.03 * abs(linear.floor)
    assert gaps[2] < abs(slopes[2] - floor.floor)


COUPLING = 0.3


def gaussian_s2(r):
    """S2 of the bench doping rho = exp(-|x|^2) in free space, in closed form."""
    return -0.5 * np.pi**1.5 * erf(r) / (4.0 * np.pi * r)


def power_law_s2(r):
    """S2 of rho = 1 / (1 + |x|)^4 in free space, by shell-theorem quadrature."""
    return shell_s2(lambda s: (1.0 + s) ** -4.0, r)


def test_radial_floor_holds_still_in_the_radius_and_the_spacing():
    def potential(r):
        return 2.0 * COUPLING**2 * gaussian_s2(r)

    coarse, fine = radial_floor(potential, 1500.0, 30000), radial_floor(potential, 3000.0, 60000)
    assert abs(fine - coarse) <= 1e-10 * abs(fine)


@pytest.mark.parametrize(
    ("s2", "charge"), [(gaussian_s2, np.pi**1.5), (power_law_s2, 4.0 * np.pi / 3.0)], ids=["gaussian", "power_law"]
)
def test_radial_floor_lies_above_the_hydrogen_bound(s2, charge):
    """In free space 2 e^2 S2 >= -Z/r with Z = e^2 Q / (4 pi) and Q = int rho,
    for radial rho >= 0 (Newton's theorem), so -Delta + 2 e^2 S2 binds a
    state at or above the hydrogen ground energy -Z^2/4."""
    z = COUPLING**2 * charge / (4.0 * np.pi)
    floor = radial_floor(lambda r: 2.0 * COUPLING**2 * s2(r), 3000.0, 60000)
    assert -(z**2) / 4.0 <= floor < 0.0
