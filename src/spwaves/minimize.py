"""Constrained minimization of E on the mass sphere |u|_2^2 = mu.

The workhorse is a normalized gradient flow (imaginary-time method): step
against the L^2 gradient, renormalize the mass, with Barzilai-Borwein step
sizes guarded by backtracking so the energy never increases.  The flow
certifies upper bounds for the ground-state energy curves

    c(mu)      with the doping profile present,
    c_inf(mu)  for the autonomous problem (rho = 0),

and everything derived from them: the critical mass mu* where c_inf turns
negative and sub-additivity margins.

The spectral floor, the lowest eigenvalue of the linear operator
-Delta + 2 e^2 S2, is a linear eigenproblem and comes from a preconditioned
eigensolver (LOBPCG), not from the flow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    EnergyBreakdown,
    Evaluation,
    PhysParams,
    energy_breakdown,
    lagrange_multiplier,
    lemma23_residual,
    nehari_residual,
    pohozaev_residual,
    profile_fields,
)
from .grid import ComplexField, Grid3, SpectralWorkspace
from .profiles import DopingProfile, ZeroProfile

__all__ = [
    "MinimizeConfig",
    "MinimizerResult",
    "CurvePoint",
    "CurveTable",
    "MuStarResult",
    "SubadditivityReport",
    "FloorPoint",
    "NumericalAbort",
    "BracketError",
    "minimize_at_mass",
    "c_curve",
    "mu_star",
    "subadditivity_scan",
    "spectral_floor",
]

# Barzilai-Borwein step: the first step, and the clamp on every later one.
TAU0, TAU_MIN, TAU_MAX = 0.1, 1e-7, 50.0
# Halvings of a rejected step before the flow counts as stationary.
BACKTRACK_MAX = 40
# Iterations without an energy drop of energy_tol before the flow stops.
STALL_ITERS = 100
# Shift alpha of the spectral floor's preconditioner (alpha - Delta)^-1.
FLOOR_SHIFT = 0.05


class NumericalAbort(RuntimeError):
    """NaN or overflow encountered inside an iteration."""


class BracketError(ValueError):
    """A bisection bracket whose endpoints do not straddle the predicate."""


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs of the normalized gradient flow."""

    max_iters: int = 4000
    grad_tol: float = 1e-7  # on |grad E + omega u|_2 / |u|_{H^1}
    energy_tol: float = 1e-9  # stall detection scale; eps_neg = 10x this
    init_field: ComplexField | None = None  # warm start: one flow from this state
    seed: int = 0
    n_restarts: int = 3

    def __post_init__(self):
        if self.grad_tol <= 0.0 or self.energy_tol <= 0.0:
            raise ValueError("tolerances must be positive")

    @property
    def eps_neg(self) -> float:
        """Threshold below which an energy counts as genuinely negative."""
        return 10.0 * self.energy_tol


@dataclass(frozen=True)
class MinimizerResult:
    u_min: ComplexField
    breakdown: EnergyBreakdown
    omega: float
    residuals: dict[str, float]  # normalized nehari/pohozaev/lemma23 + gradient
    iterations: int
    converged: bool
    c_value: float
    mu: float


class _Objective:
    """The flow's energy E and its gradient, from one Evaluation per point.

    The flow asks for the gradient at the very array it just accepted and
    never changes an array in place, so the last Evaluation is reused when
    the array is the same object."""

    def __init__(self, profile: DopingProfile, params: PhysParams, ws: SpectralWorkspace):
        self.fields = profile_fields(profile, ws)
        self.params = params
        self.ws = ws
        self.dv = ws.grid.cell_volume
        self._last: Evaluation | None = None

    def __call__(self, vals: np.ndarray, need_grad: bool):
        ev = self._last
        if ev is None or ev.vals is not vals:
            ev = self._last = Evaluation(vals, self.ws)
        energy = ev.energy_terms(self.fields, self.params)[0]
        if not np.isfinite(energy):
            raise NumericalAbort("energy became non-finite")
        grad = ev.gradient(self.fields, self.params) if need_grad else None
        return energy, grad, ev.grad_sq


@dataclass
class _FlowState:
    vals: np.ndarray
    energy: float
    iterations: int
    converged: bool
    grad_res: float


def _rescale_mass(vals: np.ndarray, mu: float, dv: float) -> np.ndarray:
    mass = float(np.sum(vals.real**2 + vals.imag**2)) * dv
    if mass <= 0.0:
        raise NumericalAbort("iterate lost all mass")
    return vals * np.sqrt(mu / mass)


def _real_inner(a: np.ndarray, b: np.ndarray, dv: float) -> float:
    return float(np.sum(a.real * b.real + a.imag * b.imag)) * dv


def _grad_residual(vals: np.ndarray, grad: np.ndarray, ksq: float, mu: float, dv: float) -> float:
    """|grad E + omega u|_2 / |u|_{H^1}, with omega = -Re<grad E, u> / mu."""
    omega = -_real_inner(grad, vals, dv) / mu
    resid = grad + omega * vals
    return float(np.sqrt(_real_inner(resid, resid, dv))) / np.sqrt(mu + ksq)


def _normalized_flow(mu: float, objective, u0: np.ndarray, config: MinimizeConfig) -> _FlowState:
    """Monotone normalized gradient flow on the energy E (an _Objective)
    from u0; returns the last iterate, which has the lowest energy."""
    dv = objective.dv
    vals = _rescale_mass(u0.astype(np.complex128), mu, dv)
    energy, grad, ksq = objective(vals, need_grad=True)

    tau = TAU0
    prev_vals = prev_grad = None
    stall_anchor = energy
    stall_count = 0
    converged = False
    it = 0

    for it in range(1, config.max_iters + 1):
        if _grad_residual(vals, grad, ksq, mu, dv) < config.grad_tol:
            converged = True
            break

        if prev_vals is not None:
            s = vals - prev_vals
            y = grad - prev_grad
            sy = _real_inner(s, y, dv)
            yy = _real_inner(y, y, dv)
            if yy > 0.0 and np.isfinite(sy):
                tau = abs(sy) / yy
            tau = min(max(tau, TAU_MIN), TAU_MAX)

        accepted = False
        trial_tau = tau
        for _ in range(BACKTRACK_MAX):
            trial = _rescale_mass(vals - trial_tau * grad, mu, dv)
            e_trial = objective(trial, need_grad=False)[0]
            if e_trial <= energy:
                accepted = True
                break
            trial_tau *= 0.5
        if not accepted:
            break  # numerically stationary: no descent direction at any step
        tau = trial_tau

        prev_vals, prev_grad = vals, grad
        vals = trial
        energy, grad, ksq = objective(vals, need_grad=True)

        if stall_anchor - energy < config.energy_tol:
            stall_count += 1
            if stall_count >= STALL_ITERS:
                break
        else:
            stall_anchor = energy
            stall_count = 0

    return _FlowState(vals, energy, it, converged, _grad_residual(vals, grad, ksq, mu, dv))


def _gaussian_trial(grid: Grid3, width: float, mu: float) -> np.ndarray:
    vals = np.exp(-grid.radius_sq() / (2.0 * width**2)).astype(np.complex128)
    mass = float(np.sum(vals.real**2)) * grid.cell_volume
    return vals * np.sqrt(mu / mass)


def _initial_states(mu: float, objective: _Objective, config: MinimizeConfig) -> list[np.ndarray]:
    ws = objective.ws
    grid = ws.grid
    if config.init_field is not None:
        grid.require_same(config.init_field.grid)
        return [config.init_field.values.copy()]

    # gaussian: of ten widths from 3h to L/5, the one with the lowest trial energy, then fan out
    widths = np.geomspace(3.0 * grid.spacing, grid.length / 5.0, 10)
    energies = [objective(_gaussian_trial(grid, w, mu), need_grad=False)[0] for w in widths]
    best_width = float(widths[int(np.argmin(energies))])
    factors = [1.0, 0.6, 1.7, 0.35, 2.8]
    rng = np.random.default_rng(config.seed)
    states = []
    for k in range(max(1, config.n_restarts)):
        w = best_width * factors[k % len(factors)]
        vals = _gaussian_trial(grid, w, mu)
        if k > 0:
            noise = rng.standard_normal(vals.shape) + 1j * rng.standard_normal(vals.shape)
            noise = ws.ifft(ws.fft(noise) * np.exp(-ws.k2))
            vals = vals + 0.02 * np.max(np.abs(vals)) * noise
        states.append(vals)
    return states


def _fix_global_phase(vals: np.ndarray) -> np.ndarray:
    total = np.sum(vals)
    if abs(total) > 0.0:
        vals = vals * np.exp(-1j * np.angle(total))
    return vals


def minimize_at_mass(
    mu: float,
    profile: DopingProfile,
    params: PhysParams,
    config: MinimizeConfig,
    ws: SpectralWorkspace,
) -> MinimizerResult:
    """Normalized-gradient-flow upper bound for c(mu), with diagnostics.

    Non-convergence is reported through the flag, never raised; a NaN in
    the energy aborts with NumericalAbort.
    """
    if mu <= 0.0:
        raise ValueError("mass must be positive")
    objective = _Objective(profile, params, ws)
    states = _initial_states(mu, objective, config)

    best: _FlowState | None = None
    for u0 in states:
        state = _normalized_flow(mu, objective, u0, config)
        if best is None or state.energy < best.energy:
            best = state

    vals = _fix_global_phase(_rescale_mass(best.vals, mu, ws.grid.cell_volume))
    u = ComplexField(ws.grid, vals)
    bd = energy_breakdown(u, profile, params, ws)
    omega = lagrange_multiplier(bd)
    residuals = {
        "nehari": nehari_residual(bd, omega).normalized,
        "pohozaev": pohozaev_residual(bd, omega).normalized,
        "lemma23": lemma23_residual(bd, omega).normalized,
        "gradient": best.grad_res,
    }
    return MinimizerResult(
        u_min=u,
        breakdown=bd,
        omega=omega,
        residuals=residuals,
        iterations=best.iterations,
        converged=best.converged,
        c_value=bd.energy,
        mu=mu,
    )


@dataclass(frozen=True)
class CurvePoint:
    mu: float
    c: float
    omega: float
    nehari: float
    pohozaev: float
    lemma23: float
    grad_res: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CurveTable:
    points: tuple[CurvePoint, ...]
    nonincreasing: bool  # within 2x energy tolerance


def c_curve(
    mu_list,
    profile: DopingProfile,
    params: PhysParams,
    config: MinimizeConfig,
    ws: SpectralWorkspace,
) -> CurveTable:
    """Sweep c(mu) over ascending masses, warm-starting from the previous
    minimizer rescaled; failures flag the row instead of aborting the sweep."""
    mus = [float(m) for m in mu_list]
    if any(m <= 0.0 for m in mus):
        raise ValueError("masses must be positive")
    if sorted(mus) != mus:
        raise ValueError("mass list must be sorted ascending")

    points = []
    prev_field: ComplexField | None = None
    for m in mus:
        cfg = config if prev_field is None else replace(config, init_field=prev_field, n_restarts=1)
        try:
            res = minimize_at_mass(m, profile, params, cfg, ws)
        except NumericalAbort:
            points.append(CurvePoint(m, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, 0, False))
            prev_field = None
            continue
        points.append(
            CurvePoint(
                m,
                res.c_value,
                res.omega,
                res.residuals["nehari"],
                res.residuals["pohozaev"],
                res.residuals["lemma23"],
                res.residuals["gradient"],
                res.iterations,
                res.converged,
            )
        )
        prev_field = res.u_min

    cs = [p.c for p in points if np.isfinite(p.c)]
    slack = 2.0 * config.energy_tol
    nonincreasing = all(cs[i + 1] <= cs[i] + slack for i in range(len(cs) - 1))
    return CurveTable(tuple(points), nonincreasing)


@dataclass(frozen=True)
class MuStarResult:
    value: float
    bracket_low: float
    bracket_high: float
    energy_low: float
    energy_high: float
    evaluations: int


def mu_star(
    params: PhysParams,
    config: MinimizeConfig,
    bracket: tuple[float, float],
    tol: float,
    ws: SpectralWorkspace,
) -> MuStarResult:
    """Bisection for mu* = inf{mu : c_inf(mu) < -eps_neg}.

    The bracket must satisfy c_inf(low) >= -eps_neg and c_inf(high) < -eps_neg;
    otherwise the measured endpoint energies are reported in the error.
    Bisection stops at width tol, or sooner once the midpoint rounds to an
    endpoint.
    """
    params.warn_outside_regime("mu_star")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise BracketError(f"bracket must satisfy 0 < low < high, got ({lo}, {hi})")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    zero = ZeroProfile()
    eps = config.eps_neg
    evals = 0

    def c_inf(m: float) -> float:
        nonlocal evals
        evals += 1
        return minimize_at_mass(m, zero, params, config, ws).c_value

    e_lo, e_hi = c_inf(lo), c_inf(hi)
    if not (e_lo >= -eps and e_hi < -eps):
        raise BracketError(
            f"invalid bracket: c_inf({lo}) = {e_lo:.3e}, c_inf({hi}) = {e_hi:.3e}, "
            f"eps_neg = {eps:.1e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if c_inf(mid) < -eps:
            hi = mid
        else:
            lo = mid
    return MuStarResult(0.5 * (lo + hi), lo, hi, e_lo, e_hi, evals)


@dataclass(frozen=True)
class SplitPoint:
    fraction: float
    mu_part: float
    c_part: float
    c_inf_rest: float
    margin: float  # c(mu') + c_inf(mu - mu') - c(mu); positive = consistent
    converged: bool


@dataclass(frozen=True)
class HomogeneityPoint:
    lam: float
    s: float
    diagnostic: float  # c(lam s) - lam c(s); negative = consistent
    converged: bool


@dataclass(frozen=True)
class SubadditivityReport:
    mu: float
    c_total: float
    splits: tuple[SplitPoint, ...]
    homogeneity: tuple[HomogeneityPoint, ...]
    caveat: str = (
        "all c values are upper bounds from a heuristic flow; margins are "
        "consistent-with checks, not proofs"
    )


def subadditivity_scan(
    mu: float,
    split_fractions,
    profile: DopingProfile,
    params: PhysParams,
    config: MinimizeConfig,
    ws: SpectralWorkspace,
) -> SubadditivityReport:
    """Strict sub-additivity margins c(mu') + c_inf(mu - mu') - c(mu) and the
    homogeneity diagnostic c(lam s) - lam c(s) at s = mu / 2.

    Each (mass, profile) is minimized once per scan (c(2 s) is c(mu)); none
    warm-starts from another, so a reused value equals a recomputed one."""
    params.warn_outside_regime("subadditivity_scan")
    if mu <= 0.0:
        raise ValueError("mass must be positive")
    fractions = [float(f) for f in split_fractions]
    if any(not (0.0 < f < 1.0) for f in fractions):
        raise ValueError("split fractions must lie in (0, 1)")
    zero = ZeroProfile()
    results: dict[tuple[float, DopingProfile], MinimizerResult] = {}

    def minimize_once(m: float, prof: DopingProfile) -> MinimizerResult:
        if (m, prof) not in results:
            results[m, prof] = minimize_at_mass(m, prof, params, config, ws)
        return results[m, prof]

    total = minimize_once(mu, profile)
    splits = []
    for f in fractions:
        part = minimize_once(f * mu, profile)
        rest = minimize_once((1.0 - f) * mu, zero)
        margin = part.c_value + rest.c_value - total.c_value
        splits.append(
            SplitPoint(f, f * mu, part.c_value, rest.c_value, margin, part.converged and rest.converged)
        )

    s = 0.5 * mu
    base = minimize_once(s, profile)
    homogeneity = []
    for lam in (1.25, 1.5, 2.0):
        scaled = minimize_once(lam * s, profile)
        homogeneity.append(
            HomogeneityPoint(lam, s, scaled.c_value - lam * base.c_value, scaled.converged and base.converged)
        )
    return SubadditivityReport(mu, total.c_value, tuple(splits), tuple(homogeneity))


@dataclass(frozen=True)
class FloorPoint:
    """The floor on one box: the lowest eigenvalue, whether the eigensolver
    met grad_tol, and how many of its iterations it ran."""

    box_length: float
    floor: float
    converged: bool
    iterations: int


def _lowest_eigenvalue(
    potential: np.ndarray, ws: SpectralWorkspace, x: np.ndarray, config: MinimizeConfig
) -> tuple[float, int, bool]:
    """Lowest eigenvalue of A = -Delta + potential by LOBPCG with block size
    one (Knyazev, SIAM J. Sci. Comput. 23, 2001), from the real array x.

    Each iteration runs Rayleigh-Ritz on span{x, P r, p}: r = A x - lambda x,
    P = (FLOOR_SHIFT - Delta)^-1 (Antoine, Levitt & Tang, J. Comput. Phys.
    343, 2017) and p the previous direction, dropped when the Gram matrix is
    not positive definite.  It stops on the flow's residual for the quadratic
    form <u, A u> at unit mass, so grad_tol and max_iters keep their meaning.
    Returns (lambda, iterations, converged).
    """
    dv = ws.grid.cell_volume
    precond = 1.0 / (FLOOR_SHIFT + ws.k2)
    potential = potential.ravel()

    def filtered(symbol: np.ndarray, v: np.ndarray) -> np.ndarray:
        return ws.ifft(symbol * ws.fft(v.reshape(ws.k2.shape))).real.ravel()

    def apply(v: np.ndarray) -> np.ndarray:
        return filtered(ws.k2, v) + potential * v

    def unit(v: np.ndarray, av: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scale = 1.0 / np.sqrt(v @ v * dv)
        return scale * v, scale * av

    def rayleigh(v: np.ndarray, av: np.ndarray) -> float:
        lam = float(v @ av) * dv
        if not np.isfinite(lam):
            raise NumericalAbort("Rayleigh quotient became non-finite")
        return lam

    x = x.ravel()
    x, ax = unit(x, apply(x))
    lam = rayleigh(x, ax)
    prev: tuple[np.ndarray, ...] = ()  # (p, A p) once there is a previous direction
    converged = False
    it = 0
    for it in range(1, config.max_iters + 1):
        ksq = lam - float(potential @ (x * x)) * dv  # int |grad x|^2 at unit mass
        if _grad_residual(x, 2.0 * ax, ksq, 1.0, dv) < config.grad_tol:
            converged = True
            break
        w = filtered(precond, ax - lam * x)
        w, aw = unit(w, apply(w))
        basis, abasis = np.array([x, w, *prev[:1]]), np.array([ax, aw, *prev[1:]])
        gram, hess = basis @ basis.T, basis @ abasis.T
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:  # p has fallen into span{x, w}: drop it
            basis, abasis, gram, hess = basis[:2], abasis[:2], gram[:2, :2], hess[:2, :2]
            chol = np.linalg.cholesky(gram)
        inv = np.linalg.inv(chol)
        coef = inv.T @ np.linalg.eigh(inv @ (0.5 * (hess + hess.T)) @ inv.T)[1][:, 0]
        prev = unit(coef[1:] @ basis[1:], coef[1:] @ abasis[1:])
        x, ax = unit(coef @ basis, coef @ abasis)
        lam = rayleigh(x, ax)
    return lam, it, converged


def spectral_floor(
    profile: DopingProfile,
    e: float,
    box_lengths,
    config: MinimizeConfig,
    points_per_axis: int,
) -> list[FloorPoint]:
    """Lowest eigenvalue of -Delta + 2 e^2 S2 on boxes of growing size.

    Each floor comes from a preconditioned eigensolver (LOBPCG) started from
    a Gaussian of width L/8, and FloorPoint.iterations counts its
    iterations; the sequence of floors across box sizes probes whether the
    doping well binds a state (floor stays negative) or not (floor drains to
    zero).
    """
    if e <= 0.0:
        raise ValueError("coupling must be positive")
    out = []
    for length in box_lengths:
        grid = Grid3(points_per_axis, float(length))
        if isinstance(profile, ZeroProfile):
            out.append(FloorPoint(float(length), 0.0, True, 0))
            continue
        ws = SpectralWorkspace(grid)
        potential = 2.0 * e**2 * profile_fields(profile, ws).s2
        x0 = _gaussian_trial(grid, grid.length / 8.0, 1.0).real
        try:
            floor, iterations, converged = _lowest_eigenvalue(potential, ws, x0, config)
            out.append(FloorPoint(float(length), floor, converged, iterations))
        except NumericalAbort:
            out.append(FloorPoint(float(length), np.nan, False, 0))
    return out
