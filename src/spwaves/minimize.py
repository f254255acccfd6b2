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
eigensolver (LOBPCG), not from the flow.  E linearizes to -Delta + e^2 S2,
half the floor's potential; the floor keeps 2 e^2 S2 because the
benchmark's pinned floors (FLOORS_SEED) are values of that operator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyBreakdown,
    Evaluation,
    PhysParams,
    energy_breakdown,
    lagrange_multiplier,
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
# The flow converges once |grad E + omega u|_2 / |u|_{H^1} < GRAD_TOL, and
# stops after STALL_ITERS iterations without an energy drop of ENERGY_TOL.
GRAD_TOL, ENERGY_TOL, STALL_ITERS = 1e-7, 1e-9, 100
# An energy below -EPS_NEG counts as genuinely negative (mu_star).
EPS_NEG = 10.0 * ENERGY_TOL
# Shift alpha of the spectral floor's preconditioner (alpha - Delta)^-1.
FLOOR_SHIFT = 0.05


class NumericalAbort(RuntimeError):
    """NaN or overflow encountered inside an iteration."""


class BracketError(ValueError):
    """A bisection bracket whose endpoints do not straddle the predicate."""


@dataclass(frozen=True)
class MinimizeConfig:
    """The flow's iteration cap; its tolerances are module constants.

    Every solve runs one flow, so n_restarts admits only 1.  The field stays
    while the benchmark's ground workload still passes n_restarts=1."""

    max_iters: int = 4000
    n_restarts: int = 1

    def __post_init__(self):
        for name in ("max_iters", "n_restarts"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.n_restarts != 1:
            raise ValueError(f"n_restarts must be 1 (every solve runs one flow), got {self.n_restarts}")


@dataclass(frozen=True)
class MinimizerResult:
    """A cold-start u_min is real up to roundoff; a warm start keeps its start's phase."""

    u_min: ComplexField
    breakdown: EnergyBreakdown
    omega: float
    # normalized Pohozaev residual and the flow's gradient residual; omega
    # comes from the Nehari identity, so its residual is zero by construction
    residuals: dict[str, float]
    iterations: int  # accepted flow steps
    converged: bool
    c_value: float


class _Objective:
    """The flow's energy E and its gradient, from one Evaluation per point.

    The flow asks for the gradient at the very array it just accepted and
    never changes an array in place, so the last Evaluation and its energy
    are reused when the array is the same object."""

    def __init__(self, profile: DopingProfile, params: PhysParams, ws: SpectralWorkspace):
        self.fields = profile_fields(profile, ws)
        self.params = params
        self.ws = ws
        self.dv = ws.grid.cell_volume
        self._last: tuple[Evaluation, float] | None = None

    def __call__(self, vals: np.ndarray, need_grad: bool):
        if self._last is None or self._last[0].vals is not vals:
            ev = Evaluation(vals, self.ws)
            self._last = ev, ev.energy_terms(self.fields, self.params)[0]
        ev, energy = self._last
        if not np.isfinite(energy):
            raise NumericalAbort("energy became non-finite")
        grad = ev.gradient(self.fields, self.params) if need_grad else None
        return energy, grad, ev.grad_sq


@dataclass
class _FlowState:
    vals: np.ndarray
    iterations: int  # accepted steps
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
    return float(np.sqrt(_real_inner(resid, resid, dv)) / np.sqrt(mu + ksq))


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
    steps = 0

    while steps < config.max_iters:
        if _grad_residual(vals, grad, ksq, mu, dv) < GRAD_TOL:
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
        steps += 1

        prev_vals, prev_grad = vals, grad
        vals = trial
        energy, grad, ksq = objective(vals, need_grad=True)

        if stall_anchor - energy < ENERGY_TOL:
            stall_count += 1
            if stall_count >= STALL_ITERS:
                break
        else:
            stall_anchor = energy
            stall_count = 0

    return _FlowState(vals, steps, converged, _grad_residual(vals, grad, ksq, mu, dv))


def _gaussian_trial(grid: Grid3, width: float, mu: float) -> np.ndarray:
    vals = np.exp(-grid.radius_sq() / (2.0 * width**2)).astype(np.complex128)
    return _rescale_mass(vals, mu, grid.cell_volume)


def _cold_start(mu: float, objective: _Objective) -> np.ndarray:
    """Of ten real Gaussians at mass mu, with widths from 3h to L/5, the one
    with the lowest energy."""
    grid = objective.ws.grid
    widths = np.geomspace(3.0 * grid.spacing, grid.length / 5.0, 10)
    energies = [objective(_gaussian_trial(grid, w, mu), need_grad=False)[0] for w in widths]
    return _gaussian_trial(grid, float(widths[int(np.argmin(energies))]), mu)


def minimize_at_mass(
    mu: float,
    profile: DopingProfile,
    params: PhysParams,
    config: MinimizeConfig,
    ws: SpectralWorkspace,
    start: ComplexField | None = None,
) -> MinimizerResult:
    """Normalized-gradient-flow upper bound for c(mu), with diagnostics.

    One flow runs: from start, rescaled to mass mu, if given (a warm
    start), otherwise from the real Gaussian of lowest energy among ten
    widths (a cold start).  A start on another grid than the workspace
    raises GridMismatchError.  Non-convergence is reported through the
    flag, never raised; a NaN in the energy aborts with NumericalAbort.
    """
    if not (mu > 0.0 and np.isfinite(mu)):
        raise ValueError(f"mass must be positive and finite, got {mu}")
    objective = _Objective(profile, params, ws)
    if start is None:
        u0 = _cold_start(mu, objective)
    else:
        ws.grid.require_same(start.grid)
        u0 = start.values
    state = _normalized_flow(mu, objective, u0, config)

    u = ComplexField(ws.grid, state.vals)
    bd = energy_breakdown(u, profile, params, ws)
    omega = lagrange_multiplier(bd)
    residuals = {"pohozaev": pohozaev_residual(bd, omega).normalized, "gradient": state.grad_res}
    return MinimizerResult(
        u_min=u,
        breakdown=bd,
        omega=omega,
        residuals=residuals,
        iterations=state.iterations,
        converged=state.converged,
        c_value=bd.energy,
    )


@dataclass(frozen=True)
class CurvePoint:
    mu: float
    c: float
    omega: float
    pohozaev: float
    grad_res: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class CurveTable:
    points: tuple[CurvePoint, ...]
    nonincreasing: bool  # within 2 ENERGY_TOL


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
    if not all(m > 0.0 and np.isfinite(m) for m in mus):
        raise ValueError(f"masses must be positive and finite, got {mus}")
    if sorted(mus) != mus:
        raise ValueError("mass list must be sorted ascending")

    points = []
    prev_field: ComplexField | None = None
    for m in mus:
        try:
            res = minimize_at_mass(m, profile, params, config, ws, start=prev_field)
        except NumericalAbort:
            points.append(CurvePoint(m, np.nan, np.nan, np.nan, np.nan, 0, False))
            prev_field = None
            continue
        points.append(
            CurvePoint(
                m,
                res.c_value,
                res.omega,
                res.residuals["pohozaev"],
                res.residuals["gradient"],
                res.iterations,
                res.converged,
            )
        )
        prev_field = res.u_min

    cs = [p.c for p in points if np.isfinite(p.c)]
    slack = 2.0 * ENERGY_TOL
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
    """Bisection for mu* = inf{mu : c_inf(mu) < -EPS_NEG}.

    The bracket must satisfy c_inf(low) >= -EPS_NEG and c_inf(high) < -EPS_NEG;
    otherwise the measured endpoint energies are reported in the error.
    Bisection stops at width tol, or sooner once the midpoint rounds to an
    endpoint.
    """
    params.warn_outside_regime("mu_star")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi < np.inf):
        raise BracketError(f"bracket must satisfy 0 < low < high < inf, got ({lo}, {hi})")
    if not (tol > 0.0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    zero = ZeroProfile()
    evals = 0

    def c_inf(m: float) -> float:
        nonlocal evals
        evals += 1
        return minimize_at_mass(m, zero, params, config, ws).c_value

    e_lo, e_hi = c_inf(lo), c_inf(hi)
    if not (e_lo >= -EPS_NEG and e_hi < -EPS_NEG):
        raise BracketError(
            f"invalid bracket: c_inf({lo}) = {e_lo:.3e}, c_inf({hi}) = {e_hi:.3e}, "
            f"EPS_NEG = {EPS_NEG:.1e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if c_inf(mid) < -EPS_NEG:
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
    """All c values are upper bounds from a heuristic flow; the margins are
    consistent-with checks, not proofs."""

    mu: float
    c_total: float
    splits: tuple[SplitPoint, ...]
    homogeneity: tuple[HomogeneityPoint, ...]


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
    if not (mu > 0.0 and np.isfinite(mu)):
        raise ValueError(f"mass must be positive and finite, got {mu}")
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
    """The floor on one box: the lowest eigenvalue of -Delta + 2 e^2 S2 (not
    of E's linearization, -Delta + e^2 S2), whether the eigensolver met
    GRAD_TOL, and how many times it updated the eigenvector."""

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
    form <u, A u> at unit mass, so GRAD_TOL and max_iters keep their meaning.
    Returns (lambda, the number of updates of x, converged).
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
    updates = 0
    while updates < config.max_iters:
        ksq = lam - float(potential @ (x * x)) * dv  # int |grad x|^2 at unit mass
        if _grad_residual(x, 2.0 * ax, ksq, 1.0, dv) < GRAD_TOL:
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
        updates += 1
    return lam, updates, converged


def spectral_floor(
    profile: DopingProfile,
    e: float,
    box_lengths,
    config: MinimizeConfig,
    points_per_axis: int,
) -> list[FloorPoint]:
    """Lowest eigenvalue of -Delta + 2 e^2 S2 on periodic boxes of growing size.

    Each floor comes from a preconditioned eigensolver (LOBPCG) started from
    the real Gaussian of width L/8, for every doping: rho = 0 has S2 = +0.0
    and a floor of 0 up to roundoff.  FloorPoint.iterations counts the
    updates of the eigenvector.  On a periodic box every rho >= 0 other than
    0 gives a negative floor, close to the box mean of 2 e^2 S2, which falls
    like 1/L (L * floor is about -0.095 for the bench doping at e = 0.3).
    In free space the floor is hydrogenic instead, at or above -Z^2/4 with
    Z = e^2 int rho / (4 pi): -3.97e-4 for the bench doping.  E linearizes
    to -Delta + e^2 S2, the operator of the floor at coupling e / sqrt(2).
    """
    if not (0.0 < e < np.inf):
        raise ValueError(f"coupling must be positive and finite, got {e}")
    out = []
    for length in box_lengths:
        grid = Grid3(points_per_axis, float(length))
        ws = SpectralWorkspace(grid)
        potential = 2.0 * e**2 * profile_fields(profile, ws).s2
        x0 = np.exp(-grid.radius_sq() / (2.0 * (grid.length / 8.0) ** 2))
        try:
            floor, iterations, converged = _lowest_eigenvalue(potential, ws, x0, config)
            out.append(FloorPoint(float(length), floor, converged, iterations))
        except NumericalAbort:
            out.append(FloorPoint(float(length), np.nan, False, 0))
    return out
