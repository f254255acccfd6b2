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
eigensolver (LOBPCG), not from the flow: it starts from the constant, and
its preconditioner (sigma - Delta)^-1 shifts with the Rayleigh quotient
lambda, sigma = max(FLOOR_SHIFT, -lambda).  E linearizes to -Delta + e^2 S2,
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
# Lower bound of the shift sigma = max(FLOOR_SHIFT, -lambda) of the spectral
# floor's preconditioner (sigma - Delta)^-1, lambda the Rayleigh quotient.
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
    """A cold-start u_min is real up to roundoff; a warm start keeps its start's
    phase.  converged is residuals["gradient"] < GRAD_TOL, the cap included."""

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
    are reused when the array is the same object; so is the Evaluation that
    minimize_at_mass reads its breakdown from."""

    def __init__(self, profile: DopingProfile, params: PhysParams, ws: SpectralWorkspace):
        self.fields = profile_fields(profile, ws)
        self.params = params
        self.ws = ws
        self.dv = ws.grid.cell_volume
        self._last: tuple[Evaluation, float] | None = None

    def evaluation(self, vals: np.ndarray) -> tuple[Evaluation, float]:
        """The Evaluation of vals and its energy E: the last ones if vals is
        the array they were made of, else new ones, kept as the last."""
        if self._last is None or self._last[0].vals is not vals:
            ev = Evaluation(vals, self.ws)
            self._last = ev, ev.energy_terms(self.fields, self.params)[0]
        return self._last

    def __call__(self, vals: np.ndarray, need_grad: bool):
        ev, energy = self.evaluation(vals)
        if not np.isfinite(energy):
            raise NumericalAbort("energy became non-finite")
        grad = ev.gradient(self.fields, self.params) if need_grad else None
        return energy, grad, ev.grad_sq


@dataclass
class _FlowState:
    vals: np.ndarray
    iterations: int  # accepted steps
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
    from u0.  It computes each iterate's gradient residual once and returns
    the iterate, the lowest in energy so far, and that residual at the first
    of four exits: the residual is below GRAD_TOL, max_iters steps are
    taken, STALL_ITERS steps in a row lowered E by less than ENERGY_TOL, or
    no backtracked step descends."""
    dv = objective.dv
    vals = _rescale_mass(u0.astype(np.complex128), mu, dv)
    energy, grad, ksq = objective(vals, need_grad=True)

    tau = TAU0
    prev_vals = prev_grad = None
    stall_anchor = energy
    stall_count = 0
    steps = 0

    while True:
        grad_res = _grad_residual(vals, grad, ksq, mu, dv)
        if not np.isfinite(grad_res):
            raise NumericalAbort("gradient residual became non-finite")
        if steps >= config.max_iters or grad_res < GRAD_TOL or stall_count >= STALL_ITERS:
            return _FlowState(vals, steps, grad_res)
        if prev_vals is not None:
            s = vals - prev_vals
            y = grad - prev_grad
            sy = _real_inner(s, y, dv)
            yy = _real_inner(y, y, dv)
            if yy > 0.0 and np.isfinite(sy):
                tau = abs(sy) / yy
            tau = min(max(tau, TAU_MIN), TAU_MAX)

        trial_tau = tau
        for _ in range(BACKTRACK_MAX):
            trial = _rescale_mass(vals - trial_tau * grad, mu, dv)
            if objective(trial, need_grad=False)[0] <= energy:
                break
            trial_tau *= 0.5
        else:
            return _FlowState(vals, steps, grad_res)  # numerically stationary
        tau = trial_tau
        steps += 1

        prev_vals, prev_grad = vals, grad
        vals = trial
        energy, grad, ksq = objective(vals, need_grad=True)

        if stall_anchor - energy < ENERGY_TOL:
            stall_count += 1
        else:
            stall_anchor = energy
            stall_count = 0


def _gaussian_trial(grid: Grid3, width: float, mu: float) -> np.ndarray:
    vals = np.exp(-grid.radius_sq() / (2.0 * width**2)).astype(np.complex128)
    return _rescale_mass(vals, mu, grid.cell_volume)


def _cold_start(mu: float, objective: _Objective) -> np.ndarray:
    """Of ten real Gaussians at mass mu, with widths from 3h to L/5, the one
    with the lowest energy."""
    grid = objective.ws.grid
    widths = np.geomspace(3.0 * grid.spacing, grid.length / 5.0, 10)
    trials = (_gaussian_trial(grid, w, mu) for w in widths)
    return min(trials, key=lambda vals: objective(vals, need_grad=False)[0])


def minimize_at_mass(
    mu: float,
    profile: DopingProfile,
    params: PhysParams,
    config: MinimizeConfig,
    ws: SpectralWorkspace,
    start: ComplexField | None = None,
) -> MinimizerResult:
    """Normalized-gradient-flow upper bound for c(mu), with diagnostics.

    One flow runs: from start, rescaled to mass mu, if given (a warm start),
    otherwise from the lowest-energy real Gaussian of ten widths (a cold
    start).  A start on another grid raises GridMismatchError.  converged
    means the last gradient residual is below GRAD_TOL, whatever ended the
    flow, the iteration cap included.  A non-finite energy or gradient
    residual, or an overflow or invalid operation anywhere in the start or
    the flow, raises NumericalAbort, whatever the warning filters say.
    The breakdown reuses the flow's Evaluation of its last iterate, which
    every exit but "no descent" (whose last Evaluation is a trial's) has;
    u_min is a read-only copy of that iterate.
    """
    if not (mu > 0.0 and np.isfinite(mu)):
        raise ValueError(f"mass must be positive and finite, got {mu}")
    objective = _Objective(profile, params, ws)
    if start is not None:
        ws.grid.require_same(start.grid)
    try:
        with np.errstate(over="raise", invalid="raise"):
            u0 = _cold_start(mu, objective) if start is None else start.values
            state = _normalized_flow(mu, objective, u0, config)
    except FloatingPointError as exc:
        raise NumericalAbort(f"the flow's arithmetic failed: {exc}") from exc

    u = ComplexField(ws.grid, state.vals)
    bd = objective.evaluation(state.vals)[0].breakdown(objective.fields, params)
    omega = lagrange_multiplier(bd)
    residuals = {"pohozaev": pohozaev_residual(bd, omega).normalized, "gradient": state.grad_res}
    return MinimizerResult(
        u_min=u,
        breakdown=bd,
        omega=omega,
        residuals=residuals,
        iterations=state.iterations,
        converged=state.grad_res < GRAD_TOL,
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
            points.append(CurvePoint(m, np.nan, np.nan, np.nan, np.nan, 0))
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
    of E's linearization, -Delta + e^2 S2), whether the eigensolver's last
    residual is below GRAD_TOL, the cap included, and its update count from
    the constant start (0 for rho = 0, which the constant solves exactly)."""

    box_length: float
    floor: float
    converged: bool
    iterations: int


def _lowest_eigenvalue(potential: np.ndarray, ws: SpectralWorkspace, config: MinimizeConfig) -> tuple[float, int, float]:
    """Lowest eigenvalue of A = -Delta + potential by LOBPCG with block size
    one (Knyazev, SIAM J. Sci. Comput. 23, 2001), from the constant.  On the
    grid -Delta 1 = 0 exactly (k^2 = 0 at the zero mode), so A 1 is the
    potential and the start costs no transform; its Rayleigh quotient is the
    box mean of the potential.  A constant potential, +0.0 for rho = 0
    included, makes the constant an exact eigenvector: 0 updates.

    Each pass forms r = A x - lambda x once.  It returns (lambda, the number
    of updates of x, the residual) at max_iters updates or once the residual
    2 |r|_2 / |x|_{H^1} at unit mass, the flow's for the form <u, A u>, is
    below GRAD_TOL.  Otherwise it runs Rayleigh-Ritz on span{x, P r, p}:
    P = (sigma - Delta)^-1 with sigma = max(FLOOR_SHIFT, -lambda), shifted
    with the pass's eigenvalue (Antoine, Levitt & Tang, J. Comput. Phys.
    343, 2017), and p the previous direction, dropped when the Gram matrix
    is not positive definite.

    The transforms are real, on the rfft half of ``ws.k2``: each update
    costs one rfft and two irffts, r^ = rfft(r), w = irfft(P r^) and
    A w = irfft(k^2 P r^) + potential w, so A w needs no transform of w.
    """
    dv = ws.grid.cell_volume
    shape = ws.k2.shape
    k2 = ws.k2[..., : ws.grid.n // 2 + 1]  # the rfft half of the table
    potential = potential.ravel()

    def unit(v: np.ndarray, av: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scale = 1.0 / np.sqrt(v @ v * dv)
        return scale * v, scale * av

    x, ax = unit(np.ones_like(potential), potential)  # -Delta 1 = 0: A 1 is the potential
    prev: tuple[np.ndarray, ...] = ()  # (p, A p) once there is a previous direction
    updates = 0
    while True:
        lam = float(x @ ax) * dv
        if not np.isfinite(lam):
            raise NumericalAbort("Rayleigh quotient became non-finite")
        r = ax - lam * x
        h1_sq = 1.0 + lam - float(potential @ (x * x)) * dv  # |x|_{H^1}^2 at unit mass
        residual = 2.0 * float(np.sqrt(r @ r * dv / h1_sq))
        if updates >= config.max_iters or residual < GRAD_TOL:
            return lam, updates, residual
        precond = 1.0 / (max(FLOOR_SHIFT, -lam) + k2)
        rhat = ws.rfft(r.reshape(shape))
        w = ws.irfft(precond * rhat).ravel()
        w, aw = unit(w, ws.irfft(k2 * precond * rhat).ravel() + potential * w)
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
        updates += 1


def spectral_floor(
    profile: DopingProfile,
    e: float,
    box_lengths,
    config: MinimizeConfig,
    points_per_axis: int,
) -> list[FloorPoint]:
    """Lowest eigenvalue of -Delta + 2 e^2 S2 on periodic boxes of growing size.

    Each floor comes from a preconditioned eigensolver (LOBPCG) started from
    the constant, whose Rayleigh quotient is the box mean of 2 e^2 S2, since
    -Delta 1 = 0 on the grid; its preconditioner's shift is
    sigma = max(FLOOR_SHIFT, -lambda), lambda the current Rayleigh quotient.
    rho = 0 has S2 = +0.0, so the constant is exact: floor 0.0 in 0 updates.
    FloorPoint.converged means the last residual is below GRAD_TOL, the cap
    included.  On a periodic box every rho >= 0 other than 0 gives a
    negative floor, close to the box mean of 2 e^2 S2, which falls like 1/L
    (L * floor is about -0.095 for the bench doping at e = 0.3).  In free
    space the floor is hydrogenic instead, at or above -Z^2/4 with
    Z = e^2 int rho / (4 pi): -3.97e-4 for the bench doping.  E linearizes
    to -Delta + e^2 S2, the floor's operator at e/sqrt(2).
    """
    if not (e > 0.0 and float(e) * float(e) < np.inf):
        raise ValueError(f"coupling must be positive and finite, with e^2 finite, got {e}")
    out = []
    for length in box_lengths:
        grid = Grid3(points_per_axis, float(length))
        ws = SpectralWorkspace(grid)
        potential = 2.0 * e**2 * profile_fields(profile, ws).s2
        try:
            floor, iterations, residual = _lowest_eigenvalue(potential, ws, config)
            out.append(FloorPoint(float(length), floor, residual < GRAD_TOL, iterations))
        except NumericalAbort:
            out.append(FloorPoint(float(length), np.nan, False, 0))
    return out
