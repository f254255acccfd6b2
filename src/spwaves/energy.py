"""Energy decomposition for the doped Schrodinger-Poisson functional.

The working functional on states u with mass constraint |u|_2^2 = mu is

    E(u) = 1/2 |grad u|^2 - 1/(p+1) |u|_{p+1}^{p+1}
           + e^2 A1(u) + 2 e^2 A2(u),

with the nonlocal pieces built from the Newtonian potentials
S1(u) = (-Delta)^{-1}(|u|^2/2) and S2 = (-Delta)^{-1}(-rho/2):

    A1 = 1/4 int S1(u) |u|^2      (self-repulsion, >= 0)
    A2 = 1/4 int S2 |u|^2         (= -1/4 int S1(u) rho by symmetry, <= 0)
    A0 = -1/4 int S2 rho          (state-independent)
    A3 = 1/2 int S1(u) x.grad rho (dilation term of the Pohozaev identity).

A3 is computed from S2 alone, for every doping, indicators included:

    A3 = int |u|^2 (S2 - 1/2 x.grad S2).

With P = G*rho = -2 S2 and G = 1/(4 pi |x|), the symmetry of G gives
int S1 x.grad rho = 1/2 int |u|^2 G*(x.grad rho), and since G is homogeneous
of degree -1, G*(x.grad rho) = x.grad P - 2P.  On the grid A3 is built
from the same sampled S2 as A0 and A2, with no second model of rho, so the
Pohozaev residual converges with box and grid whatever the doping.

For rho = 0 the same code gives S2 = +0.0 everywhere and A0 = A2 = A3 = 0,
so c_inf(mu) and c(mu) come from one energy.

The full energy is scriptE = E + e^2 A0.  A2 is computed in its S2 form
only.  The S1 form equals it because the Coulomb solve is symmetric,
<coulomb(f), g> = <f, coulomb(g)>, which test_coulomb_solve_is_symmetric
in tests/test_energy.py checks.

energy_breakdown and grad_E share one slot: the Evaluation of the last
state either was asked about, keyed by the identity of the ComplexField and
of the workspace.  So a breakdown and a gradient of one state cost one FFT
and one Coulomb solve between them.  The slot holds the last state only,
and both referents weakly: it empties when either one dies.  Identity is a
sound key because a ComplexField is immutable, and an Evaluation depends on
neither the profile nor the parameters.
"""

from __future__ import annotations

import functools
import warnings
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft as sfft

from .grid import ComplexField, Grid3, SpectralWorkspace, x_dot_grad
from .profiles import DopingProfile, sample_rho

__all__ = [
    "PhysParams",
    "RegimeWarning",
    "ProfileFields",
    "Evaluation",
    "EnergyBreakdown",
    "Residual",
    "ScalingEntry",
    "ScalingReport",
    "profile_fields",
    "compute_S2",
    "energy_breakdown",
    "grad_E",
    "lagrange_multiplier",
    "nehari_residual",
    "pohozaev_residual",
    "lemma23_residual",
    "scaling_check",
]

THEORY_P_LOW = 2.0
THEORY_P_HIGH = 7.0 / 3.0


class RegimeWarning(UserWarning):
    """Operation invoked outside the 2 < p < 7/3 theory regime."""


@dataclass(frozen=True)
class PhysParams:
    """Nonlinearity exponent p and coupling strength e."""

    p: float
    e: float

    def __post_init__(self):
        if not (1.0 < self.p < 5.0):
            raise ValueError(f"p must lie in (1, 5), got {self.p}")
        if not (self.e > 0.0 and float(self.e) * float(self.e) < np.inf):
            raise ValueError(f"coupling e must be positive and finite, with e^2 finite, got {self.e}")

    @property
    def in_theory_regime(self) -> bool:
        return THEORY_P_LOW < self.p < THEORY_P_HIGH

    def warn_outside_regime(self, operation: str):
        if not self.in_theory_regime:
            warnings.warn(
                f"{operation}: p = {self.p} is outside the 2 < p < 7/3 regime; "
                "results are exploratory",
                RegimeWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class ProfileFields:
    """The state-independent fields of one profile on one grid:
    S2 = (-Delta)^{-1}(-rho/2), read-only, A0, and on demand A3's weight."""

    grid: Grid3
    s2: np.ndarray
    a0: float

    @functools.cached_property
    def a3_weight(self) -> np.ndarray:
        """S2 - 1/2 x.grad S2, read-only: A3 = int |u|^2 a3_weight.  Built on
        first use, since only energy_breakdown reads it."""
        weight = self.s2 - 0.5 * x_dot_grad(self.s2, self.grid)
        weight.flags.writeable = False
        return weight


# workspace -> {profile: ProfileFields}; entries go with their workspace
_PROFILE_FIELDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def profile_fields(profile: DopingProfile, ws: SpectralWorkspace) -> ProfileFields:
    """The profile's fields on the workspace grid, computed once per
    (profile, workspace)."""
    per_ws = _PROFILE_FIELDS.setdefault(ws, {})
    fields = per_ws.get(profile)
    if fields is None:
        rho = sample_rho(profile, ws.grid)
        s2 = ws.coulomb(-0.5 * rho)
        s2.flags.writeable = False
        a0 = -0.25 * float(np.sum(s2 * rho)) * ws.grid.cell_volume
        # the fields hold the grid, not ws: a value that refers to its own
        # weak key would keep the workspace alive
        fields = per_ws[profile] = ProfileFields(ws.grid, s2, a0)
    return fields


def compute_S2(profile: DopingProfile, ws: SpectralWorkspace) -> np.ndarray:
    """S2 = (-Delta)^{-1}(-rho/2), cached per (profile, workspace); a
    writable copy of the cached array."""
    return profile_fields(profile, ws).s2.copy()


def _abs_sq(values: np.ndarray) -> np.ndarray:
    return values.real**2 + values.imag**2


class Evaluation:
    """One state's density, spectrum, |grad u|^2, S1 and A1, from one forward
    FFT and one Coulomb solve.  Every energy, gradient and breakdown in the
    package is derived from one of these; energy_breakdown and grad_E keep
    the last one (see the module docstring).  It keeps the workspace's k2
    table and worker count, not the workspace, so a kept Evaluation does not
    keep its workspace alive."""

    def __init__(self, vals: np.ndarray, ws: SpectralWorkspace):
        self.vals = vals
        self.k2 = ws.k2
        self.workers = ws.workers
        self.dv = dv = ws.grid.cell_volume
        self.dens = _abs_sq(vals)
        self.mass = float(np.sum(self.dens)) * dv
        self.uhat = ws.fft(vals)
        self.grad_sq = float(np.sum(self.k2 * _abs_sq(self.uhat))) * dv * (1.0 / ws.grid.n**3)
        self.s1 = ws.coulomb(0.5 * self.dens)
        self.a1 = 0.25 * float(np.sum(self.s1 * self.dens)) * dv

    def energy_terms(self, fields: ProfileFields, params: PhysParams) -> tuple[float, float, float]:
        """(E, 1/(p+1) |u|_{p+1}^{p+1}, A2 in its form 1/4 int S2 |u|^2)."""
        p, e2 = params.p, params.e**2
        a2 = 0.25 * float(np.sum(fields.s2 * self.dens)) * self.dv
        power = float(np.sum(self.dens ** ((p + 1.0) / 2.0))) * self.dv / (p + 1.0)
        return 0.5 * self.grad_sq - power + e2 * self.a1 + 2.0 * e2 * a2, power, a2

    def gradient(self, fields: ProfileFields, params: PhysParams) -> np.ndarray:
        """L^2 gradient of E: -Delta u - |u|^{p-1} u + e^2 (S1(u) + S2) u."""
        p, e2 = params.p, params.e**2
        lap = sfft.ifftn(-self.k2 * self.uhat, workers=self.workers)
        return -lap - self.dens ** ((p - 1.0) / 2.0) * self.vals + e2 * (self.s1 + fields.s2) * self.vals

    def breakdown(self, fields: ProfileFields, params: PhysParams) -> EnergyBreakdown:
        """Every energy component of the state, from the same terms as the
        flow's objective E."""
        energy, power, a2 = self.energy_terms(fields, params)
        return EnergyBreakdown(
            kinetic=0.5 * self.grad_sq,
            power=power,
            a0=fields.a0,
            a1=self.a1,
            a2=a2,
            a3=float(np.sum(self.dens * fields.a3_weight)) * self.dv,
            energy=energy,
            script_energy=energy + params.e**2 * fields.a0,
            mass=self.mass,
            p=params.p,
            e=params.e,
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Every scalar energy component for one state."""

    kinetic: float  # 1/2 |grad u|^2
    power: float  # 1/(p+1) |u|_{p+1}^{p+1}
    a0: float
    a1: float
    a2: float  # 1/4 int S2 |u|^2
    a3: float  # int |u|^2 (S2 - 1/2 x.grad S2) = 1/2 int S1 x.grad rho; 0.0 for rho = 0
    energy: float  # E
    script_energy: float  # E + e^2 A0
    mass: float
    p: float
    e: float

    @property
    def grad_l2_sq(self) -> float:
        return 2.0 * self.kinetic

    def lp1_power(self) -> float:
        """|u|_{p+1}^{p+1}."""
        return (self.p + 1.0) * self.power


# The slot: (weak ref to a ComplexField, weak ref to a workspace, the
# field's Evaluation on that workspace), or None.  The callback is a module
# function, not a closure over the entry, so the entry is in no reference
# cycle and goes as soon as the slot lets it go.
_LAST: tuple[weakref.ref, weakref.ref, Evaluation] | None = None


def _drop(ref: weakref.ref) -> None:
    """Empty the slot when the field or workspace it is keyed on dies."""
    global _LAST
    last = _LAST
    if last is not None and (ref is last[0] or ref is last[1]):
        _LAST = None


def _evaluation(u: ComplexField, ws: SpectralWorkspace) -> Evaluation:
    """u's Evaluation on ws: the slot's if it is keyed on this very field and
    workspace, else a new one, which takes the slot.  Each call reads the
    slot once, so threads sharing it at worst miss."""
    global _LAST
    last = _LAST
    if last is not None and last[0]() is u and last[1]() is ws:
        return last[2]
    _LAST = None  # let the old Evaluation go before the new one is built
    ev = Evaluation(u.values, ws)
    _LAST = (weakref.ref(u, _drop), weakref.ref(ws, _drop), ev)
    return ev


def energy_breakdown(
    u: ComplexField,
    profile: DopingProfile,
    params: PhysParams,
    ws: SpectralWorkspace,
) -> EnergyBreakdown:
    """All energy components of u, from the same terms as the flow's
    objective E, on u's Evaluation from the slot: grad_E of the same field
    and workspace right after costs no second solve.  A state on another
    grid than the workspace raises GridMismatchError."""
    ws.grid.require_same(u.grid)
    return _evaluation(u, ws).breakdown(profile_fields(profile, ws), params)


def grad_E(
    u: ComplexField,
    profile: DopingProfile,
    params: PhysParams,
    ws: SpectralWorkspace,
) -> ComplexField:
    """L^2 gradient of E: -Delta u - |u|^{p-1} u + e^2 (S1(u) + S2) u, on
    u's Evaluation from the slot, which energy_breakdown of the same field
    and workspace may already have made.  A state on another grid than the
    workspace raises GridMismatchError."""
    ws.grid.require_same(u.grid)
    return ComplexField(u.grid, _evaluation(u, ws).gradient(profile_fields(profile, ws), params))


def lagrange_multiplier(breakdown: EnergyBreakdown) -> float:
    """omega extracted from the Nehari identity:

    omega = (|u|_{p+1}^{p+1} - |grad u|^2 - 4 e^2 A1 - 4 e^2 A2) / |u|_2^2.
    """
    if breakdown.mass <= 0.0:
        raise ValueError("Lagrange multiplier undefined for zero mass")
    e2 = breakdown.e**2
    return (
        breakdown.lp1_power()
        - breakdown.grad_l2_sq
        - 4.0 * e2 * breakdown.a1
        - 4.0 * e2 * breakdown.a2
    ) / breakdown.mass


class Residual(NamedTuple):
    """Signed identity residual plus its scale-free normalization."""

    value: float
    normalized: float


def _residual_from_terms(terms: list[float]) -> Residual:
    value = float(sum(terms))
    scale = float(sum(abs(t) for t in terms))
    return Residual(value, value / scale if scale > 0.0 else 0.0)


def nehari_residual(breakdown: EnergyBreakdown, omega: float) -> Residual:
    """|grad u|^2 + omega |u|^2 - |u|_{p+1}^{p+1} + 4 e^2 A1 + 4 e^2 A2."""
    e2 = breakdown.e**2
    return _residual_from_terms(
        [
            breakdown.grad_l2_sq,
            omega * breakdown.mass,
            -breakdown.lp1_power(),
            4.0 * e2 * breakdown.a1,
            4.0 * e2 * breakdown.a2,
        ]
    )


def pohozaev_residual(breakdown: EnergyBreakdown, omega: float) -> Residual:
    """1/2 |grad u|^2 + (3 omega/2) |u|^2 - 3/(p+1) |u|_{p+1}^{p+1}
    + 5 e^2 A1 + 10 e^2 A2 - e^2 A3.

    Vanishes only at true solutions; not algebraically forced.  A3 comes
    from the sampled S2 for every doping (see the module docstring) and is
    zero when rho = 0, so at a converged minimizer the residual falls with
    box size and grid spacing.
    """
    e2 = breakdown.e**2
    return _residual_from_terms(
        [
            0.5 * breakdown.grad_l2_sq,
            1.5 * omega * breakdown.mass,
            -3.0 / (breakdown.p + 1.0) * breakdown.lp1_power(),
            5.0 * e2 * breakdown.a1,
            10.0 * e2 * breakdown.a2,
            -e2 * breakdown.a3,
        ]
    )


def lemma23_residual(breakdown: EnergyBreakdown, omega: float) -> Residual:
    """(5p-7) E - 2(p-2)|grad u|^2 + ((3p-5) omega/2)|u|^2 - 8 e^2 A2
    + (3-p) e^2 A3.

    Equals 2 * (Nehari residual) + (p-3) * (Pohozaev residual) identically.
    """
    p = breakdown.p
    e2 = breakdown.e**2
    return _residual_from_terms(
        [
            (5.0 * p - 7.0) * breakdown.energy,
            -2.0 * (p - 2.0) * breakdown.grad_l2_sq,
            0.5 * (3.0 * p - 5.0) * omega * breakdown.mass,
            -8.0 * e2 * breakdown.a2,
            (3.0 - p) * e2 * breakdown.a3,
        ]
    )


@dataclass(frozen=True)
class ScalingEntry:
    name: str
    exponent_measured: float
    exponent_exact: float

    @property
    def exponent_error(self) -> float:
        return abs(self.exponent_measured - self.exponent_exact)


@dataclass(frozen=True)
class ScalingReport:
    entries: tuple[ScalingEntry, ...]

    def entry(self, name: str) -> ScalingEntry:
        for ent in self.entries:
            if ent.name == name:
                return ent
        raise KeyError(name)


def scaling_check(
    width: float,
    a: float,
    b: float,
    lam: float,
    ws: SpectralWorkspace,
    amplitude: float = 1.0,
) -> ScalingReport:
    """Measure the dilation laws on u_lam(x) = lam^a u(lam^b x).

    The base state is the analytic Gaussian amplitude * exp(-|x|^2/(2 w^2)),
    and u_lam is sampled in closed form (never interpolated), so measured
    exponents isolate the quadrature and Coulomb-solve accuracy.  Reported
    exponents: mass 2a-3b, kinetic 2a-b, A1 4a-5b, S1 at the origin 2a-2b.
    lam = 1 is rejected: a dilation by 1 measures no exponent.  So is a
    base or scaled state whose width squares to 0 or overflows, or whose
    measures underflow to 0 or overflow: they have no ratio.
    """
    if not (0.0 < width < np.inf and 0.0 < lam < np.inf and lam != 1.0):
        raise ValueError(f"width and lam must be positive and finite, lam != 1, got {width} and {lam}")
    if not np.all(np.isfinite((a, b))):
        raise ValueError(f"a and b must be finite, got {a} and {b}")
    if not (amplitude != 0.0 and np.isfinite(amplitude)):
        raise ValueError(f"amplitude must be nonzero and finite, got {amplitude}")
    grid = ws.grid
    global _LAST
    _LAST = None  # the slot's Evaluation would stay resident next to these

    origin = tuple(np.argmin(np.abs(grid.axis_coords())) for _ in range(3))

    def measures(state: str, amp: float, w: float) -> dict[str, float]:
        if 0.0 < abs(amp) < np.inf and 0.0 < w * w < np.inf:
            ev = Evaluation((amp * np.exp(-grid.radius_sq() / (2.0 * w**2))).astype(complex), ws)
            m = {"mass": ev.mass, "kinetic": ev.grad_sq, "a1": ev.a1, "s1_origin": float(ev.s1[origin])}
            if all(0.0 < abs(v) < np.inf for v in m.values()):
                return m
        raise ValueError(f"the {state} state (amplitude {amp}, width {w}) has no finite nonzero measures")

    # an extreme dilation over- or underflows here; measures() rejects what it leaves
    with np.errstate(all="ignore"):
        m0 = measures("base", amplitude, width)
        m1 = measures("scaled", float(amplitude * np.float64(lam) ** a), float(width / np.float64(lam) ** b))
    exponents = {"mass": 2 * a - 3 * b, "kinetic": 2 * a - b, "a1": 4 * a - 5 * b, "s1_origin": 2 * a - 2 * b}

    loglam = np.log(lam)
    entries = tuple(
        ScalingEntry(name, float(np.log(float(m1[name] / m0[name])) / loglam), float(expo))
        for name, expo in exponents.items()
    )
    return ScalingReport(entries)
