"""Doping profiles and their sampled fields, norms, and ball geometry.

Supported background-charge shapes: identically zero, Gaussian
eps * exp(-alpha |x|^2), power law eps / (1+|x|)^alpha with alpha > 2, and
finite unions of disjoint ball indicators sum_i alpha_i chi_{B_i}.  The
smooth shapes carry an analytic x . grad(rho), which the L^{6/5} norms of
rho_norms use; an indicator has none.  The Pohozaev identity's dilation term
needs no x . grad(rho): energy builds it from S2 for every shape.  Sampled
fields are float64 arrays of the grid's shape (N, N, N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid3, lp_norm

__all__ = [
    "ZeroProfile",
    "GaussianProfile",
    "PowerLawProfile",
    "BallSpec",
    "BallsProfile",
    "DopingProfile",
    "BallGeometry",
    "UnsupportedDerivativeError",
    "sample_rho",
    "sample_x_grad_rho",
    "rho_norms",
    "powerlaw_tail_bound",
    "ball_geometry",
]


class UnsupportedDerivativeError(ValueError):
    """x . grad(rho) requested for a profile that is not weakly differentiable."""


@dataclass(frozen=True)
class ZeroProfile:
    pass


@dataclass(frozen=True)
class GaussianProfile:
    """rho(x) = epsilon * exp(-alpha |x|^2)."""

    epsilon: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.inf):
            raise ValueError(f"Gaussian profile amplitude must be positive and finite, got {self.epsilon}")
        if not (0.0 < self.alpha < np.inf):
            raise ValueError(f"Gaussian profile decay rate must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class PowerLawProfile:
    """rho(x) = epsilon / (1 + |x|)^alpha, alpha > 2."""

    epsilon: float
    alpha: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.inf):
            raise ValueError(f"power-law profile amplitude must be positive and finite, got {self.epsilon}")
        if not (2.0 < self.alpha < np.inf):
            raise ValueError(f"power-law exponent must be finite and exceed 2, got {self.alpha}")


@dataclass(frozen=True)
class BallSpec:
    """One ball indicator: amplitude on |x - center| <= radius."""

    center: tuple[float, float, float]
    radius: float
    amplitude: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 3 or not np.all(np.isfinite(self.center)):
            raise ValueError(f"ball center must be a finite 3-vector, got {self.center}")
        if not (0.0 < self.radius < np.inf):
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")
        if not (0.0 < self.amplitude < np.inf):
            raise ValueError(f"ball amplitude must be positive and finite, got {self.amplitude}")

    def boundary_sup(self) -> float:
        """sup of |x| over the boundary sphere."""
        return float(np.linalg.norm(self.center)) + self.radius


@dataclass(frozen=True)
class BallsProfile:
    """rho(x) = sum_i alpha_i chi_{B_i}(x) over pairwise disjoint balls."""

    balls: tuple[BallSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "balls", tuple(self.balls))
        if not self.balls:
            raise ValueError("balls profile needs at least one ball")
        for i, a in enumerate(self.balls):
            for b in self.balls[i + 1 :]:
                gap = np.linalg.norm(np.subtract(a.center, b.center))
                if gap < a.radius + b.radius:
                    raise ValueError("balls must be pairwise disjoint")


DopingProfile = ZeroProfile | GaussianProfile | PowerLawProfile | BallsProfile


def _check_ball_in_box(ball: BallSpec, grid: Grid3):
    margin = 2.0 * grid.spacing
    half = grid.length / 2.0
    for c in ball.center:
        if abs(c) + ball.radius > half - margin:
            raise ValueError(
                f"ball (center {ball.center}, radius {ball.radius}) does not fit "
                f"in the box with a {margin:g} margin"
            )


def sample_rho(profile: DopingProfile, grid: Grid3) -> np.ndarray:
    """Pointwise samples of rho at the grid nodes (cell-center rule for indicators)."""
    if isinstance(profile, ZeroProfile):
        return np.zeros((grid.n,) * 3)
    if isinstance(profile, GaussianProfile):
        return profile.epsilon * np.exp(-profile.alpha * grid.radius_sq())
    if isinstance(profile, PowerLawProfile):
        r = np.sqrt(grid.radius_sq())
        return profile.epsilon / (1.0 + r) ** profile.alpha
    if isinstance(profile, BallsProfile):
        out = np.zeros((grid.n,) * 3)
        x, y, z = grid.coords()
        for ball in profile.balls:
            _check_ball_in_box(ball, grid)
            cx, cy, cz = ball.center
            inside = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= ball.radius**2
            out += ball.amplitude * inside
        return out
    raise TypeError(f"unknown profile type {type(profile)!r}")


def sample_x_grad_rho(profile: DopingProfile, grid: Grid3) -> np.ndarray:
    """Analytic x . grad(rho) sampled at the nodes (smooth profiles only)."""
    if isinstance(profile, ZeroProfile):
        return np.zeros((grid.n,) * 3)
    if isinstance(profile, GaussianProfile):
        r2 = grid.radius_sq()
        return -2.0 * profile.alpha * profile.epsilon * r2 * np.exp(-profile.alpha * r2)
    if isinstance(profile, PowerLawProfile):
        r = np.sqrt(grid.radius_sq())
        return -profile.alpha * profile.epsilon * r / (1.0 + r) ** (profile.alpha + 1.0)
    if isinstance(profile, BallsProfile):
        raise UnsupportedDerivativeError(
            "a characteristic-function profile has no weak derivative"
        )
    raise TypeError(f"unknown profile type {type(profile)!r}")


def rho_norms(profile: DopingProfile, grid: Grid3) -> tuple[float, float | None]:
    """(L^{6/5} norm of rho, L^{6/5} norm of x.grad(rho) or None for indicators)."""
    n1 = lp_norm(sample_rho(profile, grid), 1.2, grid)
    if isinstance(profile, BallsProfile):
        return n1, None
    return n1, lp_norm(sample_x_grad_rho(profile, grid), 1.2, grid)


def powerlaw_tail_bound(profile: PowerLawProfile, grid: Grid3) -> float:
    """Bound for the part of ||x.grad rho||_{6/5} lost outside the box.

    |x.grad rho| <= alpha eps / (1+r)^alpha, so the missing tail integral
    from R = L/2 outward has the closed form below.  With the r^2 volume
    factor it is finite only for 6 alpha / 5 > 3, that is alpha > 5/2; for
    alpha <= 5/2, x.grad rho ~ r^-alpha is not in L^{6/5} and the bound is inf.
    """
    if profile.alpha <= 2.5:
        return np.inf
    p = 1.2
    a = profile.alpha * p
    r0 = grid.length / 2.0
    # integral_{r0}^inf (alpha eps)^p (1+r)^{-a} r^2 dr, with r^2 <= (1+r)^2
    coef = (profile.alpha * profile.epsilon) ** p * 4.0 * np.pi
    tail = coef * (1.0 + r0) ** (3.0 - a) / (a - 3.0)
    return float(tail ** (1.0 / p))


@dataclass(frozen=True)
class BallGeometry:
    """Geometric quantities entering the indicator-profile smallness condition."""

    boundary_sup: float  # sup over the boundary of |x|
    volume: float
    surface: float
    kappa1: float  # |boundary| / |volume|
    kappa2: float  # sup over the boundary of |grad w| for the torsion solution
    d_value: float

    def __post_init__(self):
        if self.kappa2 < 1.0:
            raise ValueError("kappa2 must be at least 1")


def ball_geometry(ball: BallSpec) -> BallGeometry:
    """Closed-form geometry of a ball.

    The torsion problem Delta w = kappa1 in B, dw/dn = 1 on the boundary is
    solved by w = |x - c|^2 / (2R), whose boundary gradient has modulus 1
    everywhere, so kappa2 = 1 for every ball.
    """
    r = ball.radius
    volume = 4.0 * np.pi * r**3 / 3.0
    surface = 4.0 * np.pi * r**2
    kappa1 = 3.0 / r
    kappa2 = 1.0
    sup = ball.boundary_sup()
    d_value = (
        sup
        * volume ** (1.0 / 6.0)
        * surface**0.5
        * (kappa1 * volume ** (1.0 / 3.0) + kappa2) ** 0.5
    )
    return BallGeometry(sup, volume, surface, kappa1, kappa2, d_value)
