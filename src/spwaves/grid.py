"""Uniform periodic grid, scalar fields, and spectral operators.

The computational domain is the cube [-L/2, L/2)^3 sampled at N points per
axis.  All derivatives are Fourier multipliers; the free-space Coulomb
solve uses zero padding to (2N)^3 together with a truncated-kernel
spectrum, so the result approximates the Newtonian potential of the data
rather than its periodic images.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

__all__ = [
    "Grid3",
    "RealField",
    "ComplexField",
    "SpectralWorkspace",
    "GridMismatchError",
    "BoundaryLeakWarning",
    "integrate",
    "inner",
    "lp_norm",
    "laplacian",
    "gradient_fields",
    "grad_norm_sq",
    "coulomb_solve",
    "kinetic_phase",
    "coulomb_kernel_spectrum",
    "boundary_mass_fraction",
]

_FFT_WORKERS = -1

# Fraction of total |f| mass allowed in the outer two-cell shell before the
# Coulomb solve warns about boundary leakage.
BOUNDARY_MASS_THRESHOLD = 1e-8


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class BoundaryLeakWarning(UserWarning):
    """Significant mass sits in the outer shell of the box."""


@dataclass(frozen=True)
class Grid3:
    """Cubic periodic grid: N points per axis on [-L/2, L/2)^3.

    Arrays are indexed ``[ix, iy, iz]``.  N must be even and at least 8
    (even, so the zero-padded transforms stay aligned; powers of two are
    fastest but not required).
    """

    n: int
    length: float

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {self.n}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"box length must be positive, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        return self.length**3

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis, -L/2 + h*i."""
        return -0.5 * self.length + self.spacing * np.arange(self.n)

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable X, Y, Z coordinate arrays."""
        x1 = self.axis_coords()
        return x1[:, None, None], x1[None, :, None], x1[None, None, :]

    def radius_sq(self) -> np.ndarray:
        x, y, z = self.coords()
        return x**2 + y**2 + z**2

    def wavenumbers(self) -> np.ndarray:
        """Symmetric wavenumber table along one axis, entries in [-pi N/L, pi N/L)."""
        return 2.0 * np.pi * sfft.fftfreq(self.n, d=self.spacing)

    def wavenumber_sq(self) -> np.ndarray:
        k1 = self.wavenumbers()
        return (k1**2)[:, None, None] + (k1**2)[None, :, None] + (k1**2)[None, None, :]


def _validate_values(grid: Grid3, values: np.ndarray, dtype) -> np.ndarray:
    values = np.asarray(values, dtype=dtype)
    shape = (grid.n,) * 3
    if values.shape != shape:
        raise ValueError(f"field shape {values.shape} does not match grid {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")
    return values


@dataclass(frozen=True)
class RealField:
    """Real scalar samples on a Grid3 (|u|^2, rho, S1, S2 live here)."""

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_values(self.grid, self.values, np.float64))


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar samples on a Grid3 (states u, psi live here)."""

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_values(self.grid, self.values, np.complex128))

    def abs_sq(self) -> RealField:
        v = self.values
        return RealField(self.grid, v.real**2 + v.imag**2)


Field = RealField | ComplexField


def coulomb_kernel_spectrum(kmag: np.ndarray, radius: float) -> np.ndarray:
    """Analytic spectrum of the Coulomb kernel truncated at |x| = radius.

    (1 - cos(T|k|)) / |k|^2 with the limiting value T^2/2 at k = 0; the
    spectrum is nonnegative for every k.
    """
    kmag = np.asarray(kmag, dtype=np.float64)
    small = kmag < 1e-12
    safe = np.where(small, 1.0, kmag)
    out = (1.0 - np.cos(radius * safe)) / safe**2
    return np.where(small, radius**2 / 2.0, out)


def _build_kernel_hat(grid: Grid3, radius: float) -> np.ndarray:
    """Effective kernel spectrum for the zero-padded (2N)^3 transform.

    The analytic truncated-kernel spectrum sampled straight onto the (2N)^3
    wavenumbers would periodize the kernel at period 2L, and with
    T = sqrt(3) L those periodic images pollute every pair separated by
    more than (2 - sqrt(3)) L.  Instead the kernel is rendered alias-free
    on a transient (4N)^3 grid (period 4L > sqrt(3) L + T), its real-space
    values on the difference range [-L, L)^3 are extracted, and those are
    transformed back at size (2N)^3.  The resulting circular convolution
    with zero-padded data is the exact aperiodic sum over the box.
    """
    n, h = grid.n, grid.spacing
    n4 = 4 * n
    k1 = 2.0 * np.pi * sfft.fftfreq(n4, d=h)
    kr = 2.0 * np.pi * sfft.rfftfreq(n4, d=h)
    kmag = np.sqrt(
        (k1**2)[:, None, None] + (k1**2)[None, :, None] + (kr**2)[None, None, :]
    )
    ghat4 = coulomb_kernel_spectrum(kmag, radius)
    del kmag
    w4 = sfft.irfftn(ghat4, s=(n4, n4, n4), workers=_FFT_WORKERS)
    del ghat4
    idx = np.r_[0 : n + 1, n4 - n + 1 : n4]  # offsets 0..n, -(n-1)..-1
    kernel = w4[np.ix_(idx, idx, idx)].copy()
    del w4
    khat = sfft.rfftn(kernel, workers=_FFT_WORKERS).real
    # Tiny negative excursions from windowing the periodized kernel are
    # clipped so the solve stays positive semidefinite mode-wise.
    np.maximum(khat, 0.0, out=khat)
    return khat


class SpectralWorkspace:
    """Transform tables and the precomputed Coulomb kernel for one grid.

    Solves keep no scratch state, but the kernel is built unguarded on first
    use, so concurrent workers that reach an unbuilt kernel each build it:
    touch ``kernel_hat`` before sharing a workspace between workers.  Fields
    are immutable and may move between threads freely.
    """

    def __init__(self, grid: Grid3):
        self.grid = grid
        # T = sqrt(3) L spans the box diagonal; _build_kernel_hat is
        # alias-free only for T < (4 - sqrt(3)) L.
        self.truncation_radius = np.sqrt(3.0) * grid.length
        self.k2 = grid.wavenumber_sq()
        self._kernel_hat: np.ndarray | None = None

    @property
    def kernel_hat(self) -> np.ndarray:
        """Coulomb kernel spectrum on the padded grid, built on first use."""
        if self._kernel_hat is None:
            self._kernel_hat = _build_kernel_hat(self.grid, self.truncation_radius)
        return self._kernel_hat

    def fft(self, values: np.ndarray) -> np.ndarray:
        return sfft.fftn(values, workers=_FFT_WORKERS)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        return sfft.ifftn(values, workers=_FFT_WORKERS)

    def coulomb(self, values: np.ndarray) -> np.ndarray:
        """(-Delta)^{-1} applied to real data: the free-space potential.

        The zero-padded (2N)^3 data is transformed one axis at a time in
        rfftn's order, so no transform runs over the all-zero rows, and each
        inverse axis is cut to its N kept outputs before the next one runs;
        the 1/(2N)^3 comes last, where irfftn applies it.  The result is bit
        for bit the dense padded solve."""
        n = self.grid.n
        n2 = 2 * n
        vhat = sfft.rfft(values, n=n2, axis=2, workers=_FFT_WORKERS)
        vhat = sfft.fft(vhat, n=n2, axis=0, workers=_FFT_WORKERS)
        vhat = sfft.fft(vhat, n=n2, axis=1, workers=_FFT_WORKERS)
        vhat *= self.kernel_hat
        v = sfft.ifft(vhat, axis=0, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)
        v = sfft.ifft(v[:n], axis=1, norm="forward", workers=_FFT_WORKERS)
        v = sfft.irfft(v[:, :n], n=n2, axis=2, norm="forward", workers=_FFT_WORKERS)
        return v[..., :n] * (1.0 / n2**3)


def _require_same_grid(a: Field, b: Grid3 | Field):
    grid = b if isinstance(b, Grid3) else b.grid
    if a.grid != grid:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {grid}")


def integrate(f: Field) -> float:
    """Periodic trapezoid quadrature h^3 * sum(values)."""
    return float(np.sum(f.values).real * f.grid.cell_volume)


def inner(a: Field, b: Field) -> complex:
    """L^2 pairing h^3 * sum(conj(a) b)."""
    _require_same_grid(a, b)
    return complex(np.vdot(a.values, b.values) * a.grid.cell_volume)


def lp_norm(f: Field, p: float) -> float:
    """(integral |f|^p)^{1/p}."""
    if p < 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    mag = np.abs(f.values)
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


def laplacian(u: ComplexField, ws: SpectralWorkspace) -> ComplexField:
    _require_same_grid(u, ws.grid)
    out = ws.ifft(-ws.k2 * ws.fft(u.values))
    return ComplexField(u.grid, out)


def gradient_fields(u: ComplexField, ws: SpectralWorkspace) -> tuple[ComplexField, ...]:
    """The three spectral first derivatives of u."""
    _require_same_grid(u, ws.grid)
    uhat = ws.fft(u.values)
    k1 = u.grid.wavenumbers()
    shapes = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    return tuple(
        ComplexField(u.grid, ws.ifft(1j * k1.reshape(s) * uhat)) for s in shapes
    )


def grad_norm_sq(u: ComplexField, ws: SpectralWorkspace) -> float:
    """integral |grad u|^2 via Parseval."""
    _require_same_grid(u, ws.grid)
    uhat = ws.fft(u.values)
    mag2 = uhat.real**2 + uhat.imag**2
    return float(np.sum(ws.k2 * mag2) * u.grid.cell_volume / u.grid.n**3)


def boundary_mass_fraction(values: np.ndarray) -> float:
    """Fraction of sum(|values|) carried by the outer two-cell shell."""
    mag = np.abs(values)
    total = float(mag.sum())
    if total == 0.0:
        return 0.0
    interior = float(mag[2:-2, 2:-2, 2:-2].sum())
    return (total - interior) / total


def coulomb_solve(f: RealField, ws: SpectralWorkspace) -> RealField:
    """Free-space Newtonian potential of f: solves -Delta v = f on R^3.

    Accurate when f decays inside the box; mass within the outer two-cell
    shell beyond BOUNDARY_MASS_THRESHOLD triggers a warning.
    """
    _require_same_grid(f, ws.grid)
    if boundary_mass_fraction(f.values) > BOUNDARY_MASS_THRESHOLD:
        warnings.warn(
            "coulomb_solve source has significant mass near the box boundary; "
            "enlarge the box",
            BoundaryLeakWarning,
            stacklevel=2,
        )
    return RealField(f.grid, ws.coulomb(f.values))


def kinetic_phase(psi: ComplexField, ws: SpectralWorkspace, t: float) -> ComplexField:
    """exp(i t Delta) psi: each mode is multiplied by exp(-i |k|^2 t)."""
    _require_same_grid(psi, ws.grid)
    phase = np.exp(-1j * ws.k2 * t)
    return ComplexField(psi.grid, ws.ifft(phase * ws.fft(psi.values)))
