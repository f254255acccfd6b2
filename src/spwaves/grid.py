"""Uniform periodic grid, scalar fields, and the free-space Coulomb solve.

The computational domain is the cube [-L/2, L/2)^3 sampled at N points per
axis.  Derivatives are Fourier multipliers on the workspace's ``k2`` table.
``SpectralWorkspace.coulomb`` is the one Coulomb solve: it zero-pads the
data to (2N)^3 and applies a truncated-kernel spectrum, so the result
approximates the Newtonian potential of the data rather than its periodic
images.  It has no boundary policy; ``boundary_mass_fraction`` measures how
much of a field reaches the edge of the box.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

__all__ = [
    "Grid3",
    "RealField",
    "ComplexField",
    "SpectralWorkspace",
    "GridMismatchError",
    "lp_norm",
    "coulomb_kernel_spectrum",
    "boundary_mass_fraction",
]

_FFT_WORKERS = -1


class GridMismatchError(ValueError):
    """Operands live on different grids."""


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

    def require_same(self, other: Grid3) -> None:
        """Raise GridMismatchError unless other is this grid."""
        if other != self:
            raise GridMismatchError(f"grid mismatch: {other} vs {self}")


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


Field = RealField | ComplexField


def coulomb_kernel_spectrum(kmag: np.ndarray, radius: float) -> np.ndarray:
    """Analytic spectrum of the Coulomb kernel truncated at |x| = radius.

    (1 - cos(T|k|)) / |k|^2 with the limiting value T^2/2 at k = 0; the
    spectrum is nonnegative for every k.
    """
    kmag = np.asarray(kmag, dtype=np.float64)
    small = kmag < 1e-12
    safe = np.where(small, 1.0, kmag)
    # out= keeps a 0-d input an array, which the in-place steps need
    out = np.multiply(safe, radius, out=np.empty_like(safe))
    np.cos(out, out=out)
    np.subtract(1.0, out, out=out)
    out /= np.square(safe, out=safe)
    out[small] = radius**2 / 2.0
    return out


# Axis-2 columns of the (4N)^3 kernel spectrum evaluated and transformed
# together; of 1, 4, 8 and 16, 8 built fastest at N=96 on 2 cores.
_KERNEL_SLAB = 8


def _kernel_build_bytes(n: int) -> int:
    """Peak bytes of one kernel build at grid size n: the three largest
    buffers of _unit_kernel_hat, the pruned spectrum, the last inverse
    pass's output and one slab, counted as if all alive at once."""
    n2, n4 = 2 * n, 4 * n
    return 16 * n2 * n2 * (n2 + 1) + 8 * n2 * n2 * n4 + 16 * n4 * n4 * _KERNEL_SLAB


@functools.cache
def _unit_kernel_hat(n: int) -> np.ndarray:
    """Effective kernel spectrum for the zero-padded (2N)^3 transform on the
    unit box (L = 1, T = sqrt(3)); read-only, built once per N.

    With T = sqrt(3) L the spectrum on a box of side L is exactly L^2 times
    this one.  The analytic truncated-kernel spectrum sampled straight onto
    the (2N)^3 wavenumbers would periodize the kernel at period 2L, and
    those periodic images pollute every pair separated by more than
    (2 - sqrt(3)) L.  Instead the kernel is rendered on the (4N)^3 grid,
    its real-space values on the difference range [-L, L)^3 are kept, and
    those are transformed back at size (2N)^3.  The resulting circular
    convolution with zero-padded data is the exact aperiodic sum over the
    box.  T = sqrt(3) L spans the box diagonal, and the (4N)^3 rendering is
    alias-free only for T < (4 - sqrt(3)) L, where the period 4L exceeds
    sqrt(3) L + T.

    The (4N)^3 inverse runs in irfftn's own order, axis 0, axis 1, then the
    real axis 2, each pass cut to the 2N kept offsets before the next and
    the 1/(4N)^3 applied last: bit for bit the dense irfftn, without the
    (4N)^3 real array.  The first two passes run one slab of axis-2 columns
    at a time, and in each slab the spectrum is evaluated for k_x, k_y >= 0
    only and mirrored, since fftfreq's negative wavenumbers are the exact
    negatives of the positive ones.
    """
    n2, n4 = 2 * n, 4 * n
    k1 = 2.0 * np.pi * sfft.fftfreq(n4, d=1.0 / n)
    kr = 2.0 * np.pi * sfft.rfftfreq(n4, d=1.0 / n)
    idx = np.r_[0 : n + 1, n4 - n + 1 : n4]  # offsets 0..n, -(n-1)..-1
    h = n2 + 1  # wavenumbers 0..2N; rows h.. mirror rows 2N-1..1
    kxy = (k1[:h] ** 2)[:, None, None] + (k1[:h] ** 2)[None, :, None]
    pruned = np.empty((n2, n2, kr.size), dtype=np.complex128)
    for k0 in range(0, kr.size, _KERNEL_SLAB):
        cols = slice(k0, k0 + _KERNEL_SLAB)
        # Complex from the start: a real input takes pocketfft's real-input
        # path, which rounds differently from irfftn.
        slab = np.empty((n4, n4, kr[cols].size), dtype=np.complex128)
        slab[:h, :h] = coulomb_kernel_spectrum(
            np.sqrt(kxy + (kr[cols] ** 2)[None, None, :]), np.sqrt(3.0)
        )
        slab[h:, :h] = slab[h - 2 : 0 : -1, :h]
        slab[:, h:] = slab[:, h - 2 : 0 : -1]
        part = sfft.ifft(slab, axis=0, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)[idx]
        del slab
        part = sfft.ifft(part, axis=1, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)
        pruned[:, :, cols] = part[:, idx]
    del part
    full = sfft.irfft(pruned, n=n4, axis=2, norm="forward", workers=_FFT_WORKERS)
    del pruned
    kernel = full[:, :, idx]
    del full
    kernel *= 1.0 / n4**3
    khat = sfft.rfftn(kernel, workers=_FFT_WORKERS).real.copy()
    # Tiny negative excursions from windowing the periodized kernel are
    # clipped so the solve stays positive semidefinite mode-wise.
    np.maximum(khat, 0.0, out=khat)
    khat.flags.writeable = False
    return khat


class SpectralWorkspace:
    """Transform tables and the precomputed Coulomb kernel for one grid.

    ``coulomb`` is the package's one Coulomb solve.  It has no boundary
    policy: data near the edge of the box is solved as given.

    The unit-box kernel is built once per N per process and shared
    read-only by every workspace of that N; each workspace scales it by L^2
    on first use.  Neither step is guarded, so concurrent workers that reach
    an unbuilt kernel each build it: touch ``kernel_hat`` before sharing a
    workspace between workers.  Solves keep no scratch state, and fields are
    immutable and may move between threads freely.

    A grid whose kernel build would need more than the host's physical
    memory raises MemoryError here, before anything is allocated.
    """

    def __init__(self, grid: Grid3):
        need = _kernel_build_bytes(grid.n)
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise MemoryError(
                f"building the Coulomb kernel for N={grid.n} needs about {need} bytes; "
                f"this host has {have} bytes of physical memory"
            )
        self.grid = grid
        self.k2 = grid.wavenumber_sq()
        self._kernel_hat: np.ndarray | None = None

    @property
    def kernel_hat(self) -> np.ndarray:
        """Coulomb kernel spectrum on the padded grid, made on first use."""
        if self._kernel_hat is None:
            self._kernel_hat = self.grid.length**2 * _unit_kernel_hat(self.grid.n)
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


def lp_norm(f: Field, p: float) -> float:
    """(integral |f|^p)^{1/p}."""
    if p < 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    mag = np.abs(f.values)
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


def boundary_mass_fraction(values: np.ndarray) -> float:
    """Fraction of sum(|values|) carried by the outer two-cell shell."""
    mag = np.abs(values)
    total = float(mag.sum())
    if total == 0.0:
        return 0.0
    interior = float(mag[2:-2, 2:-2, 2:-2].sum())
    return (total - interior) / total
