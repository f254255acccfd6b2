"""Uniform periodic grid, the state type, and the free-space Coulomb solve.

The computational domain is the cube [-L/2, L/2)^3 sampled at N points per
axis.  A state is a ComplexField, the one validated wrapper: a read-only
copy of samples that have the grid's shape and are finite.  Real grid data (rho, x . grad rho,
S1, S2, |u|^2) are plain float64 arrays of shape (N, N, N).  Derivatives
are Fourier multipliers: the Laplacian on the workspace's ``k2`` table, and
x . grad f in ``x_dot_grad``.
``SpectralWorkspace.coulomb`` is the one Coulomb solve: it zero-pads the
data to (2N)^3 and applies a truncated-kernel spectrum, so the result
approximates the Newtonian potential of the data rather than its periodic
images.  It has no boundary policy; ``boundary_mass_fraction`` measures how
much of a field reaches the edge of the box.

Every transform here takes its worker count from the grid size N alone:
one worker below _FFT_THREADED_N, where threads cost more than they save,
and _FFT_WORKERS (all CPUs) at or above it.  The same policy sets how many
threads share the kernel build's slab passes.  It moves no bit: pocketfft
computes each 1-D line of a batch on its own, so how the lines or slabs
are split between threads does not change a result.
"""

from __future__ import annotations

import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

__all__ = [
    "Grid3",
    "ComplexField",
    "SpectralWorkspace",
    "GridMismatchError",
    "lp_norm",
    "x_dot_grad",
    "coulomb_kernel_spectrum",
    "boundary_mass_fraction",
]

# Workers of the transforms on grids of N >= _FFT_THREADED_N; smaller grids
# use one.  One evaluation with gradient on 2 CPUs took 5.6 ms with one
# worker and 6.6 ms with two at N=32, 19 ms either way at N=48, and 59
# against 51 ms at N=64 (medians of 21 interleaved runs).
_FFT_WORKERS = -1
_FFT_THREADED_N = 64


def _fft_workers(n: int) -> int:
    """Worker count of every transform on a grid of N = n points per axis."""
    return _FFT_WORKERS if n >= _FFT_THREADED_N else 1


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
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"grid size must be an integer, got {self.n!r}") from None
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

    def require_shape(self, values: np.ndarray) -> None:
        """Raise ValueError unless values has this grid's shape (N, N, N)."""
        shape = (self.n,) * 3
        if np.shape(values) != shape:
            raise ValueError(f"array shape {np.shape(values)} does not match grid {shape}")


@dataclass(frozen=True, eq=False)
class ComplexField:
    """A state: complex samples on a Grid3, of the grid's shape and finite.

    Immutable: ``values`` is a read-only copy of the samples it was made
    from, so no array the caller still holds can write through to it.  Two
    fields compare and hash by identity, which is what ``energy`` keys its
    last evaluation on."""

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128)
        self.grid.require_shape(values)
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite entries")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def coulomb_kernel_spectrum(kmag: np.ndarray, radius: float, out: np.ndarray | None = None) -> np.ndarray:
    """Analytic spectrum of the Coulomb kernel truncated at |x| = radius.

    (1 - cos(T|k|)) / |k|^2 with the limiting value T^2/2 at k = 0; the
    spectrum is nonnegative for every k.  It is written to ``out`` if
    given, a float64 array of kmag's shape, which may be kmag itself.
    """
    kmag = np.asarray(kmag, dtype=np.float64)
    small = kmag < 1e-12
    safe = np.where(small, 1.0, kmag)
    # out= keeps a 0-d input an array, which the in-place steps need
    out = np.multiply(safe, radius, out=np.empty_like(safe) if out is None else out)
    np.cos(out, out=out)
    np.subtract(1.0, out, out=out)
    out /= np.square(safe, out=safe)
    out[small] = radius**2 / 2.0
    return out


# Bytes of padded (2N, 2N, columns) complex spectrum one slab of a Coulomb
# solve may hold: N=32, the ground flow's size, stays one slab; N=64 takes
# two and N=96 four.  The kernel build's axis-2 inverse holds as many bytes
# of real output per row block: N=32 stays one block, N=64 takes two
# and N=96 seven.
_SOLVE_SLAB_BYTES = 16 * 2**20


# Axis-2 columns of the (4N)^3 kernel spectrum evaluated and transformed
# together by one thread.  Timed over 16 builds at N=96 on 2 cores, serial:
# 4 was slowest, 8 and 16 tied within their quartiles.  Re-timed with two
# slab threads, 16 interleaved builds each, median [quartiles]: 8 took
# 113 [105-123] ms at N=64 and 396 [346-428] ms at N=96, 16 took
# 118 [111-126] and 418 [365-441] ms.  8 holds half the slab memory.
_KERNEL_SLAB = 8


def _kernel_build_plan(n: int) -> tuple[int, int]:
    """Threads of the kernel build's slab passes and rows per block of its
    axis-2 inverse at grid size n.

    One thread where the transforms take one worker; else as many as their
    worker count resolves to (a negative count is counted back from the CPU
    count, as scipy.fft does), at most one per slab.  The blocks are as few
    as _SOLVE_SLAB_BYTES of real output allows, of near-equal height."""
    workers = _fft_workers(n)
    if workers < 0:
        workers += 1 + (os.cpu_count() or 1)
    threads = max(1, min(workers, -(-(2 * n + 1) // _KERNEL_SLAB)))
    per_block = max(1, _SOLVE_SLAB_BYTES // (8 * 2 * n * 4 * n))
    rows = -(-2 * n // -(-2 * n // per_block))
    return threads, rows


def _kernel_build_bytes(n: int) -> int:
    """Peak bytes of one kernel build at grid size n, counting buffers as if
    alive together.  The pruned (2N, 2N, 2N+1) spectrum, which the kernel
    later overwrites, and the k_x <= k_y triangle's index and |k|^2 tables
    are counted throughout.  The slab passes add, per thread, the (4N, 2N+1)
    axis-0 input, the (2N, 4N) axis-1 input and the spectrum on the triangle
    with its two temporaries, each _KERNEL_SLAB columns wide.  Once those
    are freed, the axis-2 inverse adds one row block of its output, and the
    final transform its (2N, 2N, N+1) first pass.  The largest of the three
    additions is counted, and 64 KiB per thread for the interpreter's own
    objects."""
    n2, n4, h = 2 * n, 4 * n, 2 * n + 1
    tri = h * (h + 1) // 2
    threads, rows = _kernel_build_plan(n)
    slabs = threads * _KERNEL_SLAB * (16 * n4 * h + 16 * n2 * n4 + 17 * tri)
    inverse = max(8 * rows * n2 * n4, 16 * n2 * n2 * (n + 1))
    return 16 * n2 * n2 * h + 24 * tri + max(slabs, inverse) + threads * 2**16


@functools.cache
def _unit_kernel_hat(n: int) -> np.ndarray:
    """Effective kernel spectrum for the zero-padded (2N)^3 transform on the
    unit box (L = 1, T = sqrt(3)); read-only, built once per N.

    With T = sqrt(3) L the spectrum on a box of side L is exactly L^2 times
    this one, and ``coulomb`` applies that L^2 once, to its result.  The
    analytic truncated-kernel spectrum sampled straight onto the (2N)^3
    wavenumbers would periodize the kernel at period 2L, and those periodic
    images pollute every pair separated by more than (2 - sqrt(3)) L.
    Instead the kernel is rendered on the (4N)^3 grid, its real-space values
    on the difference range [-L, L)^3 are kept, and those are transformed
    back at size (2N)^3.  The resulting circular convolution with
    zero-padded data is the exact aperiodic sum over the box.  T = sqrt(3) L
    spans the box diagonal, and the (4N)^3 rendering is alias-free only for
    T < (4 - sqrt(3)) L, where the period 4L exceeds sqrt(3) L + T.

    The (4N)^3 inverse runs in irfftn's own order, axis 0, axis 1, then the
    real axis 2, each pass cut to the 2N kept offsets (0..N and -(N-1)..-1,
    two slice copies) before the next and the 1/(4N)^3 applied last: bit
    for bit the dense irfftn, without the (4N)^3 real array.

    The first two passes run one slab of axis-2 columns at a time, each
    slab's transforms on one worker.  Where the transforms take more than
    one worker (see _kernel_build_plan), the slabs are dealt round-robin to
    that many threads, the calling thread taking one share itself.  The
    calling thread allocates every thread's slab, part and spectrum buffers
    before the passes start and frees them after; the threads write disjoint
    columns of the pruned spectrum.  The axis-2 inverse then runs by blocks
    of rows, on all workers, each block's kept offsets copied straight into
    the kernel, which is laid over the rows of the pruned spectrum already
    inverted: the (2N)^2 4N real array is never made, nor a separate
    kernel.  The final rfftn runs as its three passes, in its order, so that
    the pruned spectrum's memory, kernel and all, is freed after the first.  Every 1-D line is
    transformed and copied exactly as by the dense irfftn and rfftn, so
    neither the threads, the blocks nor the passes move a bit.  Two
    symmetries are exact in floating point, so their values are copied, not
    recomputed:

    - fftfreq's negative wavenumbers are the exact negatives of the positive
      ones, so rows and columns 2N+1..4N-1 of the spectrum equal rows and
      columns 2N-1..1.  Only the k_y columns 0..2N are transformed on
      axis 0; the other columns of its output are copies.
    - k_x^2 + k_y^2 is symmetric bit for bit, since IEEE addition commutes,
      so the spectrum is evaluated for k_x <= k_y only and written to both
      triangles.

    The axis-1 pass, the irfft on axis 2 and the final rfftn are not
    mirrored: their values at offsets +r and -r are different outputs of
    one transform, which round differently.
    """
    n2, n4 = 2 * n, 4 * n
    k1 = 2.0 * np.pi * sfft.fftfreq(n4, d=1.0 / n)
    kr2 = (2.0 * np.pi * sfft.rfftfreq(n4, d=1.0 / n)) ** 2
    workers = _fft_workers(n)
    threads, rows = _kernel_build_plan(n)
    h = n2 + 1  # wavenumbers 0..2N; rows and columns h.. mirror 2N-1..1
    lo, hi = n + 1, n4 - n + 1  # kept offsets 0..N, then -(N-1)..-1
    ix, iy = np.triu_indices(h)  # k_x <= k_y
    kxy = k1[ix] ** 2 + k1[iy] ** 2
    pruned = np.empty((n2, n2, kr2.size), dtype=np.complex128)
    # Complex from the start: a real input takes pocketfft's real-input
    # path, which rounds differently from irfftn.
    buffers = [
        (
            np.empty((n4, h, _KERNEL_SLAB), dtype=np.complex128),
            np.empty((n2, n4, _KERNEL_SLAB), dtype=np.complex128),
            np.empty((ix.size, _KERNEL_SLAB)),
        )
        for _ in range(threads)
    ]

    def slab_passes(share: int) -> None:
        slab_buf, part_buf, tri_buf = buffers[share]
        for k0 in range(share * _KERNEL_SLAB, kr2.size, threads * _KERNEL_SLAB):
            cols = slice(k0, k0 + _KERNEL_SLAB)
            w = kr2[cols].size  # the last slab may be narrower
            slab, part, tri = slab_buf[..., :w], part_buf[..., :w], tri_buf[:, :w]
            # column by column: a broadcast add would stage its operands
            # through numpy's iterator buffers, 128 KiB per thread
            for j, kz2 in enumerate(kr2[cols]):
                np.add(kxy, kz2, out=tri[:, j])
            coulomb_kernel_spectrum(np.sqrt(tri, out=tri), np.sqrt(3.0), out=tri)
            slab[ix, iy] = tri
            slab[iy, ix] = tri
            slab[h:] = slab[h - 2 : 0 : -1]
            slab = sfft.ifft(slab, axis=0, norm="forward", overwrite_x=True, workers=1)
            # the mirror is copied from slab, not within part, which numpy
            # would stage through a temporary as the two views overlap
            part[:lo, :h] = slab[:lo]
            part[lo:, :h] = slab[hi:]
            part[:lo, h:] = slab[:lo, h - 2 : 0 : -1]
            part[lo:, h:] = slab[hi:, h - 2 : 0 : -1]
            part = sfft.ifft(part, axis=1, norm="forward", overwrite_x=True, workers=1)
            pruned[:, :lo, cols] = part[:, :lo]
            pruned[:, lo:, cols] = part[:, hi:]

    if threads == 1:
        slab_passes(0)
    else:
        with ThreadPoolExecutor(threads - 1) as pool:
            futures = [pool.submit(slab_passes, share) for share in range(1, threads)]
            slab_passes(0)
            for future in futures:
                future.result()
    del buffers, ix, iy, kxy
    # The kernel is written over the pruned spectrum's own memory: its row r
    # ends at byte 8 (2N)^2 (r+1), before pruned row r+1 starts at byte
    # 16 (2N) (2N+1) (r+1), so a block overwrites only rows already inverted.
    kernel = pruned.reshape(-1).view(np.float64)[: n2**3].reshape(n2, n2, n2)
    for r0 in range(0, n2, rows):
        block = sfft.irfft(pruned[r0 : r0 + rows], n=n4, axis=2, norm="forward", workers=workers)
        kernel[r0 : r0 + rows, :, :lo] = block[..., :lo]
        kernel[r0 : r0 + rows, :, lo:] = block[..., hi:]
        # free this block before the next one is allocated
        del block
    kernel *= 1.0 / n4**3
    # rfftn's passes, in its order, so that the spectrum's memory is freed
    # before the complex passes run in place
    khat = sfft.rfft(kernel, axis=2, workers=workers)
    del pruned, kernel
    khat = sfft.fft(khat, axis=0, overwrite_x=True, workers=workers)
    khat = sfft.fft(khat, axis=1, overwrite_x=True, workers=workers).real.copy()
    # Tiny negative excursions from windowing the periodized kernel are
    # clipped so the solve stays positive semidefinite mode-wise.
    np.maximum(khat, 0.0, out=khat)
    khat.flags.writeable = False
    return khat


class SpectralWorkspace:
    """Transform tables for one grid, and the package's one Coulomb solve.

    ``coulomb`` has no boundary policy: data near the edge of the box is
    solved as given.  A workspace holds only its grid and the ``k2`` table;
    the Coulomb kernel is the unit-box kernel, built once per N per process
    and shared read-only by every workspace of that N; each solve applies
    the box's L^2 once, at the end.  ``kernel_hat`` returns a fresh scaled
    copy, for inspection only.  The first solve per N builds the shared unit
    kernel, unguarded, so concurrent workers that reach an unbuilt N each
    build it.  Solves keep no scratch state, and fields are immutable (their
    values are read-only copies) and may move between threads freely.

    Its transforms, the Coulomb solve's included, run on ``workers``
    threads, fixed by N alone (see the module docstring); no result depends
    on that count.  ``fft``/``ifft`` transform complex data, ``rfft``/
    ``irfft`` real data, whose spectrum is the half ``k2[..., :N//2 + 1]``
    of the table.

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
        self.workers = _fft_workers(grid.n)

    @property
    def kernel_hat(self) -> np.ndarray:
        """Coulomb kernel spectrum on the padded grid: a fresh array on each
        access, L^2 times the shared unit kernel."""
        return self.grid.length**2 * _unit_kernel_hat(self.grid.n)

    def fft(self, values: np.ndarray) -> np.ndarray:
        return sfft.fftn(values, workers=self.workers)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        return sfft.ifftn(values, workers=self.workers)

    def rfft(self, values: np.ndarray) -> np.ndarray:
        """Spectrum of real grid data, of shape (N, N, N//2 + 1)."""
        return sfft.rfftn(values, workers=self.workers)

    def irfft(self, spectrum: np.ndarray) -> np.ndarray:
        """Real grid data of an (N, N, N//2 + 1) spectrum: the inverse of rfft."""
        return sfft.irfftn(spectrum, s=self.k2.shape, workers=self.workers)

    def coulomb(self, values: np.ndarray) -> np.ndarray:
        """(-Delta)^{-1} applied to real data: the free-space potential.

        The data is zero-padded to (2N)^3 and transformed one axis at a time
        in rfftn's order, starting with the real axis 2, which gives (N, N,
        N+1).  The axis-0 and axis-1 passes act on each k_z column alone, so
        they run one slab of k_z columns at a time, at most
        _SOLVE_SLAB_BYTES of padded spectrum: pad and transform axis 0, then
        axis 1; multiply in place by the slab's columns of the unit kernel;
        invert axis 0 and axis 1, each cut to its N kept outputs before the
        next; write the slab back.  Last come the inverse of axis 2 and one
        product by L^2/(2N)^3.  The result is irfftn(rfftn(pad) * unit,
        norm="forward") * L^2/(2N)^3 bit for bit, yet no transform runs over
        the all-zero rows and no full (2N)^2 (N+1) spectrum is made.  A
        power-of-two L^2 scales exactly, keeping the bits of the solve with
        ``kernel_hat``; any other L moves them by ulps.  Data of any shape
        but (N, N, N) raises ValueError."""
        self.grid.require_shape(values)
        n = self.grid.n
        n2 = 2 * n
        unit = _unit_kernel_hat(n)
        # as few slabs as the budget allows, of near-equal width
        per_slab = max(1, _SOLVE_SLAB_BYTES // (16 * n2 * n2))
        width = -(-(n + 1) // -(-(n + 1) // per_slab))
        vhat = sfft.rfft(values, n=n2, axis=2, workers=self.workers)
        for k0 in range(0, n + 1, width):
            cols = slice(k0, k0 + width)
            part = sfft.fft(vhat[:, :, cols], n=n2, axis=0, workers=self.workers)
            part = sfft.fft(part, n=n2, axis=1, workers=self.workers)
            part *= unit[:, :, cols]
            part = sfft.ifft(part, axis=0, norm="forward", overwrite_x=True, workers=self.workers)
            part = sfft.ifft(part[:n], axis=1, norm="forward", overwrite_x=True, workers=self.workers)
            vhat[:, :, cols] = part[:, :n]
            # part is a view of the whole (2N, 2N) slab: free it before the
            # next slab's passes allocate theirs
            del part
        v = sfft.irfft(vhat, n=n2, axis=2, norm="forward", overwrite_x=True, workers=self.workers)
        return v[..., :n] * (self.grid.length**2 / n2**3)


def lp_norm(values: np.ndarray, p: float, grid: Grid3) -> float:
    """(integral |f|^p)^{1/p} for samples of f on grid."""
    if not (1.0 <= p < np.inf):
        raise ValueError(f"lp_norm requires a finite p >= 1, got {p}")
    grid.require_shape(values)
    mag = np.abs(values)
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


def x_dot_grad(values: np.ndarray, grid: Grid3) -> np.ndarray:
    """x . grad f for real samples f on grid, by spectral differentiation:
    one forward transform and one inverse per axis.  The derivative is that
    of the periodic interpolant with its Nyquist modes dropped, so f should
    be smooth where the result is weighted."""
    grid.require_shape(values)
    workers = _fft_workers(grid.n)
    fhat = sfft.rfftn(values, workers=workers)
    k = grid.wavenumbers()
    kz = 2.0 * np.pi * sfft.rfftfreq(grid.n, d=grid.spacing)
    k[grid.n // 2] = kz[-1] = 0.0
    x, y, z = grid.coords()

    def derivative(ik: np.ndarray) -> np.ndarray:
        return sfft.irfftn(ik * fhat, s=values.shape, workers=workers)

    return x * derivative(1j * k[:, None, None]) + y * derivative(1j * k[None, :, None]) + z * derivative(1j * kz)


def boundary_mass_fraction(values: np.ndarray) -> float:
    """Fraction of sum(|values|) carried by the outer two-cell shell."""
    mag = np.abs(values)
    total = float(mag.sum())
    if total == 0.0:
        return 0.0
    interior = float(mag[2:-2, 2:-2, 2:-2].sum())
    return (total - interior) / total
