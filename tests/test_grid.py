"""Grid module: quadrature, spectral operators, free-space Coulomb solve.

Expected values are closed forms (Gaussian moments, erf potential, plane
waves) or brute-force oracles (direct kernel summation).
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.special import erf

from spwaves.energy import Evaluation
from spwaves.grid import (
    ComplexField,
    Grid3,
    SpectralWorkspace,
    _kernel_build_bytes,
    _kernel_build_plan,
    _unit_kernel_hat,
    boundary_mass_fraction,
    coulomb_kernel_spectrum,
    lp_norm,
    x_dot_grad,
)

from conftest import smooth_random_complex


@pytest.fixture(scope="module")
def ws32_box24():
    return SpectralWorkspace(Grid3(32, 24.0))


def gaussian(grid, width=1.0):
    return np.exp(-grid.radius_sq() / (2.0 * width**2))


def dense_kernel_hat(grid):
    """The kernel build on the full (4N)^3 grid: render the kernel truncated
    at sqrt(3) L with one irfftn, keep its values on [-L, L)^3, transform
    back."""
    n, h = grid.n, grid.spacing
    radius = np.sqrt(3.0) * grid.length
    n4 = 4 * n
    k1 = 2.0 * np.pi * sfft.fftfreq(n4, d=h)
    kr = 2.0 * np.pi * sfft.rfftfreq(n4, d=h)
    kmag = np.sqrt((k1**2)[:, None, None] + (k1**2)[None, :, None] + (kr**2)[None, None, :])
    w4 = sfft.irfftn(coulomb_kernel_spectrum(kmag, radius), s=(n4, n4, n4))
    idx = np.r_[0 : n + 1, n4 - n + 1 : n4]
    khat = sfft.rfftn(w4[np.ix_(idx, idx, idx)].copy()).real
    return np.maximum(khat, 0.0)


class TestGrid3:
    def test_spacing_times_n_is_length(self):
        g = Grid3(48, 16.0)
        assert g.spacing * g.n == g.length

    def test_wavenumber_layout(self):
        g = Grid3(16, 8.0)
        k = g.wavenumbers()
        kmax = np.pi * g.n / g.length
        assert k.min() == -kmax
        assert k.max() < kmax
        assert k[0] == 0.0

    @pytest.mark.parametrize("n", [7, 6, 0, 15, 32.0, 32.5, "32", None])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ValueError, match="grid size"):
            Grid3(n, 8.0)

    @pytest.mark.parametrize("n", [np.int32(16), np.int64(16)])
    def test_numpy_integer_size_is_stored_as_int(self, n):
        grid = Grid3(n, 8.0)
        assert grid == Grid3(16, 8.0) and type(grid.n) is int

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            Grid3(16, -1.0)


class TestFields:
    def test_shape_mismatch_rejected(self, grid32):
        with pytest.raises(ValueError, match="shape"):
            ComplexField(grid32, np.zeros((8, 8, 8), dtype=complex))

    def test_nan_rejected(self, grid32):
        vals = np.zeros((32, 32, 32), dtype=complex)
        vals[0, 0, 0] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            ComplexField(grid32, vals)


class TestLpNorm:
    def test_constant_field(self, grid32):
        assert abs(lp_norm(np.ones((32,) * 3), 2.0, grid32) - (grid32.length**3) ** 0.5) < 1e-12

    def test_gaussian_l2(self, grid64):
        exact = np.pi**0.75
        assert abs(lp_norm(gaussian(grid64), 2.0, grid64) - exact) / exact < 1e-10

    def test_unit_ball_l65(self, grid64):
        ball = (grid64.radius_sq() <= 1.0).astype(float)
        exact = (4.0 * np.pi / 3.0) ** (5.0 / 6.0)
        assert abs(lp_norm(ball, 1.2, grid64) - exact) / exact < 0.05

    def test_p_below_one_rejected(self, grid32):
        with pytest.raises(ValueError):
            lp_norm(np.ones((32,) * 3), 0.5, grid32)

    def test_array_of_another_grid_rejected(self, grid32, grid64):
        with pytest.raises(ValueError, match="shape"):
            lp_norm(gaussian(grid64), 2.0, grid32)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_p_that_is_not_finite_is_rejected(self, grid32, p):
        with pytest.raises(ValueError, match="finite p >= 1"):
            lp_norm(np.ones((32,) * 3), p, grid32)


class TestXDotGrad:
    def test_gaussian_closed_form(self, grid64):
        # x . grad exp(-r^2/2) = -r^2 exp(-r^2/2); the error is 8.1e-13
        r2 = grid64.radius_sq()
        f = np.exp(-r2 / 2.0)
        assert np.max(np.abs(x_dot_grad(f, grid64) + r2 * f)) < 1e-11

    def test_array_of_another_grid_rejected(self, grid32, grid64):
        with pytest.raises(ValueError, match="shape"):
            x_dot_grad(gaussian(grid64), grid32)


class TestGradNormSq:
    def test_constant(self, ws32):
        assert Evaluation(np.ones((32,) * 3, dtype=complex), ws32).grad_sq < 1e-12

    def test_plane_wave_parseval(self, grid32, ws32):
        kvec = 2.0 * np.pi / grid32.length * np.array([2.0, 0.0, -3.0])
        x, y, z = grid32.coords()
        wave = np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z))
        got = Evaluation(wave, ws32).grad_sq
        expected = np.dot(kvec, kvec) * grid32.length**3
        assert abs(got - expected) / expected < 1e-12

    def test_gaussian_moment(self, grid64, ws64):
        exact = 1.5 * np.pi**1.5
        assert abs(Evaluation(gaussian(grid64).astype(complex), ws64).grad_sq - exact) / exact < 1e-10

    def test_matches_explicit_gradient(self, grid32, ws32, rng):
        u = smooth_random_complex(grid32, rng)
        via_parseval = Evaluation(u, ws32).grad_sq
        uhat = ws32.fft(u)
        k1 = grid32.wavenumbers()
        parts = [ws32.ifft(1j * k1.reshape(s) * uhat) for s in [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]]
        via_fields = sum(np.sum(p.real**2 + p.imag**2) * grid32.cell_volume for p in parts)
        assert abs(via_parseval - via_fields) / via_fields < 1e-10


class TestCoulombSolve:
    def test_zero_source(self, ws32):
        assert np.max(np.abs(ws32.coulomb(np.zeros((32,) * 3)))) < 1e-14

    @pytest.mark.parametrize("shape", [(16, 16, 18), (16, 16, 8), (16, 16, 32), (8, 16, 16), (16, 16)])
    def test_data_that_is_not_of_the_grid_shape_is_rejected(self, shape):
        # short or missing zero padding would wrap the data around
        ws = SpectralWorkspace(Grid3(16, 8.0))
        with pytest.raises(ValueError, match="does not match grid"):
            ws.coulomb(np.ones(shape))

    def test_gaussian_erf_profile(self, grid64, ws64):
        # f = |g|^2/2 for g = exp(-r^2/2): potential is (sqrt(pi)/8) erf(r)/r.
        r = np.sqrt(grid64.radius_sq())
        v = ws64.coulomb(np.exp(-(r**2)) / 2.0)
        with np.errstate(invalid="ignore"):
            exact = (np.sqrt(np.pi) / 8.0) * erf(r) / np.where(r == 0.0, 1.0, r)
        exact[r == 0.0] = 0.25
        rel = np.abs(v - exact) / np.abs(exact)
        assert v[r == 0.0][0] == pytest.approx(0.25, abs=1e-9)
        assert np.max(rel) < 1e-6

    def test_uniform_ball_center(self, grid64, ws64):
        ball = (grid64.radius_sq() <= 1.0).astype(float)
        v = ws64.coulomb(-0.5 * ball)
        r = np.sqrt(grid64.radius_sq())
        assert v[r == 0.0][0] == pytest.approx(-0.25, rel=0.05)

    def test_direct_sum_cross_check(self):
        from oracles import direct_coulomb_sum

        grid = Grid3(12, 12.0)
        ws = SpectralWorkspace(grid)
        f = np.exp(-grid.radius_sq() / (2.0 * 2.2**2))
        v_fft = ws.coulomb(f)
        v_direct = direct_coulomb_sum(grid, f)
        scale = np.max(np.abs(v_direct))
        assert np.max(np.abs(v_fft - v_direct)) / scale < 1e-3

    def test_self_adjoint(self, grid32, ws32, rng):
        a = smooth_random_complex(grid32, rng).real
        b = smooth_random_complex(grid32, rng).real
        dv = grid32.cell_volume
        lhs = (np.vdot(ws32.coulomb(a), b) * dv).real
        rhs = (np.vdot(a, ws32.coulomb(b)) * dv).real
        assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_positivity_random_fields(self, grid24, ws24, rng):
        for _ in range(20):
            f = rng.standard_normal((24,) * 3)
            assert (np.vdot(ws24.coulomb(f), f) * grid24.cell_volume).real >= -1e-12

    @pytest.mark.parametrize("ws_name", ["ws24", "ws32", "ws32_box24", "ws64"])
    def test_pruned_transforms_equal_dense_padded_solve(self, ws_name, request, rng):
        # The axis-wise, slab-wise transforms skip the zero half of the padded
        # input and the discarded outputs, and must still give the dense
        # result bit for bit.  N=24 pads to 48, which is not a power of two;
        # L=24 makes L^2 inexact; N=64 runs in two slabs.
        ws = request.getfixturevalue(ws_name)
        n, length = ws.grid.n, ws.grid.length
        f = rng.standard_normal((n,) * 3)
        pad = np.zeros((2 * n,) * 3)
        pad[:n, :n, :n] = f
        dense = sfft.irfftn(sfft.rfftn(pad) * _unit_kernel_hat(n), s=pad.shape, norm="forward")
        assert np.array_equal(ws.coulomb(f), dense[:n, :n, :n] * (length**2 / (2 * n) ** 3))

    def test_box_scales_the_unit_solve_by_length_squared(self, rng):
        # L^2 is applied once, to the result: exact for a power-of-two L^2,
        # within rounding otherwise (N=24 makes L^2/(2N)^3 inexact at L=24)
        f = rng.standard_normal((24,) * 3)
        unit = SpectralWorkspace(Grid3(24, 1.0)).coulomb(f)
        assert np.array_equal(SpectralWorkspace(Grid3(24, 16.0)).coulomb(f), 256.0 * unit)
        v24 = SpectralWorkspace(Grid3(24, 24.0)).coulomb(f)
        assert not np.array_equal(v24, 576.0 * unit)
        assert np.max(np.abs(v24 / (576.0 * unit) - 1.0)) <= 1e-15

    def test_solve_transient_is_bounded_by_its_slabs(self, ws64, rng):
        # One full (2N)^2 (N+1) padded spectrum is 17 MB at N=64, and a solve
        # that transforms it whole peaks at 28 MiB; in two slabs the whole
        # transient, result included, stays below 20 MiB.
        f = rng.standard_normal((64,) * 3)
        ws64.coulomb(f)  # builds the shared unit kernel outside the trace
        tracemalloc.start()
        try:
            ws64.coulomb(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_workspace_keeps_no_kernel_after_a_solve(self, ws64, rng):
        f = rng.standard_normal((64,) * 3)
        ws64.coulomb(f)  # builds the shared unit kernel outside the trace
        tracemalloc.start()
        try:
            ws = SpectralWorkspace(Grid3(64, 24.0))
            v = ws.coulomb(f)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # what stays is the k2 table and the potential, each N^3 floats
        assert ws.k2.nbytes + v.nbytes <= held < _unit_kernel_hat(64).nbytes

    def test_laplacian_residual_interior(self, grid64, ws64):
        # Checked on the padded representation: there the kernel's image
        # sheets sit in the pad region, so minus the Laplacian of the
        # potential recovers the source everywhere in the original box.
        f = gaussian(grid64)
        n = grid64.n
        pad = np.zeros((2 * n,) * 3)
        pad[:n, :n, :n] = f
        v_pad = sfft.irfftn(sfft.rfftn(pad) * ws64.kernel_hat, s=pad.shape)
        k2_pad = Grid3(2 * n, 2.0 * grid64.length).wavenumber_sq()
        res = sfft.ifftn(k2_pad * sfft.fftn(v_pad)).real
        m = 2
        err = np.abs(res[m : n - m, m : n - m, m : n - m] - f[m : n - m, m : n - m, m : n - m])
        assert np.max(err) / np.max(np.abs(f)) < 1e-6

    def test_kernel_spectrum_values(self, ws32):
        t = np.sqrt(3.0) * ws32.grid.length
        assert coulomb_kernel_spectrum(np.array(0.0), t) == t**2 / 2.0
        k = np.linspace(0.0, 40.0, 1000)
        assert np.all(coulomb_kernel_spectrum(k, t) >= 0.0)
        assert np.all(ws32.kernel_hat >= 0.0)

    def test_translation_covariance(self, grid32, ws32):
        g = gaussian(grid32)
        shift = (3, -5, 2)
        v0 = ws32.coulomb(g)
        vs = ws32.coulomb(np.roll(g, shift, axis=(0, 1, 2)))
        rolled = np.roll(v0, shift, axis=(0, 1, 2))
        # Exact only where the rolled potential does not wrap mass across
        # the boundary; the Gaussian is centred so interior nodes are clean.
        n = grid32.n
        sl = slice(n // 4, 3 * n // 4)
        err = np.abs(vs[sl, sl, sl] - rolled[sl, sl, sl])
        assert np.max(err) < 1e-4 * np.max(np.abs(v0))


class TestKernel:
    # N=8 and N=10 are the mirrors' edge cases: at N=10 the last slab of
    # k_z columns is ragged and 4N is not a power of two.
    @pytest.mark.parametrize("n", [8, 10, 16, 24, 32])
    def test_pruned_build_equals_dense_build(self, n):
        assert np.array_equal(_unit_kernel_hat(n), dense_kernel_hat(Grid3(n, 1.0)))

    @pytest.mark.parametrize("length", [8.0, 16.0])
    def test_scaled_kernel_equals_dense_build_on_power_of_two_boxes(self, length):
        ws = SpectralWorkspace(Grid3(32, length))
        assert np.array_equal(ws.kernel_hat, dense_kernel_hat(ws.grid))

    def test_scaled_kernel_matches_dense_build(self):
        ws = SpectralWorkspace(Grid3(32, 12.0))
        dense = dense_kernel_hat(ws.grid)
        assert np.max(np.abs(ws.kernel_hat - dense)) <= 1e-15 * np.max(dense)

    def test_one_build_per_grid_size(self):
        # N=20 is built by no other test, so its first use here misses once.
        before = _unit_kernel_hat.cache_info()
        small, large = SpectralWorkspace(Grid3(20, 8.0)), SpectralWorkspace(Grid3(20, 24.0))
        assert np.array_equal(large.kernel_hat, 9.0 * small.kernel_hat)
        after = _unit_kernel_hat.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert not _unit_kernel_hat(20).flags.writeable

    @pytest.mark.parametrize(
        "n, threaded",
        [(24, False), (32, False), (24, True), (32, True)],
        ids=["24", "32", "24-threaded", "32-threaded"],
    )
    def test_build_peak_is_within_the_estimate(self, n, threaded, monkeypatch):
        # tracemalloc sees the numpy buffers every thread allocates
        if threaded:
            monkeypatch.setattr("spwaves.grid._fft_workers", lambda size: -1)
        tracemalloc.start()
        try:
            _unit_kernel_hat.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = _kernel_build_bytes(n)
        assert 0.75 * estimate < peak <= estimate

    def test_build_and_solve_do_not_depend_on_the_worker_count(self, monkeypatch, rng):
        # The mirrors copy one transform's output for another's, and the
        # worker count follows the grid size; both hold only if a 1-D
        # transform's bits do not depend on how the batch is split between
        # threads, and the threaded build only if its slabs' bits do not
        # depend on the thread that transforms them.  One worker and all
        # workers are forced at each size; at N=10 the 21 k_z columns make
        # slabs of 8, 8 and 5.
        for n in (10, 16, 32):
            f = rng.standard_normal((n,) * 3)
            runs = []
            for workers in (1, -1):
                monkeypatch.setattr("spwaves.grid._fft_workers", lambda size, w=workers: w)
                ws = SpectralWorkspace(Grid3(n, 8.0))
                assert ws.workers == workers
                fhat = ws.rfft(f)
                runs.append(
                    (_unit_kernel_hat.__wrapped__(n), ws.coulomb(f), ws.fft(f), ws.ifft(f), fhat, ws.irfft(fhat))
                )
            for one, every in zip(*runs):
                assert np.array_equal(one, every)
            assert np.array_equal(runs[1][0], dense_kernel_hat(Grid3(n, 1.0)))

    def test_threaded_build_runs_each_share_on_its_own_thread_and_leaves_none(self, monkeypatch):
        # N=16 has 33 k_z columns, five slabs: up to five threads, the
        # calling one among them, and every one of them joined at the end.
        monkeypatch.setattr("spwaves.grid._fft_workers", lambda size: -1)
        threads = _kernel_build_plan(16)[0]
        assert threads == min(os.cpu_count() or 1, 5)
        idents = set()
        ifft = sfft.ifft

        def recorded(*args, **kwargs):
            idents.add(threading.get_ident())
            return ifft(*args, **kwargs)

        monkeypatch.setattr(sfft, "ifft", recorded)
        before = threading.active_count()
        _unit_kernel_hat.__wrapped__(16)
        assert threading.active_count() == before
        assert len(idents) == threads and threading.get_ident() in idents
        # a pool kept from an earlier build would be counted in before too:
        # no thread that ran a share may still be alive
        assert not idents & {t.ident for t in threading.enumerate() if t is not threading.current_thread()}

    def test_grid_too_large_for_memory_fails_before_allocating(self):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError) as err:
                SpectralWorkspace(Grid3(4096, 16.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{_kernel_build_bytes(4096)} bytes" in str(err.value)
        assert f"{physical} bytes" in str(err.value)
        assert peak < 2**20


class TestRoundTrip:
    def test_fft_round_trip(self, grid32, ws32, rng):
        vals = rng.standard_normal((32,) * 3) + 1j * rng.standard_normal((32,) * 3)
        back = ws32.ifft(ws32.fft(vals))
        assert np.max(np.abs(back - vals)) / np.max(np.abs(vals)) < 1e-12

    @pytest.mark.parametrize("n", [10, 32])
    def test_rfft_round_trip(self, n, rng):
        ws = SpectralWorkspace(Grid3(n, 8.0))
        vals = rng.standard_normal((n,) * 3)
        back = ws.irfft(ws.rfft(vals))
        assert back.shape == vals.shape and back.dtype == np.float64
        assert np.max(np.abs(back - vals)) / np.max(np.abs(vals)) < 1e-12

    def test_rfft_is_the_half_spectrum_of_fft(self, ws32, rng):
        vals = rng.standard_normal((32,) * 3)
        full = ws32.fft(vals)
        assert np.max(np.abs(ws32.rfft(vals) - full[..., :17])) / np.max(np.abs(full)) < 1e-12

    @pytest.mark.parametrize("n", [10, 32])
    def test_half_of_the_k2_table_is_the_rfft_table(self, n):
        # the last column of the half, k_z = -pi N/L in fftfreq's layout, is
        # +pi N/L in rfftfreq's, and their squares agree exactly
        grid = Grid3(n, 6.0)
        k = grid.wavenumbers()
        kz = 2.0 * np.pi * sfft.rfftfreq(n, d=grid.spacing)
        half = (k**2)[:, None, None] + (k**2)[None, :, None] + (kz**2)[None, None, :]
        assert np.array_equal(SpectralWorkspace(grid).k2[..., : n // 2 + 1], half)


class TestBoundaryMass:
    def test_centered_gaussian_clean(self, grid64):
        assert boundary_mass_fraction(gaussian(grid64)) < 1e-8

    def test_uniform_flagged(self, grid32):
        assert boundary_mass_fraction(np.ones((32,) * 3)) > 0.3

    def test_zero_array_has_no_boundary_mass(self):
        assert boundary_mass_fraction(np.zeros((16,) * 3)) == 0.0
