"""Oracles shared between unit and acceptance tests: a brute-force Coulomb
sum, the continuum surface form of A3 for ball indicators, and the radial
free-space floor of -Delta + V.

These deliberately avoid the FFT code paths they are used to check.
"""

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh_tridiagonal


def direct_coulomb_sum(grid, f):
    """O(N^6) summation of the cell-mollified Coulomb kernel.

    The kernel weight for a pair of nodes is the average of 1/(4 pi |s|)
    over the source cell (8-point Gauss for far cells, fine midpoint with an
    analytic ball excision near the singularity), plus the h^2/24 sharpening
    that cancels the piecewise-constant reconstruction bias of the source.
    """
    h = grid.spacing
    x1 = grid.axis_coords()
    pts = np.stack(np.meshgrid(x1, x1, x1, indexing="ij"), axis=-1).reshape(-1, 3)
    diff = pts[:, None, :] - pts[None, :, :]
    ioff = np.rint(diff / h).astype(int)

    q = h / (2.0 * np.sqrt(3.0))
    w = np.zeros(diff.shape[:2])
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                d = np.sqrt(np.sum((diff + np.array([sx * q, sy * q, sz * q])) ** 2, axis=-1))
                w += 1.0 / (4.0 * np.pi * d)
    w /= 8.0

    m = 24
    sub = (np.arange(m) + 0.5) / m - 0.5
    sx, sy, sz = np.meshgrid(sub, sub, sub, indexing="ij")
    a = h / 4.0
    cache = {}
    near_i, near_j = np.where(np.max(np.abs(ioff), axis=-1) <= 2)
    for i, j in zip(near_i, near_j):
        key = tuple(ioff[i, j])
        if key not in cache:
            px = (key[0] + sx) * h
            py = (key[1] + sy) * h
            pz = (key[2] + sz) * h
            r = np.sqrt(px**2 + py**2 + pz**2)
            if key == (0, 0, 0):
                val = np.where(r < a, 0.0, 1.0 / (4.0 * np.pi * np.maximum(r, 1e-300)))
                cache[key] = val.mean() + (a**2 / 2.0) / h**3
            else:
                cache[key] = (1.0 / (4.0 * np.pi * r)).mean()
        w[i, j] = cache[key]

    v = (w * h**3) @ f.reshape(-1) + (h**2 / 24.0) * f.reshape(-1)
    return v.reshape(f.shape)


def _sphere_quadrature(n_theta, n_phi):
    """Gauss-Legendre x trapezoid product rule on the unit sphere.

    Returns unit direction vectors (m, 3) and weights summing to 4 pi.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)  # nodes = cos(theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    ct = np.repeat(nodes, n_phi)
    st = np.sqrt(1.0 - ct**2)
    ph = np.tile(phi, n_theta)
    dirs = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=-1)
    weights = np.repeat(wts, n_phi) * (2.0 * np.pi / n_phi)
    return dirs, weights


def _trilinear(values, grid, points):
    """Trilinear interpolation at points strictly inside the box."""
    fi = (points + grid.length / 2.0) / grid.spacing
    i0 = np.floor(fi).astype(int)
    frac = fi - i0
    if np.any(i0 < 0) or np.any(i0 + 1 > grid.n - 1):
        raise ValueError("interpolation point outside the grid box")
    out = np.zeros(len(points))
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (
                    (frac[:, 0] if dx else 1.0 - frac[:, 0])
                    * (frac[:, 1] if dy else 1.0 - frac[:, 1])
                    * (frac[:, 2] if dz else 1.0 - frac[:, 2])
                )
                out += w * values[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
    return out


def a3_boundary(s1, grid, balls, n_theta=32, n_phi=64):
    """Continuum reference for A3 = 1/2 int S1 x.grad rho of a union of ball
    indicators, by the divergence theorem a surface integral:

        -(1/2) sum_i alpha_i  surf_int_{|x-c_i|=R_i}  S1 (x . n) dS,

    with S1 interpolated trilinearly from its samples s1 on grid onto
    n_theta x n_phi nodes per sphere.
    """
    dirs, weights = _sphere_quadrature(n_theta, n_phi)
    total = 0.0
    for ball in balls:
        pts = np.asarray(ball.center) + ball.radius * dirs
        s1_at = _trilinear(s1, grid, pts)
        x_dot_n = np.einsum("ij,ij->i", pts, dirs)
        integral = float(np.sum(weights * s1_at * x_dot_n)) * ball.radius**2
        total += -0.5 * ball.amplitude * integral
    return total


def radial_floor(potential, R, M):
    """Lowest eigenvalue of -u'' + V u = lambda u on (0, R), u(0) = u(R) = 0,
    by second-order differences on M intervals.  With u = r psi it is the
    lowest eigenvalue of -Delta + V on the ball of radius R for a radial V,
    with no FFT box; potential(r) returns V at the radii r."""
    h = R / M
    r = h * np.arange(1, M)
    diag, off = 2.0 / h**2 + potential(r), np.full(M - 2, -1.0 / h**2)
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0])


def shell_s2(rho, r):
    """S2 = (-Delta)^{-1}(-rho/2) of a radial rho at the increasing radii r,
    by the shell theorem: G*rho(r) = (1/r) int_0^r rho s^2 ds + int_r^inf rho s ds,
    both by the trapezoid rule on [0, r], the outer one cut at r[-1]."""
    s = np.concatenate(([0.0], r))
    inner = cumulative_trapezoid(rho(s) * s**2, s, initial=0.0)[1:]
    outer = cumulative_trapezoid(rho(s) * s, s, initial=0.0)
    return -0.5 * (inner / r + outer[-1] - outer[1:])
