"""Oracles shared between unit and acceptance tests: a brute-force Coulomb
sum, the continuum surface form of A3 for ball indicators, the radial
free-space floor of -Delta + V, and the radial free-space critical mass mu*.

These deliberately avoid the FFT code paths they are used to check.
"""

import numpy as np
from scipy.fft import dst
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize


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


def radial_mu_star(p, e, R, M, r0):
    """mu* = inf mu*(u) for rho = 0 (the quotient of minimize._Quotient) over
    radial u on the ball of radius R, with no FFT box: v = r u on the M - 1
    interior nodes of M equal intervals, v(0) = v(R) = 0.

    The kinetic term is that of v's sine series, by DST-I with
    kappa_k = k pi / R.  A1 = 1/8 int_0^inf Q^2 / (4 pi r^2) dr by the shell
    theorem, with the charge Q(r) = 4 pi int_0^r v^2 by the trapezoid rule,
    Q = Q(R) beyond R, and the outer integral by the trapezoid rule too.
    L-BFGS-B minimizes log mu*(u) + 10 (log(rms radius / r0))^2, the
    quotient with its gauge, in y, with v = DST(y / sqrt(1 + kappa^2)), from
    the Gaussian whose rms radius is r0."""
    h = R / M
    r = h * np.arange(1, M)
    kappa = np.pi * np.arange(1, M) / R
    precond = 1.0 / np.sqrt(1.0 + kappa**2)
    q, c, w = 1.5 * (p - 1.0), 0.5 / (p - 2.0), 4.0 * np.pi * h
    # trapezoid weights of 1/8 int Q^2 / (4 pi r^2) at r_1 .. r_M, with the tail beyond R
    weights = np.append(np.full(M - 1, h) / r**2, 0.5 * h / R**2 + 1.0 / R) / (32.0 * np.pi)

    def quotient(v):
        """(log mu*(u), the value with its gauge, the value's gradient in v)."""
        g = v * v
        charge = w * np.append(np.cumsum(g) - 0.5 * g, np.sum(g))
        a1 = float(weights @ charge**2)
        dcharge = 2.0 * weights * charge
        # the trapezoid sum's transpose: dA1/dg_i = w (sum_{j >= i} dcharge_j - dcharge_i / 2)
        da1 = 2.0 * w * (np.cumsum(dcharge[::-1])[::-1][:-1] - 0.5 * dcharge[:-1]) * v
        a = dst(v, type=1, norm="ortho")
        mass, kin = w * float(np.sum(g)), w * float(kappa**2 @ a**2)
        power = w * float(r ** (1.0 - p) @ np.abs(v) ** (p + 1.0))
        moment = w * float(r**2 @ g)
        log_c = (2.0 - q) * np.log(e**2 * a1 / (2.0 - q)) + (1.0 - q) * np.log(2.0 * (q - 1.0) / kin)
        log_mu = np.log(mass) + c * (log_c + np.log((p + 1.0) / power))
        ell = 0.5 * np.log(moment / (mass * r0**2))
        grad = c * (
            (2.0 - q) * da1 / a1
            + (q - 1.0) * 2.0 * w * dst(kappa**2 * a, type=1, norm="ortho") / kin
            - (p + 1.0) * w * r ** (1.0 - p) * np.abs(v) ** (p - 1.0) * v / power
        )
        grad += 2.0 * w * v / mass + 20.0 * ell * w * (r**2 / moment - 1.0 / mass) * v
        return log_mu, log_mu + 10.0 * ell**2, grad

    def objective(y):
        _, value, grad = quotient(dst(precond * y, type=1, norm="ortho"))
        return value, precond * dst(grad, type=1, norm="ortho")

    v0 = r * np.exp(-0.75 * r**2 / r0**2)  # exp(-r^2 / (2 width^2)), width = r0 sqrt(2/3)
    v0 *= np.sqrt(100.0 / (w * float(v0 @ v0)))  # mass 100, as in mu_star's flow
    options = {"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12}
    y = minimize(objective, dst(v0, type=1, norm="ortho") / precond, jac=True, method="L-BFGS-B", options=options).x
    return float(np.exp(quotient(dst(precond * y, type=1, norm="ortho"))[0]))
