"""References for the benchmark checks, written apart from the vlasov_ap package.

Nothing here imports vlasov_ap: the checks compare the program's outputs with
these formulas, so a fault in the program cannot hide in its own reference.

* ``exact_linear`` solves linear mode exactly.  The characteristics of

      df/dt + (v/eps) df/dr + (a(t/eps) r - r/eps) df/dv = 0

  obey the 2x2 Hill system r' = v/eps, v' = (a(t/eps) - 1/eps) r, whose
  fundamental matrix Phi(t) is integrated once with DOP853.  Then
  f(t, z) = f0(Phi(t)^-1 z) and the filtered field is
  f~(t, xi) = f0(Phi(t)^-1 e^{J t/eps} xi): no phase-space grid and no
  interpolation enter.
* ``limit_model`` and ``second_order_model`` are the closed-form asymptotic
  models for the cos2sq tension (rotation rate 1/4, and 1/4 + 5 eps/192 with
  the drift matrices D0 and D1(tau)).
* ``splitting_poisson`` is a Strang splitting of the unfiltered equation with
  the radial self-field, on a periodic box with spectral shifts, mapped to the
  filtered frame with cubic splines.

Grids follow the program's convention: n nodes -xi_max + i * 2 xi_max / n,
xi1 (or r) along axis 0.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.ndimage import map_coordinates
from scipy.special import erf


def tension(tau):
    """The workloads' lattice tension a(tau) = cos^2(2 tau)."""
    return np.cos(2.0 * tau) ** 2


def tension_primitive(tau):
    return 0.5 * tau + np.sin(4.0 * tau) / 8.0


def nodes(n: int, xi_max: float) -> np.ndarray:
    return -xi_max + (2.0 * xi_max / n) * np.arange(n)


def mesh(n: int, xi_max: float):
    x = nodes(n, xi_max)
    return np.meshgrid(x, x, indexing="ij")


def beam(r, v, alpha, edge, width):
    """f0(r, v) = 4/sqrt(2 pi alpha) * (erf((r+edge)/width) - erf((r-edge)/width))/2 * exp(-v^2/(2 alpha))."""
    chi = 0.5 * (erf((r + edge) / width) - erf((r - edge) / width))
    return 4.0 / np.sqrt(2.0 * np.pi * alpha) * chi * np.exp(-(v ** 2) / (2.0 * alpha))


def rotation(theta: float) -> np.ndarray:
    """e^{J theta} with J = [[0, 1], [-1, 0]]: maps xi to the lab frame (r, v)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def fundamental_matrix(t: float, eps: float, a) -> np.ndarray:
    """Phi(t) of r' = v/eps, v' = (a(t/eps) - 1/eps) r with Phi(0) = I; a is the tension."""
    if t == 0.0:
        return np.eye(2)

    def rhs(s, y):
        p = y.reshape(2, 2)
        return np.array(
            [p[1] / eps, (a(s / eps) - 1.0 / eps) * p[0]]
        ).ravel()

    sol = solve_ivp(
        rhs, (0.0, t), np.eye(2).ravel(), method="DOP853", rtol=1e-12, atol=1e-12
    )
    if not sol.success:
        raise RuntimeError(f"Hill system integration failed: {sol.message}")
    return sol.y[:, -1].reshape(2, 2)


def _compose(m: np.ndarray, x1, x2):
    return m[0, 0] * x1 + m[0, 1] * x2, m[1, 0] * x1 + m[1, 1] * x2


def exact_linear(t: float, eps: float, n: int, xi_max: float, beam_params: dict):
    """Filtered linear-mode solution f~(t, xi) on the n x n grid."""
    x1, x2 = mesh(n, xi_max)
    m = np.linalg.solve(fundamental_matrix(t, eps, tension), rotation(t / eps))
    return beam(*_compose(m, x1, x2), **beam_params)


def limit_model(t: float, n: int, xi_max: float, beam_params: dict):
    """Leading-order model f0(e^{J t/4} xi)."""
    x1, x2 = mesh(n, xi_max)
    return beam(*_compose(rotation(0.25 * t), x1, x2), **beam_params)


def second_order_model(t: float, eps: float, n: int, xi_max: float, beam_params: dict):
    """First-order-in-eps model f0((I - eps D0) e^{J omega t} (I - eps D1(t/eps)) xi)."""
    tau = (t / eps) % (2.0 * np.pi)
    c2, c6 = np.cos(2 * tau), np.cos(6 * tau)
    s2, s4, s6 = np.sin(2 * tau), np.sin(4 * tau), np.sin(6 * tau)
    d1 = np.array([[3 * c2 + c6, 9 * s2 - 3 * s4 + s6], [9 * s2 + 3 * s4 + s6, -3 * c2 - c6]]) / 48.0
    d0 = np.diag([-1.0, 1.0]) / 12.0
    omega = 0.25 + 5.0 * eps / 192.0
    m = (np.eye(2) - eps * d0) @ rotation(omega * t) @ (np.eye(2) - eps * d1)
    x1, x2 = mesh(n, xi_max)
    return beam(*_compose(m, x1, x2), **beam_params)


def radial_field(rho: np.ndarray, x: np.ndarray) -> np.ndarray:
    """E(r) = (1/r) integral_0^r s rho(s) ds by the trapezoid rule, odd in r.

    x must be symmetric nodes with x[n/2] = 0; the leftmost node has no mirror
    and takes the field of a zero density beyond the box.
    """
    n = x.size
    m = n // 2
    dx = x[1] - x[0]
    s = x[m:]
    q = s * rho[m:]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dx * (q[1:] + q[:-1]))])
    e_pos = np.zeros_like(cum)
    e_pos[1:] = cum[1:] / s[1:]
    out = np.empty(n)
    out[m:] = e_pos
    out[1:m] = -e_pos[:0:-1]
    out[0] = -(cum[-1] + 0.5 * dx * q[-1]) / (-x[0])
    return out


def splitting_poisson(t: float, eps: float, n: int, xi_max: float, beam_params: dict, dt: float):
    """Filtered Vlasov-Poisson field at time t on the n x n grid.

    Strang splitting (half drift in r, kick in v, half drift) on a grid
    twice as fine, with the self-field frozen at the half-drifted state.
    """
    nf = 2 * n
    x = nodes(nf, xi_max)
    dx = x[1] - x[0]
    k = 2.0 * np.pi * np.fft.rfftfreq(nf, d=dx)
    r, v = np.meshgrid(x, x, indexing="ij")
    f = beam(r, v, **beam_params)
    steps = max(1, int(np.ceil(t / dt - 1e-9))) if t > 0 else 0
    h = t / steps if steps else 0.0
    half = np.exp(-1j * np.outer(k, x * (0.5 * h / eps)))

    def drift(g):
        return np.fft.irfft(np.fft.rfft(g, axis=0) * half, n=nf, axis=0)

    for i in range(steps):
        t0 = i * h
        f = drift(f)
        rho = dx * f.sum(axis=1)
        impulse = eps * (tension_primitive((t0 + h) / eps) - tension_primitive(t0 / eps))
        dv = x * (impulse - h / eps) + h * radial_field(rho, x)
        f = np.fft.irfft(np.fft.rfft(f, axis=1) * np.exp(-1j * np.outer(dv, k)), n=nf, axis=1)
        f = drift(f)

    x1, x2 = mesh(n, xi_max)
    rr, vv = _compose(rotation(t / eps), x1, x2)
    coords = [(rr + xi_max) / dx, (vv + xi_max) / dx]
    return map_coordinates(f, coords, order=3, mode="grid-constant", cval=0.0)


def rel_l2(num, ref) -> float:
    return float(np.sqrt(((num - ref) ** 2).sum() / (ref ** 2).sum()))


def rel_linf(num, ref) -> float:
    return float(np.abs(num - ref).max() / np.abs(ref).max())
