"""Spectral operators on the fast-angle torus.

Everything here acts along axis 0, which indexes a uniform even-length grid
on [0, 2*pi).  With L = d/dtau, the averaging machinery consists of the mean
projector Pi, its complement I - Pi, the pseudo-inverse L^{-1} (defined on
mean-free data, returning the unique mean-free primitive), and the resolvent
(I + lam*L)^{-1} used by the implicit part of the time steppers.

Pi and I - Pi are plain means.  Every other operator is a Fourier multiplier
symbol(k), k = 0..n_tau/2, and states only its symbol; one builder,
_multiplier, turns it into the real circulant n_tau x n_tau matrix on the
nodes (row 0 of the shift, for evaluation at one angle) by applying it to
the identity, and then gives the data one matrix product over all pencils.
The builder owns the one Nyquist rule: the k_max bin of a real even-length
signal is the coefficient of cos(k_max * tau), and the symbol acts on it by
its real part, which is what the exact nodal operator gives.  That makes the
derivative and the primitive vanish there, the explicit half step keep it,
the resolvent scale it by Re 1/(1 + i*lam*k_max) and evaluation by
cos(k_max * tau_star).  An odd n_tau raises ValueError.

The product costs n_tau**2 flops per pencil against n_tau*log(n_tau) for an
rfft/irfft pair of the data, but it runs as one BLAS call along the strided
tau axis; on one core, at 128 x 128 pencils, it stays below the FFT pair up
to at least n_tau = 256 (a resolvent solve took 59 ms against 186 ms, and
5.7 ms against 40 ms at n_tau = 64).
"""
from __future__ import annotations

import numpy as np

# relative tolerance for "this input is mean-free"
MEAN_FREE_RTOL = 1e-12


def project_mean(g: np.ndarray):
    """Torus average Pi g = (1/2*pi) * integral of g over tau (exact for trig data)."""
    return np.asarray(g).mean(axis=0)


def fluctuation(g: np.ndarray) -> np.ndarray:
    """Mean-free part (I - Pi) g."""
    g = np.asarray(g)
    return g - g.mean(axis=0, keepdims=True)


def _multiplier(g: np.ndarray, symbol, rows=slice(None)) -> np.ndarray:
    """The rows of the nodal matrix of the multiplier symbol(k), applied to every pencil of g."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if n % 2:
        raise ValueError(f"torus grid length must be even, got {n}")
    s = np.array(symbol(np.arange(n // 2 + 1)), dtype=complex)
    s[-1] = s[-1].real  # the Nyquist bin is cos(k_max tau)
    m = np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * s[:, None], n=n, axis=0)[rows]
    return (m @ g.reshape(n, -1)).reshape(m.shape[:1] + g.shape[1:])


def _check_mean_free(g: np.ndarray):
    sup = np.abs(g).max() if g.size else 0.0
    mean_sup = np.abs(g.mean(axis=0)).max() if g.size else 0.0
    if mean_sup > MEAN_FREE_RTOL * sup:
        raise ValueError(
            f"input has tau-mean {mean_sup:.3e} (sup {sup:.3e}); apply fluctuation() first"
        )


def explicit_tau(g: np.ndarray, lam: float) -> np.ndarray:
    """(I - lam * d/dtau) g, the explicit half of the Crank-Nicolson step."""
    return _multiplier(g, lambda k: 1.0 - 1j * lam * k)


def invert_derivative(g: np.ndarray) -> np.ndarray:
    """L^{-1} g: the unique mean-free primitive of a mean-free g.

    Raises ValueError (exit 2 through the cli) when |Pi g| exceeds
    MEAN_FREE_RTOL * sup|g|.
    """
    g = np.asarray(g, dtype=float)
    _check_mean_free(g)
    return _multiplier(g, lambda k: np.where(k > 0, 1.0 / (1j * np.maximum(k, 1)), 0.0))


def antiderivative_from_zero(g: np.ndarray) -> np.ndarray:
    """integral_0^tau g(s) ds for mean-free g; exactly zero at the tau = 0 node."""
    prim = invert_derivative(g)
    return prim - prim[0][None]


def solve_implicit_tau(rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (I + lam * d/dtau) u = rhs for real rhs sampled on the torus grid.

    Fourier-diagonal: u_k = rhs_k / (1 + i*lam*k).  The k = 0 coefficient is
    left untouched for every lam, so every column of the nodal matrix sums to
    one and the tau-mean of rhs is kept to rounding; u -> Pi rhs as
    lam -> infinity.  lam = 0 returns an exact copy of rhs.
    """
    if lam == 0.0:
        return np.array(rhs, dtype=float)
    return _multiplier(rhs, lambda k: 1.0 / (1.0 + 1j * lam * k))


def eval_at_tau(g: np.ndarray, tau_star: float) -> np.ndarray:
    """Trigonometric interpolation of nodal data at an arbitrary angle.

    Reproduces the stored samples exactly when tau_star is a grid node.  For
    3D input (n_tau, n, n) the interpolation runs per (i, j) pencil and the
    result has shape (n, n).
    """
    return _multiplier(g, lambda k: np.exp(1j * k * tau_star), rows=slice(1))[0]
