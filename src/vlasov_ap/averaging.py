"""Spectral operators on the fast-angle torus.

Everything here acts along axis 0, which indexes a uniform even-length grid
on [0, 2*pi).  With L = d/dtau, the averaging machinery consists of the mean
projector Pi, its complement I - Pi, the pseudo-inverse L^{-1} (defined on
mean-free data, returning the unique mean-free primitive), and the resolvent
(I + lam*L)^{-1} used by the implicit part of the time steppers.

Pi and I - Pi are plain means.  Every other operator is a Fourier multiplier
symbol(k), k = 0..n_tau/2, and states only its symbol; one builder,
_matrix, turns it into the real circulant n_tau x n_tau matrix on the
nodes by applying it to the identity, and _multiplier gives the data its
rows (row 0 of the shift, for evaluation at one angle) as matrix products
over the pencils.  The builder owns the one Nyquist rule: the k_max bin of
a real even-length signal is the coefficient of cos(k_max * tau), and the
symbol acts on it by its real part, which is what the exact nodal operator
gives.  That makes the
derivative and the primitive vanish there, the explicit half step keep it,
the resolvent scale it by Re 1/(1 + i*lam*k_max) and evaluation by
cos(k_max * tau_star).  An odd n_tau raises ValueError.

The product costs n_tau**2 flops per pencil against n_tau*log(n_tau) for an
rfft/irfft pair of the data, but it runs as BLAS calls along the strided
tau axis; on one core, at 128 x 128 pencils, it stays below the FFT pair up
to at least n_tau = 256 (a resolvent solve took 59 ms against 186 ms, and
5.7 ms against 40 ms at n_tau = 64).

State-sized work, here and in the stepper and fields modules, runs over
the slices that block_slices gives: blocks of about BLOCK_ENTRIES entries,
at least one index each.  Each product runs over blocks of pencils, so
beyond its result it holds one block, and a result may be written over its
input.  A block's columns go through the same BLAS kernel as the whole
array's, so every entry is the same to the bit.  The stepper's corrector
takes its two products, (I - lam L) F and the resolvent, in one pass per
block (crank_nicolson_tau).
"""
from __future__ import annotations

import numpy as np

# relative tolerance for "this input is mean-free"
MEAN_FREE_RTOL = 1e-12
# entries per block in which state-sized work is done: 512 kB per float
# temporary, 1024 pencils at n_tau = 64, 4 tau slices at 128^2.  Much smaller
# blocks pay numpy's per-call overhead and larger ones cost memory for no
# speed: at 128^2 x 64 on one core the corrected initial state took 87 ms in
# blocks of 2^16 and 2^17 entries, 119 ms in blocks of 2^13 and on whole states
BLOCK_ENTRIES = 1 << 16


def project_mean(g: np.ndarray):
    """Torus average Pi g = (1/2*pi) * integral of g over tau (exact for trig data)."""
    return np.asarray(g).mean(axis=0)


def fluctuation(g: np.ndarray) -> np.ndarray:
    """Mean-free part (I - Pi) g."""
    g = np.asarray(g)
    return g - g.mean(axis=0, keepdims=True)


def block_slices(length: int, size: int) -> list[slice]:
    """Consecutive slices covering range(length), for indices of size entries each.

    Each slice but the last spans as many indices as fit in BLOCK_ENTRIES
    entries, and at least one, so a block holds about BLOCK_ENTRIES entries
    or a single index of more.
    """
    width = max(1, BLOCK_ENTRIES // size)
    return [slice(start, min(start + width, length)) for start in range(0, length, width)]


def _matrix(n: int, symbol) -> np.ndarray:
    """The real n x n nodal matrix of the multiplier symbol(k), k = 0..n/2."""
    if n % 2:
        raise ValueError(f"torus grid length must be even, got {n}")
    s = np.array(symbol(np.arange(n // 2 + 1)), dtype=complex)
    s[-1] = s[-1].real  # the Nyquist bin is cos(k_max tau)
    return np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * s[:, None], n=n, axis=0)


def _multiplier(g: np.ndarray, symbol, rows=slice(None), out=None) -> np.ndarray:
    """The rows of the nodal matrix of the multiplier symbol(k), applied to every pencil of g.

    The result goes into out, a C-contiguous array of the result's shape, or
    into a new one when out is None; out may be g itself.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    m = _matrix(n, symbol)[rows]
    if out is None:
        out = np.empty(m.shape[:1] + g.shape[1:])
    pencils, dest = g.reshape(n, -1), out.reshape(len(m), -1)
    for cols in block_slices(pencils.shape[1], n):
        dest[:, cols] = m @ pencils[:, cols]
    return out


def _explicit(lam: float):
    """Symbol of I - lam * d/dtau."""
    return lambda k: 1.0 - 1j * lam * k


def _resolvent(lam: float):
    """Symbol of (I + lam * d/dtau)^{-1}."""
    return lambda k: 1.0 / (1.0 + 1j * lam * k)


def _check_mean_free(g: np.ndarray):
    sup = np.abs(g).max() if g.size else 0.0
    mean_sup = np.abs(g.mean(axis=0)).max() if g.size else 0.0
    if mean_sup > MEAN_FREE_RTOL * sup:
        raise ValueError(
            f"input has tau-mean {mean_sup:.3e} (sup {sup:.3e}); apply fluctuation() first"
        )


def explicit_tau(g: np.ndarray, lam: float) -> np.ndarray:
    """(I - lam * d/dtau) g, the explicit half of the Crank-Nicolson step."""
    return _multiplier(g, _explicit(lam))


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


def solve_implicit_tau(rhs: np.ndarray, lam: float, out: np.ndarray | None = None) -> np.ndarray:
    """Solve (I + lam * d/dtau) u = rhs for real rhs sampled on the torus grid.

    Fourier-diagonal: u_k = rhs_k / (1 + i*lam*k).  The k = 0 coefficient is
    left untouched for every lam, so every column of the nodal matrix sums to
    one and the tau-mean of rhs is kept to rounding; u -> Pi rhs as
    lam -> infinity.  lam = 0 returns an exact copy of rhs.  u is written
    into out, a C-contiguous array of rhs's shape that may be rhs itself,
    when it is given.
    """
    if lam == 0.0:
        if out is None:
            return np.array(rhs, dtype=float)
        out[...] = rhs
        return out
    return _multiplier(rhs, _resolvent(lam), out=out)


def crank_nicolson_tau(y: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    """y <- (I + lam * d/dtau)^{-1} (y + (I - lam * d/dtau) f), written over y and returned.

    y and f have one shape, y C-contiguous.  Both products run in one pass
    over blocks of pencils, so beyond y and f only about two blocks are
    held; each entry is the same to the bit as solve_implicit_tau of
    y + explicit_tau(f, lam).  Non-finite values in the result raise
    RuntimeError.
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    explicit, resolvent = _matrix(n, _explicit(lam)), _matrix(n, _resolvent(lam))
    ys, fs = y.reshape(n, -1), f.reshape(n, -1)
    for cols in block_slices(ys.shape[1], n):
        t = explicit @ fs[:, cols]
        t += ys[:, cols]
        ys[:, cols] = resolvent @ t
        if not np.all(np.isfinite(ys[:, cols])):
            raise RuntimeError("non-finite values in the state; reduce dt")
    return y


def eval_at_tau(g: np.ndarray, tau_star: float) -> np.ndarray:
    """Trigonometric interpolation of nodal data at an arbitrary angle.

    Reproduces the stored samples exactly when tau_star is a grid node.  For
    3D input (n_tau, n, n) the interpolation runs per (i, j) pencil and the
    result has shape (n, n).
    """
    return _multiplier(g, lambda k: np.exp(1j * k * tau_star), rows=slice(1))[0]
