"""Reference solutions: the linear solutions f0(M(t) xi) and a Strang splitting solver.

In linear mode (no self-field) each reference solution is f0 composed with a
2x2 matrix of xi.  With e^{theta J} the rotation of rotate_to_rv,

    limit:        M(t) = e^{t J / 4}
    second order: M(t) = (I - eps D0) e^{t omega J} (I - eps D1(t/eps))
    exact:        M(t) = Phi(t)^-1 e^{J t/eps}

The first two are the closed-form asymptotics for the default tension
cos^2(2 tau): the averaged field rotates xi at rate 1/4, and the next order
adds a constant drift matrix D0, a periodic one D1(tau) and the corrected
rate omega = 1/4 + 5 eps / 192.  The exact one holds for any tension: Phi,
Phi(0) = I, is the fundamental matrix of the characteristics' Hill system
r' = v/eps, v' = (a(t/eps) - 1/eps) r.

The splitting solver integrates the unfiltered equation

    df/dt + (v/eps) df/dr + (E_f - r/eps + a(t/eps) r) df/dv = 0

on the same box with spectral shifts in r and v (Strang order: half drift,
kick, half drift).  The oscillatory part of the kick uses the closed-form
primitive of the tension, so the only time-scale restriction is accuracy.
"""
from __future__ import annotations

import math

import numpy as np

from .domain import PhaseGrid, initial_distribution, rotate_to_rv
from .fields import Tension, density, radial_field, sample_plane

LIMIT_ROTATION_RATE = 0.25
ROTATION_RATE_SLOPE = 5.0 / 192.0


def rotation_rate(eps: float) -> float:
    """Effective rotation rate of the filtered solution through order eps."""
    return LIMIT_ROTATION_RATE + ROTATION_RATE_SLOPE * eps


def constant_drift() -> np.ndarray:
    """Constant part D0 of the first-order drift, diag(-1, 1)/12."""
    return np.diag([-1.0, 1.0]) / 12.0


def periodic_drift(tau) -> np.ndarray:
    """Mean-free periodic drift matrix D1(tau), shape tau.shape + (2, 2); D1(0) = -D0 and D1(pi/2) = D0."""
    c2, c6 = np.cos(2 * tau), np.cos(6 * tau)
    s2, s4, s6 = np.sin(2 * tau), np.sin(4 * tau), np.sin(6 * tau)
    d1 = np.array([[3 * c2 + c6, 9 * s2 - 3 * s4 + s6], [9 * s2 + 3 * s4 + s6, -3 * c2 - c6]]) / 48.0
    return np.moveaxis(d1, (0, 1), (-2, -1))


def _rotation(theta) -> np.ndarray:
    """e^{theta J}, shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.moveaxis(np.array([[c, s], [-s, c]]), (0, 1), (-2, -1))


def _second_order_factors(t, tau, eps: float) -> list:
    """I - eps D1(tau), e^{t omega J} and I - eps D0: the second-order M(t) as it acts on xi."""
    return [np.eye(2) - eps * periodic_drift(tau), _rotation(rotation_rate(eps) * t),
            np.eye(2) - eps * constant_drift()]


def _fundamental_matrix(t: np.ndarray, eps: float, tension: Tension) -> np.ndarray:
    """Phi at each of the times t, from one DOP853 run at rtol = atol = 1e-12."""
    phi = np.broadcast_to(np.eye(2), t.shape + (2, 2)).copy()
    later = t > 0  # Phi(0) = I exactly
    if later.any():
        # imported here: scipy.integrate adds about 24 MB to every process that loads it,
        # and runs that never ask for the exact solution need none of it
        from scipy.integrate import solve_ivp

        def hill(s, y):
            p = y.reshape(2, 2)
            return np.concatenate([p[1] / eps, (tension(s / eps) - 1.0 / eps) * p[0]])

        sol = solve_ivp(hill, (0.0, t.max()), np.eye(2).ravel(), method="DOP853",
                        dense_output=True, rtol=1e-12, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"Hill system integration failed: {sol.message}")
        phi[later] = sol.sol(t[later]).T.reshape(-1, 2, 2)
    return phi


def model_solution(model: str, t, eps: float, tension: Tension, xi1, xi2, f0_params: dict | None = None):
    """Filtered field f~(t, xi) = f0(M(t) xi) of linear mode; model is "limit", "second_order" or "exact".

    t is one time or an array of times; the result has the shape of t, then of xi.
    "exact" holds for any tension and takes every time from one integration; the closed forms
    reject any tension but cos2sq.  The lab-frame field f(t, r, v) is this function at
    xi = rotate_to_xi(t/eps, r, v).
    """
    t = np.asarray(t, dtype=float)
    if model in ("limit", "second_order") and tension.name != "cos2sq":
        raise ValueError(f"model {model!r} is a closed form for tension cos2sq only")
    if model == "limit":
        factors = [_rotation(LIMIT_ROTATION_RATE * t)]
    elif model == "second_order":
        factors = _second_order_factors(t, (t / eps) % (2 * np.pi), eps)
    elif model == "exact":
        factors = [_rotation(t / eps), np.linalg.inv(_fundamental_matrix(t, eps, tension))]
    else:
        raise ValueError(f"unknown model {model!r}")
    return _compose(factors, xi1, xi2, f0_params)


def _compose(factors, xi1, xi2, f0_params: dict | None):
    """f0(M xi), factors[0] acting on xi first; stacks of matrices go ahead of xi's shape.

    Multiplied out first, M would move each field by rounding (1e-15), and the error table's
    small differences (1.8e-5 at eps = 0.01) by 1e-11."""
    w1, w2 = xi1, xi2
    for m in factors:
        m = m.reshape(m.shape[:-2] + (1,) * np.ndim(xi1) + (2, 2))
        w1, w2 = m[..., 0, 0] * w1 + m[..., 0, 1] * w2, m[..., 1, 0] * w1 + m[..., 1, 1] * w2
    return initial_distribution(w1, w2, **(f0_params or {}))


# perfbench/test_exact.py checks the closed forms under these two names, the second at a free tau
def limit_solution(t: float, xi1, xi2, f0_params: dict | None = None):
    return _compose([_rotation(LIMIT_ROTATION_RATE * t)], xi1, xi2, f0_params)


def second_order_solution(t: float, tau: float, xi1, xi2, eps: float, f0_params: dict | None = None):
    return _compose(_second_order_factors(t, tau, eps), xi1, xi2, f0_params)


def _shift_phase(shift: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(-1j * outer(shift, k)) for uniform k = j * k[1]: giant steps k[g b] times baby steps k[j < b].

    b = isqrt(len(k) - 1) + 1, so a line takes b + ceil(len(k) / b) ~ 2 sqrt(len(k)) exponentials."""
    b = math.isqrt(len(k) - 1) + 1
    giant, baby = (np.exp(-1j * np.outer(shift, kk)) for kk in (k[::b], k[:b]))
    return (giant[:, :, None] * baby[:, None, :]).reshape(len(shift), -1)[:, : len(k)]


class SplittingSolver:
    """Strang splitting for the unfiltered beam equation on the (r, v) box.

    Drifts in r and kicks in v are exact spectral shifts (periodic box; the
    support must stay away from the edges) by phases from ``_shift_phase``;
    nothing is kept between ``solve`` calls.  In poisson mode the radial field
    is frozen at the half-drifted state of each step.  ``harness.run`` drives
    it as the ``splitting`` scheme, one ``solve`` call per span between
    observed steps; a splitting reference is such a run on a fine grid.
    """

    def __init__(
        self,
        phase: PhaseGrid,
        epsilon: float,
        tension: Tension,
        mode: str = "linear",
        f0_params: dict | None = None,
    ):
        if mode not in ("linear", "poisson"):
            raise ValueError(f"unknown mode {mode!r}")
        self.phase = phase
        self.epsilon = epsilon
        self.tension = tension
        self.mode = mode
        self.f0_params = dict(f0_params or {})
        self.k = 2.0 * np.pi * np.fft.rfftfreq(phase.n_points, d=phase.delta_xi)  # shift wavenumbers

    def initial_state(self) -> np.ndarray:
        r, v = self.phase.mesh()
        return initial_distribution(r, v, **self.f0_params)

    def _drift(self, f: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Shift f(r, v) -> f(r - v s, v) by the (n_k, n_v) phase ``solve`` built for s; FFT along r."""
        return np.fft.irfft(np.fft.rfft(f, axis=0) * phase, n=f.shape[0], axis=0)

    def _kick(self, f: np.ndarray, t0: float, dt: float) -> np.ndarray:
        """Shift in v by the exact field impulse over [t0, t0 + dt]; FFT along v."""
        eps = self.epsilon
        osc = eps * self.tension.integral(t0 / eps, (t0 + dt) / eps)
        dv = self.phase.nodes * (osc - dt / eps)
        if self.mode == "poisson":
            rho = density(f, self.phase.delta_xi)
            dv = dv + dt * radial_field(rho, self.phase)
        return np.fft.irfft(np.fft.rfft(f, axis=1) * _shift_phase(dv, self.k), n=f.shape[1], axis=1)

    def solve(self, f: np.ndarray, k0: int, k1: int, dt: float) -> np.ndarray:
        """Strang steps from t = k0 dt to t = k1 dt.

        The two half drifts that meet between consecutive steps are fused into
        one full drift, so only the first and the last half drift remain.
        ``perfbench/spans.py`` counts a call under
        ``harness._splitting_reference`` as a reference-cache miss.
        """
        if k1 <= k0:
            return f
        # irfft keeps only the real part of the Nyquist bin, so a shifted Nyquist
        # mode would not compose; dropping it makes drifts add exactly
        half, full = (_shift_phase(self.phase.nodes * (s * dt / self.epsilon), self.k).T.copy()
                      for s in (0.5, 1.0))
        half[-1] = full[-1] = 0.0
        for n in range(k0, k1):
            f = self._drift(f, half if n == k0 else full)
            f = self._kick(f, n * dt, dt)
        return self._drift(f, half)


def filtered_from_rv(f_rv: np.ndarray, grid: PhaseGrid, t: float, eps: float):
    """Map a lab-frame solution onto the xi grid: f~(t, xi) = f(t, e^{J t/eps} xi).

    Cubic sampling keeps the mapping error far below the scheme errors being
    measured.
    """
    theta = (t / eps) % (2.0 * np.pi)
    x1, x2 = grid.mesh()
    r, v = rotate_to_rv(theta, x1, x2)
    return sample_plane(f_rv, grid, r, v, order=3)
