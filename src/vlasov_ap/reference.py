"""Reference solutions: closed-form linear models and a Strang splitting solver.

For the default tension cos^2(2 tau) the linear (no self-field) dynamics has
closed-form asymptotics.  The averaged field rotates xi at rate 1/4; the
next order adds a constant drift matrix D0, a periodic drift matrix D1(tau)
and a corrected rotation rate 1/4 + 5 eps / 192:

    limit:        f~(t, xi) ~ f0( e^{t J / 4} xi )
    second order: f~(t, xi) ~ f0( (I - eps D0) e^{t omega J} (I - eps D1(tau)) xi ),

with tau = t/eps and e^{theta J} xi = (xi1 cos + xi2 sin, -xi1 sin + xi2 cos).

The splitting solver integrates the unfiltered equation

    df/dt + (v/eps) df/dr + (E_f - r/eps + a(t/eps) r) df/dv = 0

on the same box with spectral shifts in r and v (Strang order: half drift,
kick, half drift).  The oscillatory part of the kick uses the closed-form
primitive of the tension, so the only time-scale restriction is accuracy.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from . import averaging
from .domain import PhaseGrid, initial_distribution, rotate_to_rv, rotate_to_xi
from .fields import Tension, applied_field, density, radial_field, sample_plane

LIMIT_ROTATION_RATE = 0.25
ROTATION_RATE_SLOPE = 5.0 / 192.0


def rotation_rate(eps: float) -> float:
    """Effective rotation rate of the filtered solution through order eps."""
    return LIMIT_ROTATION_RATE + ROTATION_RATE_SLOPE * eps


def constant_drift() -> np.ndarray:
    """Constant part D0 of the first-order drift, diag(-1, 1)/12."""
    return np.diag([-1.0, 1.0]) / 12.0


def periodic_drift(tau: float) -> np.ndarray:
    """Mean-free periodic drift matrix D1(tau); D1(0) = -D0 and D1(pi/2) = D0."""
    c2, c6 = np.cos(2 * tau), np.cos(6 * tau)
    s2, s4, s6 = np.sin(2 * tau), np.sin(4 * tau), np.sin(6 * tau)
    return (
        np.array(
            [
                [3 * c2 + c6, 9 * s2 - 3 * s4 + s6],
                [9 * s2 + 3 * s4 + s6, -3 * c2 - c6],
            ]
        )
        / 48.0
    )


def _apply_matrix(m: np.ndarray, xi1, xi2):
    return m[0, 0] * xi1 + m[0, 1] * xi2, m[1, 0] * xi1 + m[1, 1] * xi2


def limit_solution(t: float, xi1, xi2, f0_params: dict | None = None):
    """Leading-order filtered solution: f0 composed with the rotation at rate 1/4.

    The averaged field is -J xi / 4, so characteristics through (t, xi) start
    at e^{t J / 4} xi.
    """
    y1, y2 = rotate_to_rv(LIMIT_ROTATION_RATE * t, xi1, xi2)
    return initial_distribution(y1, y2, **(f0_params or {}))


def second_order_solution(t: float, tau: float, xi1, xi2, eps: float, f0_params: dict | None = None):
    """First-order-in-eps model of the two-scale solution F(t, tau, xi).

    The filtered field f~(t, xi) is this function at tau = t/eps.
    """
    z1, z2 = _apply_matrix(np.eye(2) - eps * periodic_drift(tau), xi1, xi2)
    y1, y2 = rotate_to_rv(rotation_rate(eps) * t, z1, z2)
    w1, w2 = _apply_matrix(np.eye(2) - eps * constant_drift(), y1, y2)
    return initial_distribution(w1, w2, **(f0_params or {}))


def exact_linear(t: float, eps: float, tension: Tension, xi1, xi2, f0_params: dict | None = None):
    """Exact filtered solution f~(t, xi) of linear mode, for any tension.

    The characteristics of the unfiltered equation obey the Hill system
    r' = v/eps, v' = (a(t/eps) - 1/eps) r.  With its fundamental matrix Phi(t),
    Phi(0) = I, integrated by DOP853 at rtol = atol = 1e-12, f(t, z) =
    f0(Phi(t)^-1 z) and so f~(t, xi) = f0(Phi(t)^-1 e^{J t/eps} xi).
    """

    def hill(s, y):
        p = y.reshape(2, 2)
        return np.concatenate([p[1] / eps, (tension(s / eps) - 1.0 / eps) * p[0]])

    phi = np.eye(2)
    if t > 0:
        sol = solve_ivp(hill, (0.0, t), phi.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
        if not sol.success:
            raise RuntimeError(f"Hill system integration failed: {sol.message}")
        phi = sol.y[:, -1].reshape(2, 2)
    w1, w2 = _apply_matrix(np.linalg.inv(phi), *rotate_to_rv(t / eps, xi1, xi2))
    return initial_distribution(w1, w2, **(f0_params or {}))


def model_lab_frame(model: str, t: float, eps: float, r, v, f0_params: dict | None = None):
    """Evaluate a closed-form model in the lab frame f(t, r, v); no interpolation."""
    theta = t / eps
    x1, x2 = rotate_to_xi(theta, r, v)
    if model == "limit":
        return limit_solution(t, x1, x2, f0_params)
    if model == "second_order":
        return second_order_solution(t, theta % (2 * np.pi), x1, x2, eps, f0_params)
    raise ValueError(f"unknown model {model!r}")


def effective_hamiltonian(xi1, xi2, tension: Tension, n_tau: int = 64):
    """Quadratic invariant D(xi) driving the order-eps rotation correction.

    Computed from the Fourier coefficients A_k of the applied field on the
    torus as 2 Im sum_{k>=1} A_{k,1} conj(A_{k,2}) / k; spectrally exact for
    band-limited tensions.  For cos2sq this equals 5/384 * |xi|^2.
    """
    tau = (2.0 * np.pi / n_tau) * np.arange(n_tau)
    shape = (-1,) + (1,) * np.ndim(xi1)
    e1, e2 = applied_field(tension, tau.reshape(shape), np.asarray(xi1)[None], np.asarray(xi2)[None])
    a1 = np.fft.rfft(e1, axis=0) / n_tau
    a2 = np.fft.rfft(e2, axis=0) / n_tau
    k = np.arange(1, a1.shape[0] - 1).reshape(shape)
    return 2.0 * (a1[1:-1] * np.conj(a2[1:-1]) / k).imag.sum(axis=0)


def drift_coupling_matrix(tension: Tension, xi1: float, xi2: float, n_tau: int = 64) -> np.ndarray:
    """Skew-symmetric matrix -(1/2 pi) integral E_i L^{-1}[(I - Pi) E_j] dtau at one xi.

    Cross-checks effective_hamiltonian through an independent quadrature route:
    the (1, 2) entry equals D(xi).
    """
    tau = (2.0 * np.pi / n_tau) * np.arange(n_tau)
    e = np.stack(applied_field(tension, tau, xi1, xi2))  # (2, n_tau)
    prim = np.stack([averaging.invert_derivative(averaging.fluctuation(ei)) for ei in e])
    return -np.einsum("it,jt->ij", e, prim) / n_tau


class SplittingSolver:
    """Strang splitting for the unfiltered beam equation on the (r, v) box.

    Drifts in r and kicks in v are exact spectral shifts (periodic box; the
    support must stay away from the edges).  In poisson mode the radial field
    is frozen at the half-drifted state of each step.  Callers choose the step
    count and dt with ``harness._resolve_steps``.
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
        n = phase.n_points
        length = 2.0 * phase.xi_max
        self.k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)  # shift wavenumbers
        self.r = phase.nodes
        self.v = phase.nodes
        self._drift_phase: dict[tuple[int, float], np.ndarray] = {}

    def initial_state(self) -> np.ndarray:
        r, v = self.phase.mesh()
        return initial_distribution(r, v, **self.f0_params)

    def _drift(self, f: np.ndarray, half_steps: int, dt: float) -> np.ndarray:
        """Shift f(r, v) -> f(r - v * (half_steps * dt/2) / eps, v); FFT along r."""
        phase = self._drift_phase.get((half_steps, dt))
        if phase is None:
            shift = self.v * (0.5 * half_steps * dt / self.epsilon)
            phase = np.exp(-1j * np.outer(self.k, shift))  # (n_k, n_v)
            self._drift_phase[(half_steps, dt)] = phase
        fh = np.fft.rfft(f, axis=0)
        return np.fft.irfft(fh * phase, n=f.shape[0], axis=0)

    def _kick(self, f: np.ndarray, t0: float, dt: float) -> np.ndarray:
        """Shift in v by the exact field impulse over [t0, t0 + dt]; FFT along v."""
        eps = self.epsilon
        osc = eps * self.tension.integral(t0 / eps, (t0 + dt) / eps)
        dv = self.r * (osc - dt / eps)
        if self.mode == "poisson":
            rho = density(f, self.phase.delta_xi)
            dv = dv + dt * radial_field(rho, self.phase)
        phase = np.exp(-1j * np.outer(dv, self.k))  # (n_r, n_k)
        fh = np.fft.rfft(f, axis=1)
        return np.fft.irfft(fh * phase, n=f.shape[1], axis=1)

    def advance(self, f: np.ndarray, k0: int, k1: int, dt: float) -> np.ndarray:
        """Strang steps from t = k0 dt to t = k1 dt.

        The two half drifts that meet between consecutive steps are fused into
        one full drift, so only the first and the last half drift remain.
        """
        for n in range(k0, k1):
            f = self._drift(f, 1 if n == k0 else 2, dt)
            f = self._kick(f, n * dt, dt)
        return self._drift(f, 1, dt) if k1 > k0 else f

    def solve(self, n_steps: int, dt: float) -> np.ndarray:
        """State after n_steps steps: ``advance(initial_state(), 0, n_steps, dt)``.

        Named so that ``perfbench/spans.py`` can count a call under
        ``harness._splitting_reference`` as a reference-cache miss.
        """
        return self.advance(self.initial_state(), 0, n_steps, dt)


def filtered_from_rv(f_rv: np.ndarray, grid: PhaseGrid, t: float, eps: float):
    """Map a lab-frame solution onto the xi grid: f~(t, xi) = f(t, e^{J t/eps} xi).

    Cubic sampling keeps the mapping error far below the scheme errors being
    measured.
    """
    theta = (t / eps) % (2.0 * np.pi)
    x1, x2 = grid.mesh()
    r, v = rotate_to_rv(theta, x1, x2)
    return sample_plane(f_rv, grid, r, v, order=3)
