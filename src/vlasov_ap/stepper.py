"""Uniformly accurate two-step stepper for the two-scale transport equation.

The augmented unknown F(t, tau, xi) obeys

    dF/dt + E(t, tau, xi) . grad_xi F = -(1/eps) dF/dtau,

and the physical solution is read out on the diagonal tau = t/eps.  Time
stepping follows a two-step Lax-Wendroff pattern in (t, xi): a predictor to
t + dt/2 built on the four-point average, then a centered corrector.  The
stiff tau-transport is treated by a Crank-Nicolson resolvent in Fourier
space, which keeps every step well posed uniformly in eps:

    predictor: (I + lam L) F* = avg(F) - (dt/2) Phi(F),        lam = dt/(2 eps)
    corrector: (I + lam L) F+ = F - dt Phi(F*) - lam L F

with L = d/dtau and Phi the centered flux difference of E F with zero ghost
values outside the box.  Both occurrences of L use the same spectral
derivative; mixing discretizations here breaks the mode-wise unitarity of the
update and with it the uniform accuracy.

In linear mode E is the applied field alone and never changes, so the xi
parts of both stages are fixed matrices with four entries per row (see
xi_operator), built at the first advance for a given dt:

    P = avg - (dt/2) Phi,   Q = -dt Phi,
    F* = R (P F),   F+ = R (Q F* + (I - lam L) F),   R = (I + lam L)^{-1},

with I - lam L one nodal matrix product.  In poisson mode E includes the
self-field of the current stage, so each stage evaluates the stencils afresh
(flux, four_point_average): a fixed operator could carry only the applied
part, and the self part would still cost one full flux per stage.

A micro-macro variant of the same pattern handles the longer diffusion time
scale, where the tension is mean-free and the solution is split as
F = G + h with G = Pi F.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import dia_matrix

from . import averaging, fields
from .domain import PhaseGrid, TorusGrid, initial_distribution, rotate_to_xi
from .errors import NonMeanFreeTension, StabilityFailure, ZeroField


def flux(e1: np.ndarray, e2: np.ndarray, f: np.ndarray, delta_xi: float) -> np.ndarray:
    """Centered conservative transport term Phi(F) ~ div_xi(E F).

    Acts on the last two axes; f may be (n, n) or (n_tau, n, n) and is
    broadcast against the field sample.  Ghost values outside the grid are
    zero, which encodes the compact-support boundary condition.
    """
    a = e1 * f
    b = e2 * f
    out = np.zeros(a.shape)
    out[..., :-1, :] += a[..., 1:, :]
    out[..., 1:, :] -= a[..., :-1, :]
    out[..., :, :-1] += b[..., :, 1:]
    out[..., :, 1:] -= b[..., :, :-1]
    out /= 2.0 * delta_xi
    return out


def four_point_average(f: np.ndarray) -> np.ndarray:
    """Mean of the four lateral neighbours, zero ghosts outside the grid."""
    out = np.zeros(np.shape(f))
    out[..., :-1, :] += f[..., 1:, :]
    out[..., 1:, :] += f[..., :-1, :]
    out[..., :, :-1] += f[..., :, 1:]
    out[..., :, 1:] += f[..., :, :-1]
    out *= 0.25
    return out


def xi_operator(e1: np.ndarray, e2: np.ndarray, delta_xi: float, c_avg: float, c_flux: float):
    """c_avg * four_point_average + c_flux * Phi for a fixed field, as a DIA matrix.

    Acts on a state of the field's shape (n_tau, n, n), flattened.  The
    offsets are (n, -n, 1, -1), one per neighbour, and DIA data are indexed
    by column, so each diagonal holds c_avg/4 +- c_flux * e / (2 delta_xi)
    with e taken at the neighbour.  A neighbour outside the box gets weight 0,
    which is the zero ghost.  The matrix holds 4 values per state entry and
    no index arrays.
    """
    n = e1.shape[-1]
    c = c_flux / (2.0 * delta_xi)
    data = np.empty((4,) + e1.shape)
    for d, e, sign in zip(data, (e1, e1, e2, e2), (1.0, -1.0, 1.0, -1.0)):
        np.multiply(e, sign * c, out=d)
        d += 0.25 * c_avg
    # the neighbour of the row across each edge of its slice is a ghost
    data[0, ..., 0, :] = 0.0
    data[1, ..., -1, :] = 0.0
    data[2, ..., :, 0] = 0.0
    data[3, ..., :, -1] = 0.0
    return dia_matrix((data.reshape(4, -1), (n, -n, 1, -1)), shape=(e1.size, e1.size))


def step_half(f, e1, e2, eps: float, dt: float, delta_xi: float) -> np.ndarray:
    """Predictor to t + dt/2; implicit in tau through the spectral resolvent."""
    lam = dt / (2.0 * eps)
    rhs = four_point_average(f) - 0.5 * dt * flux(e1, e2, f, delta_xi)
    return averaging.solve_implicit_tau(rhs, lam)


def step_full(f, f_half, e1_half, e2_half, eps: float, dt: float, delta_xi: float) -> np.ndarray:
    """Corrector using the predicted state; Crank-Nicolson in tau."""
    lam = dt / (2.0 * eps)
    rhs = (
        f
        - dt * flux(e1_half, e2_half, f_half, delta_xi)
        - lam * averaging.spectral_derivative(f)
    )
    return averaging.solve_implicit_tau(rhs, lam)


def cfl_dt(e1: np.ndarray, e2: np.ndarray, delta_xi: float) -> float:
    """Advective time step dt = delta_xi / max |E|, frozen at start-up."""
    emax = max(np.abs(e1).max(), np.abs(e2).max())
    if emax == 0.0:
        raise ZeroField("advecting field vanishes; provide delta_t explicitly")
    return delta_xi / emax


class APSolver:
    """Driver for the two-scale scheme on fixed grids.

    mode "linear" uses the applied lattice field only; mode "poisson" adds the
    self-consistent field recomputed at every stage.  The applied field does
    not depend on t, so it is sampled once.
    """

    def __init__(
        self,
        phase: PhaseGrid,
        torus: TorusGrid,
        tension: fields.Tension,
        epsilon: float,
        mode: str = "linear",
        f0_params: dict | None = None,
    ):
        if mode not in ("linear", "poisson"):
            raise ValueError(f"unknown mode {mode!r}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.phase = phase
        self.torus = torus
        self.tension = tension
        self.epsilon = epsilon
        self.mode = mode
        self.f0_params = dict(f0_params or {})
        self.applied = fields.sample_applied_field(tension, torus, phase)
        self.rotator = fields.FrameRotator(phase, torus) if mode == "poisson" else None
        self._xi_operators = None  # (dt, P, Q) of the linear step, built at its first advance

    def total_field(self, state: np.ndarray):
        """Applied plus (in poisson mode) self-consistent field for a given state."""
        e1, e2 = self.applied
        if self.mode == "poisson":
            s1, s2 = fields.self_field(state, self.rotator)
            return e1 + s1, e2 + s2
        return e1, e2

    def initial_state(self, init: str = "corrected") -> np.ndarray:
        """Well-prepared data: either f0 copied across tau or the pushed-back profile.

        The corrected variant evaluates f0 at xi - eps * S(tau, xi) with
        S the tau-antiderivative (from zero) of the mean-free part of the
        initial field.  Being a composition with f0 it stays nonnegative.
        """
        x1, x2 = self.phase.mesh()
        nt = self.torus.n_tau
        plain = np.broadcast_to(
            initial_distribution(x1, x2, **self.f0_params), (nt,) + x1.shape
        ).copy()
        if init == "plain":
            return plain
        if init != "corrected":
            raise ValueError(f"unknown init {init!r}")
        e1, e2 = self.total_field(plain)
        s1 = averaging.antiderivative_from_zero(averaging.fluctuation(e1))
        s2 = averaging.antiderivative_from_zero(averaging.fluctuation(e2))
        eps = self.epsilon
        return initial_distribution(x1[None] - eps * s1, x2[None] - eps * s2, **self.f0_params)

    def advance(self, state: np.ndarray, dt: float) -> np.ndarray:
        """One step; in poisson mode the field is refreshed at t_n and at the predictor stage."""
        if self.mode == "linear":
            p, q = self._linear_operators(dt)
            lam = dt / (2.0 * self.epsilon)
            f_half = averaging.solve_implicit_tau((p @ state.ravel()).reshape(state.shape), lam)
            # at most three state-sized arrays are alive at once, the state included
            rhs = (q @ f_half.ravel()).reshape(state.shape)
            del f_half
            rhs += averaging.explicit_tau(state, lam)
            out = averaging.solve_implicit_tau(rhs, lam)
        else:
            dxi = self.phase.delta_xi
            e1, e2 = self.total_field(state)
            f_half = step_half(state, e1, e2, self.epsilon, dt, dxi)
            e1, e2 = self.total_field(f_half)
            out = step_full(state, f_half, e1, e2, self.epsilon, dt, dxi)
        if not np.all(np.isfinite(out)):
            raise StabilityFailure("non-finite values in the state; reduce dt")
        return out

    def _linear_operators(self, dt: float):
        """The predictor's and corrector's xi parts for step dt, P and Q, kept while dt holds."""
        if self._xi_operators is None or self._xi_operators[0] != dt:
            self._xi_operators = None  # free the old pair before the new one is allocated
            e1, e2 = self.applied
            dxi = self.phase.delta_xi
            p = xi_operator(e1, e2, dxi, 1.0, -0.5 * dt)
            q = xi_operator(e1, e2, dxi, 0.0, -dt)
            self._xi_operators = (dt, p, q)
        return self._xi_operators[1:]

    def suggest_dt(self, state: np.ndarray) -> float:
        e1, e2 = self.total_field(state)
        return cfl_dt(e1, e2, self.phase.delta_xi)

    def readout(self, state: np.ndarray, t: float):
        """Physical fields at time t: filtered f~(t, xi) and lab-frame f(t, r, v).

        f~ is the trigonometric evaluation of the state at tau = t/eps; the
        lab-frame field samples f~ bilinearly at the rotated coordinates.
        """
        return self.readout_at(state, (t / self.epsilon) % (2.0 * np.pi))

    def readout_at(self, state: np.ndarray, theta: float):
        """Same as readout but with the filter phase given directly."""
        f_tilde = averaging.eval_at_tau(state, theta)
        r, v = self.phase.mesh()
        x1, x2 = rotate_to_xi(theta, r, v)
        f_rv = fields.sample_plane(f_tilde, self.phase, x1, x2, order=1)
        return f_tilde, f_rv


class DiffusionSolver:
    """Micro-macro stepper for the diffusion time scale (tau = t/eps^2 driver).

    Requires a tension whose applied field is mean-free on the torus; the
    macro part G = Pi F then moves only through the averaged product of
    fluctuations.  States are carried as the pair (G, h); the initial data and
    the readout are those of a linear-mode APSolver on the same grids.
    """

    def __init__(
        self,
        phase: PhaseGrid,
        torus: TorusGrid,
        tension: fields.Tension,
        epsilon: float,
        f0_params: dict | None = None,
    ):
        self.phase = phase
        self.torus = torus
        self.tension = tension
        self.epsilon = epsilon
        self.transport = APSolver(phase, torus, tension, epsilon, f0_params=f0_params)
        e1, e2 = self.transport.applied
        sup = max(np.abs(e1).max(), np.abs(e2).max())
        mean_sup = max(np.abs(e1.mean(axis=0)).max(), np.abs(e2.mean(axis=0)).max())
        if sup > 0 and mean_sup > 1e-10 * sup:
            raise NonMeanFreeTension(
                f"tension {tension.name!r} leaves a mean field of size {mean_sup:.3e}"
            )
        self.applied = (e1, e2)

    def initial_split(self, init: str = "corrected"):
        """(G0, h0) from the same well-prepared data as the transport solver."""
        f = self.transport.initial_state(init)
        return averaging.project_mean(f), averaging.fluctuation(f)

    def readout(self, g: np.ndarray, h: np.ndarray, t: float):
        """Filtered and lab-frame fields at time t; tau runs at t/eps^2 on this scale."""
        theta = (t / self.epsilon ** 2) % (2.0 * np.pi)
        return self.transport.readout_at(g[None] + h, theta)

    def step(self, g: np.ndarray, h: np.ndarray, dt: float):
        """One micro-macro step; G is advanced explicitly, h through the resolvent."""
        eps = self.epsilon
        dxi = self.phase.delta_xi
        e1, e2 = self.applied
        lam = dt / (2.0 * eps ** 2)

        g_half = four_point_average(g) - (dt / (2.0 * eps)) * averaging.project_mean(
            flux(e1, e2, h, dxi)
        )
        rhs = four_point_average(h) - (dt / (2.0 * eps)) * averaging.fluctuation(
            flux(e1, e2, g_half[None] + h, dxi)
        )
        h_half = averaging.solve_implicit_tau(rhs, lam)

        g_new = g - (dt / eps) * averaging.project_mean(flux(e1, e2, h_half, dxi))
        rhs = (
            h
            - (dt / eps)
            * averaging.fluctuation(flux(e1, e2, 0.5 * (g_new + g)[None] + h_half, dxi))
            - lam * averaging.spectral_derivative(h)
        )
        h_new = averaging.solve_implicit_tau(rhs, lam)
        if not (np.all(np.isfinite(g_new)) and np.all(np.isfinite(h_new))):
            raise StabilityFailure("non-finite values in the micro-macro state; reduce dt")
        return g_new, h_new
