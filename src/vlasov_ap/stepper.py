"""Uniformly accurate two-step stepper for the two-scale transport equation.

The augmented unknown F(t, tau, xi) obeys

    dF/dt + E(t, tau, xi) . grad_xi F = -(1/eps) dF/dtau,

and the physical solution is read out on the diagonal tau = t/eps, by the
run loop (harness._two_scale_readout); this module only steps F.  Time
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

The field is a scalar amplitude times a fixed direction, E = g(tau, xi)
(-sin tau, cos tau), for the applied field and the self-field alike.  So the
xi parts of both stages are matrices with four entries per row, built from
g (see xi_operator):

    P = avg - (dt/2) Phi,   Q = -dt Phi,
    F* = R (P F),   F+ = R (Q F* + (I - lam L) F),   R = (I + lam L)^{-1},

with I - lam L one nodal matrix product.  In linear mode g is the applied
amplitude alone, so P and Q are built once for a given dt and kept.  In
poisson mode g includes the self-field of the stage's state, so P is built
from F and Q from F*, in turn, into one data buffer that the solver keeps.

A micro-macro variant of the same pattern handles the longer diffusion time
scale, where the tension is mean-free and the solution is split as
F = G + h with G = Pi F.  Its xi parts are xi_operator matrices too: Phi of
the applied field, built once, and the four-point average of one (n, n)
slice, applied to every slice.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import dia_matrix

from . import averaging, fields
from .domain import PhaseGrid, TorusGrid, initial_distribution


def xi_operator(g: np.ndarray, tau: np.ndarray, delta_xi: float, c_avg: float, c_flux: float, out=None):
    """c_avg * (four-point average) + c_flux * Phi for the field g (-sin tau, cos tau), as a DIA matrix.

    g has the state's shape (n_tau, n, n) and tau its n_tau angles; the
    operator acts on that state, flattened.  The offsets are (n, -n, 1, -1),
    one per neighbour, and DIA data are indexed by column, so the diagonals
    hold c_avg/4 -+ c sin(tau) g and c_avg/4 +- c cos(tau) g, c = c_flux /
    (2 delta_xi), with g taken at the neighbour.  A neighbour outside the box
    gets weight 0, which is the zero ghost.  The matrix holds 4 values per
    state entry and no index arrays, written to out, a (4,) + g.shape array, if given.
    """
    n = g.shape[-1]
    c = c_flux / (2.0 * delta_xi)
    tau = np.reshape(tau, (-1, 1, 1))
    q = 0.25 * c_avg
    data = np.empty((4,) + g.shape) if out is None else out
    # each pair of diagonals is q +- c e for one component e of the field
    for plus, minus, direction in zip(data[::2], data[1::2], (-np.sin(tau), np.cos(tau))):
        np.multiply(g, c * direction, out=plus)
        np.subtract(q, plus, out=minus)
        if q:
            plus += q
    # the neighbour of the row across each edge of its slice is a ghost
    data[0, ..., 0, :] = 0.0
    data[1, ..., -1, :] = 0.0
    data[2, ..., :, 0] = 0.0
    data[3, ..., :, -1] = 0.0
    return dia_matrix((data.reshape(4, -1), (n, -n, 1, -1)), shape=(g.size, g.size))


def cfl_dt(g: np.ndarray, tau: np.ndarray, delta_xi: float) -> float:
    """Advective step dt = delta_xi / max |E| for E = g (-sin tau, cos tau), frozen at start-up.

    |E| peaks at max(|sin tau|, |cos tau|) |g|, which rounds as the larger component does."""
    tau = np.reshape(tau, (-1,) + (1,) * (np.ndim(g) - 1))
    emax = (np.maximum(np.abs(np.sin(tau)), np.abs(np.cos(tau))) * np.abs(g)).max()
    if emax == 0.0:
        raise RuntimeError("advecting field vanishes; provide delta_t explicitly")
    return delta_xi / emax


class APSolver:
    """Driver for the two-scale scheme on fixed grids.

    mode "linear" uses the applied lattice field only; mode "poisson" adds the
    self-consistent field of each stage's state.  The solver holds the field
    as its amplitude g; the applied part does not depend on t, so it is
    sampled once.
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
        self.epsilon = epsilon
        self.mode = mode
        self.f0_params = dict(f0_params or {})
        x1, x2 = phase.mesh()
        tau = torus.nodes.reshape(-1, 1, 1)
        self.applied_amplitude = fields.applied_amplitude(tension, tau, x1, x2)
        self.rotator = fields.FrameRotator(phase, torus) if mode == "poisson" else None
        self._xi_operators = None  # (dt, P, Q) of the linear step, built at its first advance
        self._stage_data = None  # the poisson stages' one DIA data buffer, made at the first stage

    def _field_amplitude(self, state: np.ndarray) -> np.ndarray:
        """g of the field g (-sin tau, cos tau): applied plus, in poisson mode, the state's self-field."""
        if self.mode == "linear":
            return self.applied_amplitude
        g = fields.self_field(state, self.rotator)
        g += self.applied_amplitude
        return g

    def initial_state(self, init: str = "corrected") -> np.ndarray:
        """Well-prepared data: either f0 copied across tau or the pushed-back profile.

        The corrected variant evaluates f0 at xi - eps * S(tau, xi) with
        S the tau-antiderivative (from zero) of the mean-free part of the
        initial field.  Being a composition with f0 it stays nonnegative.
        The shift is built from the amplitude g one field component at a
        time, so no field pair is ever held.
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
        g = self._field_amplitude(plain)
        del plain
        tau = self.torus.nodes.reshape(-1, 1, 1)
        shifted = [
            x - self.epsilon * averaging.antiderivative_from_zero(averaging.fluctuation(direction * g))
            for x, direction in zip((x1, x2), (-np.sin(tau), np.cos(tau)))
        ]
        del g
        return initial_distribution(*shifted, **self.f0_params)

    def advance(self, state: np.ndarray, dt: float) -> np.ndarray:
        """One step: the predictor F* = R(P F), then the corrector F+ = R(Q F* + (I - lam L) F)."""
        lam = dt / (2.0 * self.epsilon)
        f_half = self._xi_operator(0, state, dt) @ state.ravel()
        f_half = averaging.solve_implicit_tau(f_half.reshape(state.shape), lam)
        rhs = (self._xi_operator(1, f_half, dt) @ f_half.ravel()).reshape(state.shape)
        del f_half  # freed before explicit_tau makes the next state-sized array
        rhs += averaging.explicit_tau(state, lam)
        out = averaging.solve_implicit_tau(rhs, lam)
        if not np.all(np.isfinite(out)):
            raise RuntimeError("non-finite values in the state; reduce dt")
        return out

    def _xi_operator(self, stage: int, f: np.ndarray, dt: float):
        """The xi part of the predictor (stage 0, P) or the corrector (stage 1, Q) for step dt.

        Linear mode keeps both while dt holds.  Poisson mode builds the one asked
        for, from the field of f, into one data buffer shared by every stage.
        """
        if self.mode == "poisson":
            if self._stage_data is None:
                self._stage_data = np.empty((4,) + f.shape)
            return self._stage_operator(stage, self._field_amplitude(f), dt, self._stage_data)
        if self._xi_operators is None or self._xi_operators[0] != dt:
            self._xi_operators = None  # free the old pair before the new one is allocated
            g = self.applied_amplitude
            self._xi_operators = (dt, self._stage_operator(0, g, dt), self._stage_operator(1, g, dt))
        return self._xi_operators[1 + stage]

    def _stage_operator(self, stage: int, g: np.ndarray, dt: float, out=None):
        c_avg, c_flux = ((1.0, -0.5 * dt), (0.0, -dt))[stage]
        return xi_operator(g, self.torus.nodes, self.phase.delta_xi, c_avg, c_flux, out=out)

    def suggest_dt(self, state: np.ndarray) -> float:
        return cfl_dt(self._field_amplitude(state), self.torus.nodes, self.phase.delta_xi)


def _largest_mean(tension: fields.Tension, nodes: np.ndarray) -> float:
    """Largest |tau-mean| of a, a cos 2tau and a sin 2tau on the nodes, over sup |a| (0 if a = 0).

    The applied field is a(tau) times harmonics 0 and +-2 of tau, so it is
    mean-free for every xi exactly when all three means vanish.
    """
    a = tension(nodes)
    sup = np.abs(a).max()
    means = [abs((a * w).mean()) for w in (1.0, np.cos(2 * nodes), np.sin(2 * nodes))]
    return max(means) / sup if sup else 0.0


class DiffusionSolver:
    """Micro-macro stepper for the diffusion time scale (tau = t/eps^2 driver).

    Requires a tension whose applied field is mean-free on the torus; the
    macro part G = Pi F then moves only through the averaged product of
    fluctuations.  States are carried as the pair (G, h); the initial data
    are those of a linear-mode APSolver on the same grids, and the run loop
    reads G + h out at tau = t/eps^2.
    """

    def __init__(
        self,
        phase: PhaseGrid,
        torus: TorusGrid,
        tension: fields.Tension,
        epsilon: float,
        f0_params: dict | None = None,
    ):
        m = _largest_mean(tension, torus.nodes)
        if m > 1e-10:
            # mean-free products on a fine torus mean this torus aliased them
            cause = "the tension is not mean-free"
            if _largest_mean(tension, TorusGrid(1024).nodes) <= 1e-10:
                cause = "the torus is too coarse for the tension"
            raise ValueError(
                f"tension {tension.name!r} leaves a mean field of relative size {m:.3e} "
                f"on n_tau = {torus.n_tau} nodes: {cause}"
            )
        self.phase = phase
        self.epsilon = epsilon
        self.transport = APSolver(phase, torus, tension, epsilon, f0_params=f0_params)
        dxi, n = phase.delta_xi, phase.n_points
        # Phi of the applied field on a state, and the four-point average of one (n, n) slice
        self._flux = xi_operator(self.transport.applied_amplitude, torus.nodes, dxi, 0.0, 1.0)
        self._average = xi_operator(np.zeros((1, n, n)), torus.nodes[:1], dxi, 1.0, 0.0)

    def initial_split(self, init: str = "corrected"):
        """(G0, h0) from the same well-prepared data as the transport solver."""
        f = self.transport.initial_state(init)
        return averaging.project_mean(f), averaging.fluctuation(f)

    def _phi(self, f: np.ndarray) -> np.ndarray:
        """Phi(f) for the applied field; f has the state's shape."""
        return (self._flux @ f.ravel()).reshape(f.shape)

    def _avg(self, f: np.ndarray) -> np.ndarray:
        """Four-point average of each (n, n) slice of f."""
        slices = f.reshape(-1, self._average.shape[1])
        return (self._average @ slices.T).T.reshape(f.shape)

    def step(self, g: np.ndarray, h: np.ndarray, dt: float):
        """One micro-macro step; G is advanced explicitly, h through the resolvent."""
        eps = self.epsilon
        lam = dt / (2.0 * eps ** 2)
        c = dt / (2.0 * eps)

        g_half = self._avg(g) - c * averaging.project_mean(self._phi(h))
        rhs = self._avg(h) - c * averaging.fluctuation(self._phi(g_half[None] + h))
        h_half = averaging.solve_implicit_tau(rhs, lam)

        g_new = g - (dt / eps) * averaging.project_mean(self._phi(h_half))
        rhs = averaging.explicit_tau(h, lam)
        rhs -= (dt / eps) * averaging.fluctuation(self._phi(0.5 * (g_new + g)[None] + h_half))
        h_new = averaging.solve_implicit_tau(rhs, lam)
        if not (np.all(np.isfinite(g_new)) and np.all(np.isfinite(h_new))):
            raise RuntimeError("non-finite values in the micro-macro state; reduce dt")
        return g_new, h_new
