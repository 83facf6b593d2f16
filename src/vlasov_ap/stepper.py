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
xi parts of both stages are four-neighbour stencils of g, applied straight to
the state (see xi_operator):

    P = avg - (dt/2) Phi,   Q = -dt Phi,
    F* = R (P F),   F+ = R (Q F* + (I - lam L) F),   R = (I + lam L)^{-1},

with I - lam L one nodal matrix product.  In linear mode g is the applied
amplitude alone; in poisson mode it includes the self-field of the stage's
state, so P is applied with the field of F and Q with that of F*.  In both
modes the stages, the CFL step and the corrected initial state take g from
APSolver._amplitude, one tau slice at a time.  No stage keeps anything
between calls.

The solvers step whatever torus they are given.  On a folded one
(TorusGrid fold > 1, a state that repeats after tau = 2*pi/fold) the tau
operators act in sigma = fold*tau, so L = fold d/dsigma: every lam is
scaled by fold and the antiderivative of the corrected initial state
divided by it, while the xi stencils and the field read the true angles
tau_l.  The run loop gives runs whose tension repeats after pi the half
torus, fold 2, in both modes.

A two-scale state is n_tau times the physical grid, so a step is counted in
whole states.  It holds its input F and one working array A, and every other
temporary is a block: A = P F, then A <- R A (this is F*), A <- Q A, and
A <- R(A + (I - lam L) F) in one pass per block of pencils.  The tau
products act on each xi pencil alone and the stencils on each tau slice
alone, so each writes over its own input.

A micro-macro variant of the same pattern handles the longer diffusion time
scale, where the tension is mean-free and the solution is split as
F = G + h with G = Pi F.  Its xi parts are the same stencils: Phi of the
applied field, and the four-point average of every (n, n) slice.
"""
from __future__ import annotations

import numpy as np

from . import averaging, fields
from .domain import PhaseGrid, TorusGrid, initial_distribution

def xi_operator(
    g: np.ndarray,
    tau: np.ndarray,
    delta_xi: float,
    c_avg: float,
    c_flux: float,
    f: np.ndarray,
    out: np.ndarray | None = None,
):
    """c_avg * (four-point average) + c_flux * Phi applied to f, for the field g (-sin tau, cos tau).

    f holds m slices of shape (n, n), g the amplitude on (at least) those m
    slices, as an array or as any iterable of its slices in order, and tau
    their m angles; g and tau go unread when c_flux is 0.  Each slice goes
    through one zero-padded (n + 2, n + 2) buffer, whose pad is the zero
    ghost outside the box, so only slice-sized scratch is allocated.  The
    result is written into out, an array of f's shape, or into a new one when
    out is None, and returned.  out may be g or f itself: slice l of the
    result is written only after slice l of g and f has been read, and no
    other slice of either is read for it.
    """
    n = f.shape[-1]
    c = c_flux / (2.0 * delta_xi)
    q = 0.25 * c_avg
    if out is None:
        out = np.empty(f.shape)
    # Flattened, the neighbours of a slice's entries are contiguous runs of the
    # padded buffer at fixed offsets; the stencils act on whole runs, pad
    # entries between rows included, and only the interior of the sum is kept.
    pad, acc = np.zeros((2, n + 2, n + 2))
    inner = pad[1:-1, 1:-1]
    start, size = n + 3, n * (n + 2) - 2  # flat index of entry (0, 0); length of the run to (n-1, n-1)
    flat = pad.reshape(-1)
    up, down, right, left = (flat[start + k:start + k + size] for k in (n + 2, -n - 2, 1, -1))
    total, tmp = acc.reshape(-1)[start:start + size], np.empty(size)
    if c:
        ey, ex = (c * -np.sin(tau)).tolist(), (c * np.cos(tau)).tolist()
        g = iter(g)
    # the first term of each slice's sum is written over the last slice's, so
    # total is never cleared; when c and q are both 0 it keeps its zeros
    for l, o in enumerate(out):
        if c:
            np.multiply(next(g), f[l], out=inner)
            np.subtract(up, down, out=total)
            total *= ey[l]
            np.subtract(right, left, out=tmp)
            tmp *= ex[l]
            total += tmp
        if q:
            np.multiply(f[l], q, out=inner)
            if c:
                total += up
            else:
                np.copyto(total, up)
            total += down
            total += right
            total += left
        o[...] = acc[1:-1, 1:-1]
    return out


def cfl_dt(g, tau: np.ndarray, delta_xi: float) -> float:
    """Advective step dt = delta_xi / max |E| for E = g (-sin tau, cos tau), frozen at start-up.

    g is an array or any iterable of slices, one per angle of tau, in order.
    |E| peaks at w |g| with w = max(|sin tau|, |cos tau|), which rounds as the
    larger component does.  The maximum is taken slice by slice, as
    w_l * max(max g_l, -min g_l): rounding is monotone for w_l >= 0, so this
    equals max(w |g|) to the bit, and no array of g's size is made.
    """
    w = np.maximum(np.abs(np.sin(tau)), np.abs(np.cos(tau)))
    emax = (w * np.array([np.maximum(s.max(), -s.min()) for s in g])).max()
    if emax == 0.0:
        raise RuntimeError("advecting field vanishes; provide delta_t explicitly")
    return delta_xi / emax


class APSolver:
    """Driver for the two-scale scheme on fixed grids.

    mode "linear" uses the applied lattice field only; mode "poisson" adds the
    self-consistent field of each stage's state.  The solver holds the field
    as its amplitude g; the applied part does not depend on t, so it is
    sampled once.  Any torus carries the same scheme: on a folded one the
    state holds its first n_tau nodes of the period 2*pi/fold, and the tau
    operators take lam * fold.
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

    def _amplitude(self, f: np.ndarray):
        """The amplitude g of the field g (-sin tau, cos tau) that f sees, one tau slice at a time.

        In linear mode these are the slices of the shared applied amplitude.
        In poisson mode the self-field of f is added: its radial profiles are
        taken from all of f before the first slice is yielded, and the
        amplitude is then formed one block of tau slices at a time.
        """
        if self.mode == "linear":
            yield from self.applied_amplitude
            return
        e_rad = fields.radial_profiles(f, self.rotator)
        for b, taus in enumerate(self.rotator.blocks):
            g = fields.spread(e_rad, self.rotator, b)
            g += self.applied_amplitude[taus]
            yield from g
            del g  # else the block stays alive while the next one is spread

    def initial_state(self, init: str = "corrected") -> np.ndarray:
        """Well-prepared data: either f0 copied across tau or the pushed-back profile.

        The corrected variant evaluates f0 at xi - eps * S(tau, xi) with
        S the tau-antiderivative (from zero) of the mean-free part of the
        initial field.  Being a composition with f0 it stays nonnegative.
        The field is that of the plain state, which is passed on as a
        read-only broadcast view; its amplitude fills the result array.  The
        tau operators act on each xi pencil alone, so the shift and f0 are
        evaluated on the blocks of pencils of averaging.block_slices, one
        field component at a time, and each block of the result is written
        over the block of the amplitude that it was built from.  So beyond
        the result only a few blocks are ever held.
        """
        x1, x2 = self.phase.mesh()
        nt = self.torus.n_tau
        plain = np.broadcast_to(initial_distribution(x1, x2, **self.f0_params), (nt,) + x1.shape)
        if init == "plain":
            return plain.copy()
        if init != "corrected":
            raise ValueError(f"unknown init {init!r}")
        out = np.fromiter(self._amplitude(plain), np.dtype((float, x1.shape)), count=nt)
        g = out.reshape(nt, -1)
        tau = self.torus.nodes.reshape(-1, 1)
        directions = (-np.sin(tau), np.cos(tau))
        xs = (x1.reshape(-1), x2.reshape(-1))
        eps = self.epsilon / self.torus.fold  # the antiderivative is taken in fold * tau
        for cols in averaging.block_slices(g.shape[1], nt):
            shifted = [
                x[cols] - eps * averaging.antiderivative_from_zero(averaging.fluctuation(d * g[:, cols]))
                for x, d in zip(xs, directions)
            ]
            g[:, cols] = initial_distribution(*shifted, **self.f0_params)
        return out

    def advance(self, state: np.ndarray, dt: float) -> np.ndarray:
        """One step: the predictor F* = R(P F), then the corrector F+ = R(Q F* + (I - lam L) F).

        Beyond state, which is left as it is, only the returned array and a
        few blocks are held: each stage and product writes over the array.
        """
        lam = self.torus.fold * dt / (2.0 * self.epsilon)
        out = self._stage(0, state, dt, np.empty(state.shape))
        averaging.solve_implicit_tau(out, lam, out=out)
        self._stage(1, out, dt, out)
        return averaging.crank_nicolson_tau(out, state, lam)

    def _stage(self, stage: int, f: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
        """The xi part of the predictor (stage 0, P f) or the corrector (stage 1, Q f), for the field of f.

        The result is written into out, which may be f: _amplitude reads
        all of f before it yields the first slice.
        """
        c_avg, c_flux = ((1.0, -0.5 * dt), (0.0, -dt))[stage]
        g = self._amplitude(f)
        return xi_operator(g, self.torus.nodes, self.phase.delta_xi, c_avg, c_flux, f, out)

    def suggest_dt(self, state: np.ndarray) -> float:
        return cfl_dt(self._amplitude(state), self.torus.nodes, self.phase.delta_xi)


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
    reads G + h out at tau = t/eps^2.  On a folded torus the resolvent and
    the explicit half step take lam * fold, as in APSolver; the means are
    those of the whole period either way.  Its xi parts apply xi_operator to each
    argument, with that solver's applied amplitude, so it keeps no operator.
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
                f"on n_tau = {torus.fold * torus.n_tau} nodes: {cause}"
            )
        self.phase = phase
        self.epsilon = epsilon
        self.transport = APSolver(phase, torus, tension, epsilon, f0_params=f0_params)

    def initial_split(self, init: str = "corrected"):
        """(G0, h0) from the same well-prepared data as the transport solver.

        h0 is that state with its tau-mean G0 subtracted in place.
        """
        f = self.transport.initial_state(init)
        mean = f.mean(axis=0)
        f -= mean
        return mean, f

    def _phi(self, f: np.ndarray) -> np.ndarray:
        """Phi(f) for the applied field; f has the state's shape."""
        t = self.transport
        return xi_operator(t.applied_amplitude, t.torus.nodes, self.phase.delta_xi, 0.0, 1.0, f)

    def _avg(self, f: np.ndarray) -> np.ndarray:
        """Four-point average of each (n, n) slice of f; f is one slice or a state."""
        n = self.phase.n_points
        return xi_operator(None, None, self.phase.delta_xi, 1.0, 0.0, f.reshape(-1, n, n)).reshape(f.shape)

    def step(self, g: np.ndarray, h: np.ndarray, dt: float):
        """One micro-macro step; G is advanced explicitly, h through the resolvent."""
        eps = self.epsilon
        lam = self.transport.torus.fold * dt / (2.0 * eps ** 2)
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
