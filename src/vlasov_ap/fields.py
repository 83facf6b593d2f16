"""Forcing fields seen by the two-scale unknown in the rotating frame.

The focusing lattice enters through a periodic tension a(tau).  After
filtering out the stiff rotation, the applied field on the torus reads

    E_app(tau, xi) = a(tau) * (xi1 cos tau + xi2 sin tau) * (-sin tau, cos tau),

and the self-consistent (Poisson) field is the radial field of the charge
density computed in the lab frame, rotated back:

    E_self(tau, xi) = E_f(r(tau, xi)) * (-sin tau, cos tau),
    E_f(r) = (1/r) * integral_0^r s rho(s) ds,  r(tau, xi) = xi1 cos tau + xi2 sin tau.

Both are a scalar amplitude times (-sin tau, cos tau), and the stepper
applies its xi stencils straight from their sum.  The self-field's is taken
in two calls, radial_profiles once for all tau slices of a state, then
spread per block of slices, so no state-sized amplitude is formed.  The
radial integral lives on the same box as the xi grid, reusing its nodes as
the r grid.  The self-field uses one linear map, fixed for a run and held
by FrameRotator as one sparse matrix per block of tau slices: the spread of
a radial profile to its values at r(tau_l, xi).  Its transpose deposits
each xi node's mass onto the r grid with the same weights, which gives the
density rho(tau_l, r), as in particle-in-cell charge assignment.  The map
is stored for every slice of the torus it is given; a folded torus holds
the slices of its period alone.  Interpolation here extends the grid by zero
ghost nodes, so a lookup ramps to zero within one cell past the outermost
xi nodes; the distribution is assumed compactly supported inside the box.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.ndimage import map_coordinates
from scipy.sparse import csc_matrix, csr_matrix

from .averaging import block_slices
from .domain import PhaseGrid, TorusGrid, rotate_to_rv


@dataclass(frozen=True)
class Tension:
    """Periodic focusing tension with an exact primitive for the splitting kick."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray]

    def __call__(self, tau):
        return self.func(tau)

    def integral(self, tau0, tau1):
        """integral of a(tau) from tau0 to tau1, evaluated from the closed-form primitive."""
        return self.primitive(tau1) - self.primitive(tau0)


TENSIONS = {
    # mean 1/2; drives the default focusing regime
    "cos2sq": Tension(
        "cos2sq",
        lambda t: np.cos(2.0 * t) ** 2,
        lambda t: 0.5 * t + np.sin(4.0 * t) / 8.0,
    ),
    # mean-free; required by the diffusion-scaling stepper
    "cos4": Tension(
        "cos4",
        lambda t: np.cos(4.0 * t),
        lambda t: np.sin(4.0 * t) / 4.0,
    ),
}


def get_tension(name: str) -> Tension:
    try:
        return TENSIONS[name]
    except KeyError:
        raise KeyError(f"unknown tension {name!r}; available: {sorted(TENSIONS)}") from None


def applied_amplitude(tension: Tension, tau, xi1, xi2):
    """Amplitude a(tau) (xi1 cos tau + xi2 sin tau) of the applied field along (-sin tau, cos tau)."""
    return tension(tau) * (xi1 * np.cos(tau) + xi2 * np.sin(tau))


def density(f_rv: np.ndarray, delta_xi: float) -> np.ndarray:
    """Charge density rho(r) = integral f dv, Riemann sum over the v axis (last axis)."""
    return delta_xi * np.asarray(f_rv).sum(axis=-1)


def radial_field(rho: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Radial Poisson field E_f(r) = (1/r) integral_0^r s rho(s) ds on the grid nodes.

    rho may carry leading batch axes; the last axis must match the grid.  The
    cumulative integral uses the trapezoid rule outward from r = 0 (where the
    field vanishes exactly) and the result is extended to r < 0 as an odd
    function.  A warning is emitted when rho is visibly not even in r.
    """
    rho = np.asarray(rho, dtype=float)
    n = grid.n_points
    if rho.shape[-1] != n:
        raise ValueError("density length does not match the grid")
    m = n // 2

    mirrored = rho[..., :0:-1]  # rho at -r for nodes 1..n-1, reversed
    denom = np.abs(rho).max()
    # ringing from repeated spectral shifts of edge profiles sits near 1e-8
    # on coarse grids; genuine asymmetry lands orders of magnitude above
    if denom > 0 and np.abs(rho[..., 1:] - mirrored).max() > 1e-6 * denom:
        warnings.warn("density is not even in r; the radial field assumes symmetry")

    s = grid.nodes[m:]  # 0, dxi, ..., xi_max - dxi
    q = s * rho[..., m:]
    integral = np.zeros_like(q)
    np.cumsum(grid.delta_xi * (q[..., 1:] + q[..., :-1]) / 2.0, axis=-1, out=integral[..., 1:])
    e_pos = np.zeros_like(integral)
    e_pos[..., 1:] = integral[..., 1:] / s[1:]

    out = np.zeros_like(rho)
    out[..., m:] = e_pos
    out[..., 1:m] = -e_pos[..., :0:-1]
    # leftmost node r = -xi_max: close the integral with a zero ghost density
    tail = integral[..., -1] + 0.5 * grid.delta_xi * q[..., -1]
    out[..., 0] = -tail / grid.xi_max
    return out


def sample_plane(values: np.ndarray, grid: PhaseGrid, x, y, order: int = 1):
    """Sample a single 2D grid function at arbitrary points, zero outside the box.

    order=1 is bilinear (the scheme-internal choice); order=3 is a spline used
    when mapping reference solutions between frames.  The data are extended
    by zero ghost nodes, so a point in the half-open last cell, or within one
    cell below the first node, ramps to zero as in the self-field.
    """
    gx = (np.asarray(x) + grid.xi_max) / grid.delta_xi
    gy = (np.asarray(y) + grid.xi_max) / grid.delta_xi
    return map_coordinates(
        np.asarray(values, dtype=float), [gx, gy], order=order, mode="grid-constant", cval=0.0
    )


class FrameRotator:
    """The self-field's linear map between radial profiles and the xi mesh.

    The rotation angles and both grids never change during a run, so the map
    is built once, for each of the torus's n_tau slices; its r grid is the n
    xi nodes, with zero ghosts at -1 and n.  Every row holds the two
    bracketing nodes of r(tau_l, xi), a ghost stored as an explicit zero
    weight:

    weights, indices: shape (n_tau, n, n, 2), float64 and int32, each row's
        two weights and their columns, local to the row's block;
    indptr: the row pointer of the widest block, whose prefix serves a
        narrower one.

    blocks lists the slices in tau order, in blocks from
    averaging.block_slices.  spreads[b], a CSR view of the stored entries of
    the m slices of block b, (m*n*n) x (m*n), samples each slice's profile
    linearly at r(tau_l, xi).  The columns are local to the block, so a
    stage can take the amplitude of one block of slices without forming the
    whole (a row slice of one big CSR matrix would be a copy).  The
    transpose, deposits[b], a CSC view of the same arrays, deposits the
    block's mass onto the r grid with the same weights.
    """

    def __init__(self, phase: PhaseGrid, torus: TorusGrid):
        self.phase = phase
        self.torus = torus
        n, nt = phase.n_points, torus.n_tau
        # the map holds 2 * nt * n * n entries of 12 bytes (a float64 weight, an int32 index)
        if 2 * nt * n * n >= 2 ** 31:
            gib = 24 * nt * n * n / 2 ** 30
            raise ValueError(f"grid too large for the self-field map: it would allocate {gib:.0f} GiB")

        self.blocks = block_slices(nt, n * n)
        self.weights = np.empty((nt, n, n, 2))
        self.indices = np.empty((nt, n, n, 2), dtype=np.int32)
        self.indptr = np.arange(0, 2 * self.blocks[0].stop * n * n + 1, 2, dtype=np.int32)
        xi1, xi2 = phase.mesh()
        self.spreads, self.deposits = [], []
        for taus in self.blocks:
            for l in range(taus.start, taus.stop):
                r = rotate_to_rv(torus.nodes[l], xi1, xi2)[0]
                for c, (k, w) in enumerate(_linear_weights(phase, r)):
                    np.add((l - taus.start) * n, k, out=self.indices[l, ..., c])
                    self.weights[l, ..., c] = w
            m = taus.stop - taus.start
            arrays = (self.weights[taus].reshape(-1), self.indices[taus].reshape(-1), self.indptr[: m * n * n + 1])
            self.spreads.append(_sparse_view(csr_matrix, arrays, (m * n * n, m * n)))
            # the CSC view of the same arrays, taken once rather than on every deposit
            self.deposits.append(_sparse_view(csc_matrix, arrays, (m * n, m * n * n)))


def _sparse_view(kind, arrays, shape):
    """A scipy matrix of the given kind over (data, indices, indptr) arrays, sharing their memory.

    scipy's constructors copy an array that views less than half of its
    base, so the arrays are set on an empty matrix instead.
    """
    matrix = kind(shape)
    matrix.data, matrix.indices, matrix.indptr = arrays
    return matrix


def _linear_weights(grid: PhaseGrid, x: np.ndarray):
    """The two nodes of the xi grid -xi_max + k delta_xi, k < n, bracketing each x.

    Returned as two (index, weight) pairs shaped like x.  A bracketing node
    off the grid is a zero ghost: weight 0, index clipped to 0.
    """
    g = (x + grid.xi_max) / grid.delta_xi
    k = np.floor(g)
    frac = g - k
    pairs = []
    for node, w in ((k, 1.0 - frac), (k + 1.0, frac)):
        inside = (node >= 0) & (node < grid.n_points)
        pairs.append((np.where(inside, node, 0).astype(np.int32), np.where(inside, w, 0.0)))
    return pairs


def radial_profiles(state: np.ndarray, rotator: FrameRotator) -> np.ndarray:
    """Radial Poisson field E_f(r) of every tau slice of a two-scale state; shape (n_tau, n).

    Each slice is deposited onto the r grid with the spread's weights,
    rho = delta_xi * spread^T f, one block of slices at a time, which keeps
    the mass of a slice that stays inside the box; the radial field of all
    slices is then taken at once.
    """
    n = rotator.phase.n_points
    rho = np.empty((rotator.torus.n_tau, n))
    for taus, deposit in zip(rotator.blocks, rotator.deposits):
        rho[taus] = (deposit @ np.ravel(state[taus])).reshape(-1, n)
    rho *= rotator.phase.delta_xi
    return radial_field(rho, rotator.phase)


def spread(e_rad: np.ndarray, rotator: FrameRotator, block: int) -> np.ndarray:
    """Amplitude E_f(r(tau, xi)) on the slices of one block, from radial_profiles' e_rad; shape (m, n, n)."""
    n = rotator.phase.n_points
    return (rotator.spreads[block] @ np.ravel(e_rad[rotator.blocks[block]])).reshape(-1, n, n)
