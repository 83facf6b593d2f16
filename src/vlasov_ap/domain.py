"""Phase-space and torus grids, frame rotations and the initial beam profile.

The model lives on a square (xi1, xi2) box that doubles as the (r, v) box of
the unfiltered problem, plus a uniform grid on the 2*pi torus for the fast
angle tau.  The filtering change of variables is the rigid rotation

    xi = e^{-J tau} (r, v),      J = [[0, 1], [-1, 0]],

so xi1 = r cos(tau) - v sin(tau) and xi2 = r sin(tau) + v cos(tau).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform n x n mesh on [-xi_max, xi_max)^2, identical in both directions."""

    n_points: int
    xi_max: float = 4.0

    def __post_init__(self):
        if self.n_points < 4 or self.n_points % 2:
            raise ValueError("n_points must be even and at least 4")
        if self.xi_max <= 0:
            raise ValueError("xi_max must be positive")

    @property
    def delta_xi(self) -> float:
        return 2.0 * self.xi_max / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        """Node coordinates -xi_max + i*delta_xi; the right edge is excluded."""
        return -self.xi_max + self.delta_xi * np.arange(self.n_points)

    def mesh(self):
        """(XI1, XI2) arrays of shape (n, n); xi1 varies along axis 0."""
        x = self.nodes
        return np.meshgrid(x, x, indexing="ij")


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid tau_l = 2*pi*l/(fold*n_tau), l < n_tau, on [0, 2*pi/fold); n_tau must be even.

    fold = 1 is the whole torus.  A state that repeats under
    tau -> tau + 2*pi/fold is carried on the first 1/fold of the torus
    alone: in sigma = fold*tau those nodes are the uniform grid of n_tau
    nodes on [0, 2*pi), which the averaging operators work on, so
    d/dtau = fold d/dsigma, an integral over tau is 1/fold times one over
    sigma, and a value at tau is the one at sigma = fold*tau.
    """

    n_tau: int = 64
    fold: int = 1

    def __post_init__(self):
        if self.n_tau < 4 or self.n_tau % 2:
            raise ValueError("n_tau must be even and at least 4")

    @property
    def delta_tau(self) -> float:
        return 2.0 * np.pi / (self.fold * self.n_tau)

    @property
    def nodes(self) -> np.ndarray:
        return self.delta_tau * np.arange(self.n_tau)


def rotate_to_xi(tau, r, v):
    """Rotate (r, v) into the filtered frame: xi = e^{-J tau} (r, v)."""
    c, s = np.cos(tau), np.sin(tau)
    return r * c - v * s, r * s + v * c


def rotate_to_rv(tau, xi1, xi2):
    """Inverse rotation: (r, v) = e^{J tau} xi."""
    c, s = np.cos(tau), np.sin(tau)
    return xi1 * c + xi2 * s, -xi1 * s + xi2 * c


def initial_distribution(r, v, alpha=0.2, edge=1.2, width=0.3):
    """Beam profile: a smoothed radial step times a Maxwellian in v.

    f0(r, v) = 4/sqrt(2 pi alpha) * chi(r) * exp(-v^2 / (2 alpha)) with
    chi(r) = (erf((r + edge)/width) - erf((r - edge)/width)) / 2.
    Nonnegative everywhere; even in r and in v separately.
    """
    chi = 0.5 * (erf((r + edge) / width) - erf((r - edge) / width))
    return 4.0 / np.sqrt(2.0 * np.pi * alpha) * chi * np.exp(-(v ** 2) / (2.0 * alpha))
