"""Tension functions, applied field, density, radial Poisson field, self field.

The self-field pipeline is checked against a deliberately slow nested-loop
reimplementation of the same quadratures.
"""

import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from vlasov_ap import averaging, fields
from vlasov_ap.averaging import project_mean
from vlasov_ap.domain import PhaseGrid, TorusGrid, initial_distribution, rotate_to_rv
from vlasov_ap.fields import (
    FrameRotator,
    applied_amplitude,
    density,
    get_tension,
    radial_field,
    radial_profiles,
    sample_plane,
    spread,
)
from vlasov_ap.stepper import APSolver

RHO_AXIS = 3.9999999383309683  # 4 erf(4), density of the beam profile at r = 0


def field_pair(g, tau):
    """The field g (-sin tau, cos tau) of an amplitude g, as its two components."""
    return -np.sin(tau) * g, np.cos(tau) * g


def field_amplitude(state, rotator=None, applied=0.0):
    """The amplitude of the field a whole state sees, built from the public fields functions.

    applied (an applied_amplitude), plus, given a rotator, the state's
    self-field: its radial_profiles spread block by block and stacked.
    """
    if rotator is None:
        return applied
    return applied + whole_spread(radial_profiles(state, rotator), rotator)


def whole_spread(e_rad, rotator):
    """The spread of radial profiles e_rad (n_tau, n) onto a whole state, block by block from spread."""
    return np.concatenate([spread(e_rad, rotator, b) for b in range(len(rotator.blocks))])


def applied_pair(tension, tau, xi1, xi2):
    """The applied field's two components, from applied_amplitude; broadcasts over inputs."""
    return field_pair(applied_amplitude(tension, tau, xi1, xi2), tau)


def test_tension_values():
    a = get_tension("cos2sq")
    tau = np.linspace(0, 7, 23)
    np.testing.assert_allclose(a(tau), np.cos(2 * tau) ** 2, atol=1e-15)
    np.testing.assert_allclose(a(tau + 2 * np.pi), a(tau), atol=1e-14)
    b = get_tension("cos4")
    np.testing.assert_allclose(b(tau), np.cos(4 * tau), atol=1e-15)
    with pytest.raises(KeyError):
        get_tension("sawtooth")


def test_tension_integral():
    # primitive of cos^2(2 tau) is tau/2 + sin(4 tau)/8
    a = get_tension("cos2sq")
    for t0, t1 in ((0.0, 1.3), (-2.0, 5.5), (0.1, 0.1)):
        want = (t1 / 2 + np.sin(4 * t1) / 8) - (t0 / 2 + np.sin(4 * t0) / 8)
        assert abs(a.integral(t0, t1) - want) < 1e-13
    b = get_tension("cos4")
    assert abs(b.integral(0.0, 0.7) - np.sin(4 * 0.7) / 4) < 1e-14


def test_applied_field_at_zero():
    a = get_tension("cos2sq")
    e1, e2 = applied_pair(a, 0.0, 1.7, -0.4)
    assert e1 == 0.0
    assert e2 == 1.7


def test_applied_field_average():
    # tau-mean of the oscillatory field is the quarter rotation (-xi2, xi1)/4
    a = get_tension("cos2sq")
    torus = TorusGrid(64)
    xi1, xi2 = 0.8, -1.1
    e1, e2 = applied_pair(a, torus.nodes, xi1, xi2)
    assert abs(project_mean(e1) - (-xi2 / 4)) < 1e-13
    assert abs(project_mean(e2) - (xi1 / 4)) < 1e-13
    # the diffusion-regime tension averages to zero instead
    b = get_tension("cos4")
    e1, e2 = applied_pair(b, torus.nodes, xi1, xi2)
    assert abs(project_mean(e1)) < 1e-13
    assert abs(project_mean(e2)) < 1e-13


def test_sample_applied_field_matches_pointwise():
    # the applied field a linear-mode solver samples on the (tau, xi) grid
    a = get_tension("cos2sq")
    phase = PhaseGrid(16)
    torus = TorusGrid(8)
    e1, e2 = field_pair(APSolver(phase, torus, a, 0.5).applied_amplitude, torus.nodes[:, None, None])
    x1, x2 = phase.mesh()
    l = 3
    w1, w2 = applied_pair(a, torus.nodes[l], x1, x2)
    np.testing.assert_allclose(e1[l], w1, atol=1e-15)
    np.testing.assert_allclose(e2[l], w2, atol=1e-15)


def test_density_basics():
    grid = PhaseGrid(32)
    np.testing.assert_array_equal(density(np.zeros((32, 32)), grid.delta_xi), 0.0)
    # separable f = g(r) * 1 integrates to g times the v extent
    g = np.exp(-grid.nodes ** 2)
    f = np.broadcast_to(g[:, None], (32, 32)).copy()
    np.testing.assert_allclose(density(f, grid.delta_xi), 8.0 * g, rtol=1e-14)


def test_density_of_beam_profile():
    grid = PhaseGrid(256)
    x1, x2 = grid.mesh()
    rho = density(initial_distribution(x1, x2), grid.delta_xi)
    i0 = 128  # node at r = 0
    assert grid.nodes[i0] == 0.0
    assert abs(rho[i0] - RHO_AXIS) < 1e-6


def test_radial_field_uniform():
    grid = PhaseGrid(64)
    e = radial_field(np.ones(64), grid)
    np.testing.assert_allclose(e[1:], grid.nodes[1:] / 2, atol=1e-14)


def test_radial_field_quadratic():
    grid = PhaseGrid(128)
    rho = grid.nodes ** 2
    e = radial_field(rho, grid)
    np.testing.assert_allclose(e[1:], grid.nodes[1:] ** 3 / 4, atol=grid.delta_xi ** 2)


def test_radial_field_zero_and_oddness():
    n = 32
    grid = PhaseGrid(n)
    np.testing.assert_array_equal(radial_field(np.zeros(n), grid), 0.0)
    rng = np.random.default_rng(10)
    vals = rng.uniform(0.5, 1.5, size=n // 2 + 1)
    rho = np.empty(n)
    rho[n // 2:] = vals[: n // 2]
    for k in range(1, n // 2):
        rho[n // 2 - k] = rho[n // 2 + k]
    rho[0] = vals[-1]  # unpaired leftmost node
    e = radial_field(rho, grid)
    assert e[n // 2] == 0.0
    for k in range(1, n // 2):
        assert e[n // 2 - k] == -e[n // 2 + k]


def test_radial_field_rejects_wrong_length():
    with pytest.raises(ValueError, match="density length"):
        radial_field(np.ones(31), PhaseGrid(32))


def test_radial_field_warns_on_asymmetry():
    grid = PhaseGrid(32)
    rho = np.ones(32)
    rho[3] = 2.0
    with pytest.warns(UserWarning):
        radial_field(rho, grid)


def test_sample_plane_ramps_to_zero_ghosts():
    # nodes -4..3: a point in the half-open last cell, or one cell below the
    # first node, sees the zero ghost at distance 1, as the self-field does
    grid = PhaseGrid(8)
    x = np.array([3.5, -4.5, -5.0, 4.0, 3.0, -4.0])
    np.testing.assert_array_equal(
        sample_plane(np.ones((8, 8)), grid, x, np.zeros(6)), [0.5, 0.5, 0.0, 0.0, 1.0, 1.0]
    )


def _self_field_loops(state, phase, torus):
    """Slow reference: the same deposit/field/spread pipeline, all loops."""
    n, nt = phase.n_points, torus.n_tau
    dxi = phase.delta_xi
    nodes = phase.nodes
    e1 = np.zeros((nt, n, n))
    e2 = np.zeros((nt, n, n))
    for l in range(nt):
        tau = torus.nodes[l]
        # deposit each xi node's mass on the two r nodes bracketing its radius
        rho = np.zeros(n)
        for p in range(n):
            for q in range(n):
                r_star = nodes[p] * np.cos(tau) + nodes[q] * np.sin(tau)
                gx = (r_star + phase.xi_max) / dxi
                k0 = int(np.floor(gx))
                fx = gx - k0
                if 0 <= k0 < n:
                    rho[k0] += dxi * (1 - fx) * state[l, p, q]
                if 0 <= k0 + 1 < n:
                    rho[k0 + 1] += dxi * fx * state[l, p, q]
        half = n // 2
        cum = np.zeros(half)
        for i in range(1, half):
            s0, s1 = nodes[half + i - 1], nodes[half + i]
            cum[i] = cum[i - 1] + 0.5 * dxi * (s0 * rho[half + i - 1] + s1 * rho[half + i])
        e_rad = np.zeros(n)
        for i in range(1, half):
            e_rad[half + i] = cum[i] / nodes[half + i]
            e_rad[half - i] = -e_rad[half + i]
        e_rad[0] = -(cum[half - 1] + 0.5 * dxi * nodes[-1] * rho[-1]) / phase.xi_max
        for p in range(n):
            for q in range(n):
                r_star = nodes[p] * np.cos(tau) + nodes[q] * np.sin(tau)
                gx = (r_star + phase.xi_max) / dxi
                k0 = int(np.floor(gx))
                fx = gx - k0
                val = 0.0
                if 0 <= k0 < n:
                    val += (1 - fx) * e_rad[k0]
                if 0 <= k0 + 1 < n:
                    val += fx * e_rad[k0 + 1]
                e1[l, p, q] = -np.sin(tau) * val
                e2[l, p, q] = np.cos(tau) * val
    return e1, e2


def self_field_pair(state, rotator):
    """The self-field components: (-sin tau, cos tau) times the self-field amplitude."""
    return field_pair(field_amplitude(state, rotator), rotator.torus.nodes[:, None, None])


def test_self_field_zero_state():
    phase = PhaseGrid(16)
    torus = TorusGrid(8)
    rot = FrameRotator(phase, torus)
    e1, e2 = self_field_pair(np.zeros((8, 16, 16)), rot)
    np.testing.assert_array_equal(e1, 0.0)
    np.testing.assert_array_equal(e2, 0.0)


def test_self_field_against_loop_oracle():
    rng = np.random.default_rng(11)
    # at 32^2 x 16 the torus is one block of 16 slices
    for n, n_tau in ((16, 8), (32, 16)):
        phase = PhaseGrid(n)
        torus = TorusGrid(n_tau)
        rot = FrameRotator(phase, torus)
        x1, x2 = phase.mesh()
        bump = np.exp(-2.0 * (x1 ** 2 + x2 ** 2))
        # the bump is 1e-14 at the rim; the rim load puts O(1) values in the
        # outermost cells, where rotated nodes ramp to the zero ghosts
        rim = np.zeros((n, n), dtype=bool)
        rim[[0, -1], :] = rim[:, [0, -1]] = True
        for state in (bump[None] * (1.0 + 0.3 * rng.random((n_tau, 1, 1))),
                      rim[None] * rng.uniform(0.5, 1.5, size=(n_tau, n, n))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the rim load is not even in r
                got1, got2 = self_field_pair(state, rot)
            want1, want2 = _self_field_loops(state, phase, torus)
            np.testing.assert_allclose(got1, want1, atol=1e-13)
            np.testing.assert_allclose(got2, want2, atol=1e-13)


def _deposited_density(state, rot, monkeypatch):
    """The density rho(tau_l, r) that radial_profiles hands to the radial solve."""
    seen = []

    def spy(rho, grid):
        seen.append(rho)
        return radial_field(rho, grid)

    monkeypatch.setattr(fields, "radial_field", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # random states are not even in r
        field_amplitude(state, rot)
    return seen[0]


def test_deposit_keeps_each_slice_mass(monkeypatch):
    # the bump vanishes beyond radius 3, so every rotated radius with mass
    # stays inside [-xi_max, xi_max - delta_xi] and both of its weights land
    phase, torus = PhaseGrid(32), TorusGrid(16)
    x1, x2 = phase.mesh()
    bump = np.clip(1.0 - (x1 ** 2 + x2 ** 2) / 9.0, 0.0, None) ** 3
    state = bump[None] * (1.0 + 0.3 * np.random.default_rng(5).random((16, 1, 1)))
    rho = _deposited_density(state, FrameRotator(phase, torus), monkeypatch)
    np.testing.assert_allclose(
        rho.sum(axis=1) * phase.delta_xi, phase.delta_xi ** 2 * state.sum(axis=(1, 2)), rtol=1e-13
    )


def test_deposit_is_the_adjoint_of_the_spread(monkeypatch):
    # <spread e, f> delta_xi = <e, rho(f)>: deposit and spread share one weighting
    phase, torus = PhaseGrid(16, 3.5), TorusGrid(8)
    rot = FrameRotator(phase, torus)
    rng = np.random.default_rng(3)
    e = rng.random((8, 16))
    f = rng.random((8, 16, 16))
    rho = _deposited_density(f, rot, monkeypatch)
    lhs = np.dot(whole_spread(e, rot).ravel(), f.ravel()) * phase.delta_xi
    np.testing.assert_allclose(lhs, np.dot(e.ravel(), rho.ravel()), rtol=1e-13)


def _rotator_stacks(phase, taus):
    """The spread's entries built one tau slice at a time from (..., 2) corner stacks.

    On the n xi nodes -xi_max + k delta_xi: the bracketing node indices k
    and weights of every row, shaped (len(taus), n, n, 2), a node off the
    grid a zero ghost at index 0.
    """
    n = phase.n_points

    def weights(x):
        g = (x + phase.xi_max) / phase.delta_xi
        k0 = np.floor(g)
        frac = g - k0
        k = k0[..., None] + np.array([0.0, 1.0])
        w = np.stack([1.0 - frac, frac], axis=-1)
        inside = (k >= 0) & (k < n)
        return np.where(inside, k, 0).astype(np.int32), np.where(inside, w, 0.0)

    spread_idx = np.empty((len(taus), n, n, 2), dtype=np.int32)
    spread_w = np.empty((len(taus), n, n, 2))
    a, b = phase.mesh()
    for l, tau in enumerate(taus):
        spread_idx[l], spread_w[l] = weights(rotate_to_rv(tau, a, b)[0])
    return spread_idx, spread_w


# one block of tau slices (32^2 x 16), a full and a partial block (at 96^2,
# 7 slices a block), and (at 512^2, where one slice holds more than
# BLOCK_ENTRIES) one slice a block; a folded torus stores its n_tau slices
@pytest.mark.parametrize("n, torus", [
    pytest.param(16, TorusGrid(8), id="16-8"),
    pytest.param(32, TorusGrid(16), id="32-16"),
    pytest.param(96, TorusGrid(16), id="96-16"),
    pytest.param(512, TorusGrid(4), id="512-4"),
    pytest.param(32, TorusGrid(8, fold=2), id="32-8-fold2"),
    pytest.param(96, TorusGrid(8, fold=2), id="96-8-fold2"),
])
def test_frame_rotator_matches_the_stacked_construction_entry_for_entry(n, torus, monkeypatch):
    # at xi_max 3.5 delta_xi is not a power of two, so rounding in the weights shows
    phase, n_tau = PhaseGrid(n, 3.5), torus.n_tau
    rot = FrameRotator(phase, torus)
    width = min(n_tau, max(1, averaging.BLOCK_ENTRIES // (n * n)))
    blocks = [(s, min(s + width, n_tau)) for s in range(0, n_tau, width)]
    assert [(b.start, b.stop) for b in rot.blocks] == blocks

    # the stored entries, zero ghosts included, with columns local to each block
    idx, w = _rotator_stacks(phase, torus.nodes)
    block_start = np.concatenate([np.full(b - a, a) for a, b in blocks])
    assert np.array_equal(rot.weights, w)
    assert np.array_equal(rot.indices, idx + ((np.arange(n_tau) - block_start) * n)[:, None, None, None])
    assert np.array_equal(rot.indptr, np.arange(0, 2 * width * n * n + 1, 2))
    assert rot.indices.dtype == rot.indptr.dtype == np.int32

    # every slice, to the bit, against the direct map of all slices on the n xi nodes
    idx += (np.arange(n_tau) * n)[:, None, None, None]
    direct = csr_matrix((w.ravel(), idx.ravel(), np.arange(0, w.size + 1, 2)), shape=(n_tau * n * n, n_tau * n))
    rng = np.random.default_rng(n)
    e = rng.random((n_tau, n))
    f = rng.random((n_tau, n, n))
    assert np.array_equal(whole_spread(e, rot), (direct @ e.ravel()).reshape(n_tau, n, n))
    rho = phase.delta_xi * (direct.T @ f.ravel()).reshape(n_tau, n)
    assert np.array_equal(_deposited_density(f, rot, monkeypatch), rho)


def test_frame_rotator_holds_one_half_of_the_map_and_views_of_it():
    # the rotator of a poisson_ap run, 128^2 on the half torus of 32 slices,
    # stores 12.25 MiB; each matrix, the CSC deposits too, is a view of the
    # stored arrays and adds nothing
    rot = FrameRotator(PhaseGrid(128), TorusGrid(32, fold=2))
    stored = (rot.weights, rot.indices, rot.indptr)
    assert sum(a.nbytes for a in stored) <= 13 * 2 ** 20
    for matrix in rot.spreads + rot.deposits:
        for a, b in zip((matrix.data, matrix.indices, matrix.indptr), stored):
            assert np.shares_memory(a, b)


def test_frame_rotator_rejects_int32_overflow():
    # the map of 16 x 8192^2 would take 24 GiB; nothing is allocated
    with pytest.raises(ValueError, match="too large for the self-field map: it would allocate 24 GiB"):
        FrameRotator(PhaseGrid(8192), TorusGrid(16))


def test_self_field_radial_state():
    # radial profiles are rotation invariant: at tau=0 the field is E(xi1)*(0,1)
    phase = PhaseGrid(32)
    torus = TorusGrid(16)
    rot = FrameRotator(phase, torus)
    x1, x2 = phase.mesh()
    g = np.exp(-(x1 ** 2 + x2 ** 2) / 0.8)
    state = np.broadcast_to(g, (16, 32, 32)).copy()
    e1, e2 = self_field_pair(state, rot)
    e_direct = radial_field(density(g, phase.delta_xi), phase)
    np.testing.assert_allclose(e1[0], 0.0, atol=1e-14)
    np.testing.assert_allclose(
        e2[0], np.broadcast_to(e_direct[:, None], (32, 32)), atol=phase.delta_xi ** 2
    )
    # every slice sees the same radial field, up to interpolation error
    np.testing.assert_allclose(e1[5] ** 2 + e2[5] ** 2,
                               e1[0] ** 2 + e2[0] ** 2, atol=5 * phase.delta_xi ** 2)


def test_self_field_linearity_and_symmetry():
    phase = PhaseGrid(16)
    torus = TorusGrid(8)
    rot = FrameRotator(phase, torus)
    x1, x2 = phase.mesh()
    state = np.exp(-2.0 * (x1 ** 2 + x2 ** 2))[None] * np.ones((8, 1, 1))
    e1, e2 = self_field_pair(state, rot)
    d1, d2 = self_field_pair(2.0 * state, rot)
    np.testing.assert_allclose(d1, 2 * e1, atol=1e-14)
    np.testing.assert_allclose(d2, 2 * e2, atol=1e-14)
    # even state in xi gives an odd field; check node pairs whose rotated
    # radius stays clear of the half-open right edge for every tau
    inner = np.sqrt(x1 ** 2 + x2 ** 2) <= phase.xi_max - phase.delta_xi
    mask = inner[1:, 1:] & inner[:0:-1, :0:-1]
    for l in range(8):
        np.testing.assert_allclose(
            e1[l, 1:, 1:][mask], -e1[l, :0:-1, :0:-1][mask], atol=1e-10
        )
        np.testing.assert_allclose(
            e2[l, 1:, 1:][mask], -e2[l, :0:-1, :0:-1][mask], atol=1e-10
        )
