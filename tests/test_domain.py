"""Grids, frame rotations and the beam initial condition."""

import numpy as np
import pytest

from vlasov_ap.domain import (
    PhaseGrid,
    TorusGrid,
    initial_distribution,
    rotate_to_rv,
    rotate_to_xi,
)

F0_PEAK = 3.5682481772929386  # 4/sqrt(0.4 pi) * erf(4)


def test_phase_grid_nodes():
    grid = PhaseGrid(8, xi_max=4.0)
    assert grid.delta_xi == 1.0
    np.testing.assert_array_equal(grid.nodes, np.arange(-4.0, 4.0))
    # right endpoint excluded, axis node present
    assert grid.nodes[0] == -4.0
    assert 4.0 not in grid.nodes
    assert 0.0 in grid.nodes


def test_phase_grid_mesh_indexing():
    grid = PhaseGrid(4, xi_max=2.0)
    x1, x2 = grid.mesh()
    assert x1.shape == (4, 4)
    # first axis is xi1, second is xi2
    np.testing.assert_array_equal(x1[:, 0], grid.nodes)
    np.testing.assert_array_equal(x2[0, :], grid.nodes)


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseGrid(7)  # odd
    with pytest.raises(ValueError):
        PhaseGrid(2)
    with pytest.raises(ValueError):
        PhaseGrid(8, xi_max=-1.0)
    with pytest.raises(ValueError):
        TorusGrid(5)


def test_torus_grid_nodes():
    torus = TorusGrid(16)
    np.testing.assert_allclose(torus.nodes, 2.0 * np.pi * np.arange(16) / 16, rtol=0, atol=1e-15)
    assert torus.delta_tau == 2.0 * np.pi / 16


def test_rotation_matrices_orthogonal():
    rng = np.random.default_rng(3)
    for tau in rng.uniform(-10, 10, size=20):
        c, s = np.cos(tau), np.sin(tau)
        m = np.array([[c, s], [-s, c]])  # e^{tau J} acted on (xi1, xi2)
        np.testing.assert_allclose(m.T @ m, np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(m) - 1.0) < 1e-14


def test_rotation_group_law():
    rng = np.random.default_rng(4)
    r, v = rng.standard_normal(2)
    for t1, t2 in rng.uniform(-5, 5, size=(10, 2)):
        one = rotate_to_xi(t1 + t2, r, v)
        two = rotate_to_xi(t1, *rotate_to_xi(t2, r, v))
        np.testing.assert_allclose(one, two, atol=1e-13)


def test_rotation_round_trip():
    rng = np.random.default_rng(5)
    r = rng.standard_normal(12)
    v = rng.standard_normal(12)
    for tau in (0.0, 0.3, np.pi / 2, 4.0):
        xi1, xi2 = rotate_to_xi(tau, r, v)
        back = rotate_to_rv(tau, xi1, xi2)
        np.testing.assert_allclose(back, (r, v), atol=1e-14)


def test_rotation_quarter_turn():
    # e^{-J pi/2} maps (r, v) to (-v, r)
    xi1, xi2 = rotate_to_xi(np.pi / 2, 1.0, 2.0)
    np.testing.assert_allclose((xi1, xi2), (-2.0, 1.0), atol=1e-15)


def test_initial_distribution_symmetry():
    rng = np.random.default_rng(6)
    r = rng.uniform(-3, 3, size=40)
    v = rng.uniform(-3, 3, size=40)
    f = initial_distribution(r, v)
    np.testing.assert_allclose(f, initial_distribution(-r, v), rtol=1e-14)
    np.testing.assert_allclose(f, initial_distribution(r, -v), rtol=1e-14)


def test_initial_distribution_peak():
    assert abs(initial_distribution(0.0, 0.0) - F0_PEAK) < 1e-13
    # tail of the erf step is far below the peak
    assert initial_distribution(4.0, 0.0) < 1e-9 * F0_PEAK


def test_initial_distribution_bounds_on_grid():
    grid = PhaseGrid(64)
    x1, x2 = grid.mesh()
    f = initial_distribution(x1, x2)
    assert f.min() >= 0.0
    assert f.max() <= F0_PEAK * (1 + 1e-14)
