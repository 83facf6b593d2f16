"""Spectral operators on the tau torus.

The cross-checks here go through two independent routes where possible:
closed-form harmonics on one side, dense linear algebra or direct Fourier
sums on the other.
"""

import numpy as np
import pytest

from vlasov_ap.averaging import (
    antiderivative_from_zero,
    eval_at_tau,
    explicit_tau,
    fluctuation,
    invert_derivative,
    project_mean,
    solve_implicit_tau,
)
from vlasov_ap.domain import TorusGrid

TAU = TorusGrid(64).nodes


def spectral_derivative(g):
    """Spectral d/dtau, L g, read off the explicit half step (I - L) g."""
    g = np.asarray(g, dtype=float)
    return g - explicit_tau(g, 1.0)


def band_limited(rng, n_tau=64, k_max=6, shape=()):
    """Random real trig polynomial with harmonics 1..k_max, zero mean."""
    tau = TorusGrid(n_tau).nodes
    out = np.zeros(shape + (n_tau,))
    for k in range(1, k_max + 1):
        a = rng.standard_normal(shape + (1,))
        b = rng.standard_normal(shape + (1,))
        out = out + a * np.cos(k * tau) + b * np.sin(k * tau)
    return np.moveaxis(out, -1, 0) if shape else out


def test_project_mean_basics():
    assert project_mean(np.full(32, 2.5)) == 2.5
    assert abs(project_mean(np.cos(2 * TAU) ** 2) - 0.5) < 1e-14
    for k in (1, 3, 17):
        assert abs(project_mean(np.sin(k * TAU))) < 1e-14


def test_fluctuation_basics():
    np.testing.assert_allclose(fluctuation(np.full(16, 3.0)), 0.0, atol=1e-15)
    g = 2.0 + np.sin(TAU)
    np.testing.assert_allclose(fluctuation(g), np.sin(TAU), atol=1e-14)
    rng = np.random.default_rng(0)
    h = rng.standard_normal(64)
    np.testing.assert_allclose(fluctuation(fluctuation(h)), fluctuation(h), atol=1e-14)


def test_invert_derivative_harmonics():
    np.testing.assert_allclose(invert_derivative(np.sin(TAU)), -np.cos(TAU), atol=1e-13)
    np.testing.assert_allclose(invert_derivative(np.cos(2 * TAU)), np.sin(2 * TAU) / 2, atol=1e-13)


def test_invert_derivative_round_trip():
    rng = np.random.default_rng(1)
    g = band_limited(rng)
    u = invert_derivative(g)
    assert abs(project_mean(u)) < 1e-13
    np.testing.assert_allclose(spectral_derivative(u), g, atol=1e-12)


def test_invert_derivative_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="input has tau-mean .*apply fluctuation\\(\\) first"):
        invert_derivative(1.0 + np.sin(TAU))


def test_antiderivative_from_zero():
    np.testing.assert_allclose(antiderivative_from_zero(np.sin(TAU)), 1.0 - np.cos(TAU), atol=1e-13)
    np.testing.assert_allclose(antiderivative_from_zero(np.cos(TAU)), np.sin(TAU), atol=1e-13)
    rng = np.random.default_rng(2)
    g = band_limited(rng)
    assert antiderivative_from_zero(g)[0] == 0.0
    # differs from the zero-mean primitive by a constant only
    diff = antiderivative_from_zero(g) - invert_derivative(g)
    assert diff.max() - diff.min() < 1e-13


def test_resolvent_closed_form():
    # (1 + i lambda) u_hat = 1/2 at k=1 gives u = (cos + sin)/2 for lambda=1
    u = solve_implicit_tau(np.cos(TAU), 1.0)
    np.testing.assert_allclose(u, 0.5 * (np.cos(TAU) + np.sin(TAU)), atol=1e-13)


def test_resolvent_against_dense_solve():
    n = 32
    tau = TorusGrid(n).nodes
    # assemble the dense operator I + lam * d_tau column by column
    lam = 0.7
    dense = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dense[:, j] = e + lam * spectral_derivative(e)
    rng = np.random.default_rng(3)
    # stay below the Nyquist mode, where the two conventions coincide
    rhs = band_limited(rng, n_tau=n) + 0.8
    np.testing.assert_allclose(
        solve_implicit_tau(rhs, lam), np.linalg.solve(dense, rhs), atol=1e-12
    )


def test_resolvent_residual_and_limits():
    rng = np.random.default_rng(4)
    rhs = band_limited(rng) + 1.3
    for lam in (0.0, 1e-3, 1e3):
        u = solve_implicit_tau(rhs, lam)
        np.testing.assert_allclose(u + lam * spectral_derivative(u), rhs, atol=1e-12)
    np.testing.assert_array_equal(solve_implicit_tau(rhs, 0.0), rhs)
    # constants pass through untouched for any lambda
    np.testing.assert_allclose(solve_implicit_tau(np.full(64, 2.0), 5.0), 2.0, atol=1e-14)
    # huge lambda collapses onto the mean
    u = solve_implicit_tau(rhs, 1e8)
    assert np.abs(u - project_mean(rhs)).max() <= 1e-6 * np.abs(rhs).max()


def test_resolvent_preserves_mean_exactly():
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(64)
    u = solve_implicit_tau(rhs, 2.3)
    assert abs(project_mean(u) - project_mean(rhs)) < 1e-15


def test_inverse_operator_algebra():
    rng = np.random.default_rng(6)
    g = band_limited(rng)
    u = invert_derivative(g)
    assert abs(project_mean(u)) < 1e-12
    np.testing.assert_allclose(spectral_derivative(u), fluctuation(g), atol=1e-12)


def test_operator_linearity():
    rng = np.random.default_rng(7)
    f = band_limited(rng)
    g = band_limited(rng)
    a, b = 1.7, -0.4
    for op in (fluctuation, spectral_derivative, invert_derivative,
               lambda x: solve_implicit_tau(x, 0.9)):
        np.testing.assert_allclose(
            op(a * f + b * g), a * op(f) + b * op(g), atol=1e-12
        )


def test_eval_at_tau():
    g = np.cos(TAU)
    assert abs(eval_at_tau(g, 0.3) - np.cos(0.3)) < 1e-12
    # at a torus node the stored sample comes back exactly
    assert eval_at_tau(g, TAU[5]) == pytest.approx(g[5], abs=1e-13)
    assert eval_at_tau(np.full(64, 4.2), 1.234) == pytest.approx(4.2, abs=1e-13)


def test_eval_at_tau_band_limited_exact():
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((2, 6))
    tau_star = 2.71

    def direct(tau):
        return sum(coeffs[0, k - 1] * np.cos(k * tau) + coeffs[1, k - 1] * np.sin(k * tau)
                   for k in range(1, 7))

    g = direct(TAU)
    assert abs(eval_at_tau(g, tau_star) - direct(tau_star)) < 1e-12


def test_micro_macro_split():
    rng = np.random.default_rng(9)
    f = rng.standard_normal((16, 8, 8))
    g, h = project_mean(f), fluctuation(f)
    assert g.shape == (8, 8)
    np.testing.assert_allclose(g + h, f, atol=1e-15)
    np.testing.assert_allclose(project_mean(h), 0.0, atol=1e-14)
    # tau-independent input has no fluctuation
    const = np.broadcast_to(f[0], (16, 8, 8)).copy()
    g2, h2 = project_mean(const), fluctuation(const)
    np.testing.assert_allclose(g2, f[0], atol=1e-15)
    np.testing.assert_allclose(h2, 0.0, atol=1e-14)


def fourier_tau(g, symbol):
    """irfft(symbol * rfft(g)) along axis 0; symbol has one entry per rfft bin."""
    s = symbol.reshape((-1,) + (1,) * (g.ndim - 1))
    return np.fft.irfft(s * np.fft.rfft(g, axis=0), n=g.shape[0], axis=0)


def derivative_symbol(n):
    s = 1j * np.arange(n // 2 + 1)
    s[-1] = 0.0
    return s


def primitive_symbol(n):
    s = np.zeros(n // 2 + 1, dtype=complex)
    s[1:-1] = 1.0 / (1j * np.arange(1, n // 2))
    return s


def resolvent_symbol(n, lam):
    s = 1.0 / (1.0 + 1j * lam * np.arange(n // 2 + 1))
    s[-1] = 1.0 / (1.0 + (lam * (n // 2)) ** 2)
    return s


def fourier_eval(g, tau_star):
    """Direct trigonometric sum of the rfft coefficients at tau_star."""
    n = g.shape[0]
    gh = np.fft.rfft(g, axis=0)
    k = np.arange(1, n // 2).reshape((-1,) + (1,) * (g.ndim - 1))
    val = gh[0].real + 2.0 * (gh[1:-1] * np.exp(1j * k * tau_star)).real.sum(axis=0)
    return (val + gh[-1].real * np.cos((n // 2) * tau_star)) / n


def white_noise(shape_id):
    """O(1) samples carrying every tau harmonic, the Nyquist bin included."""
    rng = np.random.default_rng(20)
    return {
        "1d": rng.standard_normal(64),
        "2d": rng.standard_normal((16, 5)),
        "3d": rng.standard_normal((32, 6, 7)),
        "transposed": rng.standard_normal((6, 64, 7)).transpose(1, 0, 2),
        "strided": rng.standard_normal((128, 9, 4))[::2, :, 1:3],
        "n_tau4": rng.standard_normal((4, 3)),
    }[shape_id]


def assert_matches(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


# n_tau = 4, the smallest torus a run accepts, has one interior mode besides the Nyquist bin
SHAPES = ("1d", "2d", "3d", "transposed", "strided", "n_tau4")


@pytest.mark.parametrize("shape_id", SHAPES)
def test_operators_match_fourier_definition(shape_id):
    g = white_noise(shape_id)
    n = g.shape[0]
    nyquist = np.fft.rfft(g, axis=0)[-1]
    assert np.abs(nyquist).max() > 0.1
    assert_matches(spectral_derivative(g), fourier_tau(g, derivative_symbol(n)))
    h = fluctuation(g)
    assert_matches(invert_derivative(h), fourier_tau(h, primitive_symbol(n)))
    for lam in (1e-3, 0.7, 1e3, 1e8):
        assert_matches(solve_implicit_tau(g, lam), fourier_tau(g, resolvent_symbol(n, lam)))
        assert_matches(explicit_tau(g, lam), g - lam * fourier_tau(g, derivative_symbol(n)))
    for tau_star in (0.0, 0.3, 2.71, 2.0 * np.pi * 5 / n):
        assert_matches(np.asarray(eval_at_tau(g, tau_star)), fourier_eval(g, tau_star))


def test_operator_edge_cases():
    g = white_noise("1d")
    assert np.isscalar(eval_at_tau(g, 1.1))
    u = solve_implicit_tau(g, 0.0)
    np.testing.assert_array_equal(u, g)
    assert not np.shares_memory(u, g)


def test_operators_reject_odd_length():
    # at n = 5 cos(2 tau) is a genuine top mode; no Nyquist rule applies to it
    g = np.cos(2 * (2 * np.pi / 5) * np.arange(5))
    for op in (spectral_derivative, invert_derivative,
               lambda x: solve_implicit_tau(x, 0.9), lambda x: explicit_tau(x, 0.9),
               lambda x: eval_at_tau(x, 0.3)):
        with pytest.raises(ValueError, match="even"):
            op(g)
