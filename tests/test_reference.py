import types

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import solve_ivp
from test_fields import applied_pair

from vlasov_ap import averaging
from vlasov_ap.domain import PhaseGrid, TorusGrid, initial_distribution, rotate_to_xi
from vlasov_ap.fields import Tension, get_tension
from vlasov_ap.reference import (
    SplittingSolver,
    _shift_phase,
    constant_drift,
    filtered_from_rv,
    model_solution,
    periodic_drift,
    rotation_rate,
)
from vlasov_ap.stepper import APSolver

ZERO_TENSION = Tension("zero", lambda t: 0.0 * t, lambda t: 0.0 * t)
COS2SQ = get_tension("cos2sq")


def effective_hamiltonian(xi1, xi2, tension: Tension, n_tau: int = 64):
    """Quadratic invariant D(xi) driving the order-eps rotation correction.

    Computed from the Fourier coefficients A_k of the applied field on the
    torus as 2 Im sum_{k>=1} A_{k,1} conj(A_{k,2}) / k; spectrally exact for
    band-limited tensions.  For cos2sq this equals 5/384 * |xi|^2.
    """
    tau = (2.0 * np.pi / n_tau) * np.arange(n_tau)
    shape = (-1,) + (1,) * np.ndim(xi1)
    e1, e2 = applied_pair(tension, tau.reshape(shape), np.asarray(xi1)[None], np.asarray(xi2)[None])
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
    e = np.stack(applied_pair(tension, tau, xi1, xi2))  # (2, n_tau)
    prim = np.stack([averaging.invert_derivative(averaging.fluctuation(ei)) for ei in e])
    return -np.einsum("it,jt->ij", e, prim) / n_tau


def test_rotation_rate_values():
    assert rotation_rate(0.0) == 0.25
    # one lattice period advances the slow phase by a quarter turn
    assert rotation_rate(0.0) * 2.0 * np.pi == pytest.approx(np.pi / 2, abs=1e-15)
    eps = 0.3
    assert rotation_rate(eps) == pytest.approx(0.25 + 5.0 * eps / 192.0, abs=1e-16)


def test_drift_matrices():
    d0 = constant_drift()
    np.testing.assert_allclose(d0, np.diag([-1.0, 1.0]) / 12.0, atol=1e-16)
    np.testing.assert_allclose(periodic_drift(0.0), -d0, atol=1e-15)
    np.testing.assert_allclose(periodic_drift(np.pi / 2), d0, atol=1e-14)
    # D1 is mean-free over the period; 64 nodes resolve its harmonics exactly
    tau = (2.0 * np.pi / 64) * np.arange(64)
    mean = sum(periodic_drift(s) for s in tau) / 64
    np.testing.assert_allclose(mean, 0.0, atol=1e-15)


def test_limit_solution_against_characteristics():
    # independent route: average the applied field on the torus numerically
    # and trace the characteristic backward with a tight ODE solver
    tension = get_tension("cos2sq")
    tau = (2.0 * np.pi / 64) * np.arange(64)

    def averaged_field(xi):
        e1, e2 = applied_pair(tension, tau, xi[0], xi[1])
        return np.array([e1.mean(), e2.mean()])

    t = 1.7
    for p in [(0.8, -0.3), (1.5, 2.0), (-0.7, 0.4)]:
        sol = solve_ivp(
            lambda s, y: -averaged_field(y),
            (0.0, t),
            np.array(p),
            rtol=1e-12,
            atol=1e-14,
            method="DOP853",
        )
        foot = sol.y[:, -1]
        want = initial_distribution(foot[0], foot[1])
        assert model_solution("limit", t, 0.1, tension, p[0], p[1]) == pytest.approx(want, abs=1e-12)


def test_second_order_reduces_to_limit():
    # at t = 0.4 pi, t/eps is a whole number of turns for each eps, so tau = 0
    grid = PhaseGrid(32)
    x1, x2 = grid.mesh()
    t = 0.4 * np.pi
    lim = model_solution("limit", t, 0.1, COS2SQ, x1, x2)
    gaps = [
        np.abs(model_solution("second_order", t, eps, COS2SQ, x1, x2) - lim).max()
        for eps in (0.1, 0.05, 0.025)
    ]
    assert gaps[0] < 5e-2
    assert 1.8 < gaps[0] / gaps[1] < 2.2
    assert 1.8 < gaps[1] / gaps[2] < 2.2


def test_second_order_initial_consistency():
    # at t = 0, tau = 0 the two drift factors cancel to O(eps^2)
    grid = PhaseGrid(32)
    x1, x2 = grid.mesh()
    f0 = initial_distribution(x1, x2)
    gaps = [
        np.abs(model_solution("second_order", 0.0, eps, COS2SQ, x1, x2) - f0).max()
        for eps in (0.05, 0.025)
    ]
    assert gaps[0] < 2e-4
    assert 3.5 < gaps[0] / gaps[1] < 4.5


def test_effective_hamiltonian_closed_form():
    rng = np.random.default_rng(3)
    xi1, xi2 = rng.uniform(-3, 3, 7), rng.uniform(-3, 3, 7)
    want = 5.0 / 384.0 * (xi1**2 + xi2**2)
    got = effective_hamiltonian(xi1, xi2, get_tension("cos2sq"))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_drift_coupling_matrix_cross_check():
    # quadrature route must agree with the spectral route for both tensions
    for name in ("cos2sq", "cos4"):
        tension = get_tension(name)
        for xi1, xi2 in [(1.0, 0.5), (-2.0, 1.7), (0.3, -0.9)]:
            m = drift_coupling_matrix(tension, xi1, xi2)
            np.testing.assert_allclose(m + m.T, 0.0, atol=1e-13)
            d = effective_hamiltonian(np.array(xi1), np.array(xi2), tension)
            assert m[0, 1] == pytest.approx(float(d), abs=1e-12)


def test_model_solution():
    grid = PhaseGrid(32)
    r, v = grid.mesh()
    f0 = initial_distribution(r, v)
    # frames coincide at t = 0
    lab = model_solution("limit", 0.0, 0.1, COS2SQ, *rotate_to_xi(0.0, r, v))
    np.testing.assert_allclose(lab, f0, atol=1e-15)
    with pytest.raises(ValueError):
        model_solution("cubic", 1.0, 0.1, COS2SQ, r, v)
    # the closed forms hold for cos2sq alone
    for model in ("limit", "second_order"):
        with pytest.raises(ValueError, match="cos2sq"):
            model_solution(model, 1.0, 0.1, get_tension("cos4"), r, v)
    # an array of times stacks the single-time fields, bit for bit
    times, eps = np.array([0.0, 0.4, 1.3]), 0.07
    for model in ("limit", "second_order"):
        many = model_solution(model, times, eps, COS2SQ, r, v, {"alpha": 0.3})
        assert many.shape == (3,) + r.shape
        for t, got in zip(times, many):
            assert np.array_equal(got, model_solution(model, t, eps, COS2SQ, r, v, {"alpha": 0.3}))


def test_splitting_harmonic_rotation():
    # a == 0 and no self field leaves the pure oscillator; two Strang steps
    # approach the exact rotation at third order in dt
    grid = PhaseGrid(64)
    solver = SplittingSolver(grid, 1.0, ZERO_TENSION, "linear")
    r, v = grid.mesh()
    errs = []
    for dt in (0.2, 0.1, 0.05):
        f = solver.initial_state()
        f = solver.solve(f, 0, 1, dt)
        f = solver.solve(f, 1, 2, dt)
        exact = initial_distribution(*rotate_to_xi(2.0 * dt, r, v))
        errs.append(np.abs(f - exact).max())
    assert 7.0 < errs[0] / errs[1] < 9.5
    assert 7.0 < errs[1] / errs[2] < 9.5


def test_splitting_self_convergence():
    grid = PhaseGrid(64)
    solver = SplittingSolver(grid, 0.25, get_tension("cos2sq"), "linear")
    t = np.pi / 16
    ref = solver.solve(solver.initial_state(), 0, 512, t / 512)
    dts, errs = [], []
    for n in (8, 16, 32):
        dts.append(t / n)
        errs.append(np.abs(solver.solve(solver.initial_state(), 0, n, t / n) - ref).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 1.8, (slope, errs)


def test_splitting_matches_second_order_model():
    # the splitting solver at small eps over a long horizon: eps = 0.01,
    # t = 2 pi (t/eps = 200 pi), fine steps, agrees with the closed-form
    # second-order model to its O(eps^2).  The comparison is grid-pointwise
    # in the lab frame, so no interpolation enters.
    grid = PhaseGrid(64)
    eps = 0.01
    solver = SplittingSolver(grid, eps, get_tension("cos2sq"), "linear")
    f = solver.solve(solver.initial_state(), 0, 125664, 2.0 * np.pi / 125664)  # dt near 5e-5
    r, v = grid.mesh()
    model = model_solution("second_order", 2.0 * np.pi, eps, COS2SQ, *rotate_to_xi(2.0 * np.pi / eps, r, v))
    rel = np.abs(f - model).max() / np.abs(model).max()
    assert rel <= 1e-3, rel


def test_exact_linear_is_initial_data_at_t_zero():
    x1, x2 = PhaseGrid(32).mesh()
    got = model_solution("exact", 0.0, 0.3, get_tension("cos4"), x1, x2, {"alpha": 0.4})
    assert np.array_equal(got, initial_distribution(x1, x2, alpha=0.4))


def test_exact_linear_reports_a_failed_integration(monkeypatch):
    failed = types.SimpleNamespace(success=False, message="step size too small")
    monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k: failed)
    x1, x2 = PhaseGrid(16).mesh()
    with pytest.raises(RuntimeError, match="Hill system integration failed: step size too small"):
        model_solution("exact", 0.5, 0.3, get_tension("cos4"), x1, x2)


@pytest.mark.parametrize("tension", ["cos2sq", "cos4"])
def test_exact_linear_matches_fine_splitting(tension):
    # compared node for node in the lab frame, so no interpolation enters;
    # measured 2.0e-6 (cos2sq) and 3.3e-6 (cos4), second order in the step
    grid = PhaseGrid(64)
    eps, t = 0.25, np.pi / 4
    solver = SplittingSolver(grid, eps, get_tension(tension))
    f = solver.solve(solver.initial_state(), 0, 628, t / 628)  # dt near 0.00125
    r, v = grid.mesh()
    exact = model_solution("exact", t, eps, get_tension(tension), *rotate_to_xi(t / eps, r, v))
    assert np.abs(f - exact).max() / np.abs(exact).max() < 1e-5


def test_exact_linear_matches_second_order_model_at_small_eps():
    # the model is first order in eps, so its error is O(eps^2); 7.4e-6 measured
    x1, x2 = PhaseGrid(64).mesh()
    eps, t = 0.01, 1.0
    model = model_solution("second_order", t, eps, COS2SQ, x1, x2)
    exact = model_solution("exact", t, eps, COS2SQ, x1, x2)
    assert np.sqrt(((model - exact) ** 2).sum() / (exact ** 2).sum()) < 3e-5


@pytest.mark.parametrize("tension", ["cos2sq", "cos4"])
def test_exact_linear_at_many_times_matches_single_times(tension):
    # one integration serves every time; its dense output between steps agrees
    # with integrations that end at each time to about the 1e-12 tolerances:
    # 1.8e-12 (cos2sq) and 1.6e-12 (cos4) measured, relative to the peak.
    # At the last time the dense output is the integration's end point, so the
    # two agree bit for bit there
    x1, x2 = PhaseGrid(64).mesh()
    eps, a = 0.05, get_tension(tension)
    times = np.linspace(0.0, 2.0, 9)
    many = model_solution("exact", times, eps, a, x1, x2)
    assert many.shape == (9, 64, 64)
    assert np.array_equal(many[0], initial_distribution(x1, x2))
    for t, got in zip(times, many):
        want = model_solution("exact", t, eps, a, x1, x2)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
    assert np.array_equal(got, want)


def _fused_and_single_steps(n_points):
    solver = SplittingSolver(PhaseGrid(n_points), 0.5, get_tension("cos2sq"), "linear")
    f0 = solver.initial_state()
    dt = 0.1 / 3
    single = f0
    for n in range(3):
        single = solver.solve(single, n, n + 1, dt)
    return f0, solver.solve(f0, 0, 0, dt), solver.solve(f0, 0, 3, dt), single


@pytest.mark.parametrize("n_points", [32, 128])
def test_splitting_advance_fuses_half_drifts(n_points):
    # the drift drops the Nyquist mode of the r transform, so two half drifts
    # compose to one full drift even where the beam fills that mode (2e-3 of
    # the r spectrum at 32 nodes); 2.7e-15 and 3.6e-15 measured
    f0, no_steps, fused, single = _fused_and_single_steps(n_points)
    np.testing.assert_array_equal(no_steps, f0)
    np.testing.assert_allclose(fused, single, atol=1e-13)


@pytest.mark.parametrize("n_points", [16, 64, 256])
def test_shift_phase_matches_direct_exponentials(n_points):
    # len(k) = 9, 33 and 129 take b = 3, 6 and 12 baby steps, so the last giant
    # step is full at 9 and cut short at 33 and 129; 1.1e-16 to 2.3e-16 per
    # unit of argument measured
    k = SplittingSolver(PhaseGrid(n_points), 0.5, COS2SQ).k
    shift = np.linspace(-1.0, 1.0, 301) * 100.0 / k[-1]
    want = np.exp(-1j * np.outer(shift, k))
    got = _shift_phase(shift, k)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 4e-16 * (1.0 + np.abs(np.outer(shift, k)).max())


@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_splitting_solver_keeps_no_phase_between_calls(mode):
    # a solver stepped with dt, then dt/2, matches fresh solvers bit for bit
    args = (PhaseGrid(64), 0.25, COS2SQ, mode)
    used = SplittingSolver(*args)
    f0 = used.initial_state()
    for dt in (0.02, 0.01):
        np.testing.assert_array_equal(used.solve(f0, 0, 3, dt), SplittingSolver(*args).solve(f0, 0, 3, dt))


def test_splitting_rejects_unknown_mode():
    with pytest.raises(ValueError):
        SplittingSolver(PhaseGrid(16), 0.5, get_tension("cos2sq"), "spectral")


def test_ap_solver_rejects_unknown_mode_and_eps():
    args = (PhaseGrid(16), TorusGrid(4), get_tension("cos2sq"))
    with pytest.raises(ValueError, match="unknown mode"):
        APSolver(*args, 0.5, mode="spectral")
    for eps in (0.0, -0.5):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            APSolver(*args, eps)


def test_splitting_poisson_mass_conservation():
    grid = PhaseGrid(64)
    solver = SplittingSolver(grid, 0.25, get_tension("cos2sq"), "poisson")
    f = solver.initial_state()
    mass0 = f.sum() * grid.delta_xi**2
    for n in range(20):
        f = solver.solve(f, n, n + 1, 0.01)
    mass = f.sum() * grid.delta_xi**2
    assert abs(mass - mass0) <= 1e-12 * abs(mass0)
    assert np.isfinite(f).all()


def test_filtered_from_rv_identity_at_t_zero():
    grid = PhaseGrid(32)
    r, v = grid.mesh()
    f = initial_distribution(r, v)
    np.testing.assert_allclose(filtered_from_rv(f, grid, 0.0, 0.1), f, atol=1e-10)
    # a full lattice turn brings the frame back
    eps = 0.1
    np.testing.assert_allclose(
        filtered_from_rv(f, grid, 2.0 * np.pi * eps, eps), f, atol=1e-10
    )
