import numpy as np
import pytest
from scipy.integrate import solve_ivp

from vlasov_ap.domain import PhaseGrid, initial_distribution, rotate_to_xi
from vlasov_ap.fields import Tension, applied_field, get_tension
from vlasov_ap.reference import (
    SplittingSolver,
    constant_drift,
    drift_coupling_matrix,
    effective_hamiltonian,
    exact_linear,
    filtered_from_rv,
    limit_solution,
    model_lab_frame,
    periodic_drift,
    rotation_rate,
    second_order_solution,
)

ZERO_TENSION = Tension("zero", lambda t: 0.0 * t, lambda t: 0.0 * t)


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
        e1, e2 = applied_field(tension, tau, xi[0], xi[1])
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
        assert limit_solution(t, p[0], p[1]) == pytest.approx(want, abs=1e-12)


def test_second_order_reduces_to_limit():
    grid = PhaseGrid(32)
    x1, x2 = grid.mesh()
    lim = limit_solution(1.3, x1, x2)
    gaps = [
        np.abs(second_order_solution(1.3, 0.0, x1, x2, eps) - lim).max()
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
        np.abs(second_order_solution(0.0, 0.0, x1, x2, eps) - f0).max()
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


def test_model_lab_frame():
    grid = PhaseGrid(32)
    r, v = grid.mesh()
    f0 = initial_distribution(r, v)
    # frames coincide at t = 0
    np.testing.assert_allclose(model_lab_frame("limit", 0.0, 0.1, r, v), f0, atol=1e-15)
    with pytest.raises(ValueError):
        model_lab_frame("cubic", 1.0, 0.1, r, v)


def test_splitting_harmonic_rotation():
    # a == 0 and no self field leaves the pure oscillator; two Strang steps
    # approach the exact rotation at third order in dt
    grid = PhaseGrid(64)
    solver = SplittingSolver(grid, 1.0, ZERO_TENSION, "linear")
    r, v = grid.mesh()
    errs = []
    for dt in (0.2, 0.1, 0.05):
        f = solver.initial_state()
        f = solver.advance(f, 0, 1, dt)
        f = solver.advance(f, 1, 2, dt)
        exact = initial_distribution(*rotate_to_xi(2.0 * dt, r, v))
        errs.append(np.abs(f - exact).max())
    assert 7.0 < errs[0] / errs[1] < 9.5
    assert 7.0 < errs[1] / errs[2] < 9.5


def test_splitting_self_convergence():
    grid = PhaseGrid(64)
    solver = SplittingSolver(grid, 0.25, get_tension("cos2sq"), "linear")
    t = np.pi / 16
    ref = solver.solve(512, t / 512)
    dts, errs = [], []
    for n in (8, 16, 32):
        dts.append(t / n)
        errs.append(np.abs(solver.solve(n, t / n) - ref).max())
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 1.8, (slope, errs)


def test_splitting_matches_second_order_model():
    # long-horizon certification of the model used as the linear reference:
    # eps = 0.01, t = 2 pi, fine steps; the comparison is grid-pointwise in
    # the lab frame so no interpolation enters.  Takes around ten seconds.
    grid = PhaseGrid(64)
    eps = 0.01
    solver = SplittingSolver(grid, eps, get_tension("cos2sq"), "linear")
    f = solver.solve(125664, 2.0 * np.pi / 125664)  # dt near 5e-5
    r, v = grid.mesh()
    model = model_lab_frame("second_order", 2.0 * np.pi, eps, r, v)
    rel = np.abs(f - model).max() / np.abs(model).max()
    assert rel <= 1e-3, rel


def test_exact_linear_is_initial_data_at_t_zero():
    x1, x2 = PhaseGrid(32).mesh()
    got = exact_linear(0.0, 0.3, get_tension("cos4"), x1, x2, {"alpha": 0.4})
    assert np.array_equal(got, initial_distribution(x1, x2, alpha=0.4))


@pytest.mark.parametrize("tension", ["cos2sq", "cos4"])
def test_exact_linear_matches_fine_splitting(tension):
    # compared node for node in the lab frame, so no interpolation enters;
    # measured 2.0e-6 (cos2sq) and 3.3e-6 (cos4), second order in the step
    grid = PhaseGrid(64)
    eps, t = 0.25, np.pi / 4
    f = SplittingSolver(grid, eps, get_tension(tension)).solve(628, t / 628)  # dt near 0.00125
    r, v = grid.mesh()
    exact = exact_linear(t, eps, get_tension(tension), *rotate_to_xi(t / eps, r, v))
    assert np.abs(f - exact).max() / np.abs(exact).max() < 1e-5


def test_exact_linear_matches_second_order_model_at_small_eps():
    # the model is first order in eps, so its error is O(eps^2); 7.4e-6 measured
    x1, x2 = PhaseGrid(64).mesh()
    eps, t = 0.01, 1.0
    model = second_order_solution(t, (t / eps) % (2 * np.pi), x1, x2, eps)
    exact = exact_linear(t, eps, get_tension("cos2sq"), x1, x2)
    assert np.sqrt(((model - exact) ** 2).sum() / (exact ** 2).sum()) < 3e-5


def _fused_and_single_steps(n_points):
    solver = SplittingSolver(PhaseGrid(n_points), 0.5, get_tension("cos2sq"), "linear")
    f0 = solver.initial_state()
    dt = 0.1 / 3
    single = f0
    for n in range(3):
        single = solver.advance(single, n, n + 1, dt)
    return f0, solver.advance(f0, 0, 0, dt), solver.advance(f0, 0, 3, dt), single


def test_splitting_advance_fuses_half_drifts():
    # fusing two half drifts into one full drift is exact up to the Nyquist
    # mode of the r transform, which the beam leaves empty at 128 nodes
    # (2e-16 of the spectrum); 3.3e-15 measured
    f0, no_steps, fused, single = _fused_and_single_steps(128)
    np.testing.assert_array_equal(no_steps, f0)
    np.testing.assert_allclose(fused, single, atol=1e-13)


@pytest.mark.xfail(
    strict=True,
    reason="irfft drops the imaginary part of the Nyquist coefficient, so two half "
    "drifts scale it by cos(a)^2 and one full drift by cos(2a); at 32 nodes the beam "
    "puts 2e-3 of its r spectrum there and the fused state differs by 1.2e-4",
)
def test_splitting_fused_drift_matches_single_steps_on_a_coarse_grid():
    _, _, fused, single = _fused_and_single_steps(32)
    np.testing.assert_allclose(fused, single, atol=1e-13)


def test_splitting_rejects_unknown_mode():
    with pytest.raises(ValueError):
        SplittingSolver(PhaseGrid(16), 0.5, get_tension("cos2sq"), "spectral")


def test_splitting_poisson_mass_conservation():
    grid = PhaseGrid(64)
    solver = SplittingSolver(grid, 0.25, get_tension("cos2sq"), "poisson")
    f = solver.initial_state()
    mass0 = f.sum() * grid.delta_xi**2
    for n in range(20):
        f = solver.advance(f, n, n + 1, 0.01)
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
