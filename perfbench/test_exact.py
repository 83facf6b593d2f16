"""The benchmark's references against the program's own references.

The exact linear solution must sit within the model error of the closed-form
second-order model at small eps, and within the discretization error of a
fine splitting run at moderate eps.  The benchmark's closed forms and its
poisson splitting must reproduce the program's.
"""
import math

import numpy as np

import exact
from vlasov_ap import harness, reference
from vlasov_ap.domain import PhaseGrid

BEAM = {"alpha": 0.2, "edge": 1.2, "width": 0.3}


def test_exact_linear_matches_second_order_model_at_small_eps():
    eps, t = 0.01, 1.0
    x1, x2 = PhaseGrid(128, 4.0).mesh()
    model = reference.second_order_solution(t, (t / eps) % (2 * math.pi), x1, x2, eps, BEAM)
    # the model is first order in eps, so O(eps^2) = 1e-4 bounds its error; 7.4e-6 measured
    assert exact.rel_l2(exact.exact_linear(t, eps, 128, 4.0, BEAM), model) < 3e-5


def test_exact_linear_matches_fine_splitting_at_moderate_eps():
    cfg = harness.RunConfig(
        epsilon=0.25, t_final=math.pi / 4, n_points=64, reference_n=256, reference_dt_factor=0.005
    )
    fine = harness._splitting_reference(cfg)
    # 2.0e-6 measured
    assert exact.rel_linf(exact.exact_linear(cfg.t_final, 0.25, 64, 4.0, BEAM), fine) < 1e-5


def test_fundamental_matrix_is_the_free_rotation_without_tension():
    assert np.array_equal(exact.fundamental_matrix(0.0, 0.1, exact.tension), np.eye(2))
    phi = exact.fundamental_matrix(0.7, 0.1, lambda tau: 0.0)
    assert np.abs(phi - exact.rotation(7.0)).max() < 1e-10


def test_closed_form_models_reproduce_the_program():
    x1, x2 = PhaseGrid(64, 4.0).mesh()
    t, eps = 0.9, 0.1
    second = reference.second_order_solution(t, (t / eps) % (2 * math.pi), x1, x2, eps, BEAM)
    assert np.abs(exact.second_order_model(t, eps, 64, 4.0, BEAM) - second).max() < 1e-13
    limit = reference.limit_solution(t, x1, x2, BEAM)
    assert np.abs(exact.limit_model(t, 64, 4.0, BEAM) - limit).max() < 1e-13


def test_poisson_splitting_matches_the_program_splitting():
    # t / dt is a whole number, so both take the same 40 steps
    t, eps, dt = 0.2, 0.25, 0.005
    cfg = harness.RunConfig(
        epsilon=eps, t_final=t, n_points=64, xi_max=3.5, mode="poisson",
        reference_n=128, reference_dt_factor=dt / eps,
    )
    theirs = harness._splitting_reference(cfg)
    ours = exact.splitting_poisson(t, eps, 64, 3.5, BEAM, dt)
    assert exact.rel_linf(ours, theirs) < 1e-12
