"""Acceptance checklist for the solver at desk scale.

Every test prints one labelled PASS/FAIL line, so running

    pytest -s tests/test_acceptance.py

reads as a report.  Budgets and tolerances are asserted, not just printed.
Two checks are known to sit outside their target bands at these resolutions
and are kept as strict xfails with the measured values recorded next to the
assert: the error-uniformity ratio at N = 64 and the coarse-model table
entry at eps = 1.  Both print FAIL (documented) instead of hiding.
"""
import time

import numpy as np
import pytest
from test_averaging import spectral_derivative
from test_fields import applied_pair, field_pair
from test_reference import drift_coupling_matrix, effective_hamiltonian
from test_stepper import pad_flux

from vlasov_ap import averaging
from vlasov_ap.domain import PhaseGrid, TorusGrid
from vlasov_ap.fields import get_tension
from vlasov_ap.harness import (
    RunConfig,
    reference_filtered,
    rel_error,
    rms,
    run,
    table_study,
    total_mass,
)
from vlasov_ap.reference import constant_drift, model_solution, periodic_drift, rotation_rate
from vlasov_ap.stepper import APSolver, DiffusionSolver


def band_limited(rng, n_tau, shape, n_modes=6):
    """Random torus signal with harmonics up to n_modes plus a mean part."""
    tau = TorusGrid(n_tau).nodes
    pad = (slice(None),) + (None,) * len(shape)
    out = rng.standard_normal(shape) * np.ones((n_tau,) + shape)
    for k in range(1, n_modes + 1):
        out += np.cos(k * tau)[pad] * rng.standard_normal(shape)
        out += np.sin(k * tau)[pad] * rng.standard_normal(shape)
    return out


def test_criterion_1_operator_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    u = band_limited(rng, 64, (4, 4))
    w = band_limited(rng, 64, (4, 4))
    worst = 0.0

    g = averaging.fluctuation(u)
    worst = max(worst, np.abs(averaging.project_mean(averaging.invert_derivative(g))).max())
    # L applied to L^{-1} returns the fluctuation part untouched
    worst = max(
        worst,
        np.abs(spectral_derivative(averaging.invert_derivative(g)) - g).max(),
    )
    # the resolvent collapses onto the tau mean as lam grows
    big = averaging.solve_implicit_tau(u, 1e13)
    worst = max(worst, np.abs(big - averaging.project_mean(u)[None]).max())
    for op in (
        averaging.project_mean,
        averaging.fluctuation,
        lambda a: averaging.antiderivative_from_zero(averaging.fluctuation(a)),
        lambda a: averaging.invert_derivative(averaging.fluctuation(a)),
        lambda a: averaging.solve_implicit_tau(a, 0.7),
    ):
        worst = max(worst, np.abs(op(2.5 * u + 1.3 * w) - 2.5 * op(u) - 1.3 * op(w)).max())

    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"criterion 1: PASS operator identities, worst residual {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_2_linear_analytics():
    t0 = time.monotonic()
    phase = PhaseGrid(32)
    torus = TorusGrid(64)
    tension = get_tension("cos2sq")
    x1, x2 = phase.mesh()
    e1, e2 = applied_pair(tension, torus.nodes[:, None, None], x1, x2)
    worst = 0.0

    worst = max(worst, np.abs(averaging.project_mean(e1) + x2 / 4).max())
    worst = max(worst, np.abs(averaging.project_mean(e2) - x1 / 4).max())

    # initial-correction displacement against the closed-form drift matrices
    s1 = averaging.antiderivative_from_zero(averaging.fluctuation(e1))
    s2 = averaging.antiderivative_from_zero(averaging.fluctuation(e2))
    d0 = constant_drift()
    for j, tau in enumerate(torus.nodes):
        m = periodic_drift(tau) + d0
        worst = max(worst, np.abs(s1[j] - m[0, 0] * x1 - m[0, 1] * x2).max())
        worst = max(worst, np.abs(s2[j] - m[1, 0] * x1 - m[1, 1] * x2).max())

    ham = effective_hamiltonian(x1, x2, tension)
    worst = max(worst, np.abs(ham - (5.0 / 384.0) * (x1 ** 2 + x2 ** 2)).max())

    # first-order field: rotated gradient of the hamiltonian; central
    # differences are exact on quadratics
    d = 0.5
    p, q = 1.3, -0.7
    dh1 = (effective_hamiltonian(p + d, q, tension) - effective_hamiltonian(p - d, q, tension)) / (2 * d)
    dh2 = (effective_hamiltonian(p, q + d, tension) - effective_hamiltonian(p, q - d, tension)) / (2 * d)
    worst = max(worst, abs(-dh2 - (5.0 / 192.0) * -q), abs(dh1 - (5.0 / 192.0) * p))
    for eps in (0.3, 0.01):
        worst = max(worst, abs(rotation_rate(eps) - 0.25 - (5.0 / 192.0) * eps))

    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b = rng.uniform(-3, 3, 2)
        m = drift_coupling_matrix(tension, a, b)
        worst = max(worst, np.abs(m + m.T).max())

    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"criterion 2: PASS analytic cross-checks, worst residual {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_3_second_order_convergence():
    t0 = time.monotonic()
    pts = []
    for n in (32, 64, 128):
        cfg = RunConfig(epsilon=0.25, t_final=np.pi / 16, n_points=n)
        res = run(cfg, write=False)
        pts.append((res.dt, rel_error(res.f_tilde, reference_filtered(cfg), "l2")))
    slope = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0]
    elapsed = time.monotonic() - t0
    assert 1.8 <= slope <= 2.2
    assert elapsed < 300.0
    print(f"criterion 3: PASS dt-convergence slope {slope:.3f} on CFL-locked grids ({elapsed:.0f} s)")


def _error_sweep(init, eps_list):
    errs = {}
    for eps in eps_list:
        cfg = RunConfig(
            epsilon=eps,
            t_final=np.pi / 16,
            n_points=64,
            init=init,
        )
        res = run(cfg, write=False)
        errs[eps] = rel_error(res.f_tilde, reference_filtered(cfg), "l2")
    return errs


@pytest.mark.xfail(
    strict=True,
    reason="error spread at N = 64 is 3.7, driven by the eps = 1 spatial floor "
    "1.4e-2 against the 3.7e-3 floor of the small-eps rows; the spread is "
    "unchanged under dt refinement and n_tau refinement, so the bound 3 is "
    "not reachable at this grid",
)
def test_criterion_4_uniform_accuracy_with_correction():
    t0 = time.monotonic()
    errs = _error_sweep("corrected", (1.0, 0.1, 0.01, 1e-4))
    ratio = max(errs.values()) / min(errs.values())
    elapsed = time.monotonic() - t0
    print(
        f"criterion 4 (uniformity): FAIL (documented) corrected max/min = {ratio:.3f} > 3 "
        f"({elapsed:.0f} s)"
    )
    assert elapsed < 300.0
    assert ratio <= 3.0


def test_criterion_4_plain_init_degrades():
    t0 = time.monotonic()
    plain = _error_sweep("plain", (1.0, 0.1, 0.025, 0.01, 1e-4))
    ratio = max(plain.values()) / min(plain.values())
    corrected_mid = _error_sweep("corrected", (0.025,))[0.025]
    elapsed = time.monotonic() - t0
    # without the pushed-back data the intermediate regime drifts away from
    # the reference; measured 6.6e-3 against 3.8e-3 corrected
    assert ratio > 3.0
    assert plain[0.025] > 1.5 * corrected_mid
    assert elapsed < 300.0
    print(
        f"criterion 4 (plain-init guard): PASS plain max/min = {ratio:.3f} > 3, "
        f"plain/corrected at eps = 0.025 is {plain[0.025] / corrected_mid:.2f} ({elapsed:.0f} s)"
    )


# accuracy table targets at t = 2 pi, relative Linf against fine splitting
# (against the exact solution at eps = 0.01)
LIMIT_TARGETS = {1.0: 0.37, 0.5: 0.18, 0.25: 0.086, 0.1: 0.033, 0.01: 0.003}
SECOND_TARGETS = {1.0: 0.18, 0.5: 0.04, 0.25: 0.01, 0.1: 0.0015}


@pytest.fixture(scope="module")
def error_table(tmp_path_factory):
    """(eps -> (ap, second, limit)) rows of the t = 2 pi accuracy table.

    The rows down to eps = 0.1 are measured by table_study against fine
    splitting runs, whose budgets follow the splitting phase-drift law
    dt_ref^2 / eps^3: a single factor 0.02 holds down to eps = 0.25 and
    eps = 0.1 needs 0.005.  At eps = 0.01 a splitting run would need a far
    finer step, so that row is measured against the exact linear solution.
    """
    t0 = time.monotonic()
    rows = {}
    out = str(tmp_path_factory.mktemp("table"))
    cfg = RunConfig(epsilon=1.0, t_final=2 * np.pi, n_points=128, reference_dt_factor=0.02, output_dir=out)
    for row in table_study(cfg, eps_list=(1.0, 0.5, 0.25)):
        rows[row[0]] = row[1:]
    cfg = cfg.replace(epsilon=0.1, reference_dt_factor=0.005)
    for row in table_study(cfg, eps_list=(0.1,)):
        rows[row[0]] = row[1:]

    eps = 0.01
    cfg = RunConfig(epsilon=eps, t_final=2 * np.pi, n_points=128)
    ref = reference_filtered(cfg)
    ap = run(cfg, write=False).f_tilde
    x1, x2 = cfg.phase().mesh()
    cos2sq = get_tension("cos2sq")
    second = model_solution("second_order", cfg.t_final, eps, cos2sq, x1, x2)
    limit = model_solution("limit", cfg.t_final, eps, cos2sq, x1, x2)
    rows[eps] = (
        rel_error(ap, ref, "linf"),
        rel_error(second, ref, "linf"),
        rel_error(limit, ref, "linf"),
    )
    rows["elapsed"] = time.monotonic() - t0
    return rows


def test_criterion_5_error_table(error_table):
    elapsed = error_table["elapsed"]
    assert elapsed < 900.0
    for eps, (ap, second, limit) in sorted(
        (k, v) for k, v in error_table.items() if isinstance(k, float)
    ):
        print(
            f"  table eps = {eps:g}: ap {ap * 100:.2f} %, second {second * 100:.3f} %, "
            f"limit {limit * 100:.2f} %"
        )
    for eps in LIMIT_TARGETS:
        assert error_table[eps][0] <= 0.08
    for eps, want in SECOND_TARGETS.items():
        assert abs(error_table[eps][1] - want) <= 0.5 * want
    for eps, want in LIMIT_TARGETS.items():
        if eps == 1.0:
            continue  # tracked separately below
        assert abs(error_table[eps][2] - want) <= 0.3 * want
    print(f"criterion 5: PASS table bands at N = 128 ({elapsed:.0f} s)")


@pytest.mark.xfail(
    strict=True,
    reason="the eps = 1 coarse-model entry is 0.54 against the 0.37 target; "
    "the value is grid-converged (0.538 on N up to 512) and window"
    "-independent, so the 30 percent band cannot be met",
)
def test_criterion_5_limit_entry_at_eps_one(error_table):
    got = error_table[1.0][2]
    print(
        f"criterion 5 (eps = 1 limit entry): FAIL (documented) measured {got * 100:.1f} % "
        f"vs target 37 % band"
    )
    assert abs(got - LIMIT_TARGETS[1.0]) <= 0.3 * LIMIT_TARGETS[1.0]


def test_criterion_6_model_orders_in_eps():
    t0 = time.monotonic()
    grid = PhaseGrid(64)
    x1, x2 = grid.mesh()
    cos2sq = get_tension("cos2sq")
    # 315 samples of the width over one slow period, each model against the exact solution
    times = np.linspace(0.0, 2 * np.pi, 315)

    def widths(model, eps):
        return np.asarray([rms(f, grid) for f in model_solution(model, times, eps, cos2sq, x1, x2)])

    eps_list = (0.25, 0.1, 0.05, 0.025)
    errs_limit, errs_second = [], []
    for eps in eps_list:
        r_ref = widths("exact", eps)
        r_lim = widths("limit", eps)
        r_so = widths("second_order", eps)
        errs_limit.append(np.trapezoid(np.abs(r_lim - r_ref), times))
        errs_second.append(np.trapezoid(np.abs(r_so - r_ref), times))

    le = np.log(eps_list)
    slope_limit = np.polyfit(le, np.log(errs_limit), 1)[0]
    slope_second = np.polyfit(le, np.log(errs_second), 1)[0]
    elapsed = time.monotonic() - t0
    assert abs(slope_limit - 1.0) <= 0.3
    assert abs(slope_second - 2.0) <= 0.4
    assert elapsed < 600.0
    print(
        f"criterion 6: PASS width-error orders {slope_limit:.2f} (coarse) and "
        f"{slope_second:.2f} (second) ({elapsed:.0f} s)"
    )


def test_criterion_7_poisson_cross_validation():
    t0 = time.monotonic()
    # xi_max = 3.5 keeps the support with two empty cells to spare and buys
    # back grid resolution at the stated N; at xi_max = 4 this measures 3.1e-2
    cfg = RunConfig(
        epsilon=0.25,
        t_final=np.pi / 4,
        n_points=128,
        mode="poisson",
        xi_max=3.5,
        reference_dt_factor=0.02,
    )
    res = run(cfg, write=False)
    err = rel_error(res.f_tilde, reference_filtered(cfg), "l2")
    elapsed = time.monotonic() - t0
    assert err <= 3e-2
    assert elapsed < 600.0
    print(f"criterion 7 (poisson): PASS relative error {err:.3e} ({elapsed:.0f} s)")


def test_criterion_7_small_eps_smoke():
    t0 = time.monotonic()
    cfg = RunConfig(epsilon=0.001, t_final=np.pi, n_points=128, mode="poisson")
    res = run(cfg, write=False)
    masses = np.array([rec.mass for rec in res.records])
    drift = np.max(np.abs(masses - masses[0])) / abs(masses[0])
    elapsed = time.monotonic() - t0
    assert drift <= 1e-6
    assert elapsed < 600.0
    print(f"criterion 7 (smoke): PASS eps = 0.001 completes, mass drift {drift:.2e} ({elapsed:.0f} s)")


def test_criterion_8_micro_macro_invariants():
    t0 = time.monotonic()
    phase = PhaseGrid(32)
    torus = TorusGrid(32)
    tension = get_tension("cos2sq")
    dxi = phase.delta_xi
    dt = 0.02

    # the macro part Pi F carries the mass, kept step by step
    eps = 0.01
    solver = APSolver(phase, torus, tension, eps, mode="linear")
    f = solver.initial_state("corrected")
    mass0 = total_mass(averaging.project_mean(f), phase)
    mass_drift = 0.0
    for _ in range(20):
        f = solver.advance(f, dt)
        mass_drift = max(
            mass_drift, abs(total_mass(averaging.project_mean(f), phase) - mass0) / abs(mass0)
        )
    assert mass_drift <= 1e-10

    # fluctuation slaved to the mean with one constant across eps;
    # measured ratios 3.5 / 16 / 22 at dt = 0.02, frozen bound 30
    bound = 30.0
    worst = {}
    for eps in (1e-1, 1e-2, 1e-3):
        solver = APSolver(phase, torus, tension, eps, mode="linear")
        f = solver.initial_state("corrected")
        e1, e2 = field_pair(solver.applied_amplitude, torus.nodes[:, None, None])
        ratio = 0.0
        for _ in range(20):
            f = solver.advance(f, dt)
            g = averaging.project_mean(f)
            closure = averaging.invert_derivative(
                averaging.fluctuation(pad_flux(e1, e2, np.broadcast_to(g, f.shape), dxi))
            )
            resid = np.abs((f - g[None]) + eps * closure).max()
            ratio = max(ratio, resid / (eps ** 2 + eps * dt))
        worst[eps] = ratio
        assert ratio <= bound
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"criterion 8: PASS mass drift {mass_drift:.2e}, "
        f"closure constants {', '.join(f'{v:.1f}' for v in worst.values())} <= {bound:g} "
        f"({elapsed:.0f} s)"
    )


def test_criterion_9_diffusion_scaling():
    t0 = time.monotonic()
    phase = PhaseGrid(32)
    torus = TorusGrid(32)
    tension = get_tension("cos4")
    dxi = phase.delta_xi
    x1, x2 = phase.mesh()
    e1, e2 = applied_pair(tension, torus.nodes[:, None, None], x1, x2)
    mean_sup = max(np.abs(e1.mean(axis=0)).max(), np.abs(e2.mean(axis=0)).max())
    assert mean_sup <= 1e-12

    # fluctuation stays O(eps) over a hundred steps; measured 1.25 both rows
    for eps in (0.1, 0.01):
        solver = DiffusionSolver(phase, torus, tension, eps)
        g, h = solver.initial_split("corrected")
        peak = np.abs(h).max() / eps
        for _ in range(100):
            g, h = solver.step(g, h, 0.01)
        peak = max(peak, np.abs(h).max() / eps)
        assert peak <= 2.0

    # the macro part must track a direct midpoint discretization of the
    # averaged double-transport equation on the same grid
    def limit_rhs(gg):
        inner = pad_flux(e1, e2, np.broadcast_to(gg, e1.shape), dxi)
        middle = averaging.invert_derivative(averaging.fluctuation(inner))
        return averaging.project_mean(pad_flux(e1, e2, middle, dxi))

    eps = 0.01
    solver = DiffusionSolver(phase, torus, tension, eps)
    g, h = solver.initial_split("corrected")
    for _ in range(100):
        g, h = solver.step(g, h, 0.01)
    g_direct, _ = solver.initial_split("corrected")
    dt_direct = 0.002
    for _ in range(500):
        g_mid = g_direct + 0.5 * dt_direct * limit_rhs(g_direct)
        g_direct = g_direct + dt_direct * limit_rhs(g_mid)
    gap = np.linalg.norm(g - g_direct) / np.linalg.norm(g_direct)
    elapsed = time.monotonic() - t0
    assert gap <= 0.1
    assert elapsed < 120.0
    print(
        f"criterion 9: PASS mean field {mean_sup:.1e}, macro part within {gap:.2e} of the "
        f"direct limit discretization ({elapsed:.0f} s)"
    )
