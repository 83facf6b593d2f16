"""Two-scale stepper: stencils, predictor/corrector, init data, and the run
loop's readout of its state.

The stencils are compared against np.pad based reimplementations, the
non-stiff limit against a standalone classical two-step Lax-Wendroff, whole
steps against a reference built from FFTs of the state, and
the one-step accuracy by Richardson extrapolation.
"""

import tracemalloc

import numpy as np
import pytest
from test_averaging import derivative_symbol, fourier_tau, resolvent_symbol
from test_fields import applied_pair, field_amplitude, field_pair

from vlasov_ap import averaging
from vlasov_ap.domain import PhaseGrid, TorusGrid, initial_distribution
from vlasov_ap.fields import Tension, applied_amplitude, get_tension
from vlasov_ap.harness import _two_scale_readout
from vlasov_ap.stepper import APSolver, DiffusionSolver, cfl_dt, xi_operator

# a = 1: the applied amplitude xi1 cos tau + xi2 sin tau, whose field is divergence-free
UNIT_TENSION = Tension("one", np.ones_like, lambda t: t)


def pad_flux(e1, e2, f, dxi):
    """Flux via np.pad, independent of the production shift helper."""
    a = np.pad(e1 * f, [(0, 0)] * (f.ndim - 2) + [(1, 1), (1, 1)])
    b = np.pad(e2 * f, [(0, 0)] * (f.ndim - 2) + [(1, 1), (1, 1)])
    da = a[..., 2:, 1:-1] - a[..., :-2, 1:-1]
    db = b[..., 1:-1, 2:] - b[..., 1:-1, :-2]
    return (da + db) / (2 * dxi)


def pad_average(f):
    """Four-point average via np.pad."""
    p = np.pad(f, [(0, 0)] * (f.ndim - 2) + [(1, 1), (1, 1)])
    return 0.25 * (p[..., 2:, 1:-1] + p[..., :-2, 1:-1] + p[..., 1:-1, 2:] + p[..., 1:-1, :-2])


def apply_xi(g, tau, delta_xi, c_avg, c_flux, f):
    """xi_operator(g, tau, ...) applied to a state f of g's shape."""
    return xi_operator(g, tau, delta_xi, c_avg, c_flux, f)


def test_flux_rotation_field_on_constant():
    grid = PhaseGrid(16)
    x1, x2 = grid.mesh()
    tau = TorusGrid(4).nodes
    g = applied_amplitude(UNIT_TENSION, tau[:, None, None], x1, x2)
    f = np.full((4, 16, 16), 2.0)
    phi = apply_xi(g, tau, grid.delta_xi, 0.0, 1.0, f)
    np.testing.assert_allclose(phi[:, 1:-1, 1:-1], 0.0, atol=1e-14)


def test_flux_constant_field_linear_profile():
    grid = PhaseGrid(16)
    x1, x2 = grid.mesh()
    c = 0.7
    # the amplitude c is the field (c, 0) at tau = 3 pi/2 and (0, c) at tau = 0
    tau = np.array([1.5 * np.pi, 0.0])
    phi = apply_xi(np.full((2, 16, 16), c), tau, grid.delta_xi, 0.0, 1.0, np.stack([x1, x2]))
    np.testing.assert_allclose(phi[:, 1:-1, 1:-1], c, atol=1e-14)
    # the last row sees a zero ghost beyond the edge
    want = -c * x1[-2, 1:-1] / (2.0 * grid.delta_xi)
    np.testing.assert_allclose(phi[0, -1, 1:-1], want, atol=1e-14)


def test_flux_against_pad_oracle():
    rng = np.random.default_rng(12)
    tau = rng.uniform(0.0, 2.0 * np.pi, 4)
    g = rng.standard_normal((4, 8, 8))
    f = rng.standard_normal((4, 8, 8))
    e1, e2 = field_pair(g, tau[:, None, None])
    np.testing.assert_allclose(apply_xi(g, tau, 0.5, 0.0, 1.0, f), pad_flux(e1, e2, f, 0.5), atol=1e-14)
    # a tau-independent amplitude against a non-contiguous state
    g = np.broadcast_to(g[0], (5, 8, 8))
    tau = rng.uniform(0.0, 2.0 * np.pi, 5)
    f = rng.standard_normal((8, 5, 8)).transpose(1, 0, 2)
    e1, e2 = field_pair(g, tau[:, None, None])
    phi = apply_xi(g, tau, 0.5, 0.0, 1.0, f)
    assert phi.shape == (5, 8, 8)
    np.testing.assert_allclose(phi, pad_flux(e1, e2, f, 0.5), atol=1e-14)


def test_four_point_average():
    def average(f):
        return apply_xi(np.zeros(f.shape), np.zeros(f.shape[0]), 1.0, 1.0, 0.0, f)

    f = np.full((1, 6, 6), 4.0)
    avg = average(f)
    assert avg[0, 3, 3] == 4.0
    assert avg[0, 0, 3] == 3.0  # edge: one ghost neighbour
    assert avg[0, 0, 0] == 2.0  # corner: two ghost neighbours
    grid = PhaseGrid(8)
    x1, _ = grid.mesh()
    np.testing.assert_allclose(average(x1[None])[0, 1:-1, 1:-1], x1[1:-1, 1:-1], atol=1e-14)
    rng = np.random.default_rng(13)
    r = rng.standard_normal((3, 8, 8))
    np.testing.assert_allclose(average(r), pad_average(r), atol=1e-15)
    r = rng.standard_normal((8, 3, 8)).transpose(1, 0, 2)
    np.testing.assert_allclose(average(r), pad_average(r), atol=1e-15)


@pytest.mark.parametrize("shape", [(4, 8, 8), (3, 5, 5), (16, 32, 32)])
def test_xi_operator_matches_the_stencils(shape):
    rng = np.random.default_rng(19)
    tau = rng.uniform(0.0, 2.0 * np.pi, shape[0])
    f = rng.standard_normal(shape)
    dxi = 0.3
    x1, x2 = rng.uniform(-3.0, 3.0, (2,) + shape[1:])
    applied = applied_amplitude(get_tension("cos2sq"), tau[:, None, None], x1, x2)
    # the applied amplitude, and an arbitrary one such as a poisson stage builds
    for g in (applied, rng.standard_normal(shape)):
        e1, e2 = field_pair(g, tau[:, None, None])
        for a, b in ((1.0, -0.01), (0.0, -0.02), (0.7, 1.3), (1.0, 0.0)):
            got = apply_xi(g, tau, dxi, a, b, f)
            want = a * pad_average(f) + b * pad_flux(e1, e2, f, dxi)
            # the whole array, edge rows and columns of every slice included
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def step_half(f, g, eps, dt, delta_xi):
    """The predictor F* = R(P F) of APSolver.advance, from its stencil pieces."""
    pf = xi_operator(g, TorusGrid(f.shape[0]).nodes, delta_xi, 1.0, -0.5 * dt, f)
    return averaging.solve_implicit_tau(pf, dt / (2.0 * eps))


def step_full(f, f_half, g_half, eps, dt, delta_xi):
    """The corrector F+ = R(Q F* + (I - lam L) F) of APSolver.advance, from its stencil pieces."""
    lam = dt / (2.0 * eps)
    qf = xi_operator(g_half, TorusGrid(f.shape[0]).nodes, delta_xi, 0.0, -dt, f_half)
    rhs = qf + averaging.explicit_tau(f, lam)
    return averaging.solve_implicit_tau(rhs, lam)


def test_step_half_trivial_cases():
    rng = np.random.default_rng(14)
    f2d = rng.standard_normal((8, 8))
    f = np.broadcast_to(f2d, (8, 8, 8)).copy()
    zero = np.zeros((8, 8, 8))
    # no field, tau-independent state: the resolvent is the identity
    out = step_half(f, zero, 0.5, 0.1, 1.0)
    np.testing.assert_allclose(out, pad_average(f), atol=1e-13)
    # dt -> 0 recovers the four-point average on any state
    g = rng.standard_normal((8, 8, 8))
    out = step_half(g, zero + 2.0, 0.5, 1e-12, 1.0)
    np.testing.assert_allclose(out, pad_average(g), atol=1e-10)


def test_step_half_resolvent_harmonic():
    # pure cos(tau) state, no field: u = Re e^{i tau}/(1 + i lam) slice-wise
    torus = TorusGrid(32)
    eps, dt = 0.25, 0.1
    lam = dt / (2 * eps)
    f = np.cos(torus.nodes)[:, None, None] * np.ones((32, 8, 8))
    zero = np.zeros((32, 8, 8))
    out = step_half(f, zero, eps, dt, 1.0)
    want = (np.cos(torus.nodes) + lam * np.sin(torus.nodes)) / (1 + lam ** 2)
    avg_mask = pad_average(np.ones((8, 8)))
    np.testing.assert_allclose(out, want[:, None, None] * avg_mask[None], atol=1e-12)


def test_step_full_identity_and_mean_preservation():
    rng = np.random.default_rng(15)
    f2d = rng.standard_normal((8, 8))
    f = np.broadcast_to(f2d, (4, 8, 8)).copy()
    zero = np.zeros((4, 8, 8))
    out = step_full(f, f.copy(), zero, 0.3, 0.05, 1.0)
    np.testing.assert_allclose(out, f, atol=1e-14)
    # the k=0 tau mode passes through derivative and resolvent untouched
    g = rng.standard_normal((4, 8, 8))
    amplitude = rng.standard_normal((4, 8, 8))
    half = rng.standard_normal((4, 8, 8))
    dt = 0.07
    out = step_full(g, half, amplitude, 0.3, dt, 1.0)
    e1, e2 = field_pair(amplitude, TorusGrid(4).nodes[:, None, None])
    want = averaging.project_mean(g - dt * pad_flux(e1, e2, half, 1.0))
    np.testing.assert_allclose(averaging.project_mean(out), want, atol=1e-14)


def lw_two_step(f, e1_n, e2_n, e1_h, e2_h, dt, dxi):
    """Classical non-stiff Lax-Wendroff-Richtmyer update on one 2D slice."""
    fh = pad_average(f) - 0.5 * dt * pad_flux(e1_n, e2_n, f, dxi)
    return f - dt * pad_flux(e1_h, e2_h, fh, dxi)


def test_step_full_reduces_to_classical_lw():
    # eps so large that the tau coupling is far below round-off
    grid = PhaseGrid(16)
    torus = TorusGrid(8)
    rng = np.random.default_rng(16)
    f = rng.standard_normal((8, 16, 16))
    tension = get_tension("cos2sq")
    x1, x2 = grid.mesh()
    e1, e2 = applied_pair(tension, torus.nodes[:, None, None], x1, x2)
    eps, dt = 1e15, 0.02
    out = APSolver(grid, torus, tension, eps).advance(f, dt)
    for l in range(8):
        want = lw_two_step(f[l], e1[l], e2[l], e1[l], e2[l], dt, grid.delta_xi)
        np.testing.assert_allclose(out[l], want, atol=1e-13)


def fft_derivative(g):
    return fourier_tau(g, derivative_symbol(g.shape[0]))


def fft_resolvent(rhs, lam):
    return fourier_tau(rhs, resolvent_symbol(rhs.shape[0], lam))


def total_pair(solver, f):
    """The field a solver's stage sees on f: applied, plus f's self-field in poisson mode."""
    g = field_amplitude(f, solver.rotator, solver.applied_amplitude)
    return field_pair(g, solver.torus.nodes[:, None, None])


def reference_advance(solver, f, dt):
    """APSolver.advance rebuilt from FFTs of the state and padded stencils."""
    eps, dxi = solver.epsilon, solver.phase.delta_xi
    lam = dt / (2.0 * eps)
    e1, e2 = total_pair(solver, f)
    f_half = fft_resolvent(pad_average(f) - 0.5 * dt * pad_flux(e1, e2, f, dxi), lam)
    e1, e2 = total_pair(solver, f_half)
    rhs = f - dt * pad_flux(e1, e2, f_half, dxi) - lam * fft_derivative(f)
    return fft_resolvent(rhs, lam)


def reference_diffusion_step(solver, g, h, dt):
    """DiffusionSolver.step rebuilt the same way."""
    eps, dxi = solver.epsilon, solver.phase.delta_xi
    e1, e2 = field_pair(solver.transport.applied_amplitude, solver.transport.torus.nodes[:, None, None])
    lam = dt / (2.0 * eps ** 2)
    c = dt / (2.0 * eps)

    def fluct(x):
        return x - x.mean(axis=0)

    g_half = pad_average(g) - c * pad_flux(e1, e2, h, dxi).mean(axis=0)
    h_half = fft_resolvent(pad_average(h) - c * fluct(pad_flux(e1, e2, g_half[None] + h, dxi)), lam)
    g_new = g - 2.0 * c * pad_flux(e1, e2, h_half, dxi).mean(axis=0)
    rhs = (h - 2.0 * c * fluct(pad_flux(e1, e2, 0.5 * (g_new + g)[None] + h_half, dxi))
           - lam * fft_derivative(h))
    return g_new, fft_resolvent(rhs, lam)


def assert_rel_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def traced_peak(call):
    """(call(), peak bytes traced while it ran); what existed before is not traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_advance_matches_fft_reference(mode):
    grid = PhaseGrid(32)
    torus = TorusGrid(16)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 0.25, mode=mode)
    f = ref = solver.initial_state("corrected")
    dt = 0.5 * solver.suggest_dt(f)
    for _ in range(4):
        f = solver.advance(f, dt)
        ref = reference_advance(solver, ref, dt)
        assert_rel_close(f, ref)


# every stage applies its stencils for the dt it is given; a stage that kept
# anything from an earlier dt, an operator or a coefficient, would show here
@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_advance_rebuilds_its_operators_when_dt_changes(mode):
    grid = PhaseGrid(32)
    torus = TorusGrid(16)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 0.25, mode=mode)
    f = ref = solver.initial_state("corrected")
    dt = 0.5 * solver.suggest_dt(f)
    for step in (dt, 0.5 * dt, dt):
        f = solver.advance(f, step)
        ref = reference_advance(solver, ref, step)
        assert_rel_close(f, ref)


@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_advance_keeps_no_operator_between_calls(mode):
    # each stage applies its stencils straight from the field amplitude, so two
    # advances leave only the returned state traced; a kept P and Q would hold
    # about 8 state sizes, a kept poisson stage buffer about 4
    solver = APSolver(PhaseGrid(64), TorusGrid(32), get_tension("cos2sq"), 0.25, mode=mode)
    f = solver.initial_state("corrected")
    dt = 0.5 * solver.suggest_dt(f)
    tracemalloc.start()
    try:
        for step in (dt, 0.5 * dt):
            f = solver.advance(f, step)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held - f.nbytes < 0.1 * f.nbytes


def advance_peak(mode):
    """Peak bytes traced in one advance at 128^2 x 32, and the state's size."""
    solver = APSolver(PhaseGrid(128), TorusGrid(32), get_tension("cos2sq"), 0.25, mode=mode)
    f = solver.initial_state("corrected")
    dt = 0.5 * solver.suggest_dt(f)
    solver.advance(f, dt)  # the first call may still fill caches
    _, peak = traced_peak(lambda: solver.advance(f, dt))
    return peak, f.nbytes


def test_poisson_advance_peak_memory():
    # a step holds its input and one working array, which every stage and tau
    # product writes over; the self-field amplitude is formed one block of tau
    # slices at a time (an eighth of a state here), each released before the
    # next is spread: measured 1.255 state sizes beyond the input at 128^2 x 32
    # (1.355 with two blocks held, 2.13 with a state-sized amplitude and
    # f_half next to the corrector's result)
    peak, size = advance_peak("poisson")
    assert peak <= 1.3 * size


def test_linear_advance_peak_memory():
    # the same working array, and the corrector's two products in one pass per
    # block of pencils: measured 1.25 state sizes beyond the input (2.13 with
    # a new array per product)
    peak, size = advance_peak("linear")
    assert peak <= 1.4 * size


def test_linear_advance_leaves_the_applied_amplitude_alone():
    # a linear stage's amplitude is the solver's shared applied amplitude
    solver = APSolver(PhaseGrid(32), TorusGrid(16), get_tension("cos2sq"), 0.25)
    kept = solver.applied_amplitude.copy()
    f = solver.initial_state("corrected")
    solver.advance(solver.advance(f, 0.05), 0.05)
    assert np.array_equal(solver.applied_amplitude, kept)


def test_diffusion_step_matches_fft_reference():
    grid = PhaseGrid(32)
    torus = TorusGrid(16)
    solver = DiffusionSolver(grid, torus, get_tension("cos4"), 0.1)
    g, h = solver.initial_split("corrected")
    g_ref, h_ref = g, h
    for _ in range(4):
        g, h = solver.step(g, h, 0.01)
        g_ref, h_ref = reference_diffusion_step(solver, g_ref, h_ref, 0.01)
        assert_rel_close(g, g_ref)
        assert_rel_close(h, h_ref)


def test_advance_local_error_third_order():
    # Two advances of dt against a temporally converged reference over the
    # same horizon 2*dt.  The four-point average leaves an O(dt^2 delta_xi^2)
    # defect per step that buries the dt^3 term in the raw errors, but it is
    # eliminated by the Richardson combination e(dt) - 4 e(dt/2), whose norm
    # then drops eightfold per halving.
    grid = PhaseGrid(32)
    torus = TorusGrid(32)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 1.0)
    f = solver.initial_state("corrected")

    def march(state, dt, n):
        for _ in range(n):
            state = solver.advance(state, dt)
        return state

    errs = []
    for k in range(3):
        dt = 0.04 / 2 ** k
        fine = 256
        ref = march(f, 2.0 * dt / fine, fine)
        errs.append(march(f, dt, 2) - ref)
    # raw errors still shrink at least quadratically
    assert np.abs(errs[1]).max() < 0.35 * np.abs(errs[0]).max()
    lead1 = np.linalg.norm(errs[0] - 4.0 * errs[1])
    lead2 = np.linalg.norm(errs[1] - 4.0 * errs[2])
    assert 6.5 < lead1 / lead2 < 9.5, (lead1, lead2)


def test_advance_conserves_mass():
    grid = PhaseGrid(64)
    torus = TorusGrid(32)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 0.1)
    f = solver.initial_state("corrected")
    dt = solver.suggest_dt(f)
    mass0 = averaging.project_mean(f).sum() * grid.delta_xi ** 2
    for _ in range(10):
        f = solver.advance(f, dt)
    mass = averaging.project_mean(f).sum() * grid.delta_xi ** 2
    assert abs(mass - mass0) <= 1e-10 * abs(mass0)


@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_advance_keeps_the_state_even(mode):
    # f0 and both fields are symmetric under xi -> -xi, so every step is too;
    # nodes exclude the right edge, so the mirror is a flip plus a roll
    solver = APSolver(PhaseGrid(32), TorusGrid(32), get_tension("cos2sq"), 0.1, mode=mode)
    f = solver.initial_state("corrected")
    dt = solver.suggest_dt(f)
    for _ in range(5):
        f = solver.advance(f, dt)
    mirrored = np.roll(f[:, ::-1, ::-1], (1, 1), axis=(1, 2))
    # only the unpaired first row and column break the symmetry; measured
    # 7.7e-12 (linear) and 3.6e-10 (poisson) relative
    assert np.abs(f - mirrored).max() <= 1e-9 * np.abs(f).max()


def test_advance_flags_non_finite():
    grid = PhaseGrid(8)
    torus = TorusGrid(4)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 1.0)
    bad = np.full((4, 8, 8), np.nan)
    with pytest.raises(RuntimeError, match="non-finite values in the state; reduce dt"):
        solver.advance(bad, 0.01)
    # four torus nodes alias the cos4 field onto a mean; eight resolve it
    diffusion = DiffusionSolver(grid, TorusGrid(8), get_tension("cos4"), 1.0)
    with pytest.raises(RuntimeError, match="non-finite values in the micro-macro state; reduce dt"):
        diffusion.step(bad[0], np.full((8, 8, 8), np.nan), 0.01)


def test_initial_state_plain():
    grid = PhaseGrid(32)
    torus = TorusGrid(16)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 0.2)
    f = solver.initial_state("plain")
    x1, x2 = grid.mesh()
    f0 = initial_distribution(x1, x2)
    np.testing.assert_array_equal(f[3], f0)
    np.testing.assert_allclose(averaging.project_mean(f), f0, atol=1e-14)
    np.testing.assert_allclose(averaging.fluctuation(f), 0.0, atol=1e-14)


def test_initial_state_corrected():
    grid = PhaseGrid(32)
    torus = TorusGrid(32)
    eps = 0.2
    solver = APSolver(grid, torus, get_tension("cos2sq"), eps)
    f = solver.initial_state("corrected")
    x1, x2 = grid.mesh()
    f0 = initial_distribution(x1, x2)
    # the correction vanishes at tau = 0
    np.testing.assert_allclose(f[0], f0, atol=1e-14)
    # at tau = pi/2 the displacement is the closed form (-xi1/6, xi2/6)
    l = torus.n_tau // 4
    want = initial_distribution(x1 + eps * x1 / 6.0, x2 - eps * x2 / 6.0)
    np.testing.assert_allclose(f[l], want, atol=1e-10)
    assert f.min() >= 0.0
    with pytest.raises(ValueError):
        solver.initial_state("fancy")


@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_initial_state_corrected_peak_memory(mode):
    # the shift and f0 are built in blocks of xi pencils, and the build writes
    # its result over its own copy of the field amplitude: 4.16 state sizes at the
    # peak in both modes on this grid, where one block is half the state; the
    # whole-array build held about 6, and a poisson result with its own array 5.16
    solver = APSolver(PhaseGrid(64), TorusGrid(32), get_tension("cos2sq"), 0.25, mode=mode)
    solver.initial_state("corrected")  # the first call may still fill caches
    tracemalloc.start()
    try:
        f = solver.initial_state("corrected")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.4 * f.nbytes


def whole_array_initial_state(solver):
    """The corrected initial state built on whole states, the field's components one at a time."""
    x1, x2 = solver.phase.mesh()
    nt = solver.torus.n_tau
    plain = np.broadcast_to(initial_distribution(x1, x2, **solver.f0_params), (nt,) + x1.shape).copy()
    g = field_amplitude(plain, solver.rotator, solver.applied_amplitude)
    tau = solver.torus.nodes.reshape(-1, 1, 1)
    shifted = [
        x - solver.epsilon * averaging.antiderivative_from_zero(averaging.fluctuation(direction * g))
        for x, direction in zip((x1, x2), (-np.sin(tau), np.cos(tau)))
    ]
    return initial_distribution(*shifted, **solver.f0_params)


# less than one block, several blocks, and several with a partial last block
@pytest.mark.parametrize("n, n_tau", [(32, 16), (128, 32), (96, 32)])
@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_initial_state_corrected_blocks_match_the_whole_array(mode, n, n_tau):
    assert (n * n * n_tau > averaging.BLOCK_ENTRIES) == (n > 32)
    beam = {"alpha": 0.21, "edge": 1.1}
    solver = APSolver(PhaseGrid(n), TorusGrid(n_tau), get_tension("cos2sq"), 0.25, mode=mode, f0_params=beam)
    assert np.array_equal(solver.initial_state("corrected"), whole_array_initial_state(solver))


@pytest.mark.parametrize("mode, bound", [("linear", 2.1), ("poisson", 2.1)])
def test_initial_state_corrected_holds_its_result_and_a_few_blocks(mode, bound):
    # beyond the result, which is written over its own copy of the field
    # amplitude, only a few blocks of pencils are held: measured 1.86 state
    # sizes in both modes at 128^2 x 32, where one block is an eighth of a
    # state (6.06 built on whole states, 2.86 in poisson mode with a result
    # of its own); the bounds leave a quarter of a state
    solver = APSolver(PhaseGrid(128), TorusGrid(32), get_tension("cos2sq"), 0.25, mode=mode)
    solver.initial_state("corrected")  # the first call may still fill caches
    f, peak = traced_peak(lambda: solver.initial_state("corrected"))
    assert peak <= bound * f.nbytes


def test_cfl_dt():
    # |E| peaks where one component takes all of |g|, at tau = 0 here
    g = np.full((2, 4, 4), 2.0)
    assert cfl_dt(g, np.array([0.0, np.pi / 4]), 0.5) == 0.25
    with pytest.raises(RuntimeError, match="advecting field vanishes; provide delta_t explicitly"):
        cfl_dt(np.zeros(3), np.zeros(3), 0.5)


def test_cfl_dt_matches_the_whole_array_maximum():
    rng = np.random.default_rng(7)
    for n_tau, scale in [(16, 1.0), (32, 1e-3), (8, 1e5)]:
        tau = np.concatenate([TorusGrid(n_tau).nodes[:-2], rng.uniform(0, 2 * np.pi, 2)])
        g = scale * rng.standard_normal((n_tau, 12, 12))
        weight = np.maximum(np.abs(np.sin(tau)), np.abs(np.cos(tau)))[:, None, None]
        assert cfl_dt(g, tau, 0.1) == 0.1 / (weight * np.abs(g)).max()
    with pytest.raises(RuntimeError, match="advecting field vanishes"):
        cfl_dt(np.zeros((2, 4, 4)), np.array([0.0, 1.0]), 0.5)


@pytest.mark.parametrize("mode, bound", [("linear", 0.1), ("poisson", 0.4)])
def test_suggest_dt_peak_memory(mode, bound):
    # the maximum is taken slice by slice from the amplitude's generator, so a
    # poisson amplitude is held one block of tau slices at a time: measured
    # 0.00 and 0.26 state sizes beyond the input at 128^2 x 32 (1.13 with a
    # state-sized amplitude, 2.0 and 3.0 with the whole-array maximum)
    solver = APSolver(PhaseGrid(128), TorusGrid(32), get_tension("cos2sq"), 0.25, mode=mode)
    f = solver.initial_state("corrected")
    solver.suggest_dt(f)  # the first call may still fill caches
    _, peak = traced_peak(lambda: solver.suggest_dt(f))
    assert peak <= bound * f.nbytes


def test_readout_at_time_zero():
    grid = PhaseGrid(32)
    torus = TorusGrid(16)
    solver = APSolver(grid, torus, get_tension("cos2sq"), 0.3)
    x1, x2 = grid.mesh()
    f0 = initial_distribution(x1, x2)
    for init in ("plain", "corrected"):
        f_tilde, f_rv = _two_scale_readout(solver.initial_state(init), 0.0, grid, True)
        np.testing.assert_allclose(f_tilde, f0, atol=1e-13)
        np.testing.assert_allclose(f_rv, f0, atol=1e-13)


def test_readout_tau_independent_state():
    grid = PhaseGrid(16)
    rng = np.random.default_rng(17)
    slice2d = rng.random((16, 16))
    state = np.broadcast_to(slice2d, (8, 16, 16)).copy()
    f_tilde, f_rv = _two_scale_readout(state, 2.468, grid, False)
    assert f_rv is None
    np.testing.assert_allclose(f_tilde, slice2d, atol=1e-13)


def test_readout_full_turn():
    # a phase that is a multiple of 2 pi lands on the l = 0 slice; frames coincide
    grid = PhaseGrid(32)
    rng = np.random.default_rng(18)
    state = rng.random((16, 32, 32))
    f_tilde, f_rv = _two_scale_readout(state, 2.0 * np.pi, grid, True)
    np.testing.assert_allclose(f_tilde, state[0], atol=1e-12)
    np.testing.assert_allclose(f_rv, f_tilde, atol=1e-12)


def test_diffusion_solver_rejects_mean_field():
    # cos2sq has a mean; four nodes alias the mean-free cos4 field onto one
    cases = [(16, "cos2sq", "n_tau = 16 .*tension is not mean-free"), (4, "cos4", "n_tau = 4 .*torus is too coarse")]
    for n_tau, tension, match in cases:
        with pytest.raises(ValueError, match=match):
            DiffusionSolver(PhaseGrid(16), TorusGrid(n_tau), get_tension(tension), 0.1)


def test_diffusion_solver_rejects_a_mean_free_tension_with_a_mean_field():
    # a(tau) = cos 2tau or sin 2tau has no mean, but a(tau) (xi1 cos tau + xi2 sin tau)
    # (-sin tau, cos tau) does: a times harmonic 2 of tau has one
    harmonics = [(lambda t: np.cos(2 * t), lambda t: np.sin(2 * t) / 2),
                 (lambda t: np.sin(2 * t), lambda t: -np.cos(2 * t) / 2)]
    for func, primitive in harmonics:
        tension = Tension("harmonic2", func, primitive)
        with pytest.raises(ValueError, match="'harmonic2' .*n_tau = 16 .*tension is not mean-free"):
            DiffusionSolver(PhaseGrid(16), TorusGrid(16), tension, 0.1)


def test_diffusion_initial_split_is_the_mean_and_fluctuation():
    solver = DiffusionSolver(PhaseGrid(32), TorusGrid(32), get_tension("cos4"), 0.1)
    f = solver.transport.initial_state("corrected")
    g, h = solver.initial_split("corrected")
    assert np.array_equal(g, averaging.project_mean(f))
    assert np.array_equal(h, averaging.fluctuation(f))


def test_diffusion_step_invariants():
    grid = PhaseGrid(32)
    torus = TorusGrid(32)
    solver = DiffusionSolver(grid, torus, get_tension("cos4"), 0.1)
    g, h = solver.initial_split("corrected")
    mass0 = g.sum()
    for _ in range(5):
        g, h = solver.step(g, h, 0.01)
        np.testing.assert_allclose(averaging.project_mean(h), 0.0, atol=1e-13)
    assert abs(g.sum() - mass0) <= 1e-10 * abs(mass0)
    assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))
