import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_fields import field_amplitude

from vlasov_ap import fields, harness, reference, stepper
from vlasov_ap.domain import PhaseGrid, TorusGrid, initial_distribution, rotate_to_xi
from vlasov_ap.fields import get_tension
from vlasov_ap.harness import (
    SCHEMES,
    DiagnosticsRecord,
    RunConfig,
    boundary_mass_fraction,
    convergence_study,
    format_config,
    negative_part,
    reference_filtered,
    rel_error,
    rms,
    run,
    table_study,
    total_mass,
)
from vlasov_ap.reference import SplittingSolver, model_solution


# ---------------------------------------------------------------------------
# configuration

def test_config_rejects_bad_values():
    good = dict(epsilon=0.5, t_final=1.0)
    for bad in (
        dict(good, scheme="spectral"),
        dict(good, init="cold"),
        dict(good, mode="gravitational"),
        dict(good, epsilon=0.0),
        dict(good, epsilon=-0.1),
        dict(good, t_final=-1.0),
        dict(good, delta_t=0.0),
        dict(good, delta_t=-0.02),
        dict(good, n_points=100),
        dict(good, n_tau=48),
        dict(good, n_points=0),
        dict(good, n_tau=2),
    ):
        with pytest.raises(ValueError):
            RunConfig(**bad)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# baseline beam\n"
        "epsilon = 0.5\n"
        "t_final = 1.0   # one slow unit\n"
        "n_points = 32\n"
        "delta_t = auto\n"
        "snapshot_times = 0.5, 1.0\n"
        "\n"
        "scheme = ap\n"
    )
    cfg = RunConfig.from_file(path)
    assert cfg.epsilon == 0.5
    assert cfg.n_points == 32
    assert cfg.delta_t is None
    assert cfg.snapshot_times == (0.5, 1.0)
    # overrides win
    cfg = RunConfig.from_file(path, overrides=["scheme=limit", "delta_t = 0.25"])
    assert cfg.scheme == "limit" and cfg.delta_t == 0.25 and cfg.n_tau == 64

    path.write_text("epsilon = 0.5\nt_final = 1.0\nfoo = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_file(path)
    path.write_text("epsilon = 0.5\n")
    with pytest.raises(ValueError, match="missing required"):
        RunConfig.from_file(path)
    path.write_text("epsilon 0.5\nt_final = 1.0\n")
    with pytest.raises(ValueError, match="key = value"):
        RunConfig.from_file(path)


def test_config_format_round_trip():
    cfg = RunConfig(
        epsilon=0.123,
        t_final=2.5,
        n_points=32,
        n_tau=16,
        scheme="splitting",
        init="plain",
        tension="cos4",
        delta_t=None,
        snapshot_times=(0.5, 2.5),
        rms_every=4,
        output_dir="elsewhere",
    )
    raw = {}
    for line in format_config(cfg).splitlines():
        key, value = line.split(" = ", 1)
        raw[key] = value
    assert RunConfig.from_strings(raw) == cfg


# ---------------------------------------------------------------------------
# diagnostics

def test_rms_on_constant_field():
    grid = PhaseGrid(64)
    n, d, lo = grid.n_points, grid.delta_xi, -grid.xi_max
    # left-endpoint Riemann sum of xi1^2 over the box, by the power sums
    sum_sq = n * lo ** 2 + 2 * lo * d * (n - 1) * n / 2 + d ** 2 * (n - 1) * n * (2 * n - 1) / 6
    expected = np.sqrt(sum_sq * n * d ** 2)
    assert rms(np.ones((n, n)), grid) == pytest.approx(expected, rel=1e-12)


def test_rms_reflection_invariance():
    grid = PhaseGrid(32)
    x1, x2 = grid.mesh()
    f = initial_distribution(x1, x2) * (1.0 + 0.3 * np.sin(x1 + 0.5 * x2))
    # nodes exclude the right edge, so xi1 -> -xi1 is a flip plus a roll
    mirrored = np.roll(f[::-1, :], 1, axis=0)
    assert rms(mirrored, grid) == pytest.approx(rms(f, grid), rel=1e-13)


def test_rms_clips_undershoot():
    grid = PhaseGrid(8, 2.0)
    f = np.ones((8, 8))
    f[3, 4] = -2.0
    assert rms(f, grid) == rms(np.clip(f, 0.0, None), grid)
    assert negative_part(f, grid) == pytest.approx(2.0 * grid.delta_xi ** 2)
    assert negative_part(np.ones((8, 8)), grid) == 0.0


def test_mass_and_boundary_fraction():
    grid = PhaseGrid(4, 2.0)
    assert total_mass(np.ones((4, 4)), grid) == pytest.approx(16.0)
    assert boundary_mass_fraction(np.ones((8, 8))) == pytest.approx(0.75)
    assert boundary_mass_fraction(np.zeros((8, 8))) == 0.0
    # an empty rim reads exactly 0, never a rounding residue below it
    rng = np.random.default_rng(4)
    for _ in range(50):
        f = np.zeros((16, 16))
        f[2:-2, 2:-2] = rng.random((12, 12))
        assert boundary_mass_fraction(f) == 0.0


def test_rel_error_norms():
    ref = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert rel_error(ref, ref) == 0.0
    assert rel_error(2.0 * ref, ref, "l2") == pytest.approx(1.0)
    assert rel_error(2.0 * ref, ref, "linf") == pytest.approx(1.0)
    with pytest.raises(RuntimeError, match="reference field is identically zero"):
        rel_error(ref, np.zeros_like(ref))
    with pytest.raises(RuntimeError, match="reference field is identically zero"):
        rel_error(ref, np.zeros_like(ref), "linf")
    with pytest.raises(ValueError, match="unknown norm"):
        rel_error(ref, ref, "l1")


def test_diagnostics_record_guards_nan():
    DiagnosticsRecord(0.0, 1.0, 9.6, 0.0)
    with pytest.raises(RuntimeError, match="non-finite diagnostics at t = 0.0"):
        DiagnosticsRecord(0.0, float("nan"), 9.6, 0.0)


# ---------------------------------------------------------------------------
# single runs and their files

def test_zero_horizon_readout_is_initial_data(tmp_path):
    grid = PhaseGrid(32)
    x1, x2 = grid.mesh()
    f0 = initial_distribution(x1, x2)
    for init in ("corrected", "plain"):
        out = tmp_path / init
        cfg = RunConfig(epsilon=0.1, t_final=0.0, n_points=32, n_tau=16,
                        init=init, snapshot_times=(0.0,), output_dir=str(out))
        result = run(cfg)
        assert result.n_steps == 0
        assert len(result.records) == 1 and result.records[0].time == 0.0
        data = np.loadtxt(out / "snapshot_0.csv", delimiter=",", skiprows=1)
        assert np.abs(data[:, 2].reshape(32, 32) - f0).max() < 1e-13


def test_runs_are_bit_identical(tmp_path):
    cfg = RunConfig(epsilon=0.5, t_final=0.06, n_points=32, n_tau=16,
                    delta_t=0.02, snapshot_times=(0.04,),
                    output_dir=str(tmp_path / "a"))
    run(cfg)
    run(cfg.replace(output_dir=str(tmp_path / "b")))
    for name in ("rms.csv", "snapshot_0.04.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # meta echoes the config, so only the output_dir line may differ
    for a, b in zip((tmp_path / "a" / "meta.txt").read_text().splitlines(),
                    (tmp_path / "b" / "meta.txt").read_text().splitlines()):
        if not a.startswith("output_dir"):
            assert a == b


def _csv_cases():
    rng = np.random.default_rng(5)
    snapshot = rng.standard_normal((32 * 32, 4))
    snapshot[:6, 2] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
    yield pytest.param(snapshot, "xi1,xi2,f_tilde,f_rv", id="snapshot")
    for rows in (harness.CSV_BLOCK_ROWS - 1, harness.CSV_BLOCK_ROWS, harness.CSV_BLOCK_ROWS + 1):
        yield pytest.param(rng.random((rows, 4)), "time,rms,mass,boundary_mass_fraction", id=f"{rows}-rows")
    yield pytest.param(np.array([[0.0, 0.25, 1.0, 1e-7]]), "time,rms,mass,boundary_mass_fraction", id="one-rms-row")
    # converge writes its slopes as np.array(slopes).reshape(-1, 2), header-only without a slope
    yield pytest.param(np.array([]).reshape(-1, 2), "epsilon,slope", id="no-slope")
    yield pytest.param(rng.random(7), "x", id="1-D")


@pytest.mark.parametrize("rows, header", _csv_cases())
def test_csv_files_are_the_bytes_of_savetxt(rows, header, tmp_path):
    harness._atomic_savetxt(tmp_path / "out.csv", rows, header)
    with open(tmp_path / "want.csv", "wb") as fh:
        np.savetxt(fh, rows, fmt=harness.FMT, delimiter=",", header=header, comments="")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_meta_reports_resolved_step(tmp_path):
    cfg = RunConfig(epsilon=0.5, t_final=0.05, n_points=32, n_tau=16,
                    delta_t=0.02, output_dir=str(tmp_path))
    result = run(cfg)
    meta = dict(line.split(" = ", 1) for line in (tmp_path / "meta.txt").read_text().splitlines())
    # dt is shrunk to fit the horizon, never stretched
    assert int(meta["n_steps"]) == 3
    assert float(meta["dt_actual"]) == pytest.approx(0.05 / 3.0, rel=1e-15)
    assert float(meta["max_negative_part"]) >= 0.0
    rows = np.loadtxt(tmp_path / "rms.csv", delimiter=",", skiprows=1)
    assert rows.shape == (4, 4)
    assert rows[-1, 0] == pytest.approx(0.05, abs=1e-15)
    assert result.max_negative == float(meta["max_negative_part"])


def test_limit_snapshot_is_lossless(tmp_path):
    cfg = RunConfig(epsilon=0.3, t_final=0.75, n_points=32, scheme="limit",
                    delta_t=0.25, snapshot_times=(0.75,), output_dir=str(tmp_path))
    run(cfg)
    data = np.loadtxt(tmp_path / "snapshot_0.75.csv", delimiter=",", skiprows=1)
    x1, x2 = PhaseGrid(32).mesh()
    # %.17g round-trips doubles exactly
    want = model_solution("limit", 0.75, 0.3, get_tension("cos2sq"), x1, x2)
    assert np.array_equal(data[:, 2].reshape(32, 32), want)


# the splitting run puts 2.4e-4 of the mass near the edge of this 32^2 box; only the step count matters here
@pytest.mark.parametrize("scheme", [
    pytest.param(s, marks=pytest.mark.filterwarnings("ignore:.*box edge")) if s == "splitting" else s
    for s in SCHEMES
])
def test_every_scheme_observes_exactly_the_scheduled_steps(scheme, tmp_path, monkeypatch):
    calls = {"_drift": 0, "_kick": 0}
    for name in calls:
        method = getattr(SplittingSolver, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(SplittingSolver, name, counted)
    # 8 steps of 0.0125: rows at steps 0, 4 and 8; snapshots at step 3 and at
    # step 8, which the request past t_final is clamped to
    dt = 0.0125
    cfg = RunConfig(epsilon=0.25, t_final=8 * dt, n_points=32, n_tau=16, scheme=scheme,
                    tension="cos4" if scheme == "diffusion" else "cos2sq", delta_t=dt,
                    rms_every=4, snapshot_times=(3 * dt, 8 * dt, 1.0), output_dir=str(tmp_path))
    result = run(cfg)
    assert result.n_steps == 8 and result.dt == dt
    rows = np.loadtxt(tmp_path / "rms.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], [0.0, 4 * dt, 8 * dt])
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == [f"snapshot_{3 * dt:.6g}.csv", f"snapshot_{8 * dt:.6g}.csv"]
    if scheme == "splitting":
        # half drifts are fused between observed steps 0, 3, 4 and 8 only
        assert calls == {"_drift": 11, "_kick": 8}
        calls.update(_drift=0, _kick=0)
        run(cfg.replace(snapshot_times=()), write=False)
        assert calls == {"_drift": 10, "_kick": 8}


def _quiet_run_peak(monkeypatch, cfg):
    """Peak traced bytes of a quiet run of cfg, traced from its first advance on."""
    advance = stepper.APSolver.advance

    def traced(self, state, dt):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return advance(self, state, dt)

    monkeypatch.setattr(stepper.APSolver, "advance", traced)
    try:
        run(cfg, write=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


QUIET_LINEAR_RUN = RunConfig(epsilon=0.25, t_final=0.06, n_points=128, n_tau=32, delta_t=0.01, rms_every=2)


def test_a_quiet_run_holds_two_states_while_it_steps(monkeypatch):
    # rows every second step make each span two advances; the second one holds
    # its input and its working array, and nothing holds the span's first
    # state any more.  Tracing starts at the first advance, so the set-up is
    # not counted: measured 1.28 whole-torus state sizes at 128^2 x 32, where
    # the run steps on half the torus (two half states and about 1 MB of
    # blocks), 2.29 when it stepped on the whole torus, and 3.29 when the run
    # loop also kept the span's first state alive
    peak = _quiet_run_peak(monkeypatch, QUIET_LINEAR_RUN)
    assert peak <= 2.5 * (32 * 128 * 128 * 8)


def test_a_quiet_linear_run_steps_on_half_the_torus(monkeypatch):
    # the same run as above: 1.28 whole-torus state sizes on half the torus,
    # 2.29 on the whole one
    peak = _quiet_run_peak(monkeypatch, QUIET_LINEAR_RUN)
    assert peak <= 1.6 * (32 * 128 * 128 * 8)


def test_lab_frame_is_built_for_snapshot_steps_only(tmp_path, monkeypatch):
    models, planes = [], []
    model, plane = reference.model_solution, fields.sample_plane
    monkeypatch.setattr(reference, "model_solution", lambda *a: models.append(1) or model(*a))
    monkeypatch.setattr(fields, "sample_plane", lambda *a, **k: planes.append(1) or plane(*a, **k))
    # a table row reads f~ of each closed form once, at t_final, and no lab frame
    cfg = RunConfig(epsilon=0.5, t_final=0.1, n_points=32, n_tau=16, output_dir=str(tmp_path))
    table_study(cfg, eps_list=(0.5,))
    assert len(models) == 2
    # rows at steps 0, 4 and 8 and a snapshot at step 3: one lab frame, for the snapshot
    cfg = cfg.replace(delta_t=0.0125, rms_every=4, snapshot_times=(0.0375,))
    models.clear()
    run(cfg.replace(scheme="limit"), write=False)
    assert len(models) == 5
    for scheme, tension in (("ap", "cos2sq"), ("diffusion", "cos4")):
        planes.clear()
        run(cfg.replace(scheme=scheme, tension=tension), write=False)
        assert len(planes) == 1, scheme


def test_snapshot_requests_on_one_step_share_a_file(tmp_path):
    # dt = 0.0125: -1 and -1e308 land on step 0; 0.02 and 0.024 round to step
    # 2; 0.05, 0.5 and 1e308 land on step 4, each time clamped before it is
    # divided by dt
    cfg = RunConfig(epsilon=0.5, t_final=0.05, n_points=32, scheme="limit", delta_t=0.0125,
                    snapshot_times=(-1.0, 0.02, 0.024, 0.05, 0.5, 1e308, -1e308), output_dir=str(tmp_path))
    run(cfg)
    names = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert names == ["snapshot_0.025.csv", "snapshot_0.05.csv", "snapshot_0.csv"]


def test_poisson_auto_step_is_the_cfl_step_frozen_at_t0(tmp_path, monkeypatch):
    amplitudes = []
    cfl_dt = stepper.cfl_dt

    def spy(g, *args):
        amplitudes.append(np.array(list(g)))
        return cfl_dt(amplitudes[-1], *args)

    monkeypatch.setattr(stepper, "cfl_dt", spy)
    cfg = RunConfig(epsilon=0.5, t_final=0.1, n_points=32, n_tau=16, mode="poisson", output_dir=str(tmp_path))
    run(cfg)
    torus = harness._two_scale_torus(cfg)
    solver = stepper.APSolver(cfg.phase(), torus, get_tension(cfg.tension), cfg.epsilon, "poisson", cfg.f0_params())
    # one call, on the field amplitude of the initial state; the self-field
    # evolves, but later steps keep this dt
    assert len(amplitudes) == 1
    want = field_amplitude(solver.initial_state("corrected"), solver.rotator, solver.applied_amplitude)
    assert np.array_equal(amplitudes[0], want)
    meta = dict(line.split(" = ", 1) for line in (tmp_path / "meta.txt").read_text().splitlines())
    n_steps, dt = harness._resolve_steps(cfg, cfl_dt(amplitudes[0], torus.nodes, cfg.phase().delta_xi))
    assert int(meta["n_steps"]) == n_steps > 1
    assert float(meta["dt_actual"]) == dt


def test_colliding_snapshot_names_are_rejected_before_stepping(tmp_path):
    # steps 5000000 and 5000001 of dt = 1e-7 both print as 0.5 with %.6g
    out = tmp_path / "out"
    cfg = RunConfig(epsilon=0.5, t_final=1.0, n_points=32, scheme="limit", delta_t=1e-7,
                    rms_every=1 << 30, snapshot_times=(0.5, 0.5000001), output_dir=str(out))
    with pytest.raises(ValueError, match="snapshot"):
        run(cfg)
    assert not out.exists()


def test_diffusion_starts_from_the_configured_beam():
    cfg = RunConfig(epsilon=0.1, t_final=0.0, n_points=32, n_tau=16, scheme="diffusion",
                    tension="cos4", init="plain", delta_t=0.01, alpha=0.4, edge=0.8)
    result = run(cfg, write=False)
    x1, x2 = PhaseGrid(32).mesh()
    want = initial_distribution(x1, x2, alpha=0.4, edge=0.8)
    assert np.abs(result.f_tilde - want).max() < 1e-13


def test_closed_forms_are_cos2sq_only(tmp_path):
    for scheme in ("limit", "second_order"):
        cfg = RunConfig(epsilon=0.05, t_final=0.0, n_points=32, scheme=scheme, tension="cos4")
        with pytest.raises(ValueError, match="cos2sq"):
            run(cfg, write=False)
    cfg = RunConfig(epsilon=0.05, t_final=0.02, n_points=32, tension="cos4", output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="cos2sq"):
        table_study(cfg, eps_list=(0.05,))
    # the linear reference is exact for every tension
    x1, x2 = cfg.phase().mesh()
    want = model_solution("exact", cfg.t_final, cfg.epsilon, get_tension("cos4"), x1, x2, cfg.f0_params())
    assert np.array_equal(reference_filtered(cfg), want)


def test_small_box_warns_about_edge_mass(tmp_path):
    cfg = RunConfig(epsilon=0.5, t_final=0.0, n_points=32, xi_max=2.0,
                    scheme="limit", output_dir=str(tmp_path))
    with pytest.warns(RuntimeWarning, match="box edge"):
        run(cfg, write=False)


def test_a_study_cell_warns_about_edge_mass(tmp_path):
    # linear mode scores against the exact solution, so the warning (1.07e-2
    # of the mass at t = 0.06) comes from the cell's own run
    cfg = RunConfig(epsilon=0.5, t_final=0.06, n_points=16, n_tau=8, xi_max=2.0, output_dir=str(tmp_path))
    with pytest.warns(RuntimeWarning, match="box edge"):
        convergence_study(cfg, [0.02], [0.5])


@pytest.mark.filterwarnings("ignore:density is not even")  # 32 nodes barely resolve the edge
def test_a_splitting_reference_warns_about_edge_mass():
    # its fine run puts 2.13e-4 of the mass near the edge of the 32^2 box at t = 0.11
    cfg = RunConfig(epsilon=0.5, t_final=0.11, n_points=16, reference_n=32, mode="poisson")
    with pytest.warns(RuntimeWarning, match="box edge"):
        harness._splitting_reference(cfg)


def test_ap_and_splitting_agree_at_eps_one(tmp_path):
    cfg = RunConfig(epsilon=1.0, t_final=np.pi / 16, n_points=64,
                    output_dir=str(tmp_path))
    result = run(cfg, write=False)
    ref = harness._splitting_reference(cfg)
    assert rel_error(result.f_tilde, ref, "l2") <= 2e-2


@pytest.mark.parametrize("mode", ["linear", "poisson"])
def test_ap_runs_have_a_limit_as_eps_vanishes(mode):
    # the AP limit needs no reference: at a fixed grid and dt, runs a decade of
    # eps apart move together at rate eps.  Measured distances: linear 6.49e-5,
    # 6.19e-6, 6.17e-7 (ratios 10.48, 10.03); poisson 5.37e-4, 5.24e-5,
    # 5.22e-6 (10.25, 10.04).  The band allows 10 % either side of 10.
    finals = [
        run(RunConfig(epsilon=eps, t_final=np.pi / 8, n_points=32, n_tau=32, xi_max=3.5,
                      delta_t=0.049, mode=mode), write=False).f_tilde
        for eps in (1e-3, 1e-4, 1e-5, 1e-6)
    ]
    dists = [rel_error(f, f_next, "l2") for f, f_next in zip(finals, finals[1:])]
    ratios = [d / d_next for d, d_next in zip(dists, dists[1:])]
    assert all(9.0 < r < 11.0 for r in ratios), dists


# ---------------------------------------------------------------------------
# the half torus of two-scale runs

FOLD_CASES = [("ap", "cos2sq"), ("ap", "cos4"), ("diffusion", "cos4")]


def _fold_config(scheme, tension, out, mode="linear"):
    # ap takes the CFL step (5 steps), diffusion needs its own (10 steps)
    dt = 0.02 if scheme == "diffusion" else None
    return RunConfig(epsilon=0.2, t_final=0.2, n_points=32, n_tau=16, scheme=scheme, tension=tension,
                     mode=mode, delta_t=dt, snapshot_times=(0.1, 0.2), output_dir=str(out))


def _outputs(out):
    meta = dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())
    tables = {p.name: np.loadtxt(p, delimiter=",", skiprows=1) for p in sorted(out.glob("*.csv"))}
    return meta, tables


def _folded_and_whole_outputs(config, monkeypatch):
    """The outputs of config run on the torus _two_scale_torus picks, which must be the half one, and on the whole.

    Returned as (meta, tables) of the folded run, then of the whole; their
    steps, files and grid coordinates are checked to agree exactly.
    """
    out = Path(config.output_dir)
    tori, choose = [], harness._two_scale_torus
    monkeypatch.setattr(harness, "_two_scale_torus", lambda c: tori.append(choose(c)) or tori[-1])
    run(config.replace(output_dir=str(out / "half")))
    assert tori == [TorusGrid(8, fold=2)]
    monkeypatch.setattr(harness, "_two_scale_torus", lambda c: c.torus())
    run(config.replace(output_dir=str(out / "whole")))

    (half_meta, half), (whole_meta, whole) = _outputs(out / "half"), _outputs(out / "whole")
    assert half_meta["n_tau"] == whole_meta["n_tau"] == "16"
    assert half_meta["n_steps"] == whole_meta["n_steps"] and half_meta["dt_actual"] == whole_meta["dt_actual"]
    assert sorted(half) == sorted(whole) and len(half) == 3
    for name in sorted(half)[1:]:
        assert np.array_equal(half[name][:, :2], whole[name][:, :2])
    return (half_meta, half), (whole_meta, whole)


def _largest_field_change(half, whole):
    """Largest change of f_tilde or f_rv in any snapshot, relative to that column's largest value."""
    return max(np.abs(half[name][:, c] - whole[name][:, c]).max() / np.abs(whole[name][:, c]).max()
               for name in sorted(half)[1:] for c in (2, 3))


@pytest.mark.parametrize("scheme, tension", FOLD_CASES)
def test_a_folded_run_matches_the_whole_torus(scheme, tension, tmp_path, monkeypatch):
    (half_meta, half), (whole_meta, whole) = _folded_and_whole_outputs(
        _fold_config(scheme, tension, tmp_path), monkeypatch)
    np.testing.assert_allclose(float(half_meta["max_negative_part"]), float(whole_meta["max_negative_part"]),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(half["rms.csv"], whole["rms.csv"], rtol=1e-12, atol=0)
    assert _largest_field_change(half, whole) <= 1e-12


def test_a_folded_poisson_run_matches_the_whole_torus(tmp_path, monkeypatch):
    # the whole-torus run repeats after tau = pi only up to the xi grid's
    # unpaired node 0, so the two part by more than rounding.  Measured:
    # 3.4e-12 on f_tilde and 2.1e-12 on f_rv, 1.3e-12 on max_negative_part,
    # 7.5e-15 on rms and 9.6e-14 on mass; the boundary mass fraction, a share
    # of the mass below 2e-8, moves by at most 6.5e-14 of the mass
    (half_meta, half), (whole_meta, whole) = _folded_and_whole_outputs(
        _fold_config("ap", "cos2sq", tmp_path, mode="poisson"), monkeypatch)
    np.testing.assert_allclose(float(half_meta["max_negative_part"]), float(whole_meta["max_negative_part"]),
                               rtol=1e-11, atol=0)
    np.testing.assert_allclose(half["rms.csv"][:, :3], whole["rms.csv"][:, :3], rtol=1e-12, atol=0)
    np.testing.assert_allclose(half["rms.csv"][:, 3], whole["rms.csv"][:, 3], rtol=0, atol=1e-12)
    assert _largest_field_change(half, whole) <= 1e-11


def test_n_tau_4_and_a_tension_without_period_pi_keep_the_whole_torus(monkeypatch):
    # cos 3tau turns sign under tau -> tau + pi; the rule is the same in both modes
    monkeypatch.setitem(fields.TENSIONS, "cos3", fields.Tension("cos3", lambda t: np.cos(3 * t),
                                                                lambda t: np.sin(3 * t) / 3))
    monkeypatch.setitem(harness._CHOICES, "tension", sorted(fields.TENSIONS))
    shapes = []
    advance = stepper.APSolver.advance
    monkeypatch.setattr(stepper.APSolver, "advance",
                        lambda self, state, dt: shapes.append(state.shape[0]) or advance(self, state, dt))
    for mode in ("linear", "poisson"):
        base = RunConfig(epsilon=0.2, t_final=0.02, n_points=32, n_tau=16, delta_t=0.01, mode=mode)
        assert harness._two_scale_torus(base) == TorusGrid(8, fold=2)
        for cfg in (base.replace(n_tau=4), base.replace(tension="cos3"),
                    base.replace(scheme="diffusion", mode="linear", tension="cos4", n_tau=4)):
            assert harness._two_scale_torus(cfg) == TorusGrid(cfg.n_tau), cfg
        # a run steps the torus that the helper gives it, a whole one too
        for cfg, n_tau in ((base, 8), (base.replace(tension="cos3"), 16), (base.replace(n_tau=4), 4)):
            shapes.clear()
            run(cfg, write=False)
            assert shapes == [n_tau, n_tau], cfg


def test_a_folded_run_names_the_configured_n_tau():
    # cos2sq repeats after pi, so this run is given the half torus before the solver rejects its mean field
    cfg = RunConfig(epsilon=0.2, t_final=0.02, n_points=16, n_tau=16, scheme="diffusion", delta_t=0.01)
    assert harness._two_scale_torus(cfg).fold == 2
    with pytest.raises(ValueError, match="n_tau = 16 nodes: the tension is not mean-free"):
        run(cfg, write=False)


@pytest.mark.parametrize("scheme, tension", [("ap", "cos2sq"), ("diffusion", "cos4")])
def test_snapshot_lab_frame_matches_the_exact_solution(scheme, tension, tmp_path):
    # both runs step on half the torus, where f~ is read at 2 tau but the lab
    # frame turns by tau itself: relative Linf 0.055 and 0.054 measured, 0.71
    # and 0.49 with the lab frame turned by 2 tau
    eps = 0.1 if scheme == "ap" else 0.2
    cfg = RunConfig(epsilon=eps, t_final=0.5 if scheme == "ap" else 0.1, n_points=32, n_tau=16,
                    scheme=scheme, tension=tension, delta_t=0.01 if scheme == "diffusion" else None,
                    snapshot_times=(1.0,), output_dir=str(tmp_path))
    result = run(cfg, write=False)
    (path,) = tmp_path.glob("snapshot_*.csv")
    f_rv = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3).reshape(32, 32)
    # the diffusion scheme's time t is the standard problem's t/eps, and its tau is t/eps^2
    t = cfg.t_final / eps if scheme == "diffusion" else cfg.t_final
    r, v = cfg.phase().mesh()
    want = model_solution("exact", t, eps, get_tension(tension), *rotate_to_xi(t / eps, r, v))
    assert result.n_steps * result.dt == pytest.approx(cfg.t_final, rel=1e-15)
    assert rel_error(f_rv, want, "linf") <= 0.1


# ---------------------------------------------------------------------------
# filtered rms series

def fast_band_fraction(times, series, eps):
    spec = np.abs(np.fft.rfft(np.asarray(series))) ** 2
    freq = np.fft.rfftfreq(len(series), d=times[1] - times[0])
    return spec[freq >= 1.0 / (2.0 * np.pi * eps)].sum() / spec.sum()


@pytest.mark.filterwarnings("ignore:.*box edge")  # 1e-5 of the mass nears the edge late in the slow period
def test_filtered_rms_has_no_fast_oscillation():
    # One slow period (the xi1 moment turns at angular rate 1/2, period 4 pi)
    # sampled at dt = 0.02 keeps the t/eps band inside Nyquist at eps = 0.01.
    # The limit series is quiet to rounding; the corrected scheme keeps the
    # fast band below 1e-6 of the spectrum (measured 5.9e-7 at this grid,
    # carried by the first corrector showing through the tau = t/eps readout).
    eps = 0.01
    out = {}
    for scheme in ("limit", "ap"):
        cfg = RunConfig(epsilon=eps, t_final=4.0 * np.pi, n_points=64, n_tau=32,
                        scheme=scheme, init="corrected", delta_t=0.02)
        res = run(cfg, write=False)
        out[scheme] = fast_band_fraction(res.times, res.rms_series, eps)
    assert out["limit"] < 1e-12
    assert out["ap"] < 1e-6


def test_corrected_init_beats_plain_on_rms():
    # eps = 0.025: the plain start pays an O(eps) initial layer that the
    # corrected data removes.  Splitting reference at dt = 3.125e-4 is
    # converged to ~1.5e-4 in this metric; the measured gap is 7.4x.
    eps, t_final = 0.025, 1.6
    ref_cfg = RunConfig(epsilon=eps, t_final=t_final, n_points=64,
                        scheme="splitting", delta_t=3.125e-4, rms_every=64)
    ref = run(ref_cfg, write=False)
    r_ref = np.asarray(ref.rms_series)
    t_ref = np.asarray(ref.times)
    l1 = {}
    for init in ("corrected", "plain"):
        cfg = RunConfig(epsilon=eps, t_final=t_final, n_points=64, n_tau=32,
                        init=init, delta_t=0.02)
        res = run(cfg, write=False)
        assert np.allclose(res.times, t_ref)
        l1[init] = np.trapezoid(np.abs(np.asarray(res.rms_series) - r_ref), t_ref)
    assert l1["plain"] >= 3.0 * l1["corrected"], l1


# ---------------------------------------------------------------------------
# references and studies

def test_splitting_error_grows_as_eps_shrinks():
    # fixed dt against a self-converged run: the (dt/eps)^2 step error shows
    # as a factor near 4 per halving.  The prefactor oscillates with eps and
    # this pair sits inside the band; the ratio is insensitive to dt.
    grid = PhaseGrid(64)
    dt, t_end = 0.0025, np.pi / 16
    errs = []
    for eps in (0.1, 0.05):
        solver = SplittingSolver(grid, eps, get_tension("cos2sq"))
        # the step counts round(t_end / dt) and round(t_end * 64 / dt)
        f0 = solver.initial_state()
        coarse = solver.solve(f0, 0, 79, t_end / 79)
        ref = solver.solve(f0, 0, 5027, t_end / 5027)
        errs.append(np.abs(coarse - ref).max())
    ratio = errs[1] / errs[0]
    assert 3.0 < ratio < 5.0, errs


def test_convergence_study_outputs(tmp_path):
    # the splitting scheme is spectral in xi, so the sweep sees the pure step
    # error; a sharper-than-default reference keeps the frame honest
    cfg = RunConfig(epsilon=0.25, t_final=np.pi / 16, n_points=64,
                    scheme="splitting", reference_dt_factor=0.002,
                    output_dir=str(tmp_path))
    rows, slopes = convergence_study(cfg, [0.08, 0.04], [0.25])
    assert [r[0] for r in rows] == [0.25, 0.25]
    # requested steps are shrunk to divide the horizon
    assert rows[0][1] == pytest.approx(np.pi / 48)
    assert rows[1][1] == pytest.approx(np.pi / 80)
    assert rows[1][2] < rows[0][2]
    assert len(slopes) == 1 and slopes[0][0] == 0.25
    assert 1.8 < slopes[0][1] < 2.2
    saved = np.loadtxt(tmp_path / "convergence.csv", delimiter=",", skiprows=1)
    assert saved.shape == (2, 3)
    assert np.loadtxt(tmp_path / "slopes.csv", delimiter=",", skiprows=1).shape == (2,)


def test_convergence_study_leaves_no_stale_slopes(tmp_path):
    # a sweep with one dt per eps has no slope, and must not keep the last sweep's
    cfg = RunConfig(epsilon=0.5, t_final=0.06, n_points=32, n_tau=16, output_dir=str(tmp_path))
    _, slopes = convergence_study(cfg, [0.02, 0.01], [0.5])
    assert len(slopes) == 1
    _, slopes = convergence_study(cfg, [0.02], [0.25])
    assert slopes == []
    assert (tmp_path / "slopes.csv").read_text() == "epsilon,slope\n"


def test_a_splitting_reference_maps_its_state_to_the_xi_frame_once(monkeypatch):
    maps, solves = [], []
    filtered, solve = reference.filtered_from_rv, SplittingSolver.solve
    monkeypatch.setattr(reference, "filtered_from_rv", lambda *a: maps.append(a[2]) or filtered(*a))
    monkeypatch.setattr(SplittingSolver, "solve", lambda self, *a: solves.append(a[1:3]) or solve(self, *a))
    cfg = RunConfig(epsilon=0.25, t_final=0.1, n_points=32, mode="poisson")
    ref = harness._splitting_reference(cfg)
    # one span of all 8 steps, then one map to the xi frame, at t_final
    assert solves == [(0, 8)] and maps == [pytest.approx(0.1, rel=1e-15)]
    # the run the reference stands for gives the same field
    fine = run(cfg.replace(scheme="splitting", n_points=64, rms_every=1 << 30), write=False)
    assert np.array_equal(ref, fine.f_tilde[::2, ::2])
    assert len(maps) == 3


def test_reference_cache_is_memoized(tmp_path):
    cache = tmp_path / "cache"
    cfg = RunConfig(epsilon=0.25, t_final=0.1, n_points=32, rms_every=1 << 30,
                    mode="poisson", output_dir=str(tmp_path))
    first = harness._splitting_reference(cfg, cache_dir=str(cache))
    files = sorted(cache.glob("*.npy"))
    assert len(files) == 1
    # a poisoned cache entry coming back proves the second call reads it
    marker = np.full_like(first, 7.0)
    np.save(files[0], marker)
    assert np.array_equal(harness._splitting_reference(cfg, cache_dir=str(cache)), marker)
    harness._splitting_reference(cfg.replace(epsilon=0.5), cache_dir=str(cache))
    assert len(sorted(cache.glob("*.npy"))) == 2


def test_reference_cache_replaces_a_truncated_entry(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cfg = RunConfig(epsilon=0.25, t_final=0.1, n_points=32, mode="poisson")
    first = harness._splitting_reference(cfg, cache_dir=str(cache))
    (entry,) = cache.iterdir()
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    assert np.array_equal(harness._splitting_reference(cfg, cache_dir=str(cache)), first)
    # replaced in place, no temp file left behind
    assert [p.name for p in cache.iterdir()] == [entry.name]
    assert np.array_equal(np.load(entry), first)
    # a save that fails on a miss propagates and leaves no temp file; the next
    # call reads the good entry, as a miss would save and fail again
    def fail(fh, _):
        fh.write(b"partial")
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(np, "save", fail)
        with pytest.raises(OSError, match="disk full"):
            harness._splitting_reference(cfg.replace(epsilon=0.5), cache_dir=str(cache))
        assert [p.name for p in cache.iterdir()] == [entry.name]
        assert np.array_equal(harness._splitting_reference(cfg, cache_dir=str(cache)), first)
    # a new format version never reads the old entries
    monkeypatch.setattr(harness, "REFERENCE_CACHE_VERSION", harness.REFERENCE_CACHE_VERSION + 1)
    harness._splitting_reference(cfg, cache_dir=str(cache))
    assert len(list(cache.iterdir())) == 2


# ref.sum() and (x1**2 * ref).sum() of the tiny reference below, per
# REFERENCE_CACHE_VERSION; t_final / dt_ref = 4.4 there, so the step-count
# rule shows in the numbers
PINNED_REFERENCE_SUMS = {3: (38.42188051005197, 18.590930632683246)}


@pytest.mark.filterwarnings("ignore:density is not even")  # 32 nodes barely resolve the edge
@pytest.mark.filterwarnings("ignore:.*box edge")  # 2.1e-4 of the mass nears the 32^2 reference box edge; only the sums matter
def test_reference_numbers_match_the_cache_version():
    cfg = RunConfig(epsilon=0.5, t_final=0.11, n_points=16, reference_n=32, mode="poisson")
    ref = harness._splitting_reference(cfg)
    x1, _ = cfg.phase().mesh()
    version = harness.REFERENCE_CACHE_VERSION
    sums = (float(ref.sum()), float((x1 ** 2 * ref).sum()))
    assert version in PINNED_REFERENCE_SUMS, (
        f"no pinned sums for REFERENCE_CACHE_VERSION {version}; pin {sums} for it"
    )
    np.testing.assert_allclose(
        sums, PINNED_REFERENCE_SUMS[version], rtol=1e-10,
        err_msg="the splitting reference changed: bump REFERENCE_CACHE_VERSION and pin its sums",
    )


def test_reference_n_must_match_grid():
    # the reference is a run, so its grid must be n_points times a power of two
    for reference_n in (48, 96):
        with pytest.raises(ValueError, match="reference_n .*multiple of n_points"):
            RunConfig(epsilon=0.25, t_final=0.1, n_points=32, reference_n=reference_n, mode="poisson")
    RunConfig(epsilon=0.25, t_final=0.1, n_points=32, reference_n=128, mode="poisson")


# inputs a splitting reference ignores share its cache entry; inputs that
# change its numbers get their own
CACHE_KEY_CASES = [
    ("n_tau", 8, True),
    ("init", "plain", True),
    ("delta_t", 0.01, True),
    ("scheme", "splitting", True),
    ("output_dir", "elsewhere", True),
    ("snapshot_times", (0.02,), True),
    ("rms_every", 3, True),
    ("tension", "cos4", False),
    ("xi_max", 4.5, False),
    ("alpha", 0.25, False),
    ("reference_dt_factor", 0.04, False),
    ("reference_n", 128, False),
    ("epsilon", 0.25, False),
    ("t_final", 0.05, False),
    ("n_points", 64, False),
    ("mode", "linear", False),
    ("edge", 1.0, False),
    ("width", 0.4, False),
]


@pytest.mark.parametrize("key, value, shared", CACHE_KEY_CASES)
def test_reference_cache_key_is_the_reference_config(tmp_path, key, value, shared):
    cache = tmp_path / "cache"
    cfg = RunConfig(epsilon=0.5, t_final=0.04, n_points=32, n_tau=16, mode="poisson")
    first = harness._splitting_reference(cfg, cache_dir=str(cache))
    (entry,) = cache.iterdir()
    # a marker coming back proves the changed config reads the same entry
    marker = np.full_like(first, 7.0)
    np.save(entry, marker)
    got = harness._splitting_reference(cfg.replace(**{key: value}), cache_dir=str(cache))
    assert len(list(cache.iterdir())) == (1 if shared else 2)
    assert np.array_equal(got, marker) == shared


def test_reference_cache_key_cases_cover_every_field():
    # a new RunConfig field needs a case saying whether references share it
    assert {key for key, _, _ in CACHE_KEY_CASES} == {f.name for f in dataclasses.fields(RunConfig)}


def test_diffusion_converges_against_its_own_time(tmp_path):
    # the diffusion scheme at time t is the standard problem at t/eps; scored
    # against that, the error falls at second order (2.07 measured)
    cfg = RunConfig(epsilon=0.2, t_final=0.1, n_points=64, n_tau=32, scheme="diffusion",
                    tension="cos4", alpha=0.4, edge=0.8, init="plain", output_dir=str(tmp_path))
    _, slopes = convergence_study(cfg, [0.005, 0.0025], [0.2])
    assert slopes[0][1] >= 1.8, slopes
