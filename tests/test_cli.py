import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vlasov_ap
from vlasov_ap import averaging, cli, harness, stepper
from vlasov_ap.cli import main

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def write_config(path, **kw):
    fields = dict(epsilon=0.5, t_final=0.06, n_points=32, n_tau=16, delta_t=0.02)
    fields.update(kw)
    lines = [f"{k} = {v}" for k, v in fields.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "steps = 3" in out and "outputs in" in out
    assert (tmp_path / "out" / "rms.csv").exists()
    assert (tmp_path / "out" / "meta.txt").exists()


def test_run_overrides_only_through_set(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "a")
    code = main(["run", cfg, "--set", "scheme=limit", "--set", "t_final=0",
                 "--set", f"output_dir={tmp_path / 'b'}"])
    assert code == 0
    meta = (tmp_path / "b" / "meta.txt").read_text()
    assert "scheme = limit" in meta and "n_steps = 0" in meta
    assert not (tmp_path / "a").exists()
    # there are no per-key flags
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--epsilon", "0.1"])
    assert exc.value.code == 2


def test_set_value_keeps_its_hash(tmp_path):
    # only config file lines lose a # comment; a --set value arrives verbatim
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    out = tmp_path / "a#b"
    assert main(["run", cfg, "--set", f"output_dir={out}"]) == 0
    assert f"output_dir = {out}\n" in (out / "meta.txt").read_text()
    assert not (tmp_path / "out").exists()


def test_set_overrides(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", cfg, "--set", "rms_every=2"]) == 0
    rows = np.loadtxt(tmp_path / "out" / "rms.csv", delimiter=",", skiprows=1)
    # steps 0 and 2, plus the final step 3
    assert rows.shape[0] == 3


def _readme_commands():
    """The ``vlasov-ap`` lines of README's Command line block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = section.replace("\\\n", " ").splitlines()
    return [shlex.split(c)[1:] for c in commands if c.strip().startswith("vlasov-ap ")]


def test_readme_commands_parse(monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 4
    monkeypatch.chdir(ROOT)

    def load_only(args):
        if "config" in vars(args):
            harness.RunConfig.from_file(args.config, args.set)
        return 0

    for name in ("_cmd_run", "_cmd_converge", "_cmd_table", "_cmd_selftest"):
        monkeypatch.setattr(cli, name, load_only)
    for argv in commands:
        assert main(argv) == 0, argv


def test_config_mistakes_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert main(["run", cfg, "--set", "bogus"]) == 2
    assert main(["run", cfg, "--set", "nope=1"]) == 2
    assert main(["run", cfg, "--set", "tension=nope"]) == 2
    # the CFL step has no safety factor to set
    assert main(["run", cfg, "--set", "cfl_safety=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    for bad in ("reference_dt_factor=-0.1", "reference_dt_factor=0", "rms_every=0",
                "epsilon=nan", "epsilon=inf", "t_final=inf", "t_final=nan", "delta_t=nan",
                "xi_max=nan", "alpha=nan", "reference_n=-16", "reference_n=48",
                "snapshot_times=nan", "snapshot_times=inf", "snapshot_times=-inf",
                "epsilon=abc", "n_points=1.5", "rms_every=x"):
        assert main(["run", cfg, "--set", bad]) == 2, bad
        assert f"error: {bad.split('=')[0]} must be" in capsys.readouterr().err, bad
    incomplete = tmp_path / "half.cfg"
    incomplete.write_text("epsilon = 0.5\n")
    assert main(["run", str(incomplete)]) == 2
    # the micro-macro stepper has no self-field
    assert main(["run", cfg, "--set", "scheme=diffusion", "--set", "tension=cos4",
                 "--set", "mode=poisson"]) == 2
    assert "error: scheme=diffusion" in capsys.readouterr().err
    # the closed forms exist for tension cos2sq only
    assert main(["run", cfg, "--set", "scheme=limit", "--set", "tension=cos4"]) == 2
    assert main(["table", cfg, "--set", "tension=cos4", "--eps", "0.5"]) == 2
    assert main(["table", cfg, "--set", "mode=poisson", "--eps", "0.5"]) == 2
    assert "error: table_study is a closed form for linear mode" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["n_points=0", "n_points=2", "n_tau=0", "n_tau=-4"])
def test_grid_sizes_below_four_exit_2(bad, tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", cfg, "--set", bad]) == 2
    assert f"error: {bad.split('=')[0]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["table", "--eps", ""], ["converge", "--dt", "", "--eps", "0.1"]])
def test_empty_study_lists_exit_2(argv, tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], cfg, *argv[1:]])
    assert exc.value.code == 2
    assert "expected at least one number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_diffusion_needs_explicit_step(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", delta_t=None, tension="cos4",
                       output_dir=tmp_path / "out")
    assert main(["run", cfg, "--set", "scheme=diffusion"]) == 2
    assert "delta_t" in capsys.readouterr().err


def test_diffusion_tension_with_a_mean_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", cfg, "--set", "scheme=diffusion", "--set", "tension=cos2sq"]) == 2
    assert "cos2sq" in capsys.readouterr().err


def test_blow_up_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", t_final=2000.0, delta_t=4.0,
                       output_dir=tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow chatter on the way down
        assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [(RuntimeError, 1), (ZeroDivisionError, None)],
                         ids=["ZeroReference-1", "ZeroDivisionError-None"])
def test_only_runtime_failures_exit_1(error, code, tmp_path, monkeypatch, capsys):
    # a zero reference (harness.rel_error raises RuntimeError) is a runtime
    # failure; any other division by zero is a bug, and its traceback must
    # reach the user
    def fail(config, write=True):
        raise error("division by zero")

    monkeypatch.setattr(harness, "run", fail)
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    if code is None:
        with pytest.raises(error):
            main(["run", cfg])
    else:
        assert main(["run", cfg]) == code
        assert "error: division by zero" in capsys.readouterr().err


def test_converge_prints_slopes(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", epsilon=0.25, t_final=np.pi / 16,
                       n_points=64, scheme="splitting", delta_t=None,
                       reference_dt_factor=0.002, output_dir=tmp_path / "out")
    assert main(["converge", cfg, "--dt", "0.08,0.04", "--eps", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "slope at epsilon = 0.25" in out
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert (tmp_path / "out" / "slopes.csv").exists()
    # the lists share RunConfig's rule: commas or spaces
    assert main(["converge", cfg, "--dt", "0.08 0.04", "--eps", "0.25"]) == 0
    assert capsys.readouterr().out == out


def test_table_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", epsilon=1.0, t_final=0.1,
                       delta_t=None, output_dir=tmp_path / "out")
    assert main(["table", cfg, "--eps", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "second_order" in out
    saved = np.loadtxt(tmp_path / "out" / "table.csv", delimiter=",", skiprows=1)
    assert saved.shape == (4,) and saved[0] == 0.5


def test_only_table_takes_a_reference_cache(tmp_path, capsys):
    # converge recomputes its poisson references on every call; only table caches them
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["converge", cfg, "--dt", "0.1", "--eps", "0.25", "--reference-cache", str(cache)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reference-cache" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
    assert main(["table", cfg, "--eps", "0.5", "--reference-cache", str(cache)]) == 0
    assert len(list(cache.glob("*.npy"))) == 1


def test_selftest_passes():
    assert main(["selftest", "--quiet"]) == 0


def _failed_value_and_band(out, name):
    """The measured value and band printed on the FAIL line of the named check."""
    line = out.split(f"FAIL {name}: ")[1].splitlines()[0]
    value, band = line.split(" (band [")
    lo, hi = band.rstrip("])").split(", ")
    return float(value), float(lo), float(hi)


def test_selftest_exits_1_under_a_broken_operator(monkeypatch, capsys):
    # a resolvent that returns its input, in the predictor and in the
    # corrector's one pass alike, fails three checks on their bands, and the
    # status is still 1
    solve, broken = averaging.solve_implicit_tau, []

    def predictor(rhs, lam, out=None):
        broken.append("predictor")
        return solve(rhs, 0.0, out)  # lam = 0: an exact copy

    def corrector(y, f, lam):
        broken.append("corrector")
        return np.add(y, averaging.explicit_tau(f, lam), out=y)

    monkeypatch.setattr(averaging, "solve_implicit_tau", predictor)
    monkeypatch.setattr(averaging, "crank_nicolson_tau", corrector)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the broken runs trip the edge-mass warning
        assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    for name in ("linear ap vs exact", "linear ap lab frame vs exact", "poisson ap mass drift"):
        assert f"FAIL {name}: " in out and "(band [" in out.split(f"FAIL {name}: ")[1].splitlines()[0]
    assert "2 of 5 checks passed" in out
    # every step went through both broken resolvents
    assert broken.count("predictor") == broken.count("corrector") > 0
    # a flux 5 % too strong lowers the linear ap error (2.84e-3 against 3.61e-3),
    # so only the lower edge of that check's band catches it
    monkeypatch.undo()
    xi_operator = stepper.xi_operator
    monkeypatch.setattr(stepper, "xi_operator",
                        lambda g, tau, dxi, c_avg, c_flux, f, out=None:
                        xi_operator(g, tau, dxi, c_avg, 1.05 * c_flux, f, out))
    assert main(["selftest"]) == 1
    # the check fails on a measured value outside its band, not on an
    # exception: 1.15 times below its lower edge
    value, lo, hi = _failed_value_and_band(capsys.readouterr().out, "linear ap vs exact")
    assert value < lo / 1.1


def test_selftest_exits_1_under_an_unscaled_half_torus_antiderivative(monkeypatch, capsys):
    # the corrected initial state without its / fold: the antiderivative taken
    # in sigma = 2 tau is then twice too large.  The linear ap check at
    # t = 0.25 reads 9.0e-3, 2.27 times its band's upper edge
    initial_state = stepper.APSolver.initial_state
    seen = []

    def unscaled(self, init="corrected"):
        seen.append(self.torus.fold)
        eps, self.epsilon = self.epsilon, self.epsilon * self.torus.fold
        try:
            return initial_state(self, init)
        finally:
            self.epsilon = eps

    monkeypatch.setattr(stepper.APSolver, "initial_state", unscaled)
    assert main(["selftest"]) == 1
    assert 2 in seen
    value, lo, hi = _failed_value_and_band(capsys.readouterr().out, "linear ap vs exact")
    assert value > 2 * hi


def test_selftest_reports_a_check_that_raises(monkeypatch, capsys):
    def broken(config):
        raise RuntimeError("no reference")

    monkeypatch.setattr(harness, "reference_filtered", broken)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    for name in ("linear ap vs exact", "splitting vs exact"):
        assert f"FAIL {name}: RuntimeError: no reference" in out
    # the lab frame check scores against the exact solution directly
    assert "3 of 5 checks passed" in out


@pytest.mark.parametrize("module, unloaded", [
    # scipy.integrate costs about 24 MB of resident memory, and only the exact
    # linear reference needs it
    ("vlasov_ap.cli", "scipy.integrate"),
    # the package itself imports nothing, so a module loads only what it uses
    ("vlasov_ap.averaging", "vlasov_ap.harness"),
])
def test_import_leaves_module_unloaded(module, unloaded):
    assert _loads_in_child(f"import {module}", unloaded) is False


def test_table_leaves_scipy_integrate_unloaded(tmp_path):
    # the table's model columns are closed forms; only the exact solution integrates
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    run_table = f"from vlasov_ap.cli import main; assert main(['table', {cfg!r}, '--eps', '0.5']) == 0"
    assert _loads_in_child(run_table, "scipy.integrate") is False
    assert (tmp_path / "out" / "table.csv").exists()


def _loads_in_child(statement, module):
    """Whether a fresh interpreter holds module in sys.modules after running statement."""
    package_root = str(Path(vlasov_ap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = f"import sys\n{statement}\nprint({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.strip().splitlines()[-1]]


def _script_target(name):
    """The ``module:attr`` target of console script ``name`` in pyproject.toml."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the [project.scripts] table by hand
        table = re.search(r"^\[project\.scripts\][^\n]*\n(.*?)(?=^\[|\Z)",
                          text, re.M | re.S)
        entry = table and re.search(
            rf"""^\s*["']?{re.escape(name)}["']?\s*=\s*["']([^"']+)["']""",
            table.group(1), re.M)
        target = entry and entry.group(1)
    else:
        target = tomllib.loads(text).get("project", {}).get("scripts", {}).get(name)
    if not target or ":" not in target:
        pytest.fail(f"no module:attr entry for {name!r} under "
                    f"[project.scripts] in {PYPROJECT}")
    return tuple(part.strip() for part in target.split(":", 1))


def _console_script():
    """Command prefix and environment that start the ``vlasov-ap`` script.

    The installed executable is used when it is on PATH.  Otherwise the
    ``[project.scripts]`` target is started in a fresh interpreter the way
    the generated wrapper does it, with the directory holding the imported
    ``vlasov_ap`` package put first on the child's import path.
    """
    exe = shutil.which("vlasov-ap")
    if exe:
        return [exe], None
    module, attr = _script_target("vlasov-ap")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(vlasov_ap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", code], env


def test_console_script(tmp_path):
    command, env = _console_script()

    def launch(*args):
        return subprocess.run([*command, *args], capture_output=True,
                              text=True, env=env, timeout=300)

    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    proc = launch("run", cfg)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "rms.csv").exists()

    proc = launch("run", str(tmp_path / "missing.cfg"))
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
