import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vlasov_ap
from vlasov_ap import averaging, stepper
from vlasov_ap.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def test_run_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "a")
    code = main(["run", cfg, "--scheme", "limit", "--t-final", "0",
                 "--output-dir", str(tmp_path / "b")])
    assert code == 0
    meta = (tmp_path / "b" / "meta.txt").read_text()
    assert "scheme = limit" in meta and "n_steps = 0" in meta
    assert not (tmp_path / "a").exists()


def test_set_overrides(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", cfg, "--set", "rms_every=2"]) == 0
    rows = np.loadtxt(tmp_path / "out" / "rms.csv", delimiter=",", skiprows=1)
    # steps 0 and 2, plus the final step 3
    assert rows.shape[0] == 3


def test_config_mistakes_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", output_dir=tmp_path / "out")
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert main(["run", cfg, "--set", "bogus"]) == 2
    assert main(["run", cfg, "--set", "nope=1"]) == 2
    assert main(["run", cfg, "--tension", "nope"]) == 2
    for bad in ("cfl_safety=-1", "cfl_safety=0", "cfl_safety=inf", "cfl_safety=nan",
                "reference_dt_factor=-0.1", "reference_dt_factor=0", "rms_every=0",
                "epsilon=nan", "epsilon=inf", "t_final=inf", "t_final=nan", "delta_t=nan",
                "xi_max=nan", "alpha=nan", "reference_n=-16", "snapshot_times=nan",
                "snapshot_times=inf", "snapshot_times=-inf"):
        assert main(["run", cfg, "--set", bad]) == 2, bad
        assert f"error: {bad.split('=')[0]} must be" in capsys.readouterr().err, bad
    incomplete = tmp_path / "half.cfg"
    incomplete.write_text("epsilon = 0.5\n")
    assert main(["run", str(incomplete)]) == 2
    # the micro-macro stepper has no self-field
    assert main(["run", cfg, "--scheme", "diffusion", "--tension", "cos4", "--mode", "poisson"]) == 2
    assert "error: scheme=diffusion" in capsys.readouterr().err
    # the closed forms exist for tension cos2sq only
    assert main(["run", cfg, "--scheme", "limit", "--tension", "cos4"]) == 2
    assert main(["table", cfg, "--tension", "cos4", "--eps", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_diffusion_needs_explicit_step(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", delta_t=None, tension="cos4",
                       output_dir=tmp_path / "out")
    assert main(["run", cfg, "--scheme", "diffusion"]) == 2
    assert "delta_t" in capsys.readouterr().err


def test_blow_up_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", t_final=2000.0, delta_t=4.0,
                       output_dir=tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow chatter on the way down
        assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_converge_prints_slopes(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", epsilon=0.25, t_final=np.pi / 16,
                       n_points=64, scheme="splitting", delta_t=None,
                       reference_dt_factor=0.002, output_dir=tmp_path / "out")
    assert main(["converge", cfg, "--dt", "0.08,0.04", "--eps", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "slope at epsilon = 0.25" in out
    assert (tmp_path / "out" / "convergence.csv").exists()
    assert (tmp_path / "out" / "slopes.csv").exists()


def test_table_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", epsilon=1.0, t_final=0.1,
                       delta_t=None, output_dir=tmp_path / "out")
    assert main(["table", cfg, "--eps", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "second_order" in out
    saved = np.loadtxt(tmp_path / "out" / "table.csv", delimiter=",", skiprows=1)
    assert saved.shape == (4,) and saved[0] == 0.5


def test_selftest_passes():
    assert main(["selftest", "--quiet"]) == 0


def test_selftest_exits_1_under_a_broken_operator(monkeypatch, capsys):
    # a resolvent that returns its input fails two checks, and the status is still 1
    monkeypatch.setattr(averaging, "solve_implicit_tau", lambda rhs, lam: rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the broken runs trip the edge-mass warning
        assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL linear ap vs exact" in out and "FAIL poisson ap mass drift" in out
    assert "2 of 4 checks passed" in out
    # a flux 5 % too strong lowers the linear ap error (6.8e-3 against 9.4e-3),
    # so only the lower edge of that check's band catches it
    monkeypatch.undo()
    flux = stepper.flux
    monkeypatch.setattr(stepper, "flux", lambda *args: 1.05 * flux(*args))
    assert main(["selftest"]) == 1
    assert "FAIL linear ap vs exact" in capsys.readouterr().out


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
