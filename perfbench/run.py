"""Benchmark of the vlasov-ap two-scale solver: three workloads, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every command of a workload runs through
``vlasov_ap.cli.main`` in a fresh single-threaded process (``worker.py``).

``--trace 0`` repeats whole rounds for S seconds.  A round is the workload's
set-up (the same commands with t_final = 0) and then its full commands.  It
prints the median ``run_s``, ``setup_s`` and ``peak_rss_mb`` over the rounds,
and ``rel_error`` of the result against a reference from ``exact.py``.

``--trace 1`` repeats rounds of one untraced and one traced execution of the
full commands and prints the per-layer metrics of ``spans.py``, each the
median over the rounds, with ``trace.overhead_s`` = traced minus untraced
wall time.

The outputs of every command are checked.  The first round is compared with
the references and the properties the scheme must have; later rounds must
write byte-identical files.  A command that exits nonzero or fails a check
counts as failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a ``src/vlasov_ap``
next to this directory the script exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import numpy as np

import exact
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, ".work")
MIN_ROUNDS = 3
PROCESS_TIMEOUT_S = 120.0
# the seed scales each beam parameter by a factor drawn from [1 - BAND, 1 + BAND];
# at 2 % the support stays well inside both boxes, the poisson CFL step
# count stays at 16 and rel_error moves by a few per cent between seeds
BEAM_DEFAULTS = {"alpha": 0.2, "edge": 1.2, "width": 0.3}
BEAM_BAND = 0.02


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# workloads


def beam_params(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 - BEAM_BAND, 1.0 + BEAM_BAND, size=len(BEAM_DEFAULTS))
    return {k: v * float(f) for (k, v), f in zip(BEAM_DEFAULTS.items(), factors)}


class Workload:
    """Config, commands and output checks of one workload.

    ``commands(cfg, out, cache)`` gives the argv lists of one execution; the
    set-up uses the same commands on a config with t_final = 0.
    """

    name = ""
    config: dict = {}
    snapshot_times: tuple = ()

    def __init__(self, seed: int):
        self.beam = beam_params(seed)

    def config_text(self, t_final: float, out: str) -> str:
        cfg = dict(self.config, t_final=t_final, output_dir=out, **self.beam)
        if self.snapshot_times:
            cfg["snapshot_times"] = self.snapshot_times
        return "".join(f"{k} = {_fmt(v)}\n" for k, v in cfg.items())

    def commands(self, cfg: str, out: str, cache: str) -> list[list[str]]:
        return [["run", cfg]]

    def check_round(self, states: list[tuple[dict, dict]]):
        """Checks every execution must pass.

        states holds, after each command, the reference cache directory as
        {file: (mtime_ns, size, inode)} and the output files as {file: sha256}.
        """

    def check_result(self, out: str) -> float:
        """Check the first round against the references; returns rel_error."""
        raise NotImplementedError


def _fmt(v) -> str:
    if isinstance(v, (tuple, list)):
        return ", ".join(repr(float(t)) for t in v)
    return repr(v) if isinstance(v, float) else str(v)


def _check_mass(out: str, steps: int, limit: float):
    """One rms.csv row per step plus the initial one, relative mass drift within limit."""
    rows = np.loadtxt(os.path.join(out, "rms.csv"), delimiter=",", skiprows=1, ndmin=2)
    require(rows.shape[0] == steps + 1, f"rms.csv has {rows.shape[0]} rows")
    mass = rows[:, 2]
    drift = np.abs(mass - mass[0]).max() / mass[0]
    require(drift <= limit, f"mass drift {drift:.3e} > {limit}")


def _final_snapshot(out: str, count: int, n: int, xi_max: float) -> np.ndarray:
    """f~ of the latest of the count snapshot files, checked against the grid."""
    snaps = {}
    for path in glob.glob(os.path.join(out, "snapshot_*.csv")):
        snaps[float(os.path.basename(path)[len("snapshot_"):-len(".csv")])] = path
    require(len(snaps) == count, f"snapshots {sorted(snaps)}")
    path = snaps[max(snaps)]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    require(data.shape == (n * n, 4), f"{path}: shape {data.shape}")
    x1, x2 = exact.mesh(n, xi_max)
    require(
        np.allclose(data[:, 0], x1.ravel(), rtol=0, atol=1e-12)
        and np.allclose(data[:, 1], x2.ravel(), rtol=0, atol=1e-12),
        f"{path}: node coordinates",
    )
    return data[:, 2].reshape(n, n)


class LinearAP(Workload):
    """Linear mode at eps = 0.01 with dt = 0.02: about three steps per fast period."""

    name = "linear_ap"
    config = {
        "scheme": "ap", "mode": "linear", "epsilon": 0.01, "delta_t": 0.02,
        "n_points": 128, "n_tau": 64, "xi_max": 4.0, "rms_every": 1,
    }
    t_final = 0.3
    snapshot_times = (t_final,)
    steps = 15
    tolerance = 3e-3  # relative L2 to the exact solution; 1.4e-3 to 1.5e-3 measured

    def check_result(self, out):
        c = self.config
        _check_mass(out, self.steps, 1e-12)  # the resolvent keeps the tau-mean exactly
        f = _final_snapshot(out, 1, c["n_points"], c["xi_max"])
        ref = exact.exact_linear(self.t_final, c["epsilon"], c["n_points"], c["xi_max"], self.beam)
        err = exact.rel_l2(f, ref)
        require(err <= self.tolerance, f"error to the exact solution {err:.3e} > {self.tolerance}")
        return err


class PoissonAP(Workload):
    """Self-consistent field at eps = 0.25 with the CFL step, snapshots at 0, T/2, T."""

    name = "poisson_ap"
    config = {
        "scheme": "ap", "mode": "poisson", "epsilon": 0.25, "delta_t": "auto",
        "n_points": 128, "n_tau": 64, "xi_max": 3.5, "rms_every": 1,
    }
    t_final = math.pi / 16
    snapshot_times = (0.0, 0.5 * t_final, t_final)
    steps = 16
    reference_dt = 0.005
    tolerance = 1.5e-2  # relative L2 to the fine splitting run; 8.4e-3 to 8.9e-3 measured

    def check_result(self, out):
        c = self.config
        _check_mass(out, self.steps, 1e-6)
        f = _final_snapshot(out, 3, c["n_points"], c["xi_max"])
        odd = np.abs(f[1:, 1:] - f[:0:-1, :0:-1]).max() / np.abs(f).max()
        require(odd <= 1e-9, f"f~ not even under xi -> -xi: {odd:.3e}")
        ref = exact.splitting_poisson(
            self.t_final, c["epsilon"], c["n_points"], c["xi_max"], self.beam, self.reference_dt
        )
        err = exact.rel_l2(f, ref)
        require(err <= self.tolerance, f"error to the splitting run {err:.3e} > {self.tolerance}")
        return err


class TableCached(Workload):
    """The error table for eps 0.25 and 0.1, cold then warm on one reference cache."""

    name = "table_cached"
    config = {
        "epsilon": 0.25, "n_points": 64, "n_tau": 64, "xi_max": 4.0,
        "reference_n": 256, "reference_dt_factor": 0.005,
    }
    t_final = math.pi / 8
    epsilons = (0.25, 0.1)
    ap_bound = 0.08
    tolerance = 1e-2  # relative deviation of the model columns; 3.0e-3 to 3.1e-3 measured

    def commands(self, cfg, out, cache):
        eps = ",".join(repr(e) for e in self.epsilons)
        cmd = ["table", cfg, "--eps", eps, "--reference-cache", cache]
        return [cmd, cmd]

    def check_round(self, states):
        (cold, cold_out), (warm, warm_out) = states
        require(len(cold) == len(self.epsilons), f"cold pass wrote {len(cold)} references")
        require(warm == cold, "warm pass rewrote the reference cache")
        require(warm_out == cold_out, "warm table differs from the cold table")

    def check_result(self, out):
        c = self.config
        rows = np.loadtxt(os.path.join(out, "table.csv"), delimiter=",", skiprows=1, ndmin=2)
        require(rows.shape == (len(self.epsilons), 4), f"table.csv shape {rows.shape}")
        n, xi_max, t = c["n_points"], c["xi_max"], self.t_final
        worst = 0.0
        for (eps, e_ap, e_second, e_limit), want_eps in zip(rows, self.epsilons):
            require(eps == want_eps, f"table row eps {eps}")
            require(e_ap <= self.ap_bound, f"ap error {e_ap:.3e} at eps {eps}")
            ref = exact.exact_linear(t, eps, n, xi_max, self.beam)
            second = exact.rel_linf(exact.second_order_model(t, eps, n, xi_max, self.beam), ref)
            limit = exact.rel_linf(exact.limit_model(t, n, xi_max, self.beam), ref)
            worst = max(worst, abs(e_second - second) / second, abs(e_limit - limit) / limit)
        require(worst <= self.tolerance, f"model columns deviate by {worst:.3e}")
        return worst


WORKLOADS = {w.name: w for w in (LinearAP, PoissonAP, TableCached)}


# ---------------------------------------------------------------------------
# execution


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VLASOV_AP_THREADS"):
        env[var] = "1"
    return env


def _fingerprint(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _cache_state(cache: str) -> dict:
    if not os.path.isdir(cache):
        return {}
    state = {}
    for name in sorted(os.listdir(cache)):
        st = os.stat(os.path.join(cache, name))
        state[name] = (st.st_mtime_ns, st.st_size, st.st_ino)
    return state


class Execution(NamedTuple):
    run_s: float  # summed over the commands
    peak_rss_mb: float  # largest over the commands
    span_files: list[str]
    times: list[float]  # run_s of each command


class Runner:
    def __init__(self, workload: Workload, work: str):
        self.w = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = _env()
        self.out = os.path.join(work, "out")
        self.cache = os.path.join(work, "cache")
        self.cfg = {}
        for kind, t_final in (("setup", 0.0), ("full", workload.t_final)):
            path = os.path.join(work, f"{kind}.cfg")
            with open(path, "w") as fh:
                fh.write(workload.config_text(t_final, self.out))
            self.cfg[kind] = path

    def fail(self, what: str):
        self.failed += 1
        self.errors.append(what)

    def execute(self, kind: str, trace: bool = False):
        """Run the commands of one execution in fresh processes.

        Returns None when a command failed; the outputs stay in self.out.
        """
        for d in (self.out, self.cache):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(self.out)
        commands = self.w.commands(self.cfg[kind], self.out, self.cache)
        times, peaks, span_files, states = [], [], [], []
        for i, argv in enumerate(commands):
            self.attempted += 1
            result = os.path.join(self.work, f"result{i}.json")
            opts = [result]
            if trace:
                span_files.append(os.path.join(self.work, f"spans{i}.json"))
                opts += ["--trace", span_files[-1]]
            proc = subprocess.run(
                [sys.executable, WORKER, *opts, "--", *argv],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=PROCESS_TIMEOUT_S,
            )
            if proc.returncode != 0:
                self.fail(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
                return None
            with open(result) as fh:
                r = json.load(fh)
            if r["rc"] != 0:
                self.fail(f"{' '.join(argv)}: exit {r['rc']}: {proc.stderr.strip()[-2000:]}")
                return None
            times.append(r["run_s"])
            peaks.append(r["peak_rss_mb"])
            states.append((_cache_state(self.cache), _fingerprint(self.out)))
        try:
            self.w.check_round(states)
        except CheckFailed as exc:
            self.fail(f"{kind}: {exc}")
            return None
        return Execution(sum(times), max(peaks), span_files, times)

    def keep_first(self) -> str:
        """Move the outputs of the first full execution aside for the reference check."""
        keep = os.path.join(self.work, "first")
        os.rename(self.out, keep)
        return keep

    def same_as(self, first: dict) -> bool:
        if _fingerprint(self.out) == first:
            return True
        self.fail("outputs differ from the first round")
        return False

    def check_first(self, first_out: str):
        try:
            return self.w.check_result(first_out)
        except CheckFailed as exc:
            self.fail(f"reference check: {exc}")
            return None


def measure(runner: Runner, seconds: float) -> dict:
    """Rounds of set-up plus full execution; medians of the end-to-end metrics."""
    run_s, setup_s, rss = [], [], []
    first = first_out = None
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        setup = runner.execute("setup")
        if setup is not None:
            setup_s.append(setup.run_s)
        full = runner.execute("full")
        if full is None:
            continue
        if first is None:
            first = _fingerprint(runner.out)
            first_out = runner.keep_first()
        elif not runner.same_as(first):
            continue
        run_s.append(full.run_s)
        rss.append(full.peak_rss_mb)
        print(f"round {rounds}: setup {setup and setup.run_s}  run {full.run_s}", file=sys.stderr)
    rel = runner.check_first(first_out) if first_out else None
    values = {
        "run_s": _median(run_s),
        "setup_s": _median(setup_s),
        "peak_rss_mb": _median(rss),
        "rel_error": rel,
    }
    return {k: v for k, v in values.items() if v is not None}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Rounds of one untraced and one traced full execution; medians of the layer metrics."""
    per_round: list[dict] = []
    first = first_out = None
    start = time.perf_counter()
    while not per_round or time.perf_counter() - start < seconds:
        plain = runner.execute("full")
        if plain is None:
            break
        if first is None:
            first = _fingerprint(runner.out)
            first_out = runner.keep_first()
        elif not runner.same_as(first):
            break
        traced = runner.execute("full", trace=True)
        if traced is None or not runner.same_as(first):
            break
        m = spans.layer_metrics(traced.span_files)
        m["harness.output.bytes"] = sum(
            os.path.getsize(os.path.join(runner.out, f)) for f in os.listdir(runner.out)
        )
        cold_warm = traced.times if isinstance(runner.w, TableCached) else [0.0, 0.0]
        m["harness.table.cold_s"], m["harness.table.warm_s"] = cold_warm
        m["trace.overhead_s"] = traced.run_s - plain.run_s
        self_sum = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        margin = 0.01 * traced.run_s
        if abs(self_sum - traced.run_s) > margin or abs(m["trace.run_s"] - traced.run_s) > margin:
            runner.fail(
                f"layer self times {self_sum:.6f} s and root spans {m['trace.run_s']:.6f} s "
                f"do not add up to the traced run_s {traced.run_s:.6f} s within 1 %"
            )
        per_round.append(m)
    if first_out:
        runner.check_first(first_out)
    if not per_round:
        return {}
    return {k: _median([m[k] for m in per_round]) for k in per_round[0]}


def _median(values):
    return float(statistics.median(values)) if values else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vlasov_ap", "cli.py")):
        print(f"no vlasov_ap sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](args.seed)
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(workload, work)
    values = measure_traced(runner, args.seconds) if args.trace else measure(runner, args.seconds)
    if runner.failed == 0 and set(values) != {m["name"] for m in declared}:
        runner.fail(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values
    }
    for name in ("out", "cache", "first"):
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    for err in runner.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed} beam {workload.beam}: "
        + ", ".join(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
