"""Run orchestration: configs, diagnostics, output files and parameter studies.

A run is described by a flat ``key = value`` config (file or dict), executed
with one of five schemes:

    ap            two-scale solver read out at tau = t/eps
    splitting     Strang splitting of the unfiltered equation (reference)
    limit         closed-form leading-order model (linear mode, cos2sq only)
    second_order  closed-form first-order model (linear mode, cos2sq only)
    diffusion     micro-macro stepper for mean-free tensions

All five go through the one loop in ``run``.  Outputs land in
``output_dir``: ``rms.csv`` (one DiagnosticsRecord at step 0, every
``rms_every``-th step and the last step), ``snapshot_<t>.csv`` (xi1, xi2,
f_tilde, f_rv) and ``meta.txt`` with every resolved parameter.  A snapshot
time is moved to its nearest step, clamped to [0, t_final]; requests that
land on one step share one file named after that step's time, and a run whose
distinct snapshot steps would share a file name is rejected before it steps.
Numbers are written with %.17g and files are replaced atomically, so reruns
with the same config are bit-identical.

Parameter studies (``convergence_study``, ``table_study``) compare runs
against a reference.  ``convergence_study`` uses ``reference_filtered``: the
exact linear solution in linear mode, whatever the tension, and a fine
splitting run in poisson mode.  The error table always uses the fine
splitting run.  A splitting reference's dt is shrunk to divide t_final, like
any run's.  Splitting references can be cached on disk, keyed by every input
plus REFERENCE_CACHE_VERSION; an entry that fails to load is recomputed.
``selftest`` runs a few small end-to-end checks against the same references.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import averaging, reference, stepper
from .domain import PhaseGrid, TorusGrid
from .errors import StabilityFailure, ZeroReference
from .fields import TENSIONS, get_tension

SCHEMES = ("ap", "splitting", "limit", "second_order", "diffusion")
FMT = "%.17g"
# runs must keep their support interior; warn when the edge sees real mass.
# the centered flux parks a ~1e-6 ripple tail near the rim at n = 64, while a
# genuinely clipped box clears 1e-5 within a slow period, so the line sits
# between the two
BOUNDARY_WARN_FRACTION = 1e-5


@dataclass
class RunConfig:
    """Everything a run needs; defaults follow the baseline focusing setup."""

    epsilon: float
    t_final: float
    n_points: int = 128
    n_tau: int = 64
    xi_max: float = 4.0
    scheme: str = "ap"
    init: str = "corrected"  # corrected | plain
    mode: str = "linear"  # linear | poisson
    tension: str = "cos2sq"
    delta_t: float | None = None  # explicit step; otherwise CFL at t = 0
    cfl_safety: float = 1.0
    output_dir: str = "out"
    snapshot_times: tuple[float, ...] = ()
    rms_every: int = 1
    alpha: float = 0.2
    edge: float = 1.2
    width: float = 0.3
    reference_dt_factor: float = 0.05  # dt_ref = factor * min(eps, 1)
    reference_n: int = 0  # 0 means 2 * n_points

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.init not in ("corrected", "plain"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.mode not in ("linear", "poisson"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.tension not in TENSIONS:
            raise ValueError(f"unknown tension {self.tension!r}; expected one of {sorted(TENSIONS)}")
        positive = ["epsilon", "xi_max", "alpha", "width", "cfl_safety", "reference_dt_factor"]
        if self.delta_t is not None:
            positive.append("delta_t")
        for name in positive:
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("t_final", "edge", "reference_n"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {v}")
        if self.scheme == "diffusion" and self.mode != "linear":
            raise ValueError("scheme=diffusion has no self-field; it needs mode=linear")
        if self.rms_every < 1:
            raise ValueError(f"rms_every must be at least 1, got {self.rms_every}")
        # powers of two keep the FFTs honest
        for name in ("n_points", "n_tau"):
            v = getattr(self, name)
            if v & (v - 1):
                raise ValueError(f"{name} must be a power of two, got {v}")
        self.snapshot_times = tuple(float(t) for t in self.snapshot_times)
        if not all(math.isfinite(t) for t in self.snapshot_times):
            raise ValueError(f"snapshot_times must be finite, got {self.snapshot_times}")

    def f0_params(self) -> dict:
        return {"alpha": self.alpha, "edge": self.edge, "width": self.width}

    def phase(self) -> PhaseGrid:
        return PhaseGrid(self.n_points, self.xi_max)

    def torus(self) -> TorusGrid:
        return TorusGrid(self.n_tau)

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Parse a flat ``key = value`` file; blank lines and # comments ignored."""
        raw: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
        return cls.from_strings(raw)

    @classmethod
    def from_strings(cls, raw: dict) -> "RunConfig":
        kwargs = {}
        names = {f.name for f in dataclasses.fields(cls)}
        for key, value in raw.items():
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _parse_value(key, value)
        missing = [k for k in ("epsilon", "t_final") if k not in kwargs]
        if missing:
            raise ValueError(f"config is missing required keys: {missing}")
        return cls(**kwargs)


def _parse_value(key: str, value):
    if not isinstance(value, str):
        return value
    if key in ("n_points", "n_tau", "rms_every", "reference_n"):
        return int(value)
    if key in ("scheme", "init", "mode", "tension", "output_dir"):
        return value
    if key == "snapshot_times":
        parts = [p for p in value.replace(",", " ").split() if p]
        return tuple(float(p) for p in parts)
    if key == "delta_t" and value.lower() in ("", "none", "auto"):
        return None
    return float(value)


def format_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ", ".join(FMT % t for t in v)
        elif isinstance(v, float):
            v = FMT % v
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# diagnostics

def rms(f_tilde: np.ndarray, grid: PhaseGrid) -> float:
    """Root-mean-square beam size sqrt(integral xi1^2 f~ dxi), negative part clipped."""
    x1, _ = grid.mesh()
    clipped = np.clip(f_tilde, 0.0, None)
    return float(np.sqrt((x1 ** 2 * clipped).sum() * grid.delta_xi ** 2))


def negative_part(f_tilde: np.ndarray, grid: PhaseGrid) -> float:
    """Magnitude of the clipped-away negative mass (undershoot diagnostic)."""
    return float(-np.clip(f_tilde, None, 0.0).sum() * grid.delta_xi ** 2)


def total_mass(f2d: np.ndarray, grid: PhaseGrid) -> float:
    return float(f2d.sum() * grid.delta_xi ** 2)


def boundary_mass_fraction(f2d: np.ndarray, cells: int = 2) -> float:
    """Share of |f| sitting within `cells` nodes of the box edge."""
    a = np.abs(f2d)
    total = a.sum()
    if total == 0:
        return 0.0
    rim = a[:cells].sum() + a[-cells:].sum() + a[cells:-cells, :cells].sum() + a[cells:-cells, -cells:].sum()
    return float(rim / total)


def rel_error(num: np.ndarray, ref: np.ndarray, norm: str = "l2") -> float:
    """Relative L2 or Linf distance on a shared grid (grid weights cancel)."""
    num = np.asarray(num, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if norm == "l2":
        denom = np.sqrt((ref ** 2).sum())
        if denom == 0.0:
            raise ZeroReference("reference field is identically zero")
        return float(np.sqrt(((num - ref) ** 2).sum()) / denom)
    if norm == "linf":
        denom = np.abs(ref).max()
        if denom == 0.0:
            raise ZeroReference("reference field is identically zero")
        return float(np.abs(num - ref).max() / denom)
    raise ValueError(f"unknown norm {norm!r}")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One rms.csv row."""

    time: float
    rms: float
    mass: float
    boundary_mass_fraction: float

    def __post_init__(self):
        vals = (self.time, self.rms, self.mass, self.boundary_mass_fraction)
        if not all(math.isfinite(v) for v in vals):
            raise StabilityFailure(f"non-finite diagnostics at t = {self.time}")


# ---------------------------------------------------------------------------
# single runs

@dataclass
class RunResult:
    config: RunConfig
    dt: float
    n_steps: int
    records: list[DiagnosticsRecord] = field(default_factory=list)
    f_tilde: np.ndarray | None = None
    f_rv: np.ndarray | None = None
    max_negative: float = 0.0
    output_dir: Path | None = None

    @property
    def times(self) -> list[float]:
        return [rec.time for rec in self.records]

    @property
    def rms_series(self) -> list[float]:
        return [rec.rms for rec in self.records]


def _closed_form_only(config: RunConfig, what: str):
    if config.mode != "linear" or config.tension != "cos2sq":
        raise ValueError(f"{what} is a closed form for linear mode with tension cos2sq only")


def _stepwise(step):
    """advance(state, k0, k1, dt) made of k1 - k0 calls step(state, dt)."""

    def advance(state, k0, k1, dt):
        for _ in range(k0, k1):
            state = step(state, dt)
        return state

    return advance


def _ap_scheme(config: RunConfig):
    solver = stepper.APSolver(
        config.phase(),
        config.torus(),
        get_tension(config.tension),
        config.epsilon,
        mode=config.mode,
        f0_params=config.f0_params(),
    )
    state = solver.initial_state(config.init)
    dt_hint = config.delta_t or solver.suggest_dt(state, config.cfl_safety)

    def observe(state, t):
        mass = total_mass(averaging.project_mean(state), solver.phase)
        return (*solver.readout(state, t), mass)

    return state, dt_hint, _stepwise(solver.advance), observe


def _diffusion_scheme(config: RunConfig):
    if config.delta_t is None:
        raise ValueError("scheme=diffusion needs an explicit delta_t")
    solver = stepper.DiffusionSolver(
        config.phase(),
        config.torus(),
        get_tension(config.tension),
        config.epsilon,
        f0_params=config.f0_params(),
    )

    def observe(gh, t):
        g, h = gh
        return (*solver.readout(g, h, t), total_mass(g + averaging.project_mean(h), solver.phase))

    advance = _stepwise(lambda gh, dt: solver.step(*gh, dt))
    return solver.initial_split(config.init), config.delta_t, advance, observe


def _splitting_solver(config: RunConfig, grid: PhaseGrid) -> reference.SplittingSolver:
    return reference.SplittingSolver(
        grid,
        config.epsilon,
        get_tension(config.tension),
        mode=config.mode,
        f0_params=config.f0_params(),
    )


def _splitting_scheme(config: RunConfig):
    solver = _splitting_solver(config, config.phase())
    dt_hint = config.delta_t or config.reference_dt_factor * min(config.epsilon, 1.0)

    def observe(f_rv, t):
        f_tilde = reference.filtered_from_rv(f_rv, solver.phase, t, config.epsilon)
        return f_tilde, f_rv, total_mass(f_rv, solver.phase)

    return solver.initial_state(), dt_hint, solver.advance, observe


def _model_scheme(config: RunConfig):
    _closed_form_only(config, f"scheme={config.scheme}")
    grid = config.phase()
    x1, x2 = grid.mesh()
    f0p = config.f0_params()
    eps = config.epsilon

    def observe(_, t):
        if config.scheme == "limit":
            f_tilde = reference.limit_solution(t, x1, x2, f0p)
        else:
            f_tilde = reference.second_order_solution(t, (t / eps) % (2 * np.pi), x1, x2, eps, f0p)
        f_rv = reference.model_lab_frame(config.scheme, t, eps, x1, x2, f0p)
        return f_tilde, f_rv, total_mass(f_tilde, grid)

    dt_hint = config.delta_t or (config.t_final / 256.0 or 1.0)
    return None, dt_hint, lambda state, k0, k1, dt: state, observe


_SCHEME_SETUPS = {
    "ap": _ap_scheme,
    "splitting": _splitting_scheme,
    "limit": _model_scheme,
    "second_order": _model_scheme,
    "diffusion": _diffusion_scheme,
}


def run(config: RunConfig, write: bool = True) -> RunResult:
    """Execute one run and (optionally) write rms.csv and meta.txt.

    Each scheme supplies its initial state, a step hint, an advance from step
    k0 to step k1 and an observation (f~, f_rv, mass) at time t; this loop
    alone decides where to observe.  It observes step 0, every rms_every-th
    step, the last step and every snapshot step, and only at those steps, so
    the splitting scheme fuses its half drifts everywhere else.  Snapshot
    files are written whether or not ``write`` is set.
    """
    state, dt_hint, advance, observe = _SCHEME_SETUPS[config.scheme](config)
    n_steps, dt = _resolve_steps(config, dt_hint)
    snaps = _snapshot_steps(config, dt, n_steps)
    every = config.rms_every
    result = RunResult(config, dt, n_steps, output_dir=Path(config.output_dir))
    grid = config.phase()
    warned = False
    k0 = 0
    for k in sorted({0, n_steps, *range(0, n_steps, every), *snaps}):
        state = advance(state, k0, k, dt)
        k0 = k
        t = k * dt
        f_tilde, f_rv, mass = observe(state, t)
        if k % every == 0 or k == n_steps:
            frac = boundary_mass_fraction(f_tilde)
            result.records.append(DiagnosticsRecord(t, rms(f_tilde, grid), mass, frac))
            result.max_negative = max(result.max_negative, negative_part(f_tilde, grid))
            if frac > BOUNDARY_WARN_FRACTION and not warned:
                warnings.warn(
                    f"{frac:.2e} of the mass sits within two cells of the box edge "
                    f"at t = {t:.6g}; the zero-inflow box is too small",
                    RuntimeWarning,
                )
                warned = True
        if k in snaps:
            _write_snapshot(result, t, f_tilde, f_rv, grid)
    result.f_tilde, result.f_rv = f_tilde, f_rv
    if write:
        _write_outputs(result)
    return result


def _resolve_steps(config: RunConfig, dt_hint: float):
    """Integer number of steps covering t_final; dt is shrunk, never stretched."""
    if config.t_final == 0:
        return 0, float(dt_hint)
    n_steps = max(1, math.ceil(config.t_final / dt_hint - 1e-9))
    return n_steps, config.t_final / n_steps


def _snapshot_steps(config: RunConfig, dt: float, n_steps: int) -> set[int]:
    """Steps that write a snapshot, one file per step, named after the step time.

    Each requested time goes to its nearest step, clamped to [0, n_steps], so
    requests landing on one step (times past t_final included) share a file.
    Distinct steps whose names collide are rejected before any stepping.
    """
    steps = {min(n_steps, max(0, round(t / dt))) for t in config.snapshot_times}
    names = sorted({_snapshot_name(k * dt) for k in steps})
    if len(names) < len(steps):
        raise ValueError(f"snapshot_times fall on {len(steps)} steps but name only the files {names}")
    return steps


# ---------------------------------------------------------------------------
# output files

def _atomic_savetxt(path: Path, rows, header: str):
    tmp = path.with_name(path.name + ".tmp")
    np.savetxt(tmp, rows, fmt=FMT, delimiter=",", header=header, comments="")
    os.replace(tmp, path)


def _ensure_dir(result: RunResult) -> Path:
    out = result.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot_name(t: float) -> str:
    return f"snapshot_{t:.6g}.csv"


def _write_snapshot(result, t, f_tilde, f_rv, grid):
    out = _ensure_dir(result)
    x1, x2 = grid.mesh()
    rows = np.column_stack([x1.ravel(), x2.ravel(), f_tilde.ravel(), f_rv.ravel()])
    _atomic_savetxt(out / _snapshot_name(t), rows, "xi1,xi2,f_tilde,f_rv")


def _write_outputs(result: RunResult):
    out = _ensure_dir(result)
    rows = np.array(
        [[r.time, r.rms, r.mass, r.boundary_mass_fraction] for r in result.records]
    )
    _atomic_savetxt(out / "rms.csv", rows, "time,rms,mass,boundary_mass_fraction")
    meta = format_config(result.config)
    meta += f"dt_actual = {FMT % result.dt}\n"
    meta += f"n_steps = {result.n_steps}\n"
    meta += f"max_negative_part = {FMT % result.max_negative}\n"
    tmp = out / "meta.txt.tmp"
    tmp.write_text(meta)
    os.replace(tmp, out / "meta.txt")


# ---------------------------------------------------------------------------
# references and studies

# bump, and re-pin its test, when the splitting reference's numbers change, so
# that cached references from the old code are not reused
REFERENCE_CACHE_VERSION = 2


def _reference_cache_key(cache_dir, config: RunConfig, n_ref: int) -> Path | None:
    if not cache_dir:
        return None
    blob = repr(
        (
            "splitting-ref",
            REFERENCE_CACHE_VERSION,
            config.mode,
            config.tension,
            config.epsilon,
            config.t_final,
            config.xi_max,
            n_ref,
            config.reference_dt_factor,
            config.n_points,
            sorted(config.f0_params().items()),
        )
    ).encode()
    return Path(cache_dir) / (hashlib.sha256(blob).hexdigest()[:24] + ".npy")


def _splitting_reference(config: RunConfig, cache_dir=None) -> np.ndarray:
    """Fine splitting run mapped to the xi frame and restricted to the coarse grid."""
    n_ref = config.reference_n or 2 * config.n_points
    if n_ref % config.n_points:
        raise ValueError("reference_n must be a multiple of n_points")
    key = _reference_cache_key(cache_dir, config, n_ref)
    if key is not None and key.exists():
        try:
            return np.load(key)
        except (OSError, ValueError, EOFError):
            pass  # a damaged entry is recomputed and replaced below
    fine = PhaseGrid(n_ref, config.xi_max)
    solver = _splitting_solver(config, fine)
    n_steps, dt = _resolve_steps(config, config.reference_dt_factor * min(config.epsilon, 1.0))
    f_rv = solver.solve(n_steps, dt)
    f_tilde = reference.filtered_from_rv(f_rv, fine, config.t_final, config.epsilon)
    coarse = f_tilde[:: n_ref // config.n_points, :: n_ref // config.n_points]
    if key is not None:
        key.parent.mkdir(parents=True, exist_ok=True)
        # np.save appends .npy to a bare name, so write through a handle
        tmp = key.with_name(key.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.save(fh, coarse)
        os.replace(tmp, key)
    return coarse


def reference_filtered(config: RunConfig, cache_dir: str | None = None) -> np.ndarray:
    """Filtered reference field at t_final on the config's grid.

    Linear mode has the exact solution ``reference.exact_linear``, for any
    tension.  Poisson mode uses a fine splitting run (reference_n nodes,
    dt = reference_dt_factor * min(eps, 1), shrunk to divide t_final), rotated
    to the xi frame with cubic sampling, restricted to the coarse grid
    node-for-node and cached in ``cache_dir`` when one is given.
    """
    if config.mode == "linear":
        x1, x2 = config.phase().mesh()
        return reference.exact_linear(
            config.t_final, config.epsilon, get_tension(config.tension), x1, x2, config.f0_params()
        )
    return _splitting_reference(config, cache_dir)


def _quiet_cell(config: RunConfig) -> RunConfig:
    """Sweep cells write nothing and only sample the endpoints."""
    return config.replace(snapshot_times=(), rms_every=1 << 30)


def convergence_study(
    config: RunConfig,
    dt_list,
    eps_list,
    cache_dir: str | None = None,
    write: bool = True,
):
    """Errors of the configured scheme over a (eps, dt) sweep, plus log-log slopes.

    Returns (rows, slopes): rows are (eps, dt actually used, relative L2 error
    of f~ at t_final), slopes one (eps, slope) pair per eps.  Writes
    convergence.csv and slopes.csv under config.output_dir.
    """
    cells = [
        _quiet_cell(config.replace(epsilon=float(e), delta_t=float(dt)))
        for e in eps_list
        for dt in dt_list
    ]
    refs = {
        float(e): reference_filtered(_quiet_cell(config.replace(epsilon=float(e))), cache_dir)
        for e in eps_list
    }
    rows = []
    for cell in cells:
        res = run(cell, write=False)
        rows.append((cell.epsilon, res.dt, rel_error(res.f_tilde, refs[cell.epsilon], "l2")))
    slopes = []
    for e in eps_list:
        pts = [(dt, err) for eps, dt, err in rows if eps == float(e)]
        if len(pts) > 1:
            x = np.log([p[0] for p in pts])
            y = np.log([p[1] for p in pts])
            slopes.append((float(e), float(np.polyfit(x, y, 1)[0])))
    if write:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_savetxt(out / "convergence.csv", np.array(rows), "epsilon,dt,error")
        if slopes:
            _atomic_savetxt(out / "slopes.csv", np.array(slopes), "epsilon,slope")
    return rows, slopes


TABLE_EPSILONS = (1.0, 0.5, 0.25, 0.1, 0.01)


def table_study(config: RunConfig, eps_list=TABLE_EPSILONS, cache_dir: str | None = None, write: bool = True):
    """Relative Linf errors of ap, second-order and limit fields vs fine splitting.

    Reproduces the headline accuracy table; rows are
    (eps, err_ap, err_second_order, err_limit) at t_final.  The model columns
    are closed forms for tension cos2sq, so any other tension is rejected.
    """
    grid = config.phase()
    x1, x2 = grid.mesh()
    rows = []
    for e in eps_list:
        e = float(e)
        cfg = _quiet_cell(config.replace(epsilon=e, scheme="ap", mode="linear"))
        _closed_form_only(cfg, "table_study")
        # the table reference is always the fine splitting run, whatever eps
        ref = _splitting_reference(cfg, cache_dir)
        ap_field = run(cfg, write=False).f_tilde
        tau = (cfg.t_final / e) % (2 * np.pi)
        second = reference.second_order_solution(cfg.t_final, tau, x1, x2, e, cfg.f0_params())
        limit = reference.limit_solution(cfg.t_final, x1, x2, cfg.f0_params())
        rows.append(
            (
                e,
                rel_error(ap_field, ref, "linf"),
                rel_error(second, ref, "linf"),
                rel_error(limit, ref, "linf"),
            )
        )
    if write:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_savetxt(
            out / "table.csv",
            np.array(rows),
            "epsilon,err_ap,err_second_order,err_limit",
        )
    return rows


# ---------------------------------------------------------------------------
# selftest

def _error_vs_exact(config: RunConfig) -> float:
    return rel_error(run(config, write=False).f_tilde, reference_filtered(config), "l2")


def _mass_drift(config: RunConfig) -> float:
    masses = np.array([rec.mass for rec in run(config, write=False).records])
    return float(np.abs(masses - masses[0]).max() / abs(masses[0]))


def _round_trip_changes(config: RunConfig) -> int:
    raw = dict(line.split(" = ", 1) for line in format_config(config).splitlines())
    back = RunConfig.from_strings(raw)
    return sum(getattr(back, f.name) != getattr(config, f.name) for f in dataclasses.fields(config))


def selftest(verbose: bool = True) -> int:
    """Run end-to-end checks that a broken install or operator fails.

    Small runs at eps = 0.1 and t = 0.5, about 0.4 s in all: a linear ap run
    (64^2 x 16) and a splitting run (64^2) against the exact linear solution in
    relative L2, the relative mass drift of a poisson ap run (32^2 x 16), and
    the config text round trip.  A working build measures 9.4e-3, 5.3e-4 and
    4.9e-10.  The linear ap band is +-10 %, as a flux a few per cent too strong
    lowers that error; the other bounds are twice the values.  Returns the
    number of failed checks.
    """
    base = RunConfig(epsilon=0.1, t_final=0.5, n_points=64, n_tau=16)
    checks = [
        ("linear ap vs exact", _error_vs_exact, base, (8.4e-3, 1.03e-2)),
        ("splitting vs exact", _error_vs_exact, base.replace(scheme="splitting"), (0, 1e-3)),
        ("poisson ap mass drift", _mass_drift, base.replace(mode="poisson", n_points=32), (0, 1e-9)),
        ("config round trip", _round_trip_changes, base.replace(delta_t=0.02, snapshot_times=(0.25, 0.5)), (0, 0)),
    ]
    failures = 0
    for name, measure, config, (lo, hi) in checks:
        try:
            value = measure(config)
            ok = lo <= value <= hi
            detail = f"{value:.3g} (band [{lo:g}, {hi:g}])"
        except Exception as exc:  # a broken build may fail anywhere; report it as this check
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        failures += not ok
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if verbose:
        print(f"{len(checks) - failures} of {len(checks)} checks passed")
    return failures
