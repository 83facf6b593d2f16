"""Run orchestration: configs, diagnostics, output files and parameter studies.

A run is described by a flat ``key = value`` config (file or dict), executed
with one of five schemes:

    ap            two-scale solver read out at tau = t/eps
    splitting     Strang splitting of the unfiltered equation (reference)
    limit         closed-form leading-order model (linear mode, cos2sq only)
    second_order  closed-form first-order model (linear mode, cos2sq only)
    diffusion     micro-macro stepper for mean-free tensions

All five go through the one loop in ``run``.  The ``ap`` and ``diffusion``
states are two-scale; ``_two_scale_readout`` reads either on the diagonal,
at tau = t/eps and t/eps^2 respectively.  A run whose tension repeats
after tau = pi has a field and well-prepared data that repeat too, so
``_two_scale_torus`` gives it the half torus [0, pi) of n_tau/2 nodes
(TorusGrid fold 2), which halves its states and its work; n_tau = 4
keeps the whole torus, and meta.txt shows the configured n_tau either
way.  Outputs land in
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
splitting run.  A splitting reference is its cell run by the
``splitting`` scheme on the fine grid in one span, observed at t_final only
(``_final_field``), with the inputs it does not inherit (n_tau, init,
delta_t, output_dir, reference_n) reset to their defaults.  The table's
references can be cached on disk, keyed by that run's config plus
REFERENCE_CACHE_VERSION; an entry that fails to load is recomputed.
``selftest`` runs a few small end-to-end checks against the same references.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import tempfile
import typing
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import averaging, fields, reference, stepper
from .domain import PhaseGrid, TorusGrid, rotate_to_xi
from .fields import TENSIONS, get_tension

FMT = "%.17g"
CSV_BLOCK_ROWS = 1024
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
    output_dir: str = "out"
    snapshot_times: tuple[float, ...] = ()
    rms_every: int = 1
    alpha: float = 0.2
    edge: float = 1.2
    width: float = 0.3
    reference_dt_factor: float = 0.05  # dt_ref = factor * min(eps, 1)
    reference_n: int = 0  # 0 means 2 * n_points; else n_points times a power of two

    def __post_init__(self):
        for name, allowed in _CHOICES.items():
            v = getattr(self, name)
            if v not in allowed:
                raise ValueError(f"unknown {name} {v!r}; expected one of {allowed}")
        positive = ["epsilon", "xi_max", "alpha", "width", "reference_dt_factor"]
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
        # powers of two keep the FFTs honest; the grids need at least 4 nodes
        for name in ("n_points", "n_tau"):
            v = getattr(self, name)
            if v < 4 or v & (v - 1):
                raise ValueError(f"{name} must be a power of two and at least 4, got {v}")
        # the reference is a run on reference_n nodes restricted node for node
        ratio, rest = divmod(self.reference_n, self.n_points)
        if rest or ratio & (ratio - 1):
            raise ValueError(
                f"reference_n must be 0 or a power-of-two multiple of n_points "
                f"({self.n_points}), got {self.reference_n}"
            )
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
    def from_file(cls, path, overrides=()) -> "RunConfig":
        """Parse a flat ``key = value`` file, then ``key=value`` overrides taken verbatim.

        Blank lines and # comments are dropped from the file only, so an override may hold '#'."""
        lines = enumerate(Path(path).read_text().splitlines(), 1)
        items = [(f"{path}:{n}", text) for n, line in lines if (text := line.split("#", 1)[0].strip())]
        items += [("--set", item) for item in overrides]
        return cls.from_strings(dict(_split_item(text, where) for where, text in items))

    @classmethod
    def from_strings(cls, raw: dict) -> "RunConfig":
        types = typing.get_type_hints(cls)
        kwargs = {}
        for key, value in raw.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _parse_value(key, value, types[key])
        missing = [k for k in ("epsilon", "t_final") if k not in kwargs]
        if missing:
            raise ValueError(f"config is missing required keys: {missing}")
        return cls(**kwargs)


def _split_item(text: str, where: str) -> tuple[str, str]:
    """Key and value of one ``key = value`` item, stripped; where names its source in errors."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), value.strip()


def _parse_value(key: str, value, kind):
    """A config value from its text, typed by kind, the annotation of its RunConfig field."""
    if not isinstance(value, str) or kind is str:
        return value
    if kind == float | None:
        if value.lower() in ("", "none", "auto"):
            return None
        kind = float
    try:
        if kind == tuple[float, ...]:
            return tuple(float(p) for p in value.replace(",", " ").split())
        return kind(value)
    except ValueError:
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'numeric'}, got {value!r}") from None


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


def boundary_mass_fraction(f2d: np.ndarray) -> float:
    """Share of |f| sitting within two nodes of the box edge."""
    a = np.abs(f2d)
    total = a.sum()
    if total == 0:
        return 0.0
    rim = a[:2].sum() + a[-2:].sum() + a[2:-2, :2].sum() + a[2:-2, -2:].sum()
    return float(rim / total)


def rel_error(num: np.ndarray, ref: np.ndarray, norm: str = "l2") -> float:
    """Relative L2 or Linf distance on a shared grid (grid weights cancel)."""
    size = {"l2": lambda a: np.sqrt((a ** 2).sum()), "linf": lambda a: np.abs(a).max()}.get(norm)
    if size is None:
        raise ValueError(f"unknown norm {norm!r}")
    num = np.asarray(num, dtype=float)
    ref = np.asarray(ref, dtype=float)
    denom = size(ref)
    if denom == 0.0:
        raise RuntimeError("reference field is identically zero")
    return float(size(num - ref) / denom)


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
            raise RuntimeError(f"non-finite diagnostics at t = {self.time}")


# ---------------------------------------------------------------------------
# single runs

@dataclass
class RunResult:
    config: RunConfig
    dt: float
    n_steps: int
    records: list[DiagnosticsRecord] = field(default_factory=list)
    f_tilde: np.ndarray | None = None
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
    """advance(held, k0, k1, dt) made of k1 - k0 calls step(state, dt) on the state taken out of held.

    The run loop hands the span's first state over in the one-element list
    held, so once the first step has returned nothing holds it any more.
    """

    def advance(held, k0, k1, dt):
        state = held.pop()
        for _ in range(k0, k1):
            state = step(state, dt)
        return state

    return advance


def _two_scale_readout(state: np.ndarray, theta: float, grid: PhaseGrid, snapshot: bool, fold: int = 1):
    """f~ and, for a snapshot, f_rv of a two-scale state read on the diagonal tau = theta.

    The state is carried on a torus of the given fold (see TorusGrid), so f~
    is the trigonometric evaluation of the state at fold * theta mod 2 pi.
    The lab frame turns with tau itself: f_rv samples f~ bilinearly at the
    coordinates rotated by theta, and is None when snapshot is false.
    """
    theta %= 2.0 * np.pi
    f_tilde = averaging.eval_at_tau(state, fold * theta % (2.0 * np.pi))
    if not snapshot:
        return f_tilde, None
    r, v = grid.mesh()
    return f_tilde, fields.sample_plane(f_tilde, grid, *rotate_to_xi(theta, r, v), order=1)


def _two_scale_torus(config: RunConfig) -> TorusGrid:
    """The torus an ap or diffusion run steps on: [0, pi) when its field repeats after pi.

    The applied field a(tau) (xi1 cos tau + xi2 sin tau) (-sin tau, cos tau)
    repeats under tau -> tau + pi wherever the tension does, and so do the
    well-prepared data built from it; the tension is compared on the two
    halves of the nodes, to rounding.  The exact self-field repeats too: f0
    is even in r and in v and both fields are odd in xi, so rho stays even
    in r.  A whole-torus poisson run is not exactly periodic, as the xi
    grid's node 0 has no mirror partner, so a folded one differs from it by
    that departure (about 1e-12 relative at eps 0.25, 1e-3 at eps 1).
    n_tau = 4 keeps the whole torus, whose half would be too coarse.
    """
    torus = config.torus()
    half = config.n_tau // 2
    if half < 4:
        return torus
    a = get_tension(config.tension)(torus.nodes)
    if np.abs(a[half:] - a[:half]).max() > 1e-12 * np.abs(a).max():
        return torus
    return TorusGrid(half, fold=2)


def _ap_scheme(config: RunConfig):
    solver = stepper.APSolver(
        config.phase(),
        _two_scale_torus(config),
        get_tension(config.tension),
        config.epsilon,
        mode=config.mode,
        f0_params=config.f0_params(),
    )
    state = solver.initial_state(config.init)
    dt_hint = config.delta_t or solver.suggest_dt(state)

    def observe(state, t, snapshot):
        f_tilde, f_rv = _two_scale_readout(state, t / config.epsilon, solver.phase, snapshot, solver.torus.fold)
        return f_tilde, f_rv, total_mass(averaging.project_mean(state), solver.phase)

    return state, dt_hint, _stepwise(solver.advance), observe


def _diffusion_scheme(config: RunConfig):
    if config.delta_t is None:
        raise ValueError("scheme=diffusion needs an explicit delta_t")
    torus = _two_scale_torus(config)
    solver = stepper.DiffusionSolver(
        config.phase(),
        torus,
        get_tension(config.tension),
        config.epsilon,
        f0_params=config.f0_params(),
    )

    def observe(gh, t, snapshot):
        g, h = gh
        f_tilde, f_rv = _two_scale_readout(g[None] + h, t / config.epsilon ** 2, solver.phase, snapshot, torus.fold)
        return f_tilde, f_rv, total_mass(g + averaging.project_mean(h), solver.phase)

    advance = _stepwise(lambda gh, dt: solver.step(*gh, dt))
    return solver.initial_split(config.init), config.delta_t, advance, observe


def _splitting_scheme(config: RunConfig):
    solver = reference.SplittingSolver(
        config.phase(),
        config.epsilon,
        get_tension(config.tension),
        mode=config.mode,
        f0_params=config.f0_params(),
    )
    dt_hint = config.delta_t or config.reference_dt_factor * min(config.epsilon, 1.0)

    def observe(f_rv, t, snapshot):
        f_tilde = reference.filtered_from_rv(f_rv, solver.phase, t, config.epsilon)
        return f_tilde, f_rv, total_mass(f_rv, solver.phase)

    def advance(held, k0, k1, dt):
        return solver.solve(held.pop(), k0, k1, dt)

    return solver.initial_state(), dt_hint, advance, observe


def _model_scheme(config: RunConfig):
    _closed_form_only(config, f"scheme={config.scheme}")
    grid = config.phase()
    x1, x2 = grid.mesh()
    f0p = config.f0_params()
    eps = config.epsilon
    tension = get_tension(config.tension)

    def observe(_, t, snapshot):
        f_tilde = reference.model_solution(config.scheme, t, eps, tension, x1, x2, f0p)
        f_rv = None
        if snapshot:
            f_rv = reference.model_solution(config.scheme, t, eps, tension, *rotate_to_xi(t / eps, x1, x2), f0p)
        return f_tilde, f_rv, total_mass(f_tilde, grid)

    dt_hint = config.delta_t or (config.t_final / 256.0 or 1.0)
    return None, dt_hint, lambda held, k0, k1, dt: held.pop(), observe


_SCHEME_SETUPS = {
    "ap": _ap_scheme,
    "splitting": _splitting_scheme,
    "limit": _model_scheme,
    "second_order": _model_scheme,
    "diffusion": _diffusion_scheme,
}
SCHEMES = tuple(_SCHEME_SETUPS)
_CHOICES = {"scheme": SCHEMES, "init": ("corrected", "plain"), "mode": ("linear", "poisson"),
            "tension": sorted(TENSIONS)}


def run(config: RunConfig, write: bool = True) -> RunResult:
    """Execute one run and (optionally) write rms.csv and meta.txt.

    Each scheme supplies its initial state, a step hint, an advance from step
    k0 to step k1 and an observation (f~, f_rv, mass) at time t, whose
    lab-frame f_rv is built for snapshot steps only (None elsewhere).  The
    advance takes the span's first state out of a one-element list, so a
    span holds no state but its steps' own.  This loop alone decides where
    to observe.  It observes step 0, every rms_every-th step, the last step
    and every snapshot step, and only at those steps, so the splitting
    scheme fuses its half drifts everywhere else; each span between two
    observed steps is one advance call.
    Snapshot files are written whether or not ``write`` is set.
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
        if k > k0:
            held, state = [state], None
            state = advance(held, k0, k, dt)
        k0 = k
        t = k * dt
        f_tilde, f_rv, mass = observe(state, t, k in snaps)
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
    result.f_tilde = f_tilde
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

def _replace_file(path: Path, write):
    """Make path by write(binary handle) on a temp file renamed into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_savetxt(path: Path, rows, header: str):
    """The bytes of np.savetxt(fh, rows, fmt=FMT, delimiter=",", header=header, comments=""), each
    block of CSV_BLOCK_ROWS rows formatted by one %, so the transient string stays small."""
    rows = np.atleast_2d(np.asarray(rows).T).T  # a 1-D array is one column
    line = ",".join([FMT] * rows.shape[1]) + "\n"
    blocks = np.split(rows, range(CSV_BLOCK_ROWS, len(rows), CSV_BLOCK_ROWS))
    text = (line * len(b) % tuple(b.ravel().tolist()) for b in blocks)
    _replace_file(path, lambda fh: fh.writelines(t.encode() for t in itertools.chain([f"{header}\n"], text)))


def _snapshot_name(t: float) -> str:
    return f"snapshot_{t:.6g}.csv"


def _write_snapshot(result, t, f_tilde, f_rv, grid):
    x1, x2 = grid.mesh()
    rows = np.column_stack([x1.ravel(), x2.ravel(), f_tilde.ravel(), f_rv.ravel()])
    _atomic_savetxt(result.output_dir / _snapshot_name(t), rows, "xi1,xi2,f_tilde,f_rv")


def _write_outputs(result: RunResult):
    out = result.output_dir
    rows = np.array(
        [[r.time, r.rms, r.mass, r.boundary_mass_fraction] for r in result.records]
    )
    _atomic_savetxt(out / "rms.csv", rows, "time,rms,mass,boundary_mass_fraction")
    meta = format_config(result.config)
    meta += f"dt_actual = {FMT % result.dt}\n"
    meta += f"n_steps = {result.n_steps}\n"
    meta += f"max_negative_part = {FMT % result.max_negative}\n"
    _replace_file(out / "meta.txt", lambda fh: fh.write(meta.encode()))


# ---------------------------------------------------------------------------
# references and studies

# bump, and re-pin its test, when the splitting reference's numbers change, so
# that cached references from the old code are not reused
REFERENCE_CACHE_VERSION = 3
# inputs that do not change a splitting reference's numbers; its run resets them
_REFERENCE_RESETS = ("n_tau", "init", "delta_t", "output_dir", "reference_n")


def _quiet(config: RunConfig, **changes) -> RunConfig:
    """The config with changes, writing no snapshots and sampling only the endpoints."""
    return config.replace(snapshot_times=(), rms_every=1 << 30, **changes)


def _final_field(config: RunConfig) -> np.ndarray:
    """f~ at t_final of the config's run, stepped in one span and observed once, at its end.

    A quiet run observes step 0 too, which costs a splitting run a second map
    to the xi frame; this takes the same steps and keeps no diagnostics.
    """
    state, dt_hint, advance, observe = _SCHEME_SETUPS[config.scheme](config)
    n_steps, dt = _resolve_steps(config, dt_hint)
    if n_steps:
        held, state = [state], None
        state = advance(held, 0, n_steps, dt)
    return observe(state, n_steps * dt, False)[0]


def _splitting_reference(config: RunConfig, cache_dir=None) -> np.ndarray:
    """The config's cell run by splitting on the fine grid to t_final, restricted to its grid.

    The reference inherits every input but those in _REFERENCE_RESETS, which
    go back to their defaults, so its cache key, the sha256 of its config's
    text, the coarse n_points and REFERENCE_CACHE_VERSION, names every input
    of the run it keys, a field added later included.
    """
    reset = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.name in _REFERENCE_RESETS}
    ref = _quiet(config, scheme="splitting", n_points=config.reference_n or 2 * config.n_points, **reset)
    path = None
    if cache_dir:
        blob = f"{REFERENCE_CACHE_VERSION}\n{config.n_points}\n{format_config(ref)}".encode()
        path = Path(cache_dir) / (hashlib.sha256(blob).hexdigest()[:24] + ".npy")
        if path.exists():
            try:
                return np.load(path)
            except (OSError, ValueError, EOFError):
                pass  # a damaged entry is recomputed and replaced below
    stride = ref.n_points // config.n_points
    coarse = _final_field(ref)[::stride, ::stride]
    if path is not None:
        _replace_file(path, lambda fh: np.save(fh, coarse))
    return coarse


def reference_filtered(config: RunConfig) -> np.ndarray:
    """Filtered reference field at t_final on the config's grid.

    Linear mode has the exact solution, the "exact" model of
    ``reference.model_solution``, for any tension.  Poisson mode uses a fine
    splitting run (reference_n nodes, the splitting scheme's own dt rule),
    rotated to the xi frame with cubic sampling and restricted to the coarse
    grid node-for-node; it is recomputed on every call.
    """
    if config.mode == "linear":
        # the diffusion scheme runs 1/eps faster than the standard problem
        # (its tau is t/eps^2), so its time t is the standard problem's t/eps
        t = config.t_final / config.epsilon if config.scheme == "diffusion" else config.t_final
        x1, x2 = config.phase().mesh()
        return reference.model_solution(
            "exact", t, config.epsilon, get_tension(config.tension), x1, x2, config.f0_params()
        )
    return _splitting_reference(config)


def convergence_study(config: RunConfig, dt_list, eps_list):
    """Errors of the configured scheme over a (eps, dt) sweep, plus log-log slopes.

    Returns (rows, slopes): rows are (eps, dt actually used, relative L2 error
    of f~ at t_final), slopes one (eps, slope) pair per eps with at least two
    dts.  Writes convergence.csv and slopes.csv under config.output_dir;
    slopes.csv is header-only when no eps has two dts.
    """
    cells = [_quiet(config, epsilon=float(e), delta_t=float(dt)) for e in eps_list for dt in dt_list]
    refs = {float(e): reference_filtered(config.replace(epsilon=float(e))) for e in eps_list}
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
    out = Path(config.output_dir)
    _atomic_savetxt(out / "convergence.csv", np.array(rows), "epsilon,dt,error")
    _atomic_savetxt(out / "slopes.csv", np.array(slopes).reshape(-1, 2), "epsilon,slope")
    return rows, slopes


TABLE_EPSILONS = (1.0, 0.5, 0.25, 0.1, 0.01)


def table_study(config: RunConfig, eps_list=TABLE_EPSILONS, cache_dir: str | None = None):
    """Relative Linf errors of ap, second-order and limit fields vs fine splitting.

    Reproduces the headline accuracy table; rows are
    (eps, err_ap, err_second_order, err_limit) at t_final: a quiet ap run and
    each model's closed form at t_final, scored against one splitting reference
    per eps, cached in ``cache_dir`` when one is given.  The closed forms exist
    for linear mode with tension cos2sq only, so any other mode or tension is
    rejected.  Writes table.csv under config.output_dir.
    """
    rows = []
    for e in eps_list:
        cfg = _quiet(config, epsilon=float(e))
        _closed_form_only(cfg, "table_study")
        ref = _splitting_reference(cfg, cache_dir)
        args = (cfg.t_final, cfg.epsilon, get_tension(cfg.tension), *cfg.phase().mesh(), cfg.f0_params())
        got = [run(cfg.replace(scheme="ap"), write=False).f_tilde]
        got += [reference.model_solution(m, *args) for m in ("second_order", "limit")]
        rows.append((cfg.epsilon, *(rel_error(f, ref, "linf") for f in got)))
    header = "epsilon,err_ap,err_second_order,err_limit"
    _atomic_savetxt(Path(config.output_dir) / "table.csv", np.array(rows), header)
    return rows


# ---------------------------------------------------------------------------
# selftest

def _error_vs_exact(config: RunConfig) -> float:
    return rel_error(run(config, write=False).f_tilde, reference_filtered(config), "l2")


def _lab_frame_error_vs_exact(config: RunConfig) -> float:
    """Relative L2 error of the f_rv column of a snapshot at t_final, against the exact lab-frame field."""
    with tempfile.TemporaryDirectory() as out:
        run(config.replace(output_dir=out, snapshot_times=(config.t_final,)), write=False)
        (path,) = Path(out).glob("snapshot_*.csv")
        f_rv = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3)
    r, v = config.phase().mesh()
    lab = rotate_to_xi(config.t_final / config.epsilon, r, v)
    exact = reference.model_solution(
        "exact", config.t_final, config.epsilon, get_tension(config.tension), *lab, config.f0_params()
    )
    return rel_error(f_rv.reshape(r.shape), exact, "l2")


def _mass_drift(config: RunConfig) -> float:
    masses = np.array([rec.mass for rec in run(config, write=False).records])
    return float(np.abs(masses - masses[0]).max() / abs(masses[0]))


def _round_trip_changes(config: RunConfig) -> int:
    raw = dict(_split_item(line, "format_config") for line in format_config(config).splitlines())
    back = RunConfig.from_strings(raw)
    return sum(getattr(back, f.name) != getattr(config, f.name) for f in dataclasses.fields(config))


def selftest(verbose: bool = True) -> int:
    """Run end-to-end checks that a broken install or operator fails.

    Small runs at eps = 0.1, about 0.4 s in all: a linear ap run (64^2 x 16,
    stepped on half the torus, t = 0.25) against the exact linear solution
    in relative L2, and the f_rv column of its snapshot against the exact
    solution in the lab frame; at t = 0.5, a splitting run (64^2) against
    the exact solution, the relative mass drift of a poisson ap run
    (32^2 x 16, also on half the torus), and the config text round trip.  A
    working build measures 3.61e-3, 9.47e-3, 5.3e-4 and 4.9e-10.  The linear
    ap band is +-10 %: an antiderivative of the half torus left unscaled
    reads 9.0e-3, and a flux 5 % too strong lowers the error to 2.84e-3.
    The lab frame band reaches 5 % below its value and twice above it, which
    a lab frame turned by 2 tau instead of tau (0.46) overshoots.  The other
    bounds are twice the values.  Returns the number of failed checks.
    """
    base = RunConfig(epsilon=0.1, t_final=0.5, n_points=64, n_tau=16)
    linear = base.replace(t_final=0.25)
    checks = [
        ("linear ap vs exact", _error_vs_exact, linear, (3.25e-3, 3.97e-3)),
        ("linear ap lab frame vs exact", _lab_frame_error_vs_exact, linear, (9.05e-3, 1.88e-2)),
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
