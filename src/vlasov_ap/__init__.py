"""Two-scale asymptotic preserving solver for a rapidly rotating paraxial beam.

The package integrates the filtered Vlasov equation with an extra periodic
variable tau, so that one discretization works uniformly from eps = O(1) down
to the averaged limit.  Alongside the solver live a Strang splitting reference
for the unfiltered equation, the closed-form linear asymptotic models, and the
run/study harness behind the vlasov-ap command.
"""

from .averaging import (
    eval_at_tau,
    fluctuation,
    invert_derivative,
    project_mean,
    solve_implicit_tau,
    spectral_derivative,
)
from .domain import (
    PhaseGrid,
    TorusGrid,
    initial_distribution,
    rotate_to_rv,
    rotate_to_xi,
)
from .errors import (
    NonMeanFreeTension,
    NonZeroMeanInput,
    StabilityFailure,
    ZeroField,
    ZeroReference,
)
from .fields import TENSIONS, density, get_tension, radial_field
from .harness import (
    RunConfig,
    RunResult,
    convergence_study,
    rel_error,
    rms,
    run,
    selftest,
    table_study,
)
from .reference import (
    SplittingSolver,
    limit_solution,
    rotation_rate,
    second_order_solution,
)
from .stepper import APSolver, DiffusionSolver, cfl_dt

__version__ = "0.1.0"

__all__ = [
    "APSolver",
    "DiffusionSolver",
    "NonMeanFreeTension",
    "NonZeroMeanInput",
    "PhaseGrid",
    "RunConfig",
    "RunResult",
    "SplittingSolver",
    "StabilityFailure",
    "TENSIONS",
    "TorusGrid",
    "ZeroField",
    "ZeroReference",
    "cfl_dt",
    "convergence_study",
    "density",
    "eval_at_tau",
    "fluctuation",
    "get_tension",
    "initial_distribution",
    "invert_derivative",
    "limit_solution",
    "project_mean",
    "radial_field",
    "rel_error",
    "rms",
    "rotate_to_rv",
    "rotate_to_xi",
    "rotation_rate",
    "run",
    "second_order_solution",
    "selftest",
    "solve_implicit_tau",
    "spectral_derivative",
    "table_study",
    "__version__",
]
