"""Two-scale asymptotic preserving solver for a rapidly rotating paraxial beam.

The package integrates the filtered Vlasov equation with an extra periodic
variable tau, so that one discretization works uniformly from eps = O(1) down
to the averaged limit.  Alongside the solver live a Strang splitting reference
for the unfiltered equation, the closed-form linear asymptotic models, and the
run/study harness behind the vlasov-ap command.

Each public name is imported from its module, e.g.
``from vlasov_ap.harness import RunConfig, run``.
"""

__version__ = "0.1.0"
