"""Track the beam width through an unresolved oscillation.

At eps = 0.05 the filtered solution still carries a fast ripple of size eps
on top of the slow envelope.  The two-scale stepper walks across it with
dt = 0.02 (about six points per fast period) and is compared against the
exact solution of linear mode, f0 composed with the inverse fundamental
matrix of the Hill system, and against the two closed-form models; all
three are evaluated at the scheme's sample times, the exact one from a
single integration.  Read the printed L1 gaps together: the coarse model
averages straight through the ripple and pays the full envelope offset,
while the scheme tracks the ripple inside its dt^2 + dxi^2 budget and
lands next to the second-order model, whose only error is the eps^2
remainder.  Shrink eps
and the model gaps track eps while the scheme gap stays put, which is the
whole point of the method.

The run is the sample config configs/linear_envelope.cfg with its output
moved: writes envelope.csv (t, scheme, reference, coarse model, second
order) under runs/envelope in the working directory.
"""
from pathlib import Path

import numpy as np

from vlasov_ap.fields import get_tension
from vlasov_ap.harness import RunConfig, rms, run
from vlasov_ap.reference import model_solution

CONFIG = Path(__file__).resolve().parent / "configs" / "linear_envelope.cfg"


def main():
    cfg = RunConfig.from_file(CONFIG, ["output_dir=runs/envelope"])
    result = run(cfg, write=False)
    times = result.times
    widths = result.rms_series
    print(f"scheme: {result.n_steps} steps of dt = {result.dt:.4f}")

    grid = cfg.phase()
    x1, x2 = grid.mesh()
    tension = get_tension(cfg.tension)

    def model_widths(model):
        fields = model_solution(model, times, cfg.epsilon, tension, x1, x2)
        return np.asarray([rms(f, grid) for f in fields])

    ref = model_widths("exact")
    coarse = model_widths("limit")
    second = model_widths("second_order")

    for name, series in (("scheme", widths), ("coarse model", coarse), ("second order", second)):
        gap = np.trapezoid(np.abs(series - ref), times)
        print(f"L1 width gap, {name:>12}: {gap:.4e}")

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([times, widths, ref, coarse, second])
    np.savetxt(
        out / "envelope.csv",
        table,
        delimiter=",",
        header="t,scheme,reference,coarse_model,second_order",
        comments="",
    )
    print(f"wrote {out / 'envelope.csv'}")


if __name__ == "__main__":
    main()
