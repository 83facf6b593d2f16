"""Track the beam width through an unresolved oscillation.

At eps = 0.05 the filtered solution still carries a fast ripple of size eps
on top of the slow envelope.  The two-scale stepper walks across it with
dt = 0.02 (about six points per fast period) and is compared against a
Strang splitting run that resolves the period properly, plus the two
closed-form models.  The splitting run is the ``splitting`` scheme of the
same run loop, with 64 steps per scheme step and a sample every 64th step.
Read the printed L1 gaps together: the coarse model averages straight
through the ripple and pays the full envelope offset, while the scheme
tracks the ripple inside its dt^2 + dxi^2 budget and lands next to the
second-order model, whose only error is the eps^2 remainder.  Shrink eps
and the model gaps track eps while the scheme gap stays put, which is the
whole point of the method.

Writes envelope.csv (t, scheme, reference, coarse model, second order)
next to this script's working directory under runs/envelope.
"""
import pathlib

import numpy as np

from vlasov_ap.domain import PhaseGrid
from vlasov_ap.harness import RunConfig, rms, run
from vlasov_ap.reference import limit_solution, second_order_solution

EPS = 0.05
T_FINAL = 2 * np.pi
N = 128


def main():
    cfg = RunConfig(
        epsilon=EPS,
        t_final=T_FINAL,
        n_points=N,
        delta_t=0.02,
        rms_every=1,
        output_dir="runs/envelope",
    )
    result = run(cfg, write=False)
    times = result.times
    widths = result.rms_series
    print(f"scheme: {result.n_steps} steps of dt = {result.dt:.4f}")

    grid = PhaseGrid(N)
    x1, x2 = grid.mesh()

    # splitting reference sampled on the same time stamps; 64 substeps per
    # scheme step keeps the reference phase drift below the model errors
    m = 64
    ref_cfg = cfg.replace(scheme="splitting", delta_t=result.dt / m, rms_every=m)
    ref = np.asarray(run(ref_cfg, write=False).rms_series)

    coarse = np.asarray([rms(limit_solution(t, x1, x2), grid) for t in times])
    second = np.asarray(
        [rms(second_order_solution(t, t / EPS, x1, x2, EPS), grid) for t in times]
    )

    for name, series in (("scheme", widths), ("coarse model", coarse), ("second order", second)):
        gap = np.trapezoid(np.abs(series - ref), times)
        print(f"L1 width gap, {name:>12}: {gap:.4e}")

    out = pathlib.Path(cfg.output_dir)
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
