"""Why the pushed-back initial data matters.

The double-scale formulation leaves the initial profile free along the fast
variable.  Copying f0 across tau ("plain") is consistent, but it seeds an
order-eps oscillation that the coarse stepper then samples at effectively
random phases.  Displacing the profile by the field antiderivative
("corrected") removes that layer.  This sweep runs both variants over a
range of eps at fixed resolution and prints the relative error of the final
filtered field against the exact linear solution.
"""
import numpy as np

from vlasov_ap.harness import RunConfig, reference_filtered, rel_error, run

EPS_LIST = (1.0, 0.25, 0.1, 0.025, 0.01, 1e-4)


def main():
    print(f"{'eps':>8}  {'corrected':>10}  {'plain':>10}  {'plain/corr':>10}")
    for eps in EPS_LIST:
        errs = {}
        for init in ("corrected", "plain"):
            cfg = RunConfig(
                epsilon=eps,
                t_final=np.pi / 16,
                n_points=64,
                init=init,
                output_dir="runs/sweep",
            )
            res = run(cfg, write=False)
            errs[init] = rel_error(res.f_tilde, reference_filtered(cfg), "l2")
        print(
            f"{eps:>8g}  {errs['corrected']:>10.3e}  {errs['plain']:>10.3e}"
            f"  {errs['plain'] / errs['corrected']:>10.2f}"
        )
    print()
    print("the corrected rows stay flat; the plain rows bulge in the middle")
    print("where eps is too small to resolve but too large to ignore")


if __name__ == "__main__":
    main()
