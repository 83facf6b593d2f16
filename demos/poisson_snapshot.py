"""Self-consistent run with snapshot output.

Runs the full nonlinear problem (applied focusing field plus the beam's own
radial field) at eps = 0.25 for a quarter period and writes the filtered
distribution at three times, the width history, and the resolved settings.
It runs the sample config configs/poisson_quarter.cfg, so the same run is
available from the command line as

    vlasov-ap run demos/configs/poisson_quarter.cfg
"""
from pathlib import Path

import numpy as np

from vlasov_ap.harness import RunConfig, run

CONFIG = Path(__file__).resolve().parent / "configs" / "poisson_quarter.cfg"


def main():
    cfg = RunConfig.from_file(CONFIG)
    result = run(cfg)
    masses = np.array([rec.mass for rec in result.records])
    drift = np.abs(masses - masses[0]).max() / abs(masses[0])
    print(f"{result.n_steps} steps of dt = {result.dt:.4f}")
    print(f"relative mass drift {drift:.2e}")
    print(f"final width {result.rms_series[-1]:.4f}")
    print(f"outputs in {cfg.output_dir}: rms.csv, snapshot_*.csv, meta.txt")


if __name__ == "__main__":
    main()
