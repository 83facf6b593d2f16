"""Command line front end: run, converge, table, selftest.

All commands except selftest take a flat ``key = value`` config file; any
entry can be overridden with ``--set key=value``, repeated as needed.  Exit
status is 0 on success; 1 on a RuntimeError (blow-up, zero reference, no
field for the CFL step) or any failed selftest check; 2 on a ValueError or
OSError (a configuration mistake, input the solver rejects, an unreadable
file).  No other exception is caught, so a bug shows its traceback.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness


def _floats(text: str) -> tuple[float, ...]:
    values = harness._parse_value("list", text, tuple[float, ...])
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _add_config_arguments(p: argparse.ArgumentParser):
    p.add_argument("config", help="flat key = value config file")
    keys = ", ".join(f.name for f in dataclasses.fields(harness.RunConfig))
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=f"override a config entry; keys: {keys}",
    )


def _cmd_run(args) -> int:
    config = harness.RunConfig.from_file(args.config, args.set)
    result = harness.run(config)
    last = result.records[-1]
    print(
        f"{config.scheme}: t = {last.time:.6g}  dt = {result.dt:.6g}  "
        f"steps = {result.n_steps}  rms = {last.rms:.9g}  mass = {last.mass:.9g}"
    )
    print(f"outputs in {result.output_dir}")
    return 0


def _cmd_converge(args) -> int:
    config = harness.RunConfig.from_file(args.config, args.set)
    rows, slopes = harness.convergence_study(config, args.dt, args.eps)
    print("epsilon        dt             error")
    for eps, dt, err in rows:
        print(f"{eps:<14.6g} {dt:<14.6g} {err:.6e}")
    for eps, slope in slopes:
        print(f"slope at epsilon = {eps:g}: {slope:.3f}")
    return 0


def _cmd_table(args) -> int:
    config = harness.RunConfig.from_file(args.config, args.set)
    rows = harness.table_study(config, args.eps, cache_dir=args.reference_cache)
    print("epsilon        ap             second_order   limit")
    for eps, e_ap, e_second, e_limit in rows:
        print(f"{eps:<14.6g} {e_ap:<14.6e} {e_second:<14.6e} {e_limit:.6e}")
    return 0


def _cmd_selftest(args) -> int:
    return 1 if harness.selftest(verbose=not args.quiet) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vlasov-ap",
        description="two-scale asymptotic preserving solver for the paraxial beam",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one run and write its outputs")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("converge", help="error sweep over (epsilon, dt)")
    _add_config_arguments(p)
    p.add_argument("--dt", type=_floats, required=True, help="comma separated dt list")
    p.add_argument("--eps", type=_floats, required=True, help="comma separated epsilon list")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("table", help="error table of ap and models vs fine splitting")
    _add_config_arguments(p)
    p.add_argument(
        "--eps",
        type=_floats,
        default=list(harness.TABLE_EPSILONS),
        help="comma separated epsilon list (default %(default)s); at 0.01 the model columns "
        "need a smaller reference_dt_factor than the default",
    )
    p.add_argument("--reference-cache", help="directory memoizing reference runs")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "selftest", help="run small end-to-end checks against exact references"
    )
    p.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    p.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    sys.exit(main())
