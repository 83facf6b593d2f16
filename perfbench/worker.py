"""Run one vlasov-ap command in this process and report its cost as JSON.

    python3 perfbench/worker.py RESULT.json [--trace SPANS.json] -- ARGS...

ARGS go to ``vlasov_ap.cli.main`` unchanged.  The package is imported from
the ``src`` directory of the checkout that holds this file, never from an
installed copy.  RESULT.json receives the exit code, the wall time of the
``cli.main`` call and the peak resident memory of this process.  With
``--trace`` the package's public calls are wrapped before the call (see
``spans.py``) and the recorded spans go to SPANS.json; without it no wrapper
is loaded.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or "--" not in argv:
        print("usage: worker.py RESULT.json [--trace SPANS.json] -- ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[0]
    spans_path = opts[2] if len(opts) == 3 and opts[1] == "--trace" else None

    sys.path.insert(0, SRC)
    import vlasov_ap
    from vlasov_ap import cli

    if not os.path.abspath(vlasov_ap.__file__).startswith(SRC + os.sep):
        print(f"vlasov_ap imported from {vlasov_ap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    run_s = time.perf_counter() - t0

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "run_s": run_s, "peak_rss_mb": peak_kb / 1024.0}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
