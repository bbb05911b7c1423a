"""One benchmark sample, run in a fresh interpreter.

Usage: child.py RESULT_JSON [--spans SPANS_JSON] -- CLI_ARGS...

Times the import of ``plaquepar.cli`` plus the parse of the workload
scenario (``setup_s``), then the whole ``cli.main(CLI_ARGS)`` call
(``wall_s``), and records the process's peak RSS at exit.  With
``--spans`` the module functions listed in ``spans.TRACED`` are wrapped
after set-up and the recorded spans are written once the call returns.
"""

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    result_path = own[0]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    t0 = time.perf_counter()
    from plaquepar import cli
    from plaquepar.scenario import parse_scenario
    parse_scenario(cli_args[cli_args.index("--scenario") + 1])
    setup_s = time.perf_counter() - t0

    tracer = None
    if spans_path is not None:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    error = None
    t1 = time.perf_counter()
    try:
        exit_code = cli.main(cli_args)
    except Exception:  # the gate counts any exception as a failed sample
        exit_code, error = 1, traceback.format_exc()
    wall_s = time.perf_counter() - t1

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spans_path, wall_s)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"exit_code": exit_code, "error": error, "setup_s": setup_s,
                   "wall_s": wall_s, "peak_rss_mb": peak_kib * 1024 / 1e6}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
