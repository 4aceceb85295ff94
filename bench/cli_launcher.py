"""Run one arveson CLI command with the span recorder installed.

Usage: python bench/cli_launcher.py TRACE_OUT SUBCOMMAND [ARGS...]

Times the cold ``import arveson.cli``, wraps the library's functions,
calls ``arveson.cli.main`` with the remaining arguments and writes the
recorded spans to TRACE_OUT as JSON. Exits with main's exit code; stdout
is the command's own report, unchanged.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import arveson.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = arveson.cli.main(argv)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    snap["import_s"] = [import_s]
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
