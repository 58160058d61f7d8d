"""Launcher for one traced CLI invocation of the cli-cold workload.

Usage: python3 bench/cli_child.py TRACE_JSON [alphaprobe CLI arguments...]

Records when the interpreter reached this script, times the numpy and
alphaprobe imports, installs the benchmark's tracer and runs the CLI's main.
Timings (time.monotonic_ns, comparable with the parent's clock) and spans
go to TRACE_JSON; the exit code is the CLI's.
"""
import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t_import = time.monotonic_ns()
    import numpy  # noqa: F401
    import alphaprobe.cli

    t_imported = time.monotonic_ns()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t_command = time.monotonic_ns()
    try:
        code = alphaprobe.cli.main(argv)
    finally:
        t_done = time.monotonic_ns()
        payload = tracer.dump()
        payload["timing_ns"] = {
            "started": STARTED_NS,
            "import": t_imported - t_import,
            "command": t_done - t_command,
        }
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
