"""Run one crossarray CLI command with its public functions traced.

Usage: python traced_cli.py TRACE_JSON ARGS...

Behaves as ``python -m crossarray.cli ARGS...`` does, exit code and
traceback included, and writes the span summary to TRACE_JSON even when
the command raises.
"""

import json
import sys

import tracing


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from crossarray import cli
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w") as handle:
            json.dump(tracer.to_json(), handle)


if __name__ == "__main__":
    sys.exit(main())
