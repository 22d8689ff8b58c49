"""Run one `overparam` CLI command with the span tracer installed.

Usage: python perfbench/traced_cli.py SPANS_JSON COMMAND_ID -- CLI_ARGS...

The command's exit code is passed through; the spans are written to
SPANS_JSON after the command returns, including when it raises.
"""

from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, command_id, cli_args = argv[0], argv[1], argv[3:]
    trace = tracer.Tracer(command_id)
    tracer.install(trace)
    from overparam import cli

    try:
        return cli.main(cli_args)
    finally:
        trace.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
