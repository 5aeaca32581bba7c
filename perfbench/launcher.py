"""Run ``repro serve`` with the benchmark's span recorders installed.

Usage: ``python3 perfbench/launcher.py SPANS_JSON -- serve ARGS...``

The recorders go in before ``repro.cli.main`` runs, so the process layout
is the one ``python -m repro serve`` gives; the spans are written to
``SPANS_JSON`` once the server has drained (SIGTERM/SIGINT).
"""

from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launcher.py SPANS_JSON -- serve ARGS...", file=sys.stderr)
        return 2
    recorder = tracer.Recorder()
    tracer.install(recorder, serving=True)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
