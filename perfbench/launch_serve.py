"""Traced server launcher: install the span wrappers, then run ``repro serve``.

Usage (the benchmark starts it; arguments after ``--trace-out PATH`` are
the ``repro`` command line)::

    python perfbench/launch_serve.py --trace-out spans.jsonl serve --scenario zipf ...

The spans are written to PATH when the server exits.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: launch_serve.py --trace-out PATH <repro args>", file=sys.stderr)
        return 2
    import tracing
    from repro import cli

    tracer = tracing.install()
    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
