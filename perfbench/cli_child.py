"""Traced CLI child: times ``import lossorder.cli`` and ``cli.main`` apart.

    python -X importtime perfbench/cli_child.py OUT.json <lossorder arguments>

Runs the CLI with the span tracer installed, lets the CLI's report go to
stdout as usual, writes the timings and span totals to OUT.json, and exits
with the CLI's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main():
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = perf_counter()
    import lossorder.cli as cli

    imported = perf_counter()
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    begin = perf_counter()
    try:
        return cli.main(argv)
    finally:
        end = perf_counter()
        sys.stdout.flush()
        out.write_text(json.dumps({
            "import_ms": (imported - start) * 1e3,
            "main_ms": (end - begin) * 1e3,
            "totals": tracer.totals(),
            "spans": tracer.spans,
        }))


if __name__ == "__main__":
    sys.exit(main())
