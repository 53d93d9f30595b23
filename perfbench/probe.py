"""Set-up probe: a fresh interpreter imports lossorder and builds one
workload's inputs, then exits.  ``run.py`` times whole probe processes.

    python perfbench/probe.py WORKLOAD_MODULE SEED ROUNDS WORKDIR

Prints one JSON line with the import time of the package entry point the
workload uses (``lossorder.cli`` for the CLI session, ``lossorder``
otherwise).
"""

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

from harness import SRC


def main():
    module_name, seed, rounds, workdir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    importlib.import_module("lossorder.cli" if module_name == "cli_session" else "lossorder")
    import_ms = (perf_counter() - start) * 1e3
    importlib.import_module(f"workloads.{module_name}").build(seed, workdir, rounds)
    print(json.dumps({"import_ms": import_ms}))


if __name__ == "__main__":
    main()
