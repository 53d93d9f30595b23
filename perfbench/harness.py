"""Operation timing and bookkeeping shared by the workloads."""

import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    seconds: float
    #: reason the operation failed, or None
    failure: str | None = None
    #: label of the known program fault this operation runs into, if any
    fault: str | None = None


class Session:
    """One run: times operations, records their outcome, and carries what
    the workloads need to start child interpreters."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.child_env = dict(os.environ, PYTHONPATH=str(SRC))
        #: per-child CLI timings and merged span totals (traced cli-session)
        self.cli_samples = {"import_ms": [], "main_ms": [], "scipy_stats_import_ms": []}
        self.child_totals = {}
        self.child_spans = []
        #: peak RSS (KiB) over the CLI child processes
        self.child_maxrss_kib = 0

    @property
    def trace(self):
        return self.tracer is not None

    def timed(self, fn, *args, **kwargs):
        """Run one operation; returns (value, exception or None, seconds)."""
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        start = perf_counter()
        try:
            value, error = fn(*args, **kwargs), None
        except Exception as exc:  # an operation failing is a result, not a crash
            value, error = None, exc
        seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.op = None
        return value, error, seconds

    def record(self, name, seconds, failure=None, fault=None):
        if failure is not None and fault is None:
            print(f"perfbench: {name}: {failure}", file=sys.stderr)
        self.ops.append(Op(name, seconds, failure, fault))


def describe(exc):
    """One line for an exception raised by an operation."""
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" at {Path(frame.filename).name}:{frame.lineno}" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"
