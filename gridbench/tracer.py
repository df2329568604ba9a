"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code by wrapping public
functions of each layer (nothing inside ``src/`` changes).  A span is
``(id, parent, trace, name, start, end, attrs)`` with times from
``time.monotonic`` (CLOCK_MONOTONIC, one clock for every process on the
host, so spans from pool children and fabric workers line up with the
coordinator's).  Spans stay in memory until their top-level span closes;
then the process appends them to ``spans-<pid>.jsonl`` in the trace
directory, because pool children end without running exit hooks.
High-rate calls (``KernelInstance.warp_program`` phases) are counted and
timed as totals instead of spans.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

clock = time.monotonic


class Tracer:
    """Records spans for the layers of one process (see module docstring)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.totals: Dict[str, float] = {}
        self._stack: List[Dict] = []
        self._pending: List[Dict] = []
        self._next_id = 0
        self._patches: List = []
        self._pid = os.getpid()

    # -- spans -------------------------------------------------------------

    def _forked(self) -> None:
        """A forked pool child starts with no spans of its parent's."""
        self._pid = os.getpid()
        self._stack, self._pending, self.totals = [], [], {}

    def begin(self, name: str) -> Dict:
        if os.getpid() != self._pid:
            self._forked()
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": f"{os.getpid()}-{self._next_id}",
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else f"{os.getpid()}-{self._next_id}",
            "name": name,
            "pid": os.getpid(),
            "start": clock(),
            "end": None,
            "attrs": {},
        }
        self._stack.append(span)
        return span

    def end(self, span: Dict) -> None:
        span["end"] = clock()
        self._stack.pop()
        self._pending.append(span)
        if not self._stack:
            self.flush()

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        if os.getpid() != self._pid:
            self._forked()
        self.totals[f"{name}_s"] = self.totals.get(f"{name}_s", 0.0) + seconds
        self.totals[f"{name}_n"] = self.totals.get(f"{name}_n", 0.0) + count

    def flush(self) -> None:
        """Append finished spans (and running totals) to this pid's file."""
        if not self._pending and not self.totals:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in self._pending:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"totals": self.totals, "pid": os.getpid()}) + "\n")
        self._pending = []

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_exit: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper (undone by :meth:`uninstall`)."""
        original = getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span["attrs"], args, result)
                return result
            finally:
                tracer.end(span)

        spanned.__wrapped__ = original
        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every layer the grid runs through."""
        import repro.engine_soa
        import repro.store
        from repro.experiments.runner import Runner
        from repro.gpu.kernel import KernelInstance
        from repro.sim.system import GPUSystem
        from repro.store import ResultStore

        def run_exit(attrs, args, result):
            system = args[0]
            attrs["cycles"] = result.cycles
            attrs["steps"] = system.steps_executed
            attrs["skipped"] = system.cycles_skipped

        def get_exit(attrs, args, result):
            attrs["hit"] = result is not None

        self.wrap(repro.engine_soa, "create_system", "sim.build")
        self.wrap(GPUSystem, "run", "sim.run", run_exit)
        self.wrap(Runner, "competitive", "experiments.corun")
        self.wrap(Runner, "standalone_duration", "experiments.standalone")
        self.wrap(ResultStore, "get", "store.get", get_exit)
        self.wrap(ResultStore, "put", "store.put")
        self.wrap(repro.store, "fingerprint", "store.fingerprint")

        original = KernelInstance.warp_program
        tracer = self

        def warp_program(instance, sm_slot, warp):
            return tracer._timed_phases(original(instance, sm_slot, warp))

        setattr(KernelInstance, "warp_program", warp_program)
        self._patches.append((KernelInstance, "warp_program", original))

    def _timed_phases(self, program):
        """Yield ``program``'s phases, timing generation of each one."""
        add = self.add
        while True:
            start = clock()
            try:
                phase = next(program)
            except StopIteration:
                add("gpu.warp_program", clock() - start, 0)
                return
            add("gpu.warp_program", clock() - start)
            yield phase

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self.flush()


def load_spans(trace_dir: Path):
    """Every span and the per-process totals written under ``trace_dir``."""
    spans: List[Dict] = []
    totals: Dict[int, Dict[str, float]] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                if "totals" in record:
                    totals[record["pid"]] = record["totals"]
                else:
                    spans.append(record)
    merged: Dict[str, float] = {}
    for per_pid in totals.values():
        for key, value in per_pid.items():
            merged[key] = merged.get(key, 0.0) + value
    return spans, merged


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span duration minus the part of it that its child spans cover."""
    covered: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: span["end"] - span["start"] - covered.get(span["id"], 0.0)
        for span in spans
    }


def covered_seconds(spans: List[Dict], start: float, end: float) -> float:
    """Length of the union of span intervals, clipped to ``[start, end]``."""
    intervals = sorted(
        (max(s["start"], start), min(s["end"], end))
        for s in spans
        if s["end"] > start and s["start"] < end
    )
    total = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
