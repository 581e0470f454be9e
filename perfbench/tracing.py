"""Span tracing of the repro layers, applied from outside the package.

:class:`Tracer` replaces public functions and methods at the module or
class their callers look them up in, records one span per call, and puts
the originals back on :meth:`Tracer.uninstall`.  A span holds the traced
name, start and end (``perf_counter_ns``), the index of its parent span,
and the case and event the benchmark was running.  Spans live in flat
arrays in memory and are written out once, by :meth:`Tracer.dump`, after
the measurement.  Self time (a span's duration minus the spans nested in
it) and call counts are accumulated as spans close.

Only calls from the thread that installed the tracer, made while
:attr:`Tracer.active` is set, are recorded: the engine's session threads and
the benchmark's own oracle checks pass straight through.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from importlib import import_module
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Spans kept for the dump; later spans still count toward self time and calls.
MAX_SPANS = 2_000_000


def traced_targets() -> List[Tuple[str, object, str]]:
    """(span name, owner, attribute) for every traced call site.

    The owner is the module whose global the callers resolve, or the class
    whose method they call, so the replacement is what actually runs.
    """
    # import_module, not ``import a.b as b``: packages re-export functions
    # under their submodule's name (``repro.dpor.optimality``).
    explore = import_module("repro.dpor.explore")
    optimality = import_module("repro.dpor.optimality")
    engine_harness = import_module("repro.engine.harness")
    monitor_core = import_module("repro.monitor.core")
    scheduler = import_module("repro.semantics.scheduler")
    from repro.checking.online import OnlineChecker
    from repro.core.bitrel import RelationMatrix
    from repro.core.history import History
    from repro.engine.mvcc import MVCCEngine
    from repro.isolation.registry import _SpecLevel
    from repro.isolation.saturation import IncrementalSaturation
    from repro.monitor.core import Monitor
    from repro.trace.format import TraceReplayer

    return [
        ("dpor.step", explore.StepEngine, "step"),
        ("dpor.compute_reorderings", explore, "compute_reorderings"),
        ("dpor.optimality", explore, "optimality"),
        ("dpor.swap", explore, "swap"),
        ("dpor.swap", optimality, "swap"),
        ("dpor.is_swapped", optimality, "is_swapped"),
        ("dpor.read_latest", optimality, "read_latest"),
        ("semantics.next_action", explore, "next_action"),
        ("semantics.valid_writes", explore, "valid_writes"),
        ("semantics.extend_history", scheduler, "extend_history"),
        ("semantics.extend_history", optimality, "extend_history"),
        ("isolation.satisfies", _SpecLevel, "satisfies"),
        ("isolation.rebuild", IncrementalSaturation, "from_history"),
        ("isolation.advance", IncrementalSaturation, "advance"),
        ("isolation.evictable", monitor_core, "evictable_transactions"),
        ("core.remove_events", History, "remove_events"),
        ("core.remove_nodes", RelationMatrix, "remove_nodes"),
        ("checking.feed", OnlineChecker, "feed"),
        ("checking.history", OnlineChecker, "history"),
        ("checking.prune_settled", OnlineChecker, "prune_settled"),
        ("checking.evict", OnlineChecker, "evict"),
        ("trace.apply", TraceReplayer, "apply"),
        ("trace.history", TraceReplayer, "history"),
        ("monitor.feed", Monitor, "feed"),
        ("monitor.collect", Monitor, "collect"),
        ("engine.run_program", engine_harness, "run_program"),
        ("engine.to_trace", MVCCEngine, "to_trace"),
    ]


class Tracer:
    """In-memory span recorder over :func:`traced_targets`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_case = array("i")
        self.span_event = array("i")
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        #: Cleared while the benchmark runs its own code (oracle checks).
        self.active = True
        #: The benchmark's current case and event (-1: none).
        self.case = -1
        self.event = -1
        #: OnlineChecker searches by the op of the event being fed, and how
        #: many of them changed the level's verdict.
        self.search_calls: Dict[str, int] = {}
        self.decisions = 0
        self.decisions_changed = 0
        self._stack: List[int] = []
        self._child_ns: List[int] = []
        self._feed: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    # -- install / restore -------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr in traced_targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif name == "checking.feed":
                setattr(owner, attr, self._wrap_feed(self._wrap(name, raw)))
            elif name == "isolation.satisfies":
                setattr(owner, attr, self._wrap_satisfies(self._wrap(name, raw)))
            else:
                setattr(owner, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        tracer = self
        stack, child_ns = self._stack, self._child_ns
        self_ns, calls = self.self_ns, self.calls
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            index = len(tracer.span_name)
            record = index < MAX_SPANS
            if record:
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1] if stack else -1)
                tracer.span_case.append(tracer.case)
                tracer.span_event.append(tracer.event)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
            stack.append(index if record else -1)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[name_id] += duration - child_ns.pop()
                calls[name_id] += 1
                if child_ns:
                    child_ns[-1] += duration
                if record:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end

        traced.__wrapped__ = fn
        return traced

    def _wrap_feed(self, fn: Callable) -> Callable:
        """``OnlineChecker.feed``: remember the event op and prior verdicts."""
        feeds = self._feed
        tracer = self

        def feed(checker, event, *args, **kwargs):
            if not tracer.active:
                return fn(checker, event, *args, **kwargs)
            feeds.append([event.op, checker.verdicts, 0])
            try:
                return fn(checker, event, *args, **kwargs)
            finally:
                feeds.pop()

        return feed

    def _wrap_satisfies(self, fn: Callable) -> Callable:
        """``_SpecLevel.satisfies``: count the searches a feed decides by.

        Only the outermost calls inside a feed count, not the checks a
        search makes on its own behalf.
        """
        feeds = self._feed
        tracer = self

        def satisfies(level, history, *args, **kwargs):
            if not feeds or not tracer.active:
                return fn(level, history, *args, **kwargs)
            entry = feeds[-1]
            entry[2] += 1
            try:
                result = fn(level, history, *args, **kwargs)
            finally:
                entry[2] -= 1
            if entry[2] == 0:
                op, before = entry[0], entry[1]
                tracer.search_calls[op] = tracer.search_calls.get(op, 0) + 1
                tracer.decisions += 1
                if result != before.get(level.name, True):
                    tracer.decisions_changed += 1
            return result

        return satisfies

    # -- results ---------------------------------------------------------------------

    def snapshot(self) -> Tuple[Tuple[int, ...], Dict[str, int], int, int]:
        """Cumulative calls and decision counters, for per-case deltas."""
        return tuple(self.calls), dict(self.search_calls), self.decisions, self.decisions_changed

    def self_seconds(self) -> Dict[str, float]:
        return {name: self.self_ns[i] / 1e9 for i, name in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """Write the spans (binary columns) and a JSON index beside them."""
        count = len(self.span_name)
        columns = {
            "name": self.span_name, "parent": self.span_parent, "start_ns": self.span_start,
            "end_ns": self.span_end, "case": self.span_case, "event": self.span_event,
        }
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in columns.values():
                column[:count].tofile(out)
        index = {
            "spans": count,
            "columns": [[key, column.typecode, column.itemsize] for key, column in columns.items()],
            "names": self.names,
            "note": "column-major arrays of `spans` items each, in the listed order",
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")
