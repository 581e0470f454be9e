"""`repro monitor`: a bounded-memory streaming isolation monitor.

This package turns the per-event :class:`~repro.checking.online.OnlineChecker`
into a *long-running service*: ingest v1 JSONL trace events forever (stdin
or socket), decide the configured isolation level after every event, and
keep memory O(live window) instead of O(history) by garbage-collecting
transactions that provably cannot participate in any future violation
(:mod:`repro.isolation.liveness` holds the per-level predicates; the
equivalence with the unbounded checker is property-tested on every prefix
in ``tests/test_monitor_gc.py``).

Two layers:

* :class:`Monitor` (:mod:`.core`) — one GC'd checker plus the eviction
  driver: retention window, periodic collection, freshness tracking for
  the ``assume-fresh`` mode, and live stats;
* :func:`monitor_stream` / :func:`serve` (:mod:`.service`) — the
  stdin/socket ingestion loop with periodic stats lines, backing the
  ``repro monitor`` CLI command.
"""

from .core import (
    Monitor,
    MonitorConfig,
    MonitorReport,
    MonitorStaleReadError,
    MonitorStats,
)
from .service import monitor_stream, serve

__all__ = [
    "Monitor",
    "MonitorConfig",
    "MonitorReport",
    "MonitorStaleReadError",
    "MonitorStats",
    "monitor_stream",
    "serve",
]
