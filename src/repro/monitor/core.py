"""The streaming monitor: a GC'd :class:`OnlineChecker` plus its eviction driver.

:class:`Monitor` decides **one** isolation level over an unbounded event
stream with bounded memory.  Per event it feeds the checker; every
``gc_every`` events it *collects*: prune the quantifier state of settled
readers (:meth:`OnlineChecker.prune_settled`), then — only while the
verdict is still consistent, so a closed violation cycle is never
compacted away — evict every transaction the level's liveness predicate
(:func:`repro.isolation.liveness.evictable_transactions`) clears, minus a
retention window of the ``window`` most recently completed transactions
(cheap insurance against borderline races; correctness never depends on
it in ``keep`` mode).

Two retention modes:

* ``keep`` (default) — *exact*: committed writers are retained while
  their variable's reads may still quantify over them, so every prefix
  verdict and the first-violation event equal the unbounded checker's.
  Live state is bounded on streams whose variables keep being overwritten
  (dead writers settle and go), but a variable written once and read
  forever pins its writer.
* ``assume-fresh`` — *bounded unconditionally*, for levels whose
  :class:`~repro.isolation.registry.LevelSpec` declares the ``fresh``
  eviction rule (RC): committed writers outside the freshness window (the
  last ``window`` committed writers per variable) are evicted too, under
  the assumption that no future read names them.  A read that breaks the
  assumption raises :class:`MonitorStaleReadError` — fail-stop, never a
  silent wrong verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional, Set, Tuple

from ..checking.online import OnlineChecker, OnlineStep
from ..core.events import TxnId
from ..isolation.base import get_level
from ..isolation.liveness import evictable_transactions
from ..isolation.registry import level_spec, level_specs
from ..trace.format import EvictedTransactionError, TraceEvent, TraceHeader

#: Retention modes (see module docstring).
MODES: Tuple[str, ...] = ("keep", "assume-fresh")


class MonitorStaleReadError(RuntimeError):
    """A read named a writer the ``assume-fresh`` mode already evicted.

    The stream's actual staleness exceeds the monitor's ``window``: either
    raise the window or run in ``keep`` mode.  The monitor fails stop —
    the verdict so far is still exact, but the stream cannot be continued.
    """


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning knobs for a :class:`Monitor`.

    ``isolation`` — the single level to decide (any registered name —
    the classical five, the session guarantees, PSI, PC or BS-3; see
    ``repro levels``);
    ``window`` — completed transactions shielded from eviction, and (in
    ``assume-fresh`` mode) the per-variable freshness horizon;
    ``gc_every`` — events between collections (1 = collect per event,
    maximally tight memory, maximal GC overhead);
    ``evict_batch`` — victims accumulated before the matrices are
    physically compacted: compaction cost is O(live²) regardless of how
    many nodes leave, so batching divides the amortised cost at the price
    of a proportionally higher live-window ceiling (1 = compact whenever
    anything is evictable, tightest memory);
    ``mode`` — ``keep`` (exact) or ``assume-fresh`` (bounded, fail-stop).
    """

    isolation: str = "RC"
    window: int = 64
    gc_every: int = 128
    evict_batch: int = 16
    mode: str = "keep"

    def __post_init__(self) -> None:
        try:
            canonical = get_level(self.isolation).name
        except KeyError as err:
            raise ValueError(err.args[0]) from None
        object.__setattr__(self, "isolation", canonical)
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.gc_every < 1:
            raise ValueError(f"gc_every must be >= 1, got {self.gc_every}")
        if self.evict_batch < 1:
            raise ValueError(f"evict_batch must be >= 1, got {self.evict_batch}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "assume-fresh" and level_spec(self.isolation).eviction != "fresh":
            fresh = sorted(s.name for s in level_specs() if s.eviction == "fresh")
            raise ValueError(
                f"assume-fresh eviction is only exact-under-assumption at "
                f"{fresh} (static premises); "
                f"{self.isolation} premises can fire through an evicted "
                f"writer's session — use mode='keep'"
            )


@dataclass(frozen=True)
class MonitorStats:
    """A point-in-time counters snapshot (one per stats interval)."""

    events: int
    live: int
    evicted: int
    pruned: int
    collections: int
    pending: int
    violated: bool


@dataclass(frozen=True)
class MonitorReport:
    """The end-of-stream summary the CLI consumes; ``first_violation`` is
    set only when the stream ends violated."""

    config: MonitorConfig
    ok: bool
    stats: MonitorStats
    first_violation: Optional[OnlineStep] = None
    peak_live: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


class Monitor:
    """Bounded-memory streaming decision of one isolation level.

    Feed :class:`~repro.trace.format.TraceEvent` objects via :meth:`feed`
    (or a whole iterable via :meth:`run`); read :attr:`ok`,
    :meth:`stats` and :meth:`report` at any point.  Equivalence with the
    unbounded checker on every prefix is property-tested in
    ``tests/test_monitor_gc.py``.
    """

    def __init__(self, header: TraceHeader, config: MonitorConfig = MonitorConfig()):
        self.config = config
        self.checker = OnlineChecker(
            header.variables,
            initial=header.initial,
            levels=(config.isolation,),
            record_steps=False,
        )
        #: The most recently completed transactions, shielded from eviction.
        self._recent: Deque[TxnId] = deque(maxlen=config.window)
        #: assume-fresh only: per variable, the last ``window`` committed
        #: writers — the transactions a well-behaved stream may still name
        #: as a read source.  Everything older is fair game.
        self._fresh: Optional[Dict[str, Deque[TxnId]]] = (
            {var: deque(maxlen=config.window) for var in header.variables}
            if config.mode == "assume-fresh"
            else None
        )
        self._since_gc = 0
        self._pruned = 0
        self._collections = 0
        self._peak_live = 0

    # -- ingestion --------------------------------------------------------------

    def feed(self, event: TraceEvent) -> OnlineStep:
        """Ingest one event; returns the checker's step for it."""
        try:
            step = self.checker.feed(event)
        except EvictedTransactionError as err:
            # Only assume-fresh eviction can drop a writer that a
            # well-formed stream still names; in keep mode the event itself
            # is at fault, and the trace error says so.
            if self._fresh is None:
                raise
            raise MonitorStaleReadError(
                f"stream staleness exceeds the assume-fresh window "
                f"(window={self.config.window}): {err}"
            ) from err
        if event.op in ("commit", "abort"):
            self._recent.append(event.tid)
            if self._fresh is not None and event.op == "commit":
                for var in self.checker.replayer.visible_writes(event.tid):
                    self._fresh[var].append(event.tid)
        self._since_gc += 1
        if self._since_gc >= self.config.gc_every:
            self.collect()
        live = self.checker.live_transaction_count
        if live > self._peak_live:
            self._peak_live = live
        return step

    def run(self, events: Iterable[TraceEvent]) -> MonitorReport:
        """Feed every event, then return the final :meth:`report`."""
        for event in events:
            self.feed(event)
        return self.report()

    # -- garbage collection ------------------------------------------------------

    def collect(self) -> int:
        """One collection: prune settled quantifier state, evict dead
        transactions.  Returns the number of transactions evicted.

        Eviction is skipped while the level is violated: compacting nodes
        of a closed cycle out of the maintained closure could erase the
        violation.  A violation need not be final — a writer's abort can
        retract the cycle — so eviction resumes once the verdict flips
        back.
        """
        self._since_gc = 0
        self._collections += 1
        self._pruned += self.checker.prune_settled()
        if not self.ok:
            return 0
        fresh: Optional[Set[TxnId]] = None
        if self._fresh is not None:
            fresh = set()
            for writers in self._fresh.values():
                fresh.update(writers)
        victims = evictable_transactions(
            self.checker,
            self.config.isolation,
            protect=self._recent,
            fresh_writers=fresh,
        )
        if len(victims) < self.config.evict_batch:
            return 0
        return self.checker.evict(victims)

    # -- results ----------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """Whether the level holds on the stream so far: the checker's
        current verdict, which a writer's abort can flip back to ``True``."""
        return self.checker.verdicts[self.config.isolation]

    def stats(self) -> MonitorStats:
        return MonitorStats(
            events=self.checker.replayer.event_count,
            live=self.checker.live_transaction_count,
            evicted=self.checker.evicted_count,
            pruned=self._pruned,
            collections=self._collections,
            pending=len(self.checker.pending_transactions()),
            violated=not self.ok,
        )

    @property
    def peak_live(self) -> int:
        """The largest live-transaction window seen so far."""
        return self._peak_live

    def first_violation(self) -> Optional[OnlineStep]:
        """The step that first violated the level, if any (exact: the
        checker records newly-violating steps even with recording off)."""
        return self.checker.first_violation(self.config.isolation)

    def report(self) -> MonitorReport:
        return MonitorReport(
            config=self.config,
            ok=self.ok,
            stats=self.stats(),
            first_violation=None if self.ok else self.first_violation(),
            peak_live=self._peak_live,
        )
