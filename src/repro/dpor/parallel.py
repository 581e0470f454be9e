"""Multiprocess work-sharing driver for the swapping-based exploration.

The ``explore``/``exploreSwaps`` recursion decomposes perfectly: every
continuation pushed by a step roots a *disjoint* subtree of the history
space, and subtrees communicate nothing — only output histories and
statistics flow back.  :class:`ParallelExplorer` exploits this to spread
one exploration over the **persistent worker pool** of
:mod:`repro.dpor.pool` while producing exactly the same set of canonical
output histories and the same counter totals as the sequential
:class:`~repro.dpor.explore.SwappingExplorer`:

1. **Seeding.**  The coordinator expands the tree breadth-first (using the
   same :class:`~repro.dpor.explore.StepEngine` as the serial driver) until
   the frontier holds :data:`SEED_FACTOR` work items per worker — shallow
   nodes rooting the largest subtrees.  Seeding doubles as the tiny-tree
   probe (:data:`MIN_FORK_STEPS`): explorations that die out inside the
   probe finish serially and never pay pool startup.

2. **Fan-out over the persistent pool.**  Workers are spawned once per
   ``run()`` and fed one seed per task frame over the length-prefixed
   frames of :mod:`repro.core.wire`.  A worker explores its seed
   depth-first for one time slice and returns its outputs, statistics and
   unfinished stack in one ``DONE`` frame; the remainder rebalances across
   the pool as new seeds.  Workers that crash mid-task are recovered: their
   seed is re-queued and nothing they did is committed, so the equivalence
   guarantees survive ``kill -9``.

3. **Deterministic merging.**  Outputs are deduplicated into one
   :class:`~repro.core.canonical.HistorySet` keyed by canonical history
   keys (subtrees are disjoint, so an optimal exploration stays optimal —
   no class is ever shipped twice), and per-worker
   :class:`~repro.dpor.stats.ExplorationStats` are committed atomically at
   each task's ``DONE`` and summed with
   :meth:`~repro.dpor.stats.ExplorationStats.merge`.  Because every node of
   the recursion tree is stepped exactly once by *somebody*, all additive
   counters (``outputs``, ``filtered``, ``blocked``, ``explore_calls``, …)
   equal the serial run's; only scheduling-dependent gauges
   (``peak_stack``, ``peak_live_events``, ``seconds``) differ.  The
   arrival *order* of outputs is nondeterministic — consumers needing a
   canonical order should sort by
   :meth:`~repro.core.history.History.canonical_key`.

Timeouts are propagated: each task receives the time remaining at dispatch
and its worker checks the deadline on **every** tick (the serial driver
polls every 32), so a parallel run overshoots ``timeout`` by at most one
step per worker; the merged stats report ``timed_out`` if any participant
expired.

The pool prefers the ``fork`` start method (workers inherit the program
and engine by memory — programs may close over lambdas, which do not
pickle) but is spawn-safe: on fork-less platforms the engine is pickled
once at pool start.  Where neither works, requesting ``workers > 1``
raises :class:`~repro.dpor.pool.PoolUnavailableError` **at construction**
— a parallel request never hangs and never silently serialises; the
documented fallback is ``workers=1``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..core.canonical import HistorySet
from ..core.history import History
from ..isolation.base import IsolationLevel
from ..lang.program import Program
from .explore import (
    ExplorationResult,
    StepEngine,
    WorkItem,
    algorithm_name,
    validate_levels,
)
from .pool import PersistentPool, PoolUnavailableError, available_start_method
from .stats import ExplorationStats

__all__ = [
    "ParallelExplorer",
    "PoolUnavailableError",
    "resolve_workers",
]

#: Seed the frontier with about this many work items per worker before
#: fanning out.
SEED_FACTOR = 4

#: Steps the coordinator explores itself before committing to the pool.
#: Small programs' whole trees die out within the probe, so they finish
#: serially instead of paying pool startup plus a wire-encoded ``History``
#: per near-leaf seed.  ``0`` fans out eagerly.
MIN_FORK_STEPS = 128


def resolve_workers(workers: int) -> int:
    """Normalize a ``workers`` request: ``0`` means one per CPU."""
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


class ParallelExplorer:
    """One configured multiprocess run of the swapping-based exploration.

    Accepts the same configuration as
    :class:`~repro.dpor.explore.SwappingExplorer` plus:

    Parameters
    ----------
    workers:
        Worker process count; ``0`` means ``os.cpu_count()``.  With ``1``
        no pool is created and the coordinator explores everything itself
        — same results, one process.  With ``N > 1`` on a platform where
        no pool can start, construction raises
        :class:`~repro.dpor.pool.PoolUnavailableError` (fail fast — never
        hang, never silently serialise).
    """

    def __init__(
        self,
        program: Program,
        level: IsolationLevel,
        valid_level: Optional[IsolationLevel] = None,
        on_output: Optional[Callable[[History], None]] = None,
        collect_histories: bool = True,
        check_invariants: bool = False,
        timeout: Optional[float] = None,
        restrict_swaps: bool = True,
        workers: int = 0,
        _chaos_kill_after: Optional[int] = None,
    ):
        validate_levels(level, valid_level)
        self.program = program
        self.level = level
        self.valid_level = valid_level
        self.on_output = on_output
        self.collect_histories = collect_histories
        self.check_invariants = check_invariants
        self.timeout = timeout
        self.restrict_swaps = restrict_swaps
        self.workers = resolve_workers(workers)
        self._chaos_kill_after = _chaos_kill_after
        self.engine = StepEngine(
            program,
            level,
            valid_level=valid_level,
            check_invariants=check_invariants,
            restrict_swaps=restrict_swaps,
        )
        # Fail fast: a multi-worker request on a platform with no usable
        # pool is a configuration error the caller must hear about now,
        # not a hang (or a silent serial run) at fan-out time.
        if self.workers > 1:
            available_start_method(self.engine)
        self.stats = ExplorationStats()
        self.histories: Optional[HistorySet] = HistorySet() if collect_histories else None
        #: Per-participant stats: key 0 is the coordinator's seed phase,
        #: other keys are worker process ids.
        self.worker_stats: Dict[int, ExplorationStats] = {}
        #: The pool of the most recent :meth:`run` (telemetry: start
        #: method, tasks dispatched, crashes, respawns); ``None`` before
        #: the first run or with ``workers=1``.  When the seed-phase probe
        #: finishes the tree serially the pool exists but never started
        #: (``tasks_dispatched == 0``).
        self.pool: Optional[PersistentPool] = None

    @property
    def algorithm_name(self) -> str:
        return algorithm_name(self.level, self.valid_level)

    # -- driver -------------------------------------------------------------

    def run(self) -> ExplorationResult:
        """Execute the exploration to completion (or timeout)."""
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout else None
        seed_stats = ExplorationStats()
        self.worker_stats = {0: seed_stats}
        pool = self._make_pool() if self.workers > 1 else None
        try:
            frontier = self._seed(seed_stats, deadline, pool)
            if frontier and not seed_stats.timed_out:
                if pool is not None:
                    self._fan_out(pool, frontier, deadline, seed_stats)
                else:
                    self._drain_serially(frontier, seed_stats, deadline)
        finally:
            if pool is not None:
                pool.shutdown()
        merged = ExplorationStats()
        for stats in self.worker_stats.values():
            merged = merged.merge(stats)
        merged.seconds = time.monotonic() - start
        self.stats = merged
        return ExplorationResult(
            self.program.name,
            self.algorithm_name,
            merged,
            self.histories,
            worker_stats=dict(self.worker_stats),
        )

    # -- phases -------------------------------------------------------------

    def _seed(
        self,
        stats: ExplorationStats,
        deadline: Optional[float],
        pool: Optional[PersistentPool] = None,
    ) -> Deque[WorkItem]:
        """Breadth-first prefix expansion until the frontier can feed the pool.

        Doubles as the tiny-tree probe: with a pool configured, expansion
        continues for at least :data:`MIN_FORK_STEPS` steps even once the
        frontier is wide enough.  An exploration whose tree dies out inside
        the probe was measurably too small to amortise pool startup and
        per-seed ``History`` re-encoding; it completes right here and the
        pool never starts.  Trees that outlive half the probe have all but
        proven they will fan out, so the pool is started *there* — worker
        processes boot while the coordinator is still seeding, hiding pool
        startup behind exploration the coordinator must do anyway.
        """
        target = max(self.workers * SEED_FACTOR, 1)
        probe = MIN_FORK_STEPS if self.workers > 1 else 0
        start_at = max(probe // 2, 1) if pool is not None else None
        steps = 0
        frontier: Deque[WorkItem] = deque([self.engine.initial_item()])
        live_events = frontier[0][1].history.event_count()
        while frontier and (len(frontier) < target or steps < probe):
            if deadline is not None and time.monotonic() > deadline:
                stats.timed_out = True
                frontier.clear()
                break
            steps += 1
            if steps == start_at:
                pool.start()
            kind, oh = frontier.popleft()
            live_events -= oh.history.event_count()
            pushed, outputs = self.engine.step(oh, kind, stats)
            frontier.extend(pushed)
            live_events += sum(item[1].history.event_count() for item in pushed)
            if len(frontier) > stats.peak_stack:
                stats.peak_stack = len(frontier)
            if live_events > stats.peak_live_events:
                stats.peak_live_events = live_events
            for history in outputs:
                self._emit(history)
        return frontier

    def _make_pool(self) -> PersistentPool:
        pool = PersistentPool(
            self.engine, self.workers, chaos_exit_after=self._chaos_kill_after
        )
        self.pool = pool
        return pool

    def _fan_out(
        self,
        pool: PersistentPool,
        frontier: Deque[WorkItem],
        deadline: Optional[float],
        seed_stats: ExplorationStats,
    ) -> None:
        """Distribute frontier subtrees over the persistent worker pool."""
        ship_outputs = self.collect_histories or self.on_output is not None
        timed_out = pool.explore(
            list(frontier),
            deadline,
            ship_outputs,
            self._emit,
            self.worker_stats,
            seed_stats,
        )
        if timed_out:
            seed_stats.timed_out = True

    def _drain_serially(
        self,
        frontier: Deque[WorkItem],
        stats: ExplorationStats,
        deadline: Optional[float],
    ) -> None:
        """``workers=1``: finish the exploration on the coordinator."""
        self.engine.drain(
            list(frontier), stats, self._emit, deadline=deadline, poll_every=1
        )

    def _emit(self, history: History) -> None:
        if self.histories is not None:
            self.histories.add(history)
        if self.on_output is not None:
            self.on_output(history)
