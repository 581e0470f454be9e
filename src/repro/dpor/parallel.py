"""The multi-worker fan-out of :class:`~repro.dpor.explore.SwappingExplorer`.

The ``explore``/``exploreSwaps`` recursion decomposes perfectly: every
continuation pushed by a step roots a *disjoint* subtree of the history
space, and subtrees communicate nothing — only output histories and
statistics flow back.  A :class:`~repro.dpor.explore.SwappingExplorer`
built with ``workers > 1`` runs :func:`explore_on_pool`, which spreads the
exploration over the **persistent worker pool** of :mod:`repro.dpor.pool`
and produces exactly the same set of canonical output histories and the
same counter totals as the in-process drain:

1. **Seeding.**  The coordinator expands the tree breadth-first (with the
   same :class:`~repro.dpor.explore.StepEngine` the workers use) until the
   frontier holds :data:`SEED_FACTOR` work items per worker — shallow
   nodes rooting the largest subtrees.  Seeding doubles as the tiny-tree
   probe (:data:`MIN_FORK_STEPS`): explorations that die out inside the
   probe finish on the coordinator and never pay pool startup.

2. **Fan-out over the persistent pool.**  Workers are spawned once per
   ``run()`` and fed one seed per task frame over the length-prefixed
   frames of :mod:`repro.core.wire`.  A worker drains its seed through
   :meth:`~repro.dpor.explore.StepEngine.drain` for one time slice and
   returns its outputs, statistics and unfinished stack in one ``DONE``
   frame; the remainder rebalances across the pool as new seeds.  Workers
   that crash mid-task are recovered: their seed is re-queued and nothing
   they did is committed, so the equivalence guarantees survive
   ``kill -9``.  An exception raised by a task (a body error in the
   program, say) reaches the caller once, from the coordinator.

3. **Deterministic merging.**  Outputs are deduplicated into one
   :class:`~repro.core.canonical.HistorySet` keyed by canonical history
   keys (subtrees are disjoint, so an optimal exploration stays optimal —
   no class is ever shipped twice), and per-worker
   :class:`~repro.dpor.stats.ExplorationStats` are committed atomically at
   each task's ``DONE`` and summed with
   :meth:`~repro.dpor.stats.ExplorationStats.merge`.  Because every node of
   the recursion tree is stepped exactly once by *somebody*, all additive
   counters (``outputs``, ``filtered``, ``blocked``, ``explore_calls``, …)
   equal the in-process run's; only scheduling-dependent gauges
   (``peak_stack``, ``peak_live_events``, ``seconds``) differ.  The
   arrival *order* of outputs is nondeterministic — consumers needing a
   canonical order should sort by
   :meth:`~repro.core.history.History.canonical_key`.

Timeouts are propagated: each task receives the time remaining at dispatch
and its worker checks the deadline on **every** step (the in-process drain
polls every 32), so a pool run overshoots ``timeout`` by at most one step
per worker; the merged stats report ``timed_out`` if any participant
expired.

The pool prefers the ``fork`` start method (workers inherit the program
and engine by memory — programs may close over lambdas, which do not
pickle) but is spawn-safe: on fork-less platforms the engine is pickled
once at pool start.  Where neither works, requesting ``workers > 1``
raises :class:`~repro.dpor.pool.PoolUnavailableError` **at construction**
of the explorer — a parallel request never hangs and never silently
serialises; the documented fallback is ``workers=1``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional

from ..core.history import History
from .explore import StepEngine, WorkItem
from .pool import PersistentPool
from .stats import ExplorationStats

if TYPE_CHECKING:
    from .explore import SwappingExplorer

#: Seed the frontier with about this many work items per worker before
#: fanning out.
SEED_FACTOR = 4

#: Steps the coordinator explores itself before committing to the pool.
#: Small programs' whole trees die out within the probe, so they finish
#: on the coordinator instead of paying pool startup plus a wire-encoded
#: ``History`` per near-leaf seed.  ``0`` fans out eagerly.
MIN_FORK_STEPS = 128


def explore_on_pool(
    explorer: "SwappingExplorer", deadline: Optional[float]
) -> Dict[int, ExplorationStats]:
    """Run ``explorer``'s exploration on a pool of its ``workers`` processes.

    Returns the per-participant statistics: key 0 is the coordinator's
    seed phase (and any remainder it drained after losing the whole
    pool), the other keys are worker pids.  The pool is left on
    ``explorer.pool`` for telemetry, also when an exception propagates.
    """
    seed_stats = ExplorationStats()
    worker_stats = {0: seed_stats}
    pool = explorer.pool = PersistentPool(
        explorer.engine, explorer.workers, chaos_exit_after=explorer._chaos_kill_after
    )
    try:
        frontier = _seed(explorer.engine, explorer.workers, seed_stats, deadline, pool, explorer._emit)
        if frontier and not seed_stats.timed_out:
            ship_outputs = explorer.collect_histories or explorer.on_output is not None
            if pool.explore(
                list(frontier), deadline, ship_outputs, explorer._emit, worker_stats, seed_stats
            ):
                seed_stats.timed_out = True
    finally:
        pool.shutdown()
    return worker_stats


def _seed(
    engine: StepEngine,
    workers: int,
    stats: ExplorationStats,
    deadline: Optional[float],
    pool: PersistentPool,
    emit: Callable[[History], None],
) -> Deque[WorkItem]:
    """Breadth-first prefix expansion until the frontier can feed the pool.

    Doubles as the tiny-tree probe: expansion continues for at least
    :data:`MIN_FORK_STEPS` steps even once the frontier is wide enough.
    An exploration whose tree dies out inside the probe was measurably too
    small to amortise pool startup and per-seed ``History`` re-encoding;
    it completes right here and the pool never starts.  Trees that
    outlive half the probe have all but proven they will fan out, so the
    pool is started *there* — worker processes boot while the coordinator
    is still seeding, hiding pool startup behind exploration the
    coordinator must do anyway.
    """
    target = workers * SEED_FACTOR
    start_at = max(MIN_FORK_STEPS // 2, 1)
    steps = 0
    frontier: Deque[WorkItem] = deque([engine.initial_item()])
    live_events = frontier[0][1].history.event_count()
    while frontier and (len(frontier) < target or steps < MIN_FORK_STEPS):
        if deadline is not None and time.monotonic() > deadline:
            stats.timed_out = True
            frontier.clear()
            break
        steps += 1
        if steps == start_at:
            pool.start()
        kind, oh = frontier.popleft()
        live_events -= oh.history.event_count()
        pushed, outputs = engine.step(oh, kind, stats)
        frontier.extend(pushed)
        live_events += sum(item[1].history.event_count() for item in pushed)
        if len(frontier) > stats.peak_stack:
            stats.peak_stack = len(frontier)
        if live_events > stats.peak_live_events:
            stats.peak_live_events = live_events
        for history in outputs:
            emit(history)
    return frontier
