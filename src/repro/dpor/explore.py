"""The swapping-based SMC algorithms (paper Algorithms 1 and 2, §4–§6).

:class:`SwappingExplorer` implements the generic ``explore`` /
``exploreSwaps`` recursion, instantiated with

* the deterministic oracle-order ``Next`` and ``ValidWrites`` of §5.1,
* the ``ComputeReorderings``/``Swap`` of §5.2, and
* the ``Optimality`` restriction (``swapped`` + ``readLatest``) of §5.3,

which together are the algorithm the paper calls **explore-ce** — sound,
complete, strongly optimal and polynomial-space for any prefix-closed and
causally-extensible isolation level (Theorem 5.1).

Setting ``valid_level`` turns it into **explore-ce\\*(I0, I)** (§6): the
exploration runs under the weaker level ``I0`` and the ``Valid`` filter
keeps only ``I``-consistent histories at output time — the construction used
for Snapshot Isolation and Serializability, which admit no strongly optimal
swapping-based algorithm (Theorem 6.1).

The recursion is realised with an explicit LIFO work stack (the paper's
implementation is iterative too, §7.1); the peak stack size is the paper's
polynomial-memory bound and is reported in the statistics.

The per-node body of the recursion lives in :class:`StepEngine`: one
``explore``/``exploreSwaps`` call mapped to the continuations it pushes and
the histories it outputs, and :meth:`StepEngine.drain` is the one loop
that runs a work stack through it.  The engine holds only the run
*configuration* (program, levels, ablation switches) and no exploration
state, so the subtree rooted at any stack entry can be explored by
whoever holds the entry: :class:`SwappingExplorer` drains the whole tree
in-process with one worker, or fans it out over the worker pool of
:mod:`repro.dpor.parallel` with several, where each worker drains its
subtrees through the same loop.

All causality queries issued on behalf of the exploration — swap-candidate
filtering, doomed-event pruning, and the consistency checks behind
``ValidWrites`` — run against the per-history cached
:class:`~repro.core.bitrel.RelationMatrix` (``so ∪ wr`` with its closure
maintained incrementally), so the relation is constructed at most once per
explored history rather than once per query.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bitrel import RelationMatrix
from ..core.canonical import HistorySet
from ..core.events import EventId
from ..core.history import History
from ..core.ordered_history import OrderedHistory
from ..isolation.base import IsolationLevel
from ..isolation.saturation import IncrementalSaturation
from ..lang.program import Program
from ..semantics import executor
from ..semantics.scheduler import apply_action, next_action, valid_writes
from .optimality import optimality
from .stats import ExplorationStats
from .swaps import compute_reorderings, swap


@dataclass
class ExplorationResult:
    """Outcome of one SMC run."""

    program_name: str
    algorithm: str
    stats: ExplorationStats
    histories: Optional[HistorySet]
    #: For runs on the worker pool: per-worker-process statistics keyed by
    #: pid (the coordinator's seed-phase stats under key 0); ``None`` for
    #: in-process runs.
    worker_stats: Optional[Dict[int, ExplorationStats]] = None

    @property
    def distinct_histories(self) -> int:
        if self.histories is None:
            raise ValueError("run was configured with collect_histories=False")
        return len(self.histories)

    @property
    def is_optimal_run(self) -> bool:
        """No history class was output twice (the optimality property)."""
        return self.histories is not None and self.histories.duplicates == 0


_EXPLORE = 0
_SWAPS = 1

#: A work-stack entry: which of the two mutually recursive procedures to run
#: on the ordered history.
WorkItem = Tuple[int, OrderedHistory]


class StepEngine:
    """The per-node step of ``explore-ce``/``explore-ce*``, continuation style.

    ``step`` performs exactly one ``explore`` or ``exploreSwaps`` call and
    returns the continuations to push plus the histories output by that call
    (already past the ``Valid`` filter; rejected end states are counted in
    ``stats.filtered``).  Counters are accumulated into the caller-provided
    :class:`ExplorationStats`, which is the engine's only side channel — the
    engine itself is stateless w.r.t. the exploration, so disjoint subtrees
    can be stepped by different drivers (or different processes) and their
    results merged.
    """

    __slots__ = ("program", "level", "valid_level", "check_invariants", "restrict_swaps")

    def __init__(
        self,
        program: Program,
        level: IsolationLevel,
        valid_level: Optional[IsolationLevel] = None,
        check_invariants: bool = False,
        restrict_swaps: bool = True,
    ):
        self.program = program
        self.level = level
        self.valid_level = valid_level
        self.check_invariants = check_invariants
        #: Ablation switch: with False, the Optimality condition of §5.3 is
        #: replaced by a bare consistency check on the swapped history —
        #: still sound and complete, but histories are explored redundantly.
        self.restrict_swaps = restrict_swaps

    def initial_item(self) -> WorkItem:
        """The root of the exploration tree.

        The root history's hot-path caches are warmed here — its ``so ∪ wr``
        closure and the saturation state of each configured level — so that
        every node of the tree *derives* its caches from its parent's
        (sibling-shared saturation) instead of the first consistency check
        per node rebuilding them from scratch.
        """
        root = self.program.initial_history()
        root.causal_matrix()
        self.level.satisfies(root)
        if self.valid_level is not None:
            self.valid_level.satisfies(root)
        return (_EXPLORE, OrderedHistory.initial(root))

    def step(
        self, oh: OrderedHistory, kind: int, stats: ExplorationStats
    ) -> Tuple[List[WorkItem], List[History]]:
        """One ``explore``/``exploreSwaps`` call → (continuations, outputs).

        The per-node cost counters (saturation premise evaluations, closure
        word operations, executor instructions) are accumulated as deltas
        of the process-wide counters around the step body.
        """
        ticks0 = IncrementalSaturation.premise_evals
        words0 = RelationMatrix.word_ops
        instrs0 = executor.INSTRUCTIONS_EXECUTED
        if kind == _EXPLORE:
            result = self._explore(oh, stats)
        else:
            result = self._explore_swaps(oh, stats), []
        stats.saturation_ticks += IncrementalSaturation.premise_evals - ticks0
        stats.closure_word_ops += RelationMatrix.word_ops - words0
        stats.executor_instructions += executor.INSTRUCTIONS_EXECUTED - instrs0
        return result

    def drain(
        self,
        stack: List[WorkItem],
        stats: ExplorationStats,
        emit: Callable[[History], None],
        deadline: Optional[float] = None,
        poll_every: int = 32,
        slice_end: Optional[float] = None,
        max_steps: int = sys.maxsize,
    ) -> None:
        """Run a LIFO work stack depth-first, in place.

        The one drive loop of the exploration: it serves the in-process
        run, every pool worker's task and the pool-loss fallback.  It pops,
        steps, maintains the ``peak_stack``/``peak_live_events`` gauges, and
        hands every output history to ``emit``.

        * ``deadline`` (``time.monotonic``) is polled every ``poll_every``
          steps: 32 in-process, 1 in the pool, where nobody can interrupt
          a busy worker.  On expiry ``stats.timed_out`` is set and the
          stack is cleared.
        * A pool task's time slice ends the drain early, once
          ``time.perf_counter()`` passes ``slice_end`` or after
          ``max_steps`` steps; the stack then holds the unexplored
          remainder.
        """
        live_events = sum(item[1].history.event_count() for item in stack)
        ticks = 0
        while stack:
            ticks += 1
            if deadline is not None and ticks % poll_every == 0 and time.monotonic() > deadline:
                stats.timed_out = True
                stack.clear()
                return
            if ticks > max_steps or (slice_end is not None and time.perf_counter() > slice_end):
                return
            kind, oh = stack.pop()
            live_events -= oh.history.event_count()
            pushed, outputs = self.step(oh, kind, stats)
            stack.extend(reversed(pushed))
            live_events += sum(item[1].history.event_count() for item in pushed)
            if len(stack) > stats.peak_stack:
                stats.peak_stack = len(stack)
            if live_events > stats.peak_live_events:
                stats.peak_live_events = live_events
            for history in outputs:
                emit(history)

    # -- the two mutually recursive steps, in continuation form ----------------------

    def _explore(
        self, oh: OrderedHistory, stats: ExplorationStats
    ) -> Tuple[List[WorkItem], List[History]]:
        """One ``explore`` call; returns continuations and output histories."""
        stats.explore_calls += 1
        if self.check_invariants:
            oh.validate()
            if not self.level.satisfies(oh.history):
                raise AssertionError(
                    f"strong optimality violated: explore reached a non-{self.level.name} history"
                )
        action = next_action(self.program, oh.history)
        if action is None:
            output = self._output(oh.history, stats)
            return [], ([output] if output is not None else [])
        if action.is_external_read:
            choices = valid_writes(oh.history, action, self.level)
            stats.consistency_checks += max(len(choices), 1)
            if not choices:
                stats.blocked += 1
                return [], []
            eid = EventId(action.txn, len(oh.history.txns[action.txn].events))
            pushed: List[WorkItem] = []
            # Deterministic branch order: writers by position in <.
            choices.sort(key=lambda pair: oh.txn_position(pair[0]))
            for _writer, extended in choices:
                branch = oh.extended(extended, eid)
                pushed.append((_EXPLORE, branch))
                pushed.append((_SWAPS, branch))
            return pushed, []
        extended = apply_action(oh, action)
        return [(_EXPLORE, extended), (_SWAPS, extended)], []

    def _explore_swaps(self, oh: OrderedHistory, stats: ExplorationStats) -> List[WorkItem]:
        """One ``exploreSwaps`` call; returns the continuations to push."""
        pairs = compute_reorderings(oh)
        stats.swap_candidates += len(pairs)
        pushed: List[WorkItem] = []
        for read, target in pairs:
            if self.restrict_swaps:
                enabled, swapped_oh = optimality(self.program, oh, read, target, self.level)
            else:
                swapped_oh = swap(oh, read, target)
                enabled = self.level.satisfies(swapped_oh.history)
            stats.consistency_checks += 1
            if enabled:
                assert swapped_oh is not None
                stats.swaps_applied += 1
                pushed.append((_EXPLORE, swapped_oh))
        return pushed

    def _output(self, history: History, stats: ExplorationStats) -> Optional[History]:
        """Apply the ``Valid`` filter; return the history iff it is output."""
        stats.end_states += 1
        if self.valid_level is not None:
            stats.consistency_checks += 1
            if not self.valid_level.satisfies(history):
                stats.filtered += 1
                return None
        stats.outputs += 1
        return history


def validate_levels(level: IsolationLevel, valid_level: Optional[IsolationLevel]) -> None:
    """The level preconditions of Theorems 5.1/6.1.

    Prefix closure is also what lets ``readLatest`` skip the consistency
    check of a read's current source (:mod:`repro.dpor.optimality`).
    """
    if not (level.prefix_closed and level.causally_extensible):
        raise ValueError(
            f"exploration level {level.name} must be prefix-closed and causally "
            f"extensible; use it as valid_level on top of a weaker level instead"
        )
    if valid_level is not None and not level.is_weaker_than(valid_level):
        raise ValueError(f"{level.name} must be weaker than {valid_level.name}")


def resolve_workers(workers: int) -> int:
    """Normalize a ``workers`` request: ``0`` means one per CPU."""
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def algorithm_name(level: IsolationLevel, valid_level: Optional[IsolationLevel]) -> str:
    if valid_level is None:
        return f"explore-ce({level.name})"
    return f"explore-ce*({level.name}, {valid_level.name})"


class SwappingExplorer:
    """One configured run of the swapping-based exploration.

    Parameters
    ----------
    program:
        The bounded transactional program to check.
    level:
        The exploration isolation level ``I0``; must be prefix-closed and
        causally extensible for the correctness guarantees to hold.
    valid_level:
        Optional stronger level ``I`` applied as the output filter
        (``explore-ce*``); ``None`` means ``Valid ≡ true`` (plain
        ``explore-ce``).
    on_output:
        Callback invoked with every output history.
    collect_histories:
        Keep an in-memory :class:`HistorySet` of outputs (needed by the
        correctness tests; benchmark runs may disable it to count only).
    check_invariants:
        Re-validate the ordered-history invariants and the
        strong-optimality property at every call (slow; used in tests).
    workers:
        Process count; ``0`` means one per CPU.  With ``1`` (the default)
        the tree is drained in-process.  With ``N > 1`` it is spread over
        a pool of ``N`` worker processes (:mod:`repro.dpor.parallel`) with
        the same output histories and the same additive counters; where
        no pool can start, construction raises
        :class:`~repro.dpor.pool.PoolUnavailableError`.
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
        workers: int = 1,
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
        if self.workers > 1:
            # Fail fast: a multi-worker request on a platform with no usable
            # pool is a configuration error the caller must hear about now,
            # not a hang at fan-out time.  (The pool imports this module.)
            from .pool import available_start_method

            available_start_method(self.engine)
        #: The most recent :meth:`run`'s counters and output histories.
        self.stats = ExplorationStats()
        self.histories: Optional[HistorySet] = HistorySet() if collect_histories else None
        #: The pool of the most recent multi-worker :meth:`run` (telemetry:
        #: start method, tasks dispatched, crashes, respawns); ``None``
        #: before it and with one worker.  When the seed probe finishes the
        #: tree itself the pool exists but never started.
        self.pool = None

    @property
    def algorithm_name(self) -> str:
        return algorithm_name(self.level, self.valid_level)

    # -- driver -------------------------------------------------------------

    def run(self) -> ExplorationResult:
        """Execute the exploration to completion (or timeout).

        Every run starts from fresh stats and a fresh history set, so
        running twice reports the same twice at any worker count and leaves
        the first result as it was.
        """
        start = time.monotonic()
        deadline = start + self.timeout if self.timeout else None
        self.stats = ExplorationStats()
        self.histories = HistorySet() if self.collect_histories else None
        worker_stats = None
        if self.workers == 1:
            self.engine.drain(
                [self.engine.initial_item()], self.stats, self._emit, deadline=deadline
            )
        else:
            from .parallel import explore_on_pool  # the pool imports this module

            worker_stats = explore_on_pool(self, deadline)
            self.stats = sum(worker_stats.values(), ExplorationStats())
        self.stats.seconds = time.monotonic() - start
        return ExplorationResult(
            self.program.name, self.algorithm_name, self.stats, self.histories, worker_stats
        )

    def _emit(self, history: History) -> None:
        if self.histories is not None:
            self.histories.add(history)
        if self.on_output is not None:
            self.on_output(history)
