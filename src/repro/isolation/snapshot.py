"""Snapshot Isolation and Prefix Consistency via interval semantics.

A history satisfies SI (the Prefix ∧ Conflict axioms of Fig. 2(b,c)) iff its
transactions can be assigned start and commit points on a single timeline
such that

* a transaction starts only after all its ``so ∪ wr`` predecessors have
  committed (session guarantees / co extends so ∪ wr);
* every external read of ``x`` reads from the **last writer of x committed
  before the reader's start** (the snapshot; this captures Prefix);
* two transactions that both write some variable have **disjoint**
  start–commit intervals (the first-committer-wins rule; this captures
  Conflict).

This is the classical timestamp characterisation of (strong session) SI
[Berenson et al. 1995; Cerone & Gotsman, J.ACM 2018], and is cross-validated
against the brute-force axiomatic checker in the tests.

**Prefix Consistency** (PC) is exactly SI minus Conflict — each transaction
still reads a prefix-closed snapshot of the commit order, but conflicting
writers may overlap (lost updates return; the long fork stays forbidden).
Dropping the first-committer-wins rule from the same search decides it:
soundness in both directions follows because the commit points of any
interval assignment form a witnessing ``co`` for Prefix, and conversely a
``co`` satisfying Prefix yields an assignment by starting each transaction
just after its latest ``co*∘(wr ∪ so)`` predecessor commits.

The search interleaves start/commit actions and memoizes failing states on
``(started, committed, last-writer map)`` — polynomial for a fixed number of
sessions by the same frontier argument as the SER checker.

Like the SER checker, the search is a function of one dense input
(:class:`~repro.isolation.summaries.DenseSummaries`) whose ``ancestors``
are the ``so ∪ wr`` closure: ``started`` and ``committed`` are int
bitmasks, start-eligibility is one word-parallel ``ancestors[t] &
~committed`` test, and first-committer-wins is a write-footprint bitmask
intersection over the active set.  No per-check adjacency or predecessor
map is rebuilt.

The search is iterative (:func:`~repro.isolation.search.first_path`), and
the path it took is its witness: a start/commit schedule, in which each
transaction appears twice, first where it starts and then where it
commits.  :func:`schedule_commit_order` reads the commit order off it.
:func:`place_si` and :func:`place_pc` re-run the search's step conditions
along a given schedule, in one pass, and return it as a
:class:`SchedulePlacement`, which the online checker keeps and re-checks
each event against at the event's own transaction.  When that fails, the
placement names how much of the schedule the event left intact, and the
search repairs the schedule from that prefix before it searches from
``init``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.bitrel import iter_bits
from ..core.events import TxnId
from ..core.history import History
from .base import get_level
from .registry import level_spec, search_history
from .search import repaired_path
from .summaries import DenseSummaries


def satisfies_si(history: History) -> bool:
    """Whether ``history`` satisfies Snapshot Isolation: the registered
    ``SI`` level.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure seed it via ``History.adopt_causal_matrix`` so
    no from-scratch build happens here.
    """
    return get_level("SI").satisfies(history)


def satisfies_pc(history: History) -> bool:
    """Whether ``history`` satisfies Prefix Consistency (SI minus Conflict):
    the registered ``PC`` level."""
    return get_level("PC").satisfies(history)


def si_witness(history: History) -> Optional[Tuple[TxnId, ...]]:
    """A start/commit schedule witnessing SI on ``history``, or None.

    Each transaction appears twice: first where it starts, then where it
    commits; ``init`` starts and commits first.  Its commit order
    (:func:`schedule_commit_order`) extends ``so ∪ wr`` and passes the SI
    axioms (``axioms.axioms_hold``).
    """
    return search_history(history, level_spec("SI"))


def pc_witness(history: History) -> Optional[Tuple[TxnId, ...]]:
    """A start/commit schedule witnessing PC on ``history``, or None.

    Shaped as :func:`si_witness`'s; writers of a common variable may overlap.
    """
    return search_history(history, level_spec("PC"))


def schedule_commit_order(schedule: Sequence[TxnId]) -> Tuple[TxnId, ...]:
    """The commit order of a start/commit schedule: second occurrences."""
    started = set()
    order = []
    for tid in schedule:
        if tid in started:
            order.append(tid)
        else:
            started.add(tid)
    return tuple(order)


def si_search(summaries: DenseSummaries, prefix: Sequence[int] = ()) -> Optional[List[int]]:
    """The SI search's schedule in row indices of ``summaries``, or None
    when no schedule passes.

    ``prefix``, the intact head of an old schedule, is tried first
    (:func:`~repro.isolation.search.repaired_path`); the verdict does not
    depend on it.
    """
    return _interval_search(summaries, prefix, first_committer_wins=True)


def pc_search(summaries: DenseSummaries, prefix: Sequence[int] = ()) -> Optional[List[int]]:
    """The PC search's schedule in row indices, or None (see
    :func:`si_search`)."""
    return _interval_search(summaries, prefix, first_committer_wins=False)


def _interval_search(
    summaries: DenseSummaries, prefix: Sequence[int], first_committer_wins: bool
) -> Optional[List[int]]:
    ancestors, reads_of, writes_of, write_mask, num_vars = summaries
    n = len(ancestors)
    full = (1 << n) - 1

    def step(state, i):
        started, committed, last_writer = state
        bit = 1 << i
        if started & bit:
            if committed & bit:
                return None
            # Commit an active transaction.
            if writes_of[i]:
                updated = list(last_writer)
                for var in writes_of[i]:
                    updated[var] = i
                last_writer = tuple(updated)
            return started, committed | bit, last_writer
        # Start a transaction whose causal predecessors have committed.
        if ancestors[i] & ~committed:
            return None
        # Snapshot reads: every external read sees the snapshot at start.
        for var, src in reads_of[i]:
            if last_writer[var] != src:
                return None
        # First-committer-wins: no overlapping writer of a common variable
        # (SI only; PC lets conflicting writers overlap).
        if first_committer_wins and write_mask[i]:
            for other in iter_bits(started & ~committed):
                if write_mask[other] & write_mask[i]:
                    return None
        return started | bit, committed, last_writer

    def actions(state):
        started, committed, _last_writer = state
        # Commits of the active transactions first, then starts.
        for i in iter_bits(started & ~committed):
            yield i, step(state, i)
        for i in range(n):
            if not started >> i & 1:
                child = step(state, i)
                if child is not None:
                    yield i, child

    # init, the only candidate at the root, starts and commits first.
    root = (0, 0, (-1,) * num_vars)
    return repaired_path(prefix, root, step, actions, lambda state: state[1] == full)


def place_si(schedule: Sequence[int], summaries: DenseSummaries) -> Optional["SchedulePlacement"]:
    """The placement of ``schedule``, if the SI search's step conditions
    hold along it; None otherwise.

    ``schedule`` lists row indices of ``summaries``, each row twice: its
    first occurrence starts the transaction and its second commits it.
    The rows it leaves out must be the last ones (transactions begun after
    the schedule was found); each of them starts and commits after it, in
    row order.  A start needs the transaction's ``so ∪ wr`` ancestors
    committed, every external read's source the last writer of the
    variable committed so far, and no active transaction writing a
    variable the starting one writes.  Every row must start and commit
    exactly once.  One pass: O(transactions + reads).
    """
    return _place_schedule(schedule, summaries, first_committer_wins=True)


def place_pc(schedule: Sequence[int], summaries: DenseSummaries) -> Optional["SchedulePlacement"]:
    """:func:`place_si` without first-committer-wins: the PC search's step
    conditions along ``schedule``."""
    return _place_schedule(schedule, summaries, first_committer_wins=False)


def _place_schedule(
    schedule: Sequence[int], summaries: DenseSummaries, first_committer_wins: bool
) -> Optional["SchedulePlacement"]:
    """The interval search's step conditions along ``schedule``."""
    ancestors, reads_of, writes_of, write_mask, num_vars = summaries
    n = len(ancestors)
    later = range(len(schedule) // 2, n)
    schedule = list(chain(schedule, (i for i in later for _twice in (0, 1))))
    start = [0] * n
    commit = [0] * n
    writers: List[List[int]] = [[] for _ in range(num_vars)]
    readers: List[Dict[int, int]] = [{} for _ in range(num_vars)]
    last_writer = [-1] * num_vars
    started = committed = active_writes = 0
    for at, i in enumerate(schedule):
        bit = 1 << i
        if not started & bit:
            if ancestors[i] & ~committed:
                return None
            for var, src in reads_of[i]:
                if last_writer[var] != src:
                    return None
                readers[var][commit[src]] = at
            if first_committer_wins:
                if write_mask[i] & active_writes:
                    return None
                # Active writers are pairwise disjoint, so a commit can
                # clear its own bits from the union.
                active_writes |= write_mask[i]
            start[i] = at
            started |= bit
        elif not committed & bit:
            for var in writes_of[i]:
                last_writer[var] = i
                writers[var].append(at)
            active_writes &= ~write_mask[i]
            commit[i] = at
            committed |= bit
        else:
            return None
    if committed != (1 << n) - 1:
        return None
    return SchedulePlacement(schedule, start, commit, writers, readers, first_committer_wins)


class SchedulePlacement:
    """A start/commit schedule that passes the interval search's step
    conditions, kept so that an event is re-checked at its own transaction
    only.

    ``schedule`` lists the rows, each twice (start, then commit);
    ``start[row]`` and ``commit[row]`` are a row's positions in it.  Per
    variable index, ``writers[var]`` holds the sorted commit positions of
    its visible writers, and ``readers[var]`` maps a writer's commit
    position to the latest start of a transaction that reads the variable
    from it.  Built by :func:`place_si` or :func:`place_pc`; a step that
    returns False leaves it unchanged.
    """

    __slots__ = ("schedule", "start", "commit", "writers", "readers", "first_committer_wins")

    def __init__(
        self,
        schedule: List[int],
        start: List[int],
        commit: List[int],
        writers: List[List[int]],
        readers: List[Dict[int, int]],
        first_committer_wins: bool,
    ):
        self.schedule = schedule
        self.start = start
        self.commit = commit
        self.writers = writers
        self.readers = readers
        self.first_committer_wins = first_committer_wins

    def rows(self) -> List[int]:
        """The schedule, in row indices."""
        return self.schedule

    def grow(self, rows: int) -> None:
        """Start and commit the rows below ``rows`` that are not placed yet
        last, in row (begin) order."""
        schedule, start, commit = self.schedule, self.start, self.commit
        for row in range(len(start), rows):
            start.append(len(schedule))
            commit.append(len(schedule) + 1)
            schedule += (row, row)

    def external_read(self, reader: int, var: int, source: int) -> bool:
        """Whether the schedule still passes once ``reader`` reads ``var``
        from ``source``; records the read if so.

        The new wr edge gives ``reader`` and its descendants the ancestors
        of ``source``, which all commit before ``source`` starts.  So the
        schedule passes iff ``source`` is the last writer of ``var``
        committed before ``reader`` starts, which also puts its commit
        there.
        """
        at, src = self.start[reader], self.commit[source]
        writers = self.writers[var]
        if writers[bisect_left(writers, at) - 1] != src:
            return False
        readers = self.readers[var]
        if readers.get(src, -1) < at:
            readers[src] = at
        return True

    def first_write(self, writer: int, var: int) -> bool:
        """Whether the schedule still passes once ``writer`` first writes
        ``var``; records the write if so.

        Only the readers of ``var`` from the last writer committed before
        ``writer`` can change their snapshot, so the schedule passes iff
        none of them starts after ``writer`` commits.  For SI, ``writer``
        must also not overlap the writers of ``var`` committed just before
        and just after it.  Those two are enough: the writers of a common
        variable have pairwise disjoint intervals, so their starts and
        commits come in the same order.
        """
        at = self.commit[writer]
        writers = self.writers[var]
        k = bisect_left(writers, at)
        before = writers[k - 1]
        if self.readers[var].get(before, -1) > at:
            return False
        if self.first_committer_wins:
            start = self.start
            if before > start[writer]:
                return False
            if k < len(writers) and start[self.schedule[writers[k]]] < at:
                return False
        writers.insert(k, at)
        return True

    def cut_before(self, row: int) -> int:
        """How much of the schedule precedes ``row``'s start: the prefix a
        first write or an abort by ``row`` leaves intact, as it changes no
        step before ``row`` starts."""
        return self.start[row]

    def read_cut(self, reader: int, var: int, source: int) -> int:
        """The prefix a failed external read of ``var`` by ``reader`` from
        ``source`` leaves intact: the schedule before ``reader`` starts and
        before the start of the first writer of ``var`` that commits after
        ``source``, past whose commit no completion lets ``reader`` read
        from ``source``."""
        writers = self.writers[var]
        k = bisect_right(writers, self.commit[source])
        cut = self.start[reader]
        if k < len(writers):
            return min(cut, self.start[self.schedule[writers[k]]])
        return cut
