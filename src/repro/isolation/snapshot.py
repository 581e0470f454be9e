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

Like the SER checker, the search runs on the dense indexing of the
history's cached :class:`~repro.core.bitrel.RelationMatrix`: ``started``
and ``committed`` are int bitmasks, start-eligibility is one word-parallel
``ancestors_mask(t) & ~committed`` test against the maintained closure, and
first-committer-wins is a write-footprint bitmask intersection over the
active set.  No per-check adjacency or predecessor map is rebuilt.

The search is iterative (:func:`~repro.isolation.search.first_path`), and
the path it took is its witness: a start/commit schedule, in which each
transaction appears twice, first where it starts and then where it
commits.  The schedule is cached on the history (``History.witnesses``),
so :func:`si_witness` after :func:`satisfies_si` searches once, and
:func:`schedule_commit_order` reads the commit order off it.
:func:`recheck_si` and :func:`recheck_pc` re-run the search's step
conditions along a given schedule, in one pass — what the online checker
does with its last witness before it searches again.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

from ..core.bitrel import iter_bits
from ..core.events import INIT_TXN, TxnId
from ..core.history import History
from .search import first_path, path_transactions
from .summaries import DenseSummaries, dense_summaries


def satisfies_si(history: History) -> bool:
    """Whether ``history`` satisfies Snapshot Isolation.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure (the online checker) seed it via
    ``History.adopt_causal_matrix`` so no from-scratch build happens here.
    """
    return _schedule(history, first_committer_wins=True) is not None


def satisfies_pc(history: History) -> bool:
    """Whether ``history`` satisfies Prefix Consistency (SI minus Conflict)."""
    return _schedule(history, first_committer_wins=False) is not None


def si_witness(history: History) -> Optional[Tuple[TxnId, ...]]:
    """A start/commit schedule witnessing SI on ``history``, or None.

    Each transaction appears twice: first where it starts, then where it
    commits; ``init`` starts and commits first.  Its commit order
    (:func:`schedule_commit_order`) extends ``so ∪ wr`` and passes the SI
    axioms (``axioms.axioms_hold``).
    """
    return path_transactions(history, _schedule(history, first_committer_wins=True))


def pc_witness(history: History) -> Optional[Tuple[TxnId, ...]]:
    """A start/commit schedule witnessing PC on ``history``, or None.

    Shaped as :func:`si_witness`'s; writers of a common variable may overlap.
    """
    return path_transactions(history, _schedule(history, first_committer_wins=False))


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


def _schedule(history: History, first_committer_wins: bool) -> Optional[List[int]]:
    """The search's schedule in row indices, searched once per history."""
    key = "SI" if first_committer_wins else "PC"
    witnesses = history.witnesses()
    if key not in witnesses:
        witnesses[key] = _interval_search(history, first_committer_wins)
    return witnesses[key]  # type: ignore[return-value]


def _interval_search(history: History, first_committer_wins: bool) -> Optional[List[int]]:
    matrix = history.causal_matrix()
    if not matrix.is_acyclic():
        return None

    n = len(matrix)
    ancestors, reads_of, writes_of, write_mask, num_vars = dense_summaries(history, matrix)
    full = (1 << n) - 1

    def actions(state):
        started, committed, last_writer = state
        active = started & ~committed
        # Commit an active transaction.
        for i in iter_bits(active):
            if writes_of[i]:
                updated = list(last_writer)
                for var in writes_of[i]:
                    updated[var] = i
                next_writer = tuple(updated)
            else:
                next_writer = last_writer
            yield i, (started, committed | (1 << i), next_writer)
        # Start a new transaction whose causal predecessors have committed.
        if first_committer_wins:
            active_writes = 0
            for other in iter_bits(active):
                active_writes |= write_mask[other]
        for i in range(n):
            if started >> i & 1 or ancestors[i] & ~committed:
                continue
            # Snapshot reads: every external read sees the snapshot at start.
            if any(last_writer[var] != src for var, src in reads_of[i]):
                continue
            # First-committer-wins: no overlapping writer of a common
            # variable (SI only; PC lets conflicting writers overlap).
            if first_committer_wins and write_mask[i] & active_writes:
                continue
            yield i, (started | (1 << i), committed, last_writer)

    init = matrix.index_of(INIT_TXN)
    root = (1 << init, 1 << init, tuple(init for _ in range(num_vars)))
    return first_path(root, (init, init), actions, lambda state: state[1] == full)


def recheck_si(schedule: Sequence[int], summaries: DenseSummaries) -> bool:
    """Whether the SI search's step conditions hold along ``schedule``.

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
    return _recheck_schedule(schedule, summaries, first_committer_wins=True)


def recheck_pc(schedule: Sequence[int], summaries: DenseSummaries) -> bool:
    """:func:`recheck_si` without first-committer-wins: the PC search's
    step conditions along ``schedule``."""
    return _recheck_schedule(schedule, summaries, first_committer_wins=False)


def _recheck_schedule(
    schedule: Sequence[int], summaries: DenseSummaries, first_committer_wins: bool
) -> bool:
    """The interval search's step conditions along ``schedule``."""
    ancestors, reads_of, writes_of, write_mask, num_vars = summaries
    n = len(ancestors)
    started = committed = active_writes = 0
    last_writer = [-1] * num_vars
    later = range(len(schedule) // 2, n)
    for i in chain(schedule, (i for i in later for _twice in (0, 1))):
        bit = 1 << i
        if not started & bit:
            if ancestors[i] & ~committed:
                return False
            for var, src in reads_of[i]:
                if last_writer[var] != src:
                    return False
            if first_committer_wins:
                if write_mask[i] & active_writes:
                    return False
                # Active writers are pairwise disjoint, so a commit can
                # clear its own bits from the union.
                active_writes |= write_mask[i]
            started |= bit
        elif not committed & bit:
            for var in writes_of[i]:
                last_writer[var] = i
            active_writes &= ~write_mask[i]
            committed |= bit
        else:
            return False
    return committed == (1 << n) - 1
