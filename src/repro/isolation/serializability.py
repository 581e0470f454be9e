"""Serializability: the interval search with no two transactions overlapping.

A history satisfies SER iff there is a total commit order extending
``so ∪ wr`` in which every external read of ``x`` reads from the *last*
previously-committed writer of ``x`` (this is the Fig. 2(d) axiom: every
x-writer committed before the reading transaction must be committed before
the read's source).

That is the interval search of :mod:`repro.isolation.snapshot` with no
overlap.  There a transaction starts once its ``so ∪ wr`` predecessors have
committed, and its reads see the last writers committed before its start.
With no two transactions running at once, each start is followed at once
by its commit, so a transaction's snapshot is the state just before its
commit: every writer committed before it, which is the Fig. 2(d) axiom on
the order of the commits.  Conversely a commit order that passes the axiom
is such a schedule, each transaction starting just before it commits.  So
the search takes one step per transaction, starting and committing it, and
the path it took, its witness, is a commit order that lists each
transaction once.

A state is fully described by the set of committed transactions plus the
last committed writer of each variable, so states are memoized on that
pair — this is the frontier argument of Biswas & Enea [OOPSLA 2019]: for a
fixed number of sessions the number of downward-closed committed sets is
polynomial, which is also why the paper's `explore-ce*(·, SER)` filter
stays cheap on histories with few sessions (§7.3).

Aborted and pending transactions take part in the order (the commit order of
Def. 2.2 is total on *all* transaction logs).  Only an aborted transaction
hides its writes (§2.2.1); a pending one exposes them like a committed one,
so committing changes no verdict — the online checker relies on that to
skip the search on a commit.

:func:`place_ser` re-runs the search's step conditions along a given
order, in one pass, and returns it as a
:class:`~repro.isolation.snapshot.SchedulePlacement` that places each
transaction once, where it starts and commits; the online checker keeps it
and re-checks each event at the event's own transaction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.events import TxnId
from ..core.history import History
from .base import get_level
from .registry import level_spec, search_history
from .snapshot import SchedulePlacement, _interval_search, _place_schedule
from .summaries import DenseSummaries


def satisfies_ser(history: History) -> bool:
    """Whether ``history`` is serializable: the registered ``SER`` level.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure seed it via ``History.adopt_causal_matrix`` so
    no from-scratch build happens here.
    """
    return get_level("SER").satisfies(history)


def ser_witness(history: History) -> Optional[Tuple[TxnId, ...]]:
    """A commit order witnessing that ``history`` is serializable, or None.

    Every transaction appears once, ``init`` first.  The order extends
    ``so ∪ wr`` and passes the SER axiom (``axioms.axioms_hold``).
    """
    return search_history(history, level_spec("SER"))


def ser_search(summaries: DenseSummaries, prefix: Sequence[int] = ()) -> Optional[List[int]]:
    """The SER search's commit order in row indices of ``summaries``, or
    None when no order passes: the interval search with no overlap.

    ``prefix``, the intact head of an old commit order, is tried first
    (:func:`~repro.isolation.search.repaired_path`); the verdict does not
    depend on it.
    """
    return _interval_search(summaries, prefix, overlap="none")


def place_ser(order: Sequence[int], summaries: DenseSummaries) -> Optional[SchedulePlacement]:
    """The placement of ``order``, which starts and commits each row at
    one entry, if the search's step conditions hold along it; None
    otherwise.

    ``order`` lists row indices of ``summaries``; the rows it leaves out
    must be the last ones (transactions begun after the order was found),
    and they commit after it, in row order.  Each transaction must find
    its ``so ∪ wr`` ancestors committed and read every external read from
    the last writer of the variable committed before it, and every row
    must commit exactly once.  One pass: O(transactions + reads).
    """
    return _place_schedule(order, summaries, overlap="none")
