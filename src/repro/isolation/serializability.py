"""Serializability checking by memoized search over commit prefixes.

A history satisfies SER iff there is a total commit order extending
``so ∪ wr`` in which every external read of ``x`` reads from the *last*
previously-committed writer of ``x`` (this is the Fig. 2(d) axiom: every
x-writer committed before the reading transaction must be committed before
the read's source).

The search builds the commit order left to right.  A state is fully
described by the set of committed transactions plus the last committed
writer of each variable, so states are memoized on that pair — this is the
frontier argument of Biswas & Enea [OOPSLA 2019]: for a fixed number of
sessions the number of downward-closed committed sets is polynomial, which
is also why the paper's `explore-ce*(·, SER)` filter stays cheap on
histories with few sessions (§7.3).

Aborted and pending transactions take part in the order (the commit order of
Def. 2.2 is total on *all* transaction logs).  Only an aborted transaction
hides its writes (§2.2.1); a pending one exposes them like a committed one,
so committing changes no verdict — the online checker relies on that to
skip the search on a commit.

The search is a function of one dense input
(:class:`~repro.isolation.summaries.DenseSummaries`), whose ``ancestors``
are the ``so ∪ wr`` closure: the committed set is one int bitmask, and a
transaction is enabled iff ``ancestors[t] & ~committed`` is zero — a
single word-parallel test (valid because every committed set the search
reaches is closure-downward-closed, so ancestor- and
direct-predecessor-completeness coincide).  No per-check adjacency or
predecessor map is rebuilt.  :func:`satisfies_ser` and :func:`ser_witness`
build that input from a history's cached matrix; the online checker reads
it off the matrix and summaries it maintains.

The search is iterative (:func:`~repro.isolation.search.first_path`), and
the path it took is its witness: a commit order.  :func:`place_ser`
re-runs the search's step conditions along a given order, in one pass, and
returns the order as a :class:`SerPlacement`, which the online checker
keeps: once an order passes, an event can only break the conditions at the
transaction it touches, so the placement re-checks each event there, with
one ``bisect`` and one dict lookup.  When that fails, the placement names
how much of the order the event left intact (:meth:`SerPlacement.cut_before`,
:meth:`SerPlacement.read_cut`), and the search repairs the order from that
prefix before it searches from ``init``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.events import TxnId
from ..core.history import History
from .base import get_level
from .registry import level_spec, search_history
from .search import repaired_path
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
    None when no order passes.

    ``prefix``, the intact head of an old commit order, is tried first
    (:func:`~repro.isolation.search.repaired_path`); the verdict does not
    depend on it.
    """
    ancestors, reads_of, writes_of, _write_mask, num_vars = summaries
    n = len(ancestors)
    full = (1 << n) - 1

    def step(state, i):
        committed, last_writer = state
        if committed >> i & 1 or ancestors[i] & ~committed:
            return None
        # The SER axiom: each external read must read from the latest
        # committed writer of its variable at this point.
        for var, src in reads_of[i]:
            if last_writer[var] != src:
                return None
        if writes_of[i]:
            updated = list(last_writer)
            for var in writes_of[i]:
                updated[var] = i
            last_writer = tuple(updated)
        return committed | (1 << i), last_writer

    def placements(state):
        for i in range(n):
            child = step(state, i)
            if child is not None:
                yield i, child

    # init, the only candidate at the root, becomes the last writer of
    # every variable.
    root = (0, (-1,) * num_vars)
    return repaired_path(prefix, root, step, placements, lambda state: state[0] == full)


def place_ser(order: Sequence[int], summaries: DenseSummaries) -> Optional["SerPlacement"]:
    """The placement of committing in ``order``, if that passes the
    search's step conditions; None otherwise.

    ``order`` lists row indices of ``summaries``; the rows it leaves out
    must be the last ones (transactions begun after the order was found),
    and they commit after it, in row order.  Each transaction must find
    its ``so ∪ wr`` ancestors committed and read every external read from
    the last writer of the variable committed before it, and every row
    must commit exactly once.  One pass: O(transactions + reads).
    """
    ancestors, reads_of, writes_of, _write_mask, num_vars = summaries
    n = len(ancestors)
    order = list(chain(order, range(len(order), n)))
    pos = [0] * n
    writers: List[List[int]] = [[] for _ in range(num_vars)]
    readers: List[Dict[int, int]] = [{} for _ in range(num_vars)]
    last_writer = [-1] * num_vars
    committed = 0
    for at, i in enumerate(order):
        if committed >> i & 1 or ancestors[i] & ~committed:
            return None
        for var, src in reads_of[i]:
            if last_writer[var] != src:
                return None
            readers[var][pos[src]] = at
        for var in writes_of[i]:
            last_writer[var] = i
            writers[var].append(at)
        pos[i] = at
        committed |= 1 << i
    if committed != (1 << n) - 1:
        return None
    return SerPlacement(order, pos, writers, readers)


class SerPlacement:
    """A commit order that passes the search's step conditions, kept so
    that an event is re-checked at its own transaction only.

    ``order`` lists the rows in commit order and ``pos[row]`` is a row's
    position in it.  Per variable index, ``writers[var]`` holds the sorted
    positions of its visible writers, and ``readers[var]`` maps a writer's
    position to the latest position of a transaction that reads the
    variable from it.  Built by :func:`place_ser`; a step that returns
    False leaves it unchanged.
    """

    __slots__ = ("order", "pos", "writers", "readers")

    def __init__(
        self,
        order: List[int],
        pos: List[int],
        writers: List[List[int]],
        readers: List[Dict[int, int]],
    ):
        self.order = order
        self.pos = pos
        self.writers = writers
        self.readers = readers

    def rows(self) -> List[int]:
        """The commit order, in row indices."""
        return self.order

    def grow(self, rows: int) -> None:
        """Commit the rows below ``rows`` that are not placed yet last, in
        row (begin) order."""
        order, pos = self.order, self.pos
        for row in range(len(pos), rows):
            pos.append(len(order))
            order.append(row)

    def external_read(self, reader: int, var: int, source: int) -> bool:
        """Whether the order still passes once ``reader`` reads ``var`` from
        ``source``; records the read if so.

        The new wr edge gives ``reader`` and its descendants the ancestors
        of ``source``, which all commit before ``source``.  So the order
        passes iff ``source`` is the last writer of ``var`` committed
        before ``reader``, which also puts it before ``reader``.
        """
        at, src = self.pos[reader], self.pos[source]
        writers = self.writers[var]
        if writers[bisect_left(writers, at) - 1] != src:
            return False
        readers = self.readers[var]
        if readers.get(src, -1) < at:
            readers[src] = at
        return True

    def first_write(self, writer: int, var: int) -> bool:
        """Whether the order still passes once ``writer`` first writes
        ``var``; records the write if so.

        Only the readers of ``var`` from the last writer before ``writer``
        can change their last writer, so the order passes iff none of them
        commits after ``writer``.  The writer's own earlier read of ``var``
        stays valid: a transaction's reads come before its writes.
        """
        at = self.pos[writer]
        writers = self.writers[var]
        k = bisect_left(writers, at)
        if self.readers[var].get(writers[k - 1], -1) > at:
            return False
        writers.insert(k, at)
        return True

    def cut_before(self, row: int) -> int:
        """How much of the order precedes ``row``: the prefix a first write
        or an abort by ``row`` leaves intact, as it changes no step before
        ``row``'s."""
        return self.pos[row]

    def read_cut(self, reader: int, var: int, source: int) -> int:
        """The prefix a failed external read of ``var`` by ``reader`` from
        ``source`` leaves intact: the order before ``reader`` and before the
        first writer of ``var`` placed after ``source``, past which no
        completion lets ``reader`` read from ``source``."""
        writers = self.writers[var]
        k = bisect_right(writers, self.pos[source])
        cut = self.pos[reader]
        if k < len(writers) and writers[k] < cut:
            return writers[k]
        return cut
