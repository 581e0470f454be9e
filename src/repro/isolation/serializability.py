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

The search runs on the dense indexing of the history's cached
:class:`~repro.core.bitrel.RelationMatrix`: the committed set is one int
bitmask, and a transaction is enabled iff ``ancestors_mask(t) & ~committed``
is zero — a single word-parallel test against the maintained ``so ∪ wr``
closure (valid because every committed set the search reaches is
closure-downward-closed, so ancestor- and direct-predecessor-completeness
coincide).  No per-check adjacency or predecessor map is rebuilt.

The search is iterative (:func:`~repro.isolation.search.first_path`), and
the path it took is its witness: a commit order, cached on the history
(``History.witnesses``) so that :func:`ser_witness` after
:func:`satisfies_ser` searches once.  :func:`recheck_ser` re-runs the
search's step conditions along a given order, in one pass — what the
online checker does with its last witness before it searches again.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

from ..core.events import INIT_TXN, TxnId
from ..core.history import History
from .search import first_path, path_transactions
from .summaries import DenseSummaries, dense_summaries


def satisfies_ser(history: History) -> bool:
    """Whether ``history`` is serializable.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure (the online checker) seed it via
    ``History.adopt_causal_matrix`` so no from-scratch build happens here.
    """
    return _commit_order(history) is not None


def ser_witness(history: History) -> Optional[Tuple[TxnId, ...]]:
    """A commit order witnessing that ``history`` is serializable, or None.

    Every transaction appears once, ``init`` first.  The order extends
    ``so ∪ wr`` and passes the SER axiom (``axioms.axioms_hold``).
    """
    return path_transactions(history, _commit_order(history))


def _commit_order(history: History) -> Optional[List[int]]:
    """The search's commit order in row indices, searched once per history."""
    witnesses = history.witnesses()
    if "SER" not in witnesses:
        witnesses["SER"] = _search(history)
    return witnesses["SER"]  # type: ignore[return-value]


def _search(history: History) -> Optional[List[int]]:
    matrix = history.causal_matrix()
    if not matrix.is_acyclic():
        return None

    n = len(matrix)
    ancestors, reads_of, writes_of, _write_mask, num_vars = dense_summaries(history, matrix)
    full = (1 << n) - 1

    def placements(state):
        committed, last_writer = state
        for i in range(n):
            if committed >> i & 1 or ancestors[i] & ~committed:
                continue
            # The SER axiom: each external read must read from the latest
            # committed writer of its variable at this point.
            if any(last_writer[var] != src for var, src in reads_of[i]):
                continue
            if writes_of[i]:
                updated = list(last_writer)
                for var in writes_of[i]:
                    updated[var] = i
                next_writer = tuple(updated)
            else:
                next_writer = last_writer
            yield i, (committed | (1 << i), next_writer)

    # init commits first and is the initial last-writer of every variable.
    init = matrix.index_of(INIT_TXN)
    root = (1 << init, tuple(init for _ in range(num_vars)))
    return first_path(root, (init,), placements, lambda state: state[0] == full)


def recheck_ser(order: Sequence[int], summaries: DenseSummaries) -> bool:
    """Whether committing in ``order`` passes the search's step conditions.

    ``order`` lists row indices of ``summaries``; the rows it leaves out
    must be the last ones (transactions begun after the order was found),
    and they commit after it, in row order.  Each transaction must find
    its ``so ∪ wr`` ancestors committed and read every external read from
    the last writer of the variable committed before it, and every row
    must commit exactly once.  One pass: O(transactions + reads).
    """
    ancestors, reads_of, writes_of, _write_mask, num_vars = summaries
    committed = 0
    last_writer = [-1] * num_vars
    for i in chain(order, range(len(order), len(ancestors))):
        if committed >> i & 1 or ancestors[i] & ~committed:
            return False
        for var, src in reads_of[i]:
            if last_writer[var] != src:
                return False
        for var in writes_of[i]:
            last_writer[var] = i
        committed |= 1 << i
    return committed == (1 << len(ancestors)) - 1
