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
"""

from __future__ import annotations

from typing import Set, Tuple

from ..core.events import INIT_TXN
from ..core.history import History
from .summaries import dense_summaries


def satisfies_ser(history: History) -> bool:
    """Whether ``history`` is serializable.

    Runs on ``history.causal_matrix()`` — callers that already maintain
    the ``so ∪ wr`` closure (the online checker) seed it via
    ``History.adopt_causal_matrix`` so no from-scratch build happens here.
    """
    matrix = history.causal_matrix()
    if not matrix.is_acyclic():
        return False

    n = len(matrix)
    ancestors, reads_of, writes_of, _write_mask, num_vars = dense_summaries(history, matrix)

    full = (1 << n) - 1
    failed: Set[Tuple[int, Tuple[int, ...]]] = set()

    def search(committed: int, last_writer: Tuple[int, ...]) -> bool:
        if committed == full:
            return True
        state = (committed, last_writer)
        if state in failed:
            return False
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
            if search(committed | (1 << i), next_writer):
                return True
        failed.add(state)
        return False

    # init commits first and is the initial last-writer of every variable.
    init = matrix.index_of(INIT_TXN)
    initial_writer = tuple(init for _ in range(num_vars))
    return search(1 << init, initial_writer)
