"""Shared dense per-transaction summaries for the commit-order searches.

The SER, SI/PC and PSI/BS-k checkers run on the dense indexing of the
history's cached :class:`~repro.core.bitrel.RelationMatrix` and need the
same pre-computation: ancestor bitmasks for enabledness, per-transaction
read lists (variable index, wr-source index), write lists, and
write-footprint bitmasks.  Extracted here so the checkers cannot drift
apart.

Variables are numbered in sorted-name order.  :func:`dense_summaries`
builds the summaries from a whole history; :class:`LiveSummaries` keeps
the same summaries up to date one trace event at a time for the online
checker, which seeds them onto the histories it materialises
(``History.adopt_summaries``) so that a search does not rebuild them from
the whole prefix.  Both live here so the layout is decided in one place.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Set, Tuple

from ..core.bitrel import RelationMatrix
from ..core.history import History


class DenseSummaries(NamedTuple):
    """Per-transaction summaries on a matrix's dense indexing."""

    #: ``so ∪ wr`` ancestor bitmask per transaction index.
    ancestors: List[int]
    #: (variable index, wr-source transaction index) per external read.
    reads_of: List[Tuple[Tuple[int, int], ...]]
    #: Written variable indices, sorted, per transaction index.
    writes_of: List[Tuple[int, ...]]
    #: Write footprint as a variable bitmask, per transaction index.
    write_mask: List[int]
    #: Number of distinct variables read or written.
    num_vars: int


def dense_summaries(history: History, matrix: RelationMatrix) -> DenseSummaries:
    """The summaries of ``history`` on ``matrix``'s indexing.

    Returns the summaries seeded with ``History.adopt_summaries`` when the
    history carries them; otherwise builds them from every log.
    """
    seeded = history.adopted_summaries()
    if seeded is not None:
        return seeded  # type: ignore[return-value]
    n = len(matrix)
    variables: Set[str] = set()
    raw_reads: List[List[Tuple[str, int]]] = [[] for _ in range(n)]
    raw_writes: List[List[str]] = [[] for _ in range(n)]
    for tid, log in history.txns.items():
        i = matrix.index_of(tid)
        for event in log.reads():
            if event.eid in history.wr:
                raw_reads[i].append((event.var, matrix.index_of(history.wr[event.eid])))
        raw_writes[i] = sorted(log.writes())
        variables.update(raw_writes[i])
        variables.update(var for var, _ in raw_reads[i])
    var_index = {var: v for v, var in enumerate(sorted(variables))}
    reads_of = [tuple((var_index[var], src) for var, src in pairs) for pairs in raw_reads]
    writes_of = [tuple(var_index[var] for var in vars_) for vars_ in raw_writes]
    write_mask = [sum(1 << var for var in vars_) for vars_ in writes_of]
    return DenseSummaries(
        ancestors=[matrix.ancestors_mask(matrix.node_at(i)) for i in range(n)],
        reads_of=reads_of,
        writes_of=writes_of,
        write_mask=write_mask,
        num_vars=len(var_index),
    )


class LiveSummaries:
    """:class:`DenseSummaries` kept up to date per streamed event.

    Rows follow the dense indexing of the online checker's maintained
    causal matrix, which starts with ``init`` alone and gains one node per
    ``begin``.  ``init`` writes every variable of the trace header, and
    every other read or write names a header variable, so numbering the
    header's variables in sorted order is exactly the numbering
    :func:`dense_summaries` picks.  Only the ancestor masks are not kept
    here: :meth:`snapshot` reads them off the matrix it is given.
    """

    __slots__ = ("_var_index", "_reads", "_writes", "_masks")

    def __init__(self, variables: Iterable[str]):
        names = sorted(set(variables))
        self._var_index = {var: v for v, var in enumerate(names)}
        # Row 0 is init: no reads, a write to every variable.
        self._reads: List[Tuple[Tuple[int, int], ...]] = [()]
        self._writes: List[Tuple[int, ...]] = [tuple(range(len(names)))]
        self._masks: List[int] = [(1 << len(names)) - 1]

    def begin(self) -> None:
        """Append the row of a just-begun transaction."""
        self._reads.append(())
        self._writes.append(())
        self._masks.append(0)

    def external_read(self, reader: int, var: str, source: int) -> int:
        """Record an external read of ``var`` by row ``reader`` from row
        ``source``; returns the variable's index."""
        v = self._var_index[var]
        self._reads[reader] += ((v, source),)
        return v

    def first_write(self, writer: int, var: str) -> int:
        """Record row ``writer``'s first write of ``var``; returns the
        variable's index."""
        v = self._var_index[var]
        self._writes[writer] = tuple(sorted(self._writes[writer] + (v,)))
        self._masks[writer] |= 1 << v
        return v

    def abort_writer(self, writer: int) -> None:
        """An aborted transaction hides its writes and keeps its reads."""
        self._writes[writer] = ()
        self._masks[writer] = 0

    def evict(self, keep: Sequence[int]) -> None:
        """Compact to the surviving rows ``keep`` (old indices, ascending).

        That is the order :meth:`RelationMatrix.remove_nodes` keeps, so the
        rows stay aligned with the compacted matrix.  A read whose source
        left is dropped, as the trace replayer drops its ``wr`` entry.
        """
        new_index = {old: new for new, old in enumerate(keep)}
        self._reads = [
            tuple((var, new_index[src]) for var, src in self._reads[old] if src in new_index)
            for old in keep
        ]
        self._writes = [self._writes[old] for old in keep]
        self._masks = [self._masks[old] for old in keep]

    def view(self, matrix: RelationMatrix) -> DenseSummaries:
        """The current summaries, read in place: no list is copied.

        ``matrix`` must be over the same rows.  Valid only until the next
        event changes the summaries or the matrix; the online checker
        re-checks its witnesses on it.
        """
        return DenseSummaries(
            ancestors=matrix.ancestor_rows,
            reads_of=self._reads,
            writes_of=self._writes,
            write_mask=self._masks,
            num_vars=len(self._var_index),
        )

    def snapshot(self, matrix: RelationMatrix) -> DenseSummaries:
        """The current summaries, with ``matrix``'s ancestor masks.

        ``matrix`` must be over the same rows (the checker passes a copy of
        its maintained matrix).  The lists are copies, so later events do
        not change a snapshot already seeded onto a history.
        """
        return DenseSummaries(
            ancestors=list(matrix.ancestor_rows),
            reads_of=list(self._reads),
            writes_of=list(self._writes),
            write_mask=list(self._masks),
            num_vars=len(self._var_index),
        )
