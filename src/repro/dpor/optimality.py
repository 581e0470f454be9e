"""The Optimality condition of explore-ce: ``swapped`` and ``readLatest`` (§5.3).

Re-orderings must be restricted to avoid exploring the same history on two
branches.  A swap of ``(r, t)`` is enabled only when

* every read deleted by the swap — and the re-ordered read ``r`` itself —
  (a) has not itself been swapped in the past (``¬swapped``), and
  (b) currently reads from the causally-latest valid write (``readLatest``),
* and the swapped history is consistent with the exploration level.

These are exactly the two redundancy sources illustrated by Figs. 12 and 13
of the paper.

The verdict is a conjunction, so :func:`optimality` evaluates it cheapest
first: ``¬swapped`` on every affected read (order and closure lookups on
the current history), then ``readLatest`` on every affected read, and only
then ``Swap`` and the swapped history's consistency check — the one
conjunct that always builds a history, whose pruning is not an extension
and so starts its saturation state cold.

``readLatest`` decides from the current history's cached ``so ∪ wr``
closure and builds its pruned history ``h'`` only when a committed writer
later than the read's current source lies in the reader's causal past.
The current source itself never needs a consistency check: ``h'`` plus the
read reading from it is a prefix of the current history ``h``, ``h`` is
consistent with the exploration level (strong optimality), and that level
is prefix-closed (Def. 3.1; :func:`~repro.dpor.explore.validate_levels`
enforces it).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.bitrel import RelationMatrix
from ..core.events import INIT_TXN, EventId, EventType, TxnId
from ..core.history import History
from ..core.ordered_history import OrderedHistory
from ..isolation.base import IsolationLevel
from ..lang.program import Program
from ..semantics.scheduler import NextAction, extend_history
from .swaps import doomed_events, swap


def is_swapped(program: Program, oh: OrderedHistory, read: EventId) -> bool:
    """``swapped(h, <, r)`` (§5.3).

    ``r`` reads from a transaction ``t`` that the scheduler would only have
    produced *after* ``r`` (so their current order must stem from a swap),
    with two refinements that rule out spurious classifications:

    (1) ``t < r`` in the history order and ``t >or r`` in the oracle order;
    (2) there is no transaction ``t'`` before ``tr(r)`` in the oracle order
        and not wholly after ``r`` in the history order that is a causal
        successor of ``t``;
    (3) ``r`` is the po-first read of its transaction reading from ``t``,
        and no po-earlier read of the transaction is itself swapped.

    The second half of (3) realises the paper's reading of the condition —
    "after swapping r and t in h, later read events from the same
    transaction as r can[not] be considered as swapped" (§5.3) — for later
    reads whose source *differs* from ``t``: once an earlier read of the
    transaction was swapped, the transaction's block has been moved behind
    or-later writers, so a subsequent read choosing such a writer through
    ValidWrites is a re-execution, not a swap.  Without this, completeness
    fails (a 4-transaction witness lives in the test suite).
    """
    history = oh.history
    source = history.wr.get(read)
    if source is None:
        return False
    reader = read.txn
    # (1) — ``t < r`` always holds by the footnote-7 invariant.
    if not oh.txn_before_event(source, read):
        return False
    if not program.oracle_before(reader, source):
        return False
    # (2)
    matrix = oh.causal_matrix()
    for other in history.txns:
        if other == reader or not program.oracle_before(other, reader):
            continue
        if oh.event_before_txn(read, other):
            continue
        if matrix.reaches(source, other):
            return False
    # (3)
    reader_log = history.txns[reader]
    for event in reader_log.events[: read.pos]:
        if not event.is_external_read:
            continue
        if history.wr.get(event.eid) == source:
            return False
        if is_swapped(program, oh, event.eid):
            return False
    return True


def read_latest(
    oh: OrderedHistory,
    read: EventId,
    target: TxnId,
    level: IsolationLevel,
) -> bool:
    """``readLatest_I(h, <, r', t)`` (§5.3).

    Whether ``r'`` reads from the ``<``-latest transaction in its causal
    past (computed in the pruned history ``h' = h \\ {e | r' ≤ e ∧
    (tr(e), t) ∉ (so ∪ wr)*}``, i.e. with ``r'`` and its own wr dependency
    removed) from which reading is consistent with ``level``.

    That causal past is read off ``h``'s closure (:func:`_pruned_past`),
    which decides two cases without building ``h'``: a current source
    outside it is not the latest (false), and a current source with no
    later committed writer of ``var(r')`` in it is (true — reading from it
    is consistent, see the module docstring).  Otherwise ``h'`` is built
    and the later writers are checked from the latest down: the first
    consistent one makes the answer false.
    """
    history = oh.history
    current_source = history.wr.get(read)
    if current_source is None:
        return True
    matrix = oh.causal_matrix()
    past = _pruned_past(history, matrix, read)
    if not past >> matrix.index_of(current_source) & 1:
        return False
    var = history.event(read).var
    source_pos = oh.txn_position(current_source)
    later: List[Tuple[int, TxnId]] = []
    for log in history.committed_transactions():
        if log.writes_var(var) and past >> matrix.index_of(log.tid) & 1:
            pos = oh.txn_position(log.tid)
            if pos > source_pos:
                later.append((pos, log.tid))
    if not later:
        return True
    pruned = history.remove_events(doomed_events(oh, read, target, strict=False))
    # Event removal is the non-monotone step saturation cannot diff across,
    # so pruned starts cache-cold: warm its consistency state once here and
    # every candidate below derives from it instead of rebuilding.
    level.satisfies(pruned)
    later.sort(reverse=True)
    for _pos, writer in later:
        # Same derivation as ValidWrites: extend_history diffs the
        # candidate's closure (and saturation states) from pruned's
        # caches, so the consistency check never rebuilds the relation.
        if level.satisfies(_reappend_read(pruned, read, var, writer)):
            return False
    return True


def _pruned_past(history: History, matrix: RelationMatrix, read: EventId) -> int:
    """``tr(r')``'s causal past in the pruned ``h'``, as a mask of ``matrix``.

    In ``h'`` the reader's incoming ``so ∪ wr`` edges come from its session
    predecessor (or ``init``) and from the sources of its external reads
    po-before ``r'``.  Each such root lies in a transaction block before the
    reader's in ``<``, and so does everything the root reaches backwards;
    ``h'`` keeps that part of ``h`` unchanged, so ``{p} ∪ anc(p)`` over the
    roots, read off ``h``'s closure, is exactly the past in ``h'``.
    """
    reader = read.txn
    roots = [TxnId(reader.session, reader.index - 1) if reader.index else INIT_TXN]
    for event in history.txns[reader].events[: read.pos]:
        if event.is_external_read:
            roots.append(history.wr[event.eid])
    past = 0
    for root in roots:
        past |= matrix.ancestors_mask(root) | 1 << matrix.index_of(root)
    return past


def _reappend_read(pruned: History, read: EventId, var: str, writer: TxnId) -> History:
    """``h' ⊕ r' ⊕ wr(t', r')``: put the read back with a new source."""
    reader = read.txn
    log = pruned.txns[reader]
    if len(log.events) != read.pos:
        raise AssertionError(f"pruned log of {reader!r} does not end right before {read!r}")
    return extend_history(pruned, NextAction(EventType.READ, reader, var), writer=writer)


def optimality(
    program: Program,
    oh: OrderedHistory,
    read: EventId,
    target: TxnId,
    level: IsolationLevel,
) -> Tuple[bool, Optional[OrderedHistory]]:
    """The Optimality predicate gating a swap (§5.3).

    Returns ``(enabled, swapped_history)``.  The conjuncts run cheapest
    first (see the module docstring), so the swapped history is computed
    only when ``¬swapped`` and ``readLatest`` hold on every affected read;
    the caller reuses it instead of swapping twice.
    """
    history = oh.history
    # Reads deleted by the swap, plus the re-ordered read itself.
    doomed = doomed_events(oh, read, target, strict=True)
    affected: List[EventId] = [read]
    for event in history.reads():
        if event.eid in doomed:
            affected.append(event.eid)
    for eid in affected:
        if is_swapped(program, oh, eid):
            return False, None
    for eid in affected:
        if not read_latest(oh, eid, target, level):
            return False, None
    swapped_oh = swap(oh, read, target)
    if not level.satisfies(swapped_oh.history):
        return False, None
    return True, swapped_oh
