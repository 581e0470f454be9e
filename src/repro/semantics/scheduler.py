"""The Next scheduler, ValidWrites, and history extension (paper §5.1).

``Next`` is deterministic: it completes the (unique) pending transaction if
one exists, otherwise starts the oracle-order-smallest not-yet-started
transaction of the program.  This maintains the central invariant of
``explore-ce`` — explored histories have *at most one* pending transaction,
which is then necessarily ``(so ∪ wr)+``-maximal, so causal extensibility
guarantees the exploration is never blocked.

``ValidWrites(h, e)`` computes the committed transactions a fresh external
read may read from while keeping the history consistent with the isolation
level under exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from ..core.events import INIT_TXN, Event, EventId, EventType, TxnId
from ..core.history import History
from ..core.ordered_history import OrderedHistory
from ..isolation.base import IsolationLevel
from ..isolation.saturation import derive_extension_states
from ..lang.program import Program
from .executor import AbortOp, CommitOp, ReadOp, WriteOp, next_operation


@dataclass(frozen=True)
class NextAction:
    """The event ``Next`` wants to add, before any wr choice is made.

    For an external read (``kind == READ`` and not ``local``) the value is
    unresolved: it depends on the wr source chosen by the caller.
    """

    kind: EventType
    txn: TxnId
    var: Optional[str] = None
    value: Hashable = None
    local: bool = False

    @property
    def is_external_read(self) -> bool:
        return self.kind is EventType.READ and not self.local


def pending_transaction(history: History) -> Optional[TxnId]:
    """The unique pending transaction, if any (invariant: at most one)."""
    pending = history.pending_transactions()
    if len(pending) > 1:
        raise AssertionError(f"history has {len(pending)} pending transactions")
    return pending[0].tid if pending else None


def unstarted_transactions(program: Program, history: History) -> List[TxnId]:
    """Transactions of the program with no log in the history yet."""
    missing: List[TxnId] = []
    for session in program.sessions:
        started = len(history.sessions.get(session, ()))
        for index in range(started, program.session_length(session)):
            missing.append(TxnId(session, index))
    return missing


def next_action(program: Program, history: History) -> Optional[NextAction]:
    """The deterministic ``Next`` of §5.1; ``None`` when the program finished."""
    pending = pending_transaction(history)
    if pending is not None:
        return _pending_action(program, history, pending)
    candidates = unstarted_transactions(program, history)
    if not candidates:
        return None
    # Only session-minimal transactions are startable; the oracle-smallest
    # candidate is the startable one with the least oracle key.
    startable = [tid for tid in candidates if tid.index == len(history.sessions.get(tid.session, ()))]
    chosen = min(startable, key=program.oracle_key)
    return NextAction(EventType.BEGIN, chosen)


def _pending_action(program: Program, history: History, tid: TxnId) -> NextAction:
    log = history.txns[tid]
    op, _env = next_operation(program.transaction(tid), log)
    if isinstance(op, (ReadOp, WriteOp)) and not history.txns[INIT_TXN].writes_var(op.var):
        # A computed name outside the program's universe: init does not
        # write it, so a read of it has no writer and ValidWrites would
        # silently block the branch.
        raise ValueError(
            f"transaction {tid!r} accesses variable {op.var!r}, which init does not "
            "write; declare computed names in the program's extra_variables"
        )
    if isinstance(op, ReadOp):
        last_write = log.last_write_before(op.var, len(log.events))
        if last_write is not None:
            # read-local rule: value fixed by the latest own write.
            return NextAction(EventType.READ, tid, op.var, last_write.value, local=True)
        return NextAction(EventType.READ, tid, op.var)
    if isinstance(op, WriteOp):
        return NextAction(EventType.WRITE, tid, op.var, op.value)
    if isinstance(op, CommitOp):
        return NextAction(EventType.COMMIT, tid)
    assert isinstance(op, AbortOp)
    return NextAction(EventType.ABORT, tid)


def apply_action(
    oh: OrderedHistory,
    action: NextAction,
    writer: Optional[TxnId] = None,
) -> OrderedHistory:
    """Extend an ordered history with the event described by ``action``.

    ``writer`` must be given exactly for external reads (the wr choice).
    """
    history = oh.history
    if writer is not None and not action.is_external_read:
        raise ValueError(f"{action.kind} takes no wr source")
    if action.kind is EventType.BEGIN:
        eid = EventId(action.txn, 0)
    else:
        eid = EventId(action.txn, len(history.txns[action.txn].events))
    return oh.extended(extend_history(history, action, writer), eid)


def extend_history(history: History, action: NextAction, writer: Optional[TxnId] = None) -> History:
    """``h ⊕ e`` (and ``⊕ wr(writer, e)`` for external reads).

    This is the single chokepoint through which the explorer, the DFS
    baseline and ``readLatest`` grow histories, so it is also where the
    child's hot-path caches are **derived** from the parent's instead of
    being rebuilt per node: the ``so ∪ wr`` closure matrix by a copy plus
    at most one ``add_edge``, and any cached saturation states by
    :func:`~repro.isolation.saturation.derive_extension_states`, which
    shares each state or forks it and makes the saturation step for the
    event — aborts included.
    """
    if action.kind is EventType.BEGIN:
        extended, tid = history.begin_transaction(action.txn.session)
        assert tid == action.txn, f"begin produced {tid!r}, expected {action.txn!r}"
        _derive_extension_caches(history, extended, action, None)
        return extended
    tid = action.txn
    eid = EventId(tid, len(history.txns[tid].events))
    if action.is_external_read:
        if writer is None:
            raise ValueError("external read needs a wr source")
        value = history.visible_write_value(writer, action.var)
        event = Event(eid, EventType.READ, action.var, value)
        extended = history.append_event(tid.session, event).add_wr(writer, eid)
    else:
        event = Event(eid, action.kind, action.var, action.value, local=action.local)
        extended = history.append_event(tid.session, event)
    _derive_extension_caches(history, extended, action, writer)
    return extended


def _derive_extension_caches(
    parent: History,
    child: History,
    action: NextAction,
    writer: Optional[TxnId],
) -> None:
    """Seed ``child``'s caches by diffing from ``parent``'s (both lazy:
    nothing is derived that the parent has not already computed)."""
    base = parent.cached_causal_matrix()
    if base is not None:
        tid = action.txn
        if action.kind is EventType.BEGIN:
            derived = base.copy()
            derived.add_node(tid)
            order = child.sessions[tid.session]
            prev = order[-2] if len(order) > 1 else INIT_TXN
            derived.add_edge(prev, tid)
            child.adopt_causal_matrix(derived)
        elif action.is_external_read:
            if writer == tid:
                child.adopt_causal_matrix(base)  # self-wr adds no edge
            else:
                derived = base.copy()
                derived.add_edge(writer, tid)
                child.adopt_causal_matrix(derived)
        else:
            # Same transactions, same so ∪ wr — the frozen matrix is shared.
            child.adopt_causal_matrix(base)
    derive_extension_states(
        parent,
        child,
        action.kind,
        action.txn,
        event=None if action.kind is EventType.BEGIN else child.txns[action.txn].last_event,
        writer=writer,
    )


def valid_writes(
    history: History,
    action: NextAction,
    level: IsolationLevel,
) -> List[Tuple[TxnId, History]]:
    """``ValidWrites(h, e)`` (§5.1): committed writers of ``var`` such that
    ``h ⊕ e ⊕ wr(t, e)`` satisfies the isolation level.

    Returns (writer, extended history) pairs so callers don't re-extend.

    Each candidate differs from ``history`` by one read event and one wr
    edge over the *same* transaction set, so :func:`extend_history` derives
    its ``so ∪ wr`` closure (and any cached saturation states) from the
    base history's caches — the consistency check below never rebuilds the
    relation and, on the saturation levels, is O(1) per candidate.
    """
    assert action.is_external_read
    history.causal_matrix()  # ensure the base closure exists to derive from
    results: List[Tuple[TxnId, History]] = []
    for log in history.committed_transactions():
        if not log.writes_var(action.var):
            continue
        candidate = extend_history(history, action, log.tid)
        if level.satisfies(candidate):
            results.append((log.tid, candidate))
    return results

