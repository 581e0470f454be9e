"""Transaction logs and histories (paper §2.2.1, Def. 2.1).

A :class:`History` is the abstract representation of the interaction between
a program and the database in one execution: a set of transaction logs, a
session order ``so`` and a write-read relation ``wr``.

Design notes
------------
* Histories are **persistent** (copy-on-write): every mutating operation
  returns a new ``History`` sharing unchanged transaction logs.  The DPOR
  recursion branches aggressively, and persistence makes sharing safe.
* Transaction and event identifiers are structural (session, index,
  position), so histories reached on different exploration branches compare
  equal exactly when they are read-from equivalent (same events, same
  ``po``/``so``/``wr``) — the equivalence the paper's algorithms are optimal
  for.
* The distinguished ``init`` transaction (session :data:`~repro.core.events.INIT_SESSION`)
  writes the initial value of every global variable and precedes all other
  transactions in ``so``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .bitrel import RelationMatrix
from .events import INIT_TXN, Event, EventId, EventType, TxnId


class TransactionLog:
    """A transaction log ⟨t, E, po_t⟩: an id and a po-ordered event tuple.

    The program order ``po_t`` is the tuple order of :attr:`events`.  The
    minimal element is always a BEGIN event; a COMMIT or ABORT event, if
    present, is maximal.
    """

    __slots__ = ("tid", "events", "_final", "_writes", "_descriptor")

    def __init__(self, tid: TxnId, events: Tuple[Event, ...]):
        self.tid = tid
        self.events = events
        # Terminal event type, computed once: the completion-status
        # properties below are the most-called functions of the whole
        # exploration, so they must be single identity compares.
        self._final = events[-1].type if events else None

    # -- construction -----------------------------------------------------

    @classmethod
    def begin(cls, tid: TxnId) -> "TransactionLog":
        """A fresh transaction log containing only its BEGIN event."""
        return cls(tid, (Event(EventId(tid, 0), EventType.BEGIN),))

    def appended(self, event: Event) -> "TransactionLog":
        """Copy of this log with ``event`` appended as the po-maximal event."""
        if self.is_complete:
            raise ValueError(f"cannot extend complete transaction {self.tid!r}")
        if event.eid != EventId(self.tid, len(self.events)):
            raise ValueError(f"event id {event.eid!r} does not extend {self.tid!r}")
        return TransactionLog(self.tid, self.events + (event,))

    def prefix(self, length: int) -> "TransactionLog":
        """The po-downward-closed prefix keeping the first ``length`` events."""
        if not 0 < length <= len(self.events):
            raise ValueError(f"invalid prefix length {length} for {self.tid!r}")
        return TransactionLog(self.tid, self.events[:length])

    # -- status ------------------------------------------------------------

    @property
    def last_event(self) -> Event:
        return self.events[-1]

    @property
    def is_committed(self) -> bool:
        return self._final is EventType.COMMIT

    @property
    def is_aborted(self) -> bool:
        return self._final is EventType.ABORT

    @property
    def is_complete(self) -> bool:
        """Complete = carries a COMMIT or an ABORT event (paper §2.2.1)."""
        return self._final is EventType.COMMIT or self._final is EventType.ABORT

    @property
    def is_pending(self) -> bool:
        return not (self._final is EventType.COMMIT or self._final is EventType.ABORT)

    # -- reads and writes ---------------------------------------------------

    def reads(self) -> Tuple[Event, ...]:
        """``reads(t)``: external READ events (no earlier same-var write in po)."""
        return tuple(e for e in self.events if e.is_external_read)

    def writes(self) -> Dict[str, Event]:
        """``writes(t)``: var → last WRITE event; empty for aborted logs.

        Only the po-last write to each variable is visible to other
        transactions; aborted transactions expose no writes at all.

        Logs are immutable, so the map is computed once and cached — the
        axiom quantifier expansion and ``ValidWrites`` ask for it per
        variable per node, which made the per-call scan a hot path.  The
        returned dict is shared: callers must not mutate it.
        """
        try:
            return self._writes
        except AttributeError:
            pass
        visible: Dict[str, Event] = {}
        if not self.is_aborted:
            for event in self.events:
                if event.type is EventType.WRITE:
                    visible[event.var] = event
        self._writes = visible
        return visible

    def writes_var(self, var: str) -> bool:
        """``t writes x``: whether ``writes(t)`` contains a write to ``var``."""
        return var in self.writes()

    def last_write_before(self, var: str, pos: int) -> Optional[Event]:
        """Latest WRITE to ``var`` strictly before po-position ``pos``.

        Used by the read-local rule: such a read returns this write's value.
        """
        for event in reversed(self.events[:pos]):
            if event.type is EventType.WRITE and event.var == var:
                return event
        return None

    # -- misc ----------------------------------------------------------------

    def descriptor(self) -> Tuple:
        """Hashable structural summary used for canonical history keys.

        Cached: logs are immutable and shared between a history and its
        extensions, so end-state deduplication re-uses the tuples of every
        log that did not change along the branch.
        """
        try:
            return self._descriptor
        except AttributeError:
            pass
        desc = (
            self.tid,
            tuple((e.type.value, e.var, e.value, e.local) for e in self.events),
        )
        self._descriptor = desc
        return desc

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TransactionLog({self.tid!r}, {list(self.events)!r})"


class History:
    """A history ⟨T, so, wr⟩ (paper Def. 2.1).

    ``sessions`` maps each session id to the po-ordered tuple of its
    transaction ids (the functional representation of ``so`` from §2.3);
    ``txns`` maps transaction ids to logs; ``wr`` maps each external read
    *event* to the transaction id it reads from.
    """

    __slots__ = ("sessions", "txns", "wr", "_cache")

    def __init__(
        self,
        sessions: Mapping[str, Tuple[TxnId, ...]],
        txns: Mapping[TxnId, TransactionLog],
        wr: Mapping[EventId, TxnId],
    ):
        self.sessions: Dict[str, Tuple[TxnId, ...]] = dict(sessions)
        self.txns: Dict[TxnId, TransactionLog] = dict(txns)
        self.wr: Dict[EventId, TxnId] = dict(wr)
        self._cache: Dict[str, object] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def initial(
        cls,
        variables: Iterable[str],
        initial_value: Hashable = 0,
        overrides: Optional[Mapping[str, Hashable]] = None,
    ) -> "History":
        """The initial history: a single committed ``init`` transaction that
        writes an initial value to every variable in ``variables``.

        ``initial_value`` is the default; ``overrides`` supplies
        per-variable initial values (e.g. ``frozenset()`` for the id-set
        variables of SQL-table modelling).
        """
        overrides = overrides or {}
        events: List[Event] = [Event(EventId(INIT_TXN, 0), EventType.BEGIN)]
        for var in sorted(set(variables)):
            value = overrides.get(var, initial_value)
            events.append(Event(EventId(INIT_TXN, len(events)), EventType.WRITE, var, value))
        events.append(Event(EventId(INIT_TXN, len(events)), EventType.COMMIT))
        log = TransactionLog(INIT_TXN, tuple(events))
        return cls({}, {INIT_TXN: log}, {})

    def _evolve(self, sessions=None, txns=None, wr=None) -> "History":
        """Trusted persistent update: maps the caller did not change are
        *shared* with the child (no method ever mutates them in place, so
        sharing is safe), and already-copied maps are adopted without the
        defensive re-copy of ``__init__``.  This keeps per-event history
        extension — the allocation hot spot of the exploration — down to
        the one map that actually changed."""
        child = object.__new__(History)
        child.sessions = self.sessions if sessions is None else sessions
        child.txns = self.txns if txns is None else txns
        child.wr = self.wr if wr is None else wr
        child._cache = {}
        return child

    def begin_transaction(self, session: str) -> Tuple["History", TxnId]:
        """``h ⊕_j (e, begin)``: append a fresh transaction log to session ``j``."""
        order = self.sessions.get(session, ())
        tid = TxnId(session, len(order))
        if tid in self.txns:
            raise ValueError(f"transaction {tid!r} already exists")
        sessions = dict(self.sessions)
        sessions[session] = order + (tid,)
        txns = dict(self.txns)
        txns[tid] = TransactionLog.begin(tid)
        child = self._evolve(sessions=sessions, txns=txns)
        self._derive_status_lists(child, txns[tid])
        return child, tid

    def append_event(self, session: str, event: Event) -> "History":
        """``h ⊕_j e``: add ``event`` to the last transaction of session ``j``."""
        order = self.sessions.get(session)
        if not order:
            raise ValueError(f"session {session!r} has no transaction to extend")
        tid = order[-1]
        txns = dict(self.txns)
        txns[tid] = txns[tid].appended(event)
        child = self._evolve(txns=txns)
        self._derive_status_lists(child, txns[tid])
        return child

    def add_wr(self, writer: TxnId, read: EventId) -> "History":
        """``h ⊕ wr(t, e)``: set/replace the wr source of read event ``read``."""
        if writer not in self.txns:
            raise ValueError(f"unknown writer transaction {writer!r}")
        wr = dict(self.wr)
        wr[read] = writer
        return self._evolve(wr=wr)

    def with_read_source(self, read: EventId, writer: TxnId) -> "History":
        """Re-point read event ``read`` to read from ``writer``.

        Unlike :meth:`add_wr`, this also refreshes the value cached on the
        read event (the observed value is determined by the wr relation).
        Used by ``Swap``, which changes the wr dependency of the re-ordered
        read.
        """
        event = self.event(read)
        if not event.is_external_read:
            raise ValueError(f"{read!r} is not an external read")
        value = self.visible_write_value(writer, event.var)
        txns = dict(self.txns)
        log = txns[read.txn]
        events = list(log.events)
        events[read.pos] = event.with_value(value)
        txns[read.txn] = TransactionLog(log.tid, tuple(events))
        wr = dict(self.wr)
        wr[read] = writer
        return self._evolve(txns=txns, wr=wr)

    def remove_events(self, doomed: Set[EventId]) -> "History":
        """``h \\ D``: delete events, dropping emptied transaction logs.

        The caller is responsible for ``doomed`` being po-upward closed per
        transaction (we delete suffixes only); this is asserted because a
        violation means a broken Swap computation.
        """
        if not doomed:
            return self
        sessions: Dict[str, Tuple[TxnId, ...]] = {}
        txns: Dict[TxnId, TransactionLog] = {}
        for session, order in self.sessions.items():
            kept: List[TxnId] = []
            dropped = False
            for tid in order:
                log = self.txns[tid]
                keep = [e for e in log.events if e.eid not in doomed]
                if len(keep) < len(log.events) and keep != list(log.events[: len(keep)]):
                    raise AssertionError(f"non-suffix deletion in {tid!r}")
                if keep:
                    if dropped:
                        # Dropped transactions must form a session-order
                        # suffix, otherwise so would have holes.
                        raise AssertionError(f"hole in session {session!r}")
                    txns[tid] = TransactionLog(tid, tuple(keep))
                    kept.append(tid)
                else:
                    dropped = True
            if kept:
                sessions[session] = tuple(kept)
        txns[INIT_TXN] = self.txns[INIT_TXN]
        kept_ids = set(txns)
        wr = {read: writer for read, writer in self.wr.items() if read not in doomed and writer in kept_ids and read.txn in kept_ids}
        return History(sessions, txns, wr)

    # -- basic queries --------------------------------------------------------

    def __contains__(self, tid: TxnId) -> bool:
        return tid in self.txns

    def __iter__(self) -> Iterator[TransactionLog]:
        return iter(self.txns.values())

    def log(self, tid: TxnId) -> TransactionLog:
        return self.txns[tid]

    def event(self, eid: EventId) -> Event:
        return self.txns[eid.txn].events[eid.pos]

    def has_event(self, eid: EventId) -> bool:
        log = self.txns.get(eid.txn)
        return log is not None and eid.pos < len(log.events)

    def events(self) -> Iterator[Event]:
        for log in self.txns.values():
            yield from log.events

    def event_count(self) -> int:
        count = self._cache.get("event_count")
        if count is None:
            count = sum(len(log) for log in self.txns.values())
            self._cache["event_count"] = count
        return count

    def pending_transactions(self) -> List[TransactionLog]:
        logs = self._cache.get("pending_txns")
        if logs is None:
            logs = [log for log in self.txns.values() if log.is_pending]
            self._cache["pending_txns"] = logs
        return logs

    def _derive_status_lists(self, child: "History", changed: TransactionLog) -> None:
        """Diff the pending/committed lists onto a single-log extension.

        Only the log ``changed`` differs between ``self`` and ``child``, so
        the child's status lists are a constant-size edit of the parent's
        (computed only if the parent has them — laziness mirrors the other
        derived caches).  The lists are shared when unchanged; callers
        treat them as read-only.
        """
        tid = changed.tid
        pending = self._cache.get("pending_txns")
        if pending is not None:
            if changed.is_pending:
                if any(log.tid == tid for log in pending):
                    derived = [changed if log.tid == tid else log for log in pending]
                else:
                    derived = pending + [changed]
            else:
                derived = [log for log in pending if log.tid != tid]
            child._cache["pending_txns"] = derived
        committed = self._cache.get("committed_txns")
        if committed is not None:
            child._cache["committed_txns"] = (
                committed + [changed] if changed.is_committed else committed
            )

    def committed_transactions(self) -> List[TransactionLog]:
        """``commTrans(h)``: committed transaction logs (incl. ``init``)."""
        logs = self._cache.get("committed_txns")
        if logs is None:
            logs = [log for log in self.txns.values() if log.is_committed]
            self._cache["committed_txns"] = logs
        return logs

    def reads(self) -> List[Event]:
        """``reads(h)``: all external read events."""
        return [e for log in self.txns.values() for e in log.reads()]

    def writers_of(self, var: str) -> List[TxnId]:
        """Transactions ``t`` with ``t writes var``."""
        return [tid for tid, log in self.txns.items() if log.writes_var(var)]

    def visible_write_value(self, tid: TxnId, var: str) -> Hashable:
        """The value another transaction observes when reading ``var`` from ``tid``."""
        writes = self.txns[tid].writes()
        if var not in writes:
            raise KeyError(f"{tid!r} does not (visibly) write {var!r}")
        return writes[var].value

    # -- relations -------------------------------------------------------------

    def so_before(self, a: TxnId, b: TxnId) -> bool:
        """``(a, b) ∈ so``: same-session order, or ``a`` is ``init`` (≠ b)."""
        if a == b:
            return False
        if a == INIT_TXN:
            return True
        return a.session == b.session and a.index < b.index

    def wr_edge(self, a: TxnId, b: TxnId) -> bool:
        """``(a, b) ∈ wr`` lifted to transactions: some read of ``b`` reads from ``a``.

        The lifted pair set is cached on first query (histories are
        persistent, so ``wr`` never changes) — the Read Atomic premise asks
        this once per axiom instance, which made a linear scan of ``wr``
        the hot path of both batch and online saturation.
        """
        pairs = self._cache.get("wr_pairs")
        if pairs is None:
            pairs = {(writer, read.txn) for read, writer in self.wr.items()}
            self._cache["wr_pairs"] = pairs
        return (a, b) in pairs

    def so_pairs(self) -> Iterator[Tuple[TxnId, TxnId]]:
        """Session-order edges on transactions (transitively reduced).

        ``init`` precedes the first transaction of every session; within a
        session, consecutive transactions are ordered.
        """
        for order in self.sessions.values():
            prev = INIT_TXN
            for tid in order:
                yield prev, tid
                prev = tid

    def wr_pairs(self) -> Iterator[Tuple[TxnId, TxnId]]:
        """wr lifted to transactions: (writer, reader) pairs."""
        for read, writer in self.wr.items():
            yield writer, read.txn

    def causal_matrix(self) -> RelationMatrix:
        """The ``so ∪ wr`` relation as a :class:`RelationMatrix` with its
        transitive closure maintained.

        Built once per history and cached — histories are persistent, so
        the relation never changes after construction.  Checkers that need
        ``so ∪ wr`` plus extra edges copy this matrix and grow the copy
        incrementally (:meth:`RelationMatrix.add_edge`).
        """
        matrix = self._cache.get("causal_matrix")
        if matrix is None:
            edges: List[Tuple[TxnId, TxnId]] = list(self.so_pairs())
            edges.extend((writer, read.txn) for read, writer in self.wr.items() if writer != read.txn)
            matrix = RelationMatrix(self.txns, edges).freeze()
            self._cache["causal_matrix"] = matrix
        return matrix

    def cached_causal_matrix(self) -> Optional[RelationMatrix]:
        """The cached ``so ∪ wr`` closure, or ``None`` if not built yet.

        Lets extension derivation stay lazy: a child history's matrix is
        diffed from the parent's only when the parent already paid for one.
        """
        return self._cache.get("causal_matrix")  # type: ignore[return-value]

    def saturation_states(self) -> Dict[Tuple, object]:
        """Per-axiom-set incremental saturation states cached on this history.

        Maps an axiom tuple (the keys of
        :data:`~repro.isolation.axioms.AXIOMS_BY_LEVEL`) to the
        :class:`~repro.isolation.saturation.IncrementalSaturation` carrying
        ``so ∪ wr ∪ forced`` for this history.  States cached here are
        *shared* between a history and any children derived from it by the
        sibling-shared saturation of the DPOR hot path, so they must never
        be mutated — derivations fork first.  Internal plumbing between
        :mod:`repro.semantics.scheduler` and
        :mod:`repro.isolation.saturation`.
        """
        states = self._cache.get("sat_states")
        if states is None:
            states = {}
            self._cache["sat_states"] = states
        return states

    def adopt_causal_matrix(self, matrix: RelationMatrix) -> None:
        """Seed the causal-closure cache with an incrementally-derived matrix.

        Used by ``ValidWrites``: a candidate extension differs from its base
        history by a single wr edge, so its matrix is the base's closure
        plus one ``add_edge`` — adopting it avoids a full rebuild.  The
        matrix must be over exactly this history's transactions.
        """
        if matrix.nodes != tuple(self.txns):
            raise ValueError("adopted matrix does not match this history's transactions")
        self._cache["causal_matrix"] = matrix.freeze()

    def causally_before(self, a: TxnId, b: TxnId) -> bool:
        """``(a, b) ∈ (so ∪ wr)+``."""
        return self.causal_matrix().reaches(a, b)

    def causal_past(self, a: TxnId) -> Set[TxnId]:
        """All ``t ≠ a`` with ``(t, a) ∈ (so ∪ wr)+``.

        ``a`` is excluded even when it lies on a cycle (only possible on
        not-yet-validated histories).
        """
        past = self.causal_matrix().ancestors(a)
        past.discard(a)
        return past

    def is_so_wr_acyclic(self) -> bool:
        """Def. 2.1 requires ``so ∪ wr`` acyclic; O(1) on the cached closure."""
        return self.causal_matrix().is_acyclic()

    # -- cross-process shipping ---------------------------------------------------

    def to_wire(self):
        """Compact tuple encoding (see :mod:`repro.core.wire`)."""
        from .wire import history_to_wire

        return history_to_wire(self)

    @classmethod
    def from_wire(cls, wire) -> "History":
        from .wire import history_from_wire

        return history_from_wire(wire)

    def __reduce__(self):
        # Route pickling through the wire encoding: drops the cached
        # RelationMatrix closure (rebuilt lazily by the receiver) and the
        # per-event dataclass overhead.
        from .wire import history_from_wire

        return (history_from_wire, (self.to_wire(),))

    # -- structural equivalence --------------------------------------------------

    def canonical_key(self) -> Tuple:
        """Hashable key identifying this history up to read-from equivalence.

        Two histories have the same key iff they have the same transaction
        logs (same events in the same po), the same session order and the
        same write-read relation — exactly the equality of histories the
        paper's optimality notion is stated for.
        """
        logs = tuple(self.txns[tid].descriptor() for tid in sorted(self.txns))
        wr = tuple(sorted(self.wr.items()))
        return (logs, wr)

    def validate(self) -> None:
        """Check the well-formedness conditions of Def. 2.1 (used by tests)."""
        for read, writer in self.wr.items():
            event = self.event(read)
            if not event.is_external_read:
                raise AssertionError(f"wr source set for non-external-read {read!r}")
            if not self.txns[writer].writes_var(event.var):
                raise AssertionError(f"wr source {writer!r} does not write {event.var!r}")
        for log in self.txns.values():
            if log.events[0].type is not EventType.BEGIN:
                raise AssertionError(f"{log.tid!r} does not start with begin")
            for event in log.events[1:]:
                if event.type is EventType.BEGIN:
                    raise AssertionError(f"{log.tid!r} has a non-minimal begin")
            for event in log.events[:-1]:
                if event.type in (EventType.COMMIT, EventType.ABORT):
                    raise AssertionError(f"{log.tid!r} has a non-maximal commit/abort")
        if not self.is_so_wr_acyclic():
            raise AssertionError("so ∪ wr is cyclic")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        for tid in sorted(self.txns):
            log = self.txns[tid]
            parts.append(f"  {tid!r}: {[repr(e) for e in log.events]}")
        wr = ", ".join(f"{r!r}<-{w!r}" for r, w in sorted(self.wr.items()))
        return "History(\n" + "\n".join(parts) + f"\n  wr: {wr})"


def is_prefix(candidate: History, full: History) -> bool:
    """Whether ``candidate`` is a prefix of ``full`` (paper §3.1).

    Every transaction log of the candidate must be a po-prefix of the log
    with the same id in ``full``, the candidate's event set must be
    ``(po ∪ so ∪ wr)*``-downward closed in ``full``, and the restricted
    ``so``/``wr`` must agree.
    """
    kept_events: Set[EventId] = set()
    for tid, log in candidate.txns.items():
        if tid not in full.txns:
            return False
        other = full.txns[tid]
        if len(log.events) > len(other.events) or log.events != other.events[: len(log.events)]:
            return False
        kept_events.update(e.eid for e in log.events)
    # so restriction: session sequences must be prefixes.
    for session, order in candidate.sessions.items():
        if order != full.sessions.get(session, ())[: len(order)]:
            return False
    # wr restriction must agree on kept reads.
    for read, writer in full.wr.items():
        if read in kept_events:
            if candidate.wr.get(read) != writer:
                return False
    for read in candidate.wr:
        if read not in full.wr or candidate.wr[read] != full.wr[read]:
            return False
    # Downward closure w.r.t. po ∪ so ∪ wr on events: every edge into a
    # kept event starts at a kept event.
    edges: List[Tuple[EventId, EventId]] = []
    for log in full.txns.values():
        for first, second in zip(log.events, log.events[1:]):
            edges.append((first.eid, second.eid))
    for src, dst in full.so_pairs():
        edges.append((full.txns[src].last_event.eid, full.txns[dst].events[0].eid))
    for read, writer in full.wr.items():
        var = full.event(read).var
        write_event = full.txns[writer].writes().get(var)
        if write_event is not None:
            edges.append((write_event.eid, read))
    return all(src in kept_events for src, dst in edges if dst in kept_events)
