"""The portable JSONL trace format (version 1).

A *trace* is the recorded interaction between an application and its
database: one header line followed by one line per database event, in the
order the events were observed.  It is the on-disk bridge between the model
checker (which produces histories) and the live-traffic workload the
ROADMAP targets (which produces logs): anything that can emit these lines
can have its executions checked against RC/RA/CC/SI/SER, offline via
:meth:`Trace.to_history` or as events stream in via
:class:`repro.checking.online.OnlineChecker`.

The schema is documented field-by-field in ``docs/trace_format.md``; the
short version:

* line 1 — header: ``{"type": "header", "format": "repro-trace",
  "version": 1, "name": ..., "variables": [...], "initial": {...}}``;
* every other line — event: ``{"type": "begin"|"read"|"write"|"commit"|
  "abort", "session": str, "txn": int, ...}`` with ``var``/``value`` for
  reads and writes, ``from: [session, txn]`` naming the write-read source
  of an external read, and ``local: true`` for reads answered by the
  transaction's own earlier write.

Event *positions* are implicit (arrival order within the transaction), and
the distinguished ``init`` transaction is implicit too — the header's
``initial`` map reconstructs it — so a trace stays writable by hand and by
non-Python recorders.

Versioning rules: readers accept any file whose major ``version`` they
know, ignore unknown *optional* keys (forward-compatible additions), and
reject files with a newer version or missing required keys.  Any change
that alters the meaning of an existing key bumps ``version``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.events import INIT_TXN, Event, EventId, EventType, TxnId
from ..core.history import History, TransactionLog
from ..core.ordered_history import OrderedHistory
from ..core.serde import from_jsonable, to_jsonable

#: Current (and only) major version of the trace format.
TRACE_VERSION = 1

#: The ``format`` tag every header must carry.
TRACE_FORMAT = "repro-trace"

_EVENT_TYPES = {t.value for t in EventType}


class TraceFormatError(ValueError):
    """A trace file/line violates the schema or the event-order rules."""


class EvictedTransactionError(TraceFormatError):
    """An event references a transaction the replayer was told to forget.

    Raised instead of the generic "unknown transaction" error when the
    transaction demonstrably *existed* (its session's begin counter has
    passed its index) but has been evicted via :meth:`TraceReplayer.forget`.
    The streaming monitor surfaces this as a stale read under the
    ``assume-fresh`` retention mode.  In ``keep`` mode every visible
    writer stays, so only an event that is malformed anyway (one for a
    transaction that already completed) raises it, and the monitor lets it
    through as the trace error it is.
    """


def _is_index(value: object) -> bool:
    """Whether ``value`` is a transaction's position in its session: an
    int (not a bool) >= 0."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class TraceEvent:
    """One recorded database event.

    ``session``/``txn`` identify the transaction (``txn`` is the 0-based
    position of the transaction within its session); ``op`` is one of the
    five paper event types.  ``var``/``value`` are set for reads and
    writes; ``source`` names the ``(session, txn)`` a non-local read reads
    from (``None`` exactly when ``local`` is true).
    """

    op: str
    session: str
    txn: int
    var: Optional[str] = None
    value: Hashable = None
    source: Optional[Tuple[str, int]] = None
    local: bool = False

    @property
    def tid(self) -> TxnId:
        """The transaction id this event belongs to."""
        return TxnId(self.session, self.txn)

    @property
    def source_tid(self) -> Optional[TxnId]:
        """The wr source as a :class:`TxnId` (``None`` for non-reads/local)."""
        if self.source is None:
            return None
        return TxnId(self.source[0], self.source[1])

    def to_json_obj(self) -> Dict:
        """The event as a JSON-serializable dict (one trace line)."""
        obj: Dict = {"type": self.op, "session": self.session, "txn": self.txn}
        if self.op in ("read", "write"):
            obj["var"] = self.var
            obj["value"] = to_jsonable(self.value)
        if self.op == "read":
            if self.local:
                obj["local"] = True
            else:
                obj["from"] = list(self.source) if self.source else None
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "TraceEvent":
        """Parse one event line (already JSON-decoded)."""
        op = obj.get("type")
        if not isinstance(op, str) or op not in _EVENT_TYPES:
            raise TraceFormatError(f"unknown event type {op!r}")
        session = obj.get("session")
        txn = obj.get("txn")
        if not isinstance(session, str) or not _is_index(txn):
            raise TraceFormatError(
                f"event needs a string 'session' and an int 'txn' >= 0: {obj!r}"
            )
        var = value = None
        source: Optional[Tuple[str, int]] = None
        local = False
        if op in ("read", "write"):
            var = obj.get("var")
            if not isinstance(var, str):
                raise TraceFormatError(f"{op} event needs a string 'var': {obj!r}")
            try:
                value = from_jsonable(obj.get("value"))
            except ValueError as err:
                raise TraceFormatError(f"bad 'value' encoding: {err}") from None
        if op == "read":
            local = bool(obj.get("local", False))
            raw = obj.get("from")
            if local:
                if raw is not None:
                    raise TraceFormatError(f"local read cannot carry 'from': {obj!r}")
            else:
                if not (
                    isinstance(raw, (list, tuple))
                    and len(raw) == 2
                    and isinstance(raw[0], str)
                    and _is_index(raw[1])
                ):
                    raise TraceFormatError(
                        f"external read needs 'from': [session, txn >= 0]: {obj!r}"
                    )
                source = (raw[0], raw[1])
        return cls(op, session, txn, var, value, source, local)


@dataclass
class TraceHeader:
    """The metadata line every trace starts with.

    ``variables`` is the global-variable universe and ``initial`` their
    initial values — together they stand in for the distinguished ``init``
    transaction of Def. 2.1, which is therefore never spelled out as
    events.  ``meta`` is a free-form dict for recorder-specific context
    (program name, isolation level explored, seed, …); readers must
    tolerate and preserve keys they do not understand.
    """

    variables: Tuple[str, ...]
    initial: Dict[str, Hashable] = field(default_factory=dict)
    name: str = "trace"
    version: int = TRACE_VERSION
    meta: Dict = field(default_factory=dict)

    def to_json_obj(self) -> Dict:
        return {
            "type": "header",
            "format": TRACE_FORMAT,
            "version": self.version,
            "name": self.name,
            "variables": list(self.variables),
            "initial": {var: to_jsonable(value) for var, value in sorted(self.initial.items())},
            "meta": self.meta,
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "TraceHeader":
        if obj.get("type") != "header" or obj.get("format") != TRACE_FORMAT:
            raise TraceFormatError(
                f"first trace line must be a {TRACE_FORMAT!r} header, got {obj!r}"
            )
        version = obj.get("version")
        if not isinstance(version, int) or version < 1:
            raise TraceFormatError(f"header needs an int version >= 1, got {version!r}")
        if version > TRACE_VERSION:
            raise TraceFormatError(
                f"trace version {version} is newer than supported {TRACE_VERSION}"
            )
        variables = obj.get("variables")
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise TraceFormatError("header 'variables' must be a list of strings")
        initial_raw = obj.get("initial", {})
        if not isinstance(initial_raw, dict):
            raise TraceFormatError("header 'initial' must be an object")
        try:
            initial = {var: from_jsonable(value) for var, value in initial_raw.items()}
        except ValueError as err:
            raise TraceFormatError(f"bad 'initial' value encoding: {err}") from None
        unknown = set(initial) - set(variables)
        if unknown:
            raise TraceFormatError(f"initial values for undeclared variables: {sorted(unknown)}")
        meta = obj.get("meta", {})
        if not isinstance(meta, dict):
            raise TraceFormatError("header 'meta' must be an object")
        return cls(
            variables=tuple(variables),
            initial=initial,
            name=str(obj.get("name", "trace")),
            version=version,
            meta=dict(meta),
        )

    def initial_history(self) -> History:
        """The history containing only the implied ``init`` transaction."""
        return History.initial(self.variables, 0, overrides=self.initial)


class Trace:
    """A header plus an ordered tuple of events — one recorded execution."""

    __slots__ = ("header", "events")

    def __init__(self, header: TraceHeader, events: Iterable[TraceEvent]):
        self.header = header
        self.events: Tuple[TraceEvent, ...] = tuple(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.header.to_json_obj() == other.header.to_json_obj() and self.events == other.events

    def prefix(self, length: int) -> "Trace":
        """The trace containing only the first ``length`` events."""
        return Trace(self.header, self.events[:length])

    # -- serialization --------------------------------------------------------

    def dumps(self) -> str:
        """Serialize to JSONL text (header line + one line per event)."""
        lines = [json.dumps(self.header.to_json_obj(), sort_keys=True)]
        lines.extend(json.dumps(event.to_json_obj(), sort_keys=True) for event in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse JSONL text produced by :meth:`dumps` (or any recorder).

        The whole text goes through the streaming reader of
        :mod:`repro.trace.stream`, so both raise the same errors.
        """
        from .stream import stream_trace  # the stream module imports this one

        header, events = stream_trace(text.splitlines())
        return cls(header, list(events))

    def dump(self, path_or_file: Union[str, io.TextIOBase]) -> None:
        """Write the JSONL encoding to a path or an open text file."""
        text = self.dumps()
        if isinstance(path_or_file, str):
            with open(path_or_file, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            path_or_file.write(text)

    @classmethod
    def load(cls, path_or_file: Union[str, io.TextIOBase]) -> "Trace":
        """Read a trace from a path or an open text file."""
        if isinstance(path_or_file, str):
            with open(path_or_file, encoding="utf-8") as handle:
                return cls.loads(handle.read())
        return cls.loads(path_or_file.read())

    # -- recording from histories ---------------------------------------------

    @classmethod
    def from_history(
        cls,
        history_or_ordered: Union[History, OrderedHistory],
        name: str = "trace",
        meta: Optional[Dict] = None,
    ) -> "Trace":
        """Record a trace from a checker-produced history.

        Given an :class:`~repro.core.ordered_history.OrderedHistory` the
        recorded event order is its execution order ``<``.  Given a bare
        :class:`~repro.core.history.History` — which carries no total
        order — transactions are emitted contiguously in a deterministic
        topological order of ``so ∪ wr`` (ancestor-count, ties by id), so
        every read appears after its wr source completes and replaying the
        file one event at a time always goes through well-formed prefixes.
        """
        if isinstance(history_or_ordered, OrderedHistory):
            history = history_or_ordered.history
            order: Sequence[EventId] = [
                eid for eid in history_or_ordered.order if eid.txn != INIT_TXN
            ]
        else:
            history = history_or_ordered
            matrix = history.causal_matrix()
            if not matrix.is_acyclic():
                raise ValueError("cannot serialize a history with cyclic so ∪ wr")
            txns = sorted(
                (tid for tid in history.txns if tid != INIT_TXN),
                key=lambda tid: (bin(matrix.ancestors_mask(tid)).count("1"), tid),
            )
            order = [e.eid for tid in txns for e in history.txns[tid].events]
        header = TraceHeader(
            variables=tuple(sorted(history.txns[INIT_TXN].writes())),
            initial={var: ev.value for var, ev in history.txns[INIT_TXN].writes().items()},
            name=name,
            meta=dict(meta or {}),
        )
        events: List[TraceEvent] = []
        for eid in order:
            event = history.event(eid)
            source: Optional[Tuple[str, int]] = None
            if event.is_external_read:
                writer = history.wr.get(eid)
                if writer is None:
                    raise ValueError(f"external read {eid!r} has no wr source")
                source = (writer.session, writer.index)
            events.append(
                TraceEvent(
                    op=event.type.value,
                    session=eid.txn.session,
                    txn=eid.txn.index,
                    var=event.var,
                    value=event.value,
                    source=source,
                    local=event.local,
                )
            )
        return cls(header, events)

    @classmethod
    def from_records(
        cls,
        records: Iterable[Mapping],
        variables: Optional[Iterable[str]] = None,
        initial: Optional[Mapping[str, Hashable]] = None,
        name: str = "trace",
        meta: Optional[Dict] = None,
    ) -> "Trace":
        """Adapt plain dict/log input (e.g. parsed server logs) to a trace.

        Each record needs ``type``/``session``/``txn`` and the per-type
        fields of the schema; this is exactly
        :meth:`TraceEvent.from_json_obj`, so values must already be in the
        JSON encoding.  When ``variables`` is omitted it is inferred from
        the variables the records mention plus the keys of ``initial`` (so
        a round-trip through :meth:`dumps`/:meth:`loads` never rejects its
        own header).  An empty or commit-only log is a valid input: the
        result is a trace over the declared variables whose replay is the
        initial state plus whatever empty transactions the log mentions.
        """
        events = [TraceEvent.from_json_obj(record) for record in records]
        if variables is None:
            mentioned = {e.var for e in events if e.var is not None}
            variables = sorted(mentioned | set(initial or {}))
        header = TraceHeader(
            variables=tuple(variables),
            initial=dict(initial or {}),
            name=name,
            meta=dict(meta or {}),
        )
        return cls(header, events)

    # -- replaying into a history ----------------------------------------------

    def to_history(self, strict: bool = True) -> History:
        """Replay the events into a :class:`~repro.core.history.History`.

        Validates the event-order rules as it goes (see
        :class:`TraceReplayer`); with ``strict`` the result must also pass
        ``History.validate`` (acyclic ``so ∪ wr``, well-placed begins and
        commits, wr sources that visibly write their variable).
        """
        replayer = TraceReplayer(self.header)
        for index, event in enumerate(self.events):
            try:
                replayer.apply(event)
            except TraceFormatError as err:
                raise TraceFormatError(f"event #{index}: {err}") from None
        history = replayer.history()
        if strict:
            try:
                history.validate()
            except AssertionError as err:
                raise TraceFormatError(f"replayed history is malformed: {err}") from None
        return history


class TraceReplayer:
    """Incremental trace → history state machine.

    Both :meth:`Trace.to_history` and the online checker need the same
    bookkeeping — which transactions exist, which are pending, which events
    each log holds, what the wr relation is — applied one event at a time
    with the same validation.  This class is that shared state machine;
    :class:`~repro.checking.online.OnlineChecker` composes it with the
    incremental consistency machinery.

    Order rules enforced per event:

    * ``begin`` opens transaction ``k`` of a session only when ``k`` is the
      next index and transaction ``k-1`` (if any) is complete — sessions
      are sequential clients;
    * ``read``/``write``/``commit``/``abort`` extend the session's last,
      still-pending transaction;
    * an external read's source must already have written the variable
      (reads follow their source, footnote 7 of the paper), and a local
      read needs an earlier own write.
    """

    def __init__(self, header: TraceHeader):
        self.header = header
        init = header.initial_history()
        self._logs: Dict[TxnId, List[Event]] = {INIT_TXN: list(init.txns[INIT_TXN].events)}
        self._txn_order: List[TxnId] = [INIT_TXN]
        self._sessions: Dict[str, List[TxnId]] = {}
        self._wr: Dict[EventId, TxnId] = {}
        self._complete: Dict[TxnId, str] = {INIT_TXN: "commit"}
        #: var → last WRITE event per transaction that wrote it (insertion order).
        self._writes: Dict[TxnId, Dict[str, Event]] = {
            INIT_TXN: dict(init.txns[INIT_TXN].writes())
        }
        self._count = 0
        # Per-session summaries that survive forget(): how many transactions
        # the session has begun (= the next valid begin index) and which
        # transaction, if any, is still pending.  O(sessions), not O(events).
        self._session_begun: Dict[str, int] = {}
        self._session_open: Dict[str, Optional[TxnId]] = {}

    # -- queries ---------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Number of events applied so far."""
        return self._count

    def transactions(self) -> Tuple[TxnId, ...]:
        """All transactions in creation order (``init`` first)."""
        return tuple(self._txn_order)

    def session_order(self, session: str) -> Tuple[TxnId, ...]:
        """The transactions begun by ``session``, in session order."""
        return tuple(self._sessions.get(session, ()))

    def wr_source(self, eid: EventId) -> Optional[TxnId]:
        """The wr source of the given read event, if recorded."""
        return self._wr.get(eid)

    @property
    def wr_map(self) -> Dict[EventId, TxnId]:
        """read event id → wr source, over live reads (do not mutate)."""
        return self._wr

    def wrote_any(self, tid: TxnId) -> bool:
        """Whether ``tid`` has recorded at least one write (aborted or not)."""
        return bool(self._writes.get(tid))

    def is_complete(self, tid: TxnId) -> bool:
        return tid in self._complete

    def is_aborted(self, tid: TxnId) -> bool:
        return self._complete.get(tid) == "abort"

    def is_live(self, tid: TxnId) -> bool:
        """Whether ``tid`` is currently materialised (not forgotten)."""
        return tid in self._logs

    def was_forgotten(self, tid: TxnId) -> bool:
        """Whether ``tid`` existed at some point but was evicted.

        Decidable in O(1) from the per-session begin counter: the
        transaction existed iff its index is between 0 and the session's
        next begin index, and it is forgotten iff it no longer has a log.
        """
        return tid not in self._logs and 0 <= tid.index < self._session_begun.get(tid.session, 0)

    @property
    def live_count(self) -> int:
        """Number of currently materialised transactions (incl. ``init``)."""
        return len(self._logs)

    def visible_writes(self, tid: TxnId) -> Dict[str, Event]:
        """``writes(t)`` so far: var → last write; empty once aborted."""
        if self.is_aborted(tid):
            return {}
        return self._writes.get(tid, {})

    def history(self) -> History:
        """Materialise the current prefix as a (persistent) history."""
        txns = {
            tid: TransactionLog(tid, tuple(events)) for tid, events in self._logs.items()
        }
        sessions = {session: tuple(order) for session, order in self._sessions.items()}
        return History(sessions, txns, dict(self._wr))

    # -- eviction (streaming-monitor GC) ---------------------------------------

    def forget(self, tids: Iterable[TxnId]) -> None:
        """Drop the state of the given *complete* transactions.

        The per-session summaries keep begin-validation exact afterwards
        (the next index and pending-predecessor checks never consult the
        dropped logs), and :meth:`was_forgotten` stays decidable.  wr
        entries with a forgotten endpoint are dropped too — the caller
        (:class:`~repro.checking.online.OnlineChecker`) is responsible for
        having baked any still-relevant reachability into its maintained
        closure before forgetting.  Forgetting ``init``, a pending
        transaction, or an unknown one raises ``ValueError``.
        """
        drop = set(tids)
        if not drop:
            return
        if INIT_TXN in drop:
            raise ValueError("cannot forget the init transaction")
        for tid in drop:
            if tid not in self._logs:
                raise ValueError(f"cannot forget unknown transaction {tid!r}")
            if tid not in self._complete:
                raise ValueError(f"cannot forget pending transaction {tid!r}")
        for tid in drop:
            del self._logs[tid]
            self._writes.pop(tid, None)
            self._complete.pop(tid, None)
        self._txn_order = [t for t in self._txn_order if t not in drop]
        for session in {t.session for t in drop}:
            kept = [t for t in self._sessions.get(session, []) if t not in drop]
            if kept:
                self._sessions[session] = kept
            else:
                self._sessions.pop(session, None)
        if self._wr:
            self._wr = {
                eid: src
                for eid, src in self._wr.items()
                if eid.txn not in drop and src not in drop
            }

    # -- applying events ----------------------------------------------------------

    def apply(self, event: TraceEvent) -> Event:
        """Validate and apply one trace event; returns the core event added."""
        handler = getattr(self, f"_apply_{event.op}", None)
        if handler is None:
            raise TraceFormatError(f"unknown event type {event.op!r}")
        added = handler(event)
        self._count += 1
        return added

    def _open_log(self, event: TraceEvent) -> Tuple[TxnId, List[Event]]:
        tid = event.tid
        log = self._logs.get(tid)
        if log is None:
            if self.was_forgotten(tid):
                raise EvictedTransactionError(f"event for evicted transaction {tid!r}")
            raise TraceFormatError(f"event for unknown transaction {tid!r} (missing begin)")
        if tid in self._complete:
            raise TraceFormatError(f"event for already-complete transaction {tid!r}")
        return tid, log

    def _apply_begin(self, event: TraceEvent) -> Event:
        tid = event.tid
        if tid.session == INIT_TXN.session:
            raise TraceFormatError(f"session name {tid.session!r} is reserved")
        begun = self._session_begun.get(tid.session, 0)
        if event.txn != begun:
            raise TraceFormatError(
                f"begin of {tid!r} out of order: next index in session is {begun}"
            )
        open_tid = self._session_open.get(tid.session)
        if open_tid is not None:
            raise TraceFormatError(
                f"begin of {tid!r} while {open_tid!r} is still pending"
            )
        self._sessions.setdefault(tid.session, []).append(tid)
        self._session_begun[tid.session] = begun + 1
        self._session_open[tid.session] = tid
        added = Event(EventId(tid, 0), EventType.BEGIN)
        self._logs[tid] = [added]
        self._txn_order.append(tid)
        self._writes[tid] = {}
        return added

    def _apply_read(self, event: TraceEvent) -> Event:
        tid, log = self._open_log(event)
        eid = EventId(tid, len(log))
        if event.local:
            if event.var not in self._writes[tid]:
                raise TraceFormatError(
                    f"local read of {event.var!r} in {tid!r} has no earlier own write"
                )
            added = Event(eid, EventType.READ, event.var, event.value, local=True)
        else:
            source = event.source_tid
            if source is None:
                raise TraceFormatError(f"external read in {tid!r} has no source")
            if source != INIT_TXN and source not in self._logs:
                if self.was_forgotten(source):
                    raise EvictedTransactionError(
                        f"read in {tid!r} from evicted transaction {source!r}"
                    )
                raise TraceFormatError(f"read in {tid!r} from unknown transaction {source!r}")
            if event.var not in self.visible_writes(source):
                raise TraceFormatError(
                    f"read of {event.var!r} in {tid!r} from {source!r}, "
                    f"which has not (visibly) written it"
                )
            added = Event(eid, EventType.READ, event.var, event.value)
            self._wr[eid] = source
        log.append(added)
        return added

    def _apply_write(self, event: TraceEvent) -> Event:
        tid, log = self._open_log(event)
        if event.var not in self.header.variables:
            raise TraceFormatError(f"write to undeclared variable {event.var!r}")
        added = Event(EventId(tid, len(log)), EventType.WRITE, event.var, event.value)
        log.append(added)
        self._writes[tid][event.var] = added
        return added

    def _apply_commit(self, event: TraceEvent) -> Event:
        tid, log = self._open_log(event)
        added = Event(EventId(tid, len(log)), EventType.COMMIT)
        log.append(added)
        self._complete[tid] = "commit"
        self._session_open[tid.session] = None
        return added

    def _apply_abort(self, event: TraceEvent) -> Event:
        tid, log = self._open_log(event)
        added = Event(EventId(tid, len(log)), EventType.ABORT)
        log.append(added)
        self._complete[tid] = "abort"
        self._session_open[tid.session] = None
        return added
