"""Compact cross-process encoding of histories and ordered histories.

The parallel exploration driver ships work items (ordered histories) and
output histories between the coordinator and worker processes.  Pickling
the object graphs directly is wasteful: every :class:`~repro.core.events.Event`
drags its nested ``EventId``/``TxnId`` dataclasses; here everything
travels as flat tuples and the one cache worth keeping — the transitive
closure of ``so ∪ wr`` — travels as packed int rows.

The wire format here is plain tuples of ints, strings and event payloads:

* a **transaction table** — ``(session, index)`` pairs in the history's
  transaction-dict insertion order (the order ``RelationMatrix`` indexing
  and ``adopt_causal_matrix`` depend on, so it must survive the round
  trip);
* per-table-entry **event tuples** ``(type_code, var, value, local)`` —
  event ids are implicit (table position + program-order position);
* the **wr relation** as ``(reader_index, read_pos, writer_index)`` triples;
* the **session map** as ``(session, transaction_count)`` pairs (session
  transaction ids are always ``0..n-1``, so the count suffices);
* the **causal closure**, when the sender had one cached: the packed
  ``so ∪ wr`` :meth:`~repro.core.bitrel.RelationMatrix.closure_rows` —
  two ``n``-bit ints per transaction (its one-step predecessors and its
  ancestors).  The closure is a *fixpoint* the receiver would otherwise
  recompute from scratch on its first causality query (DPOR work items hit
  one immediately), while on the wire it is a few dozen small ints;
  shipping it makes a decoded work item as cheap to step as the original.
  ``None`` when the sender never built one;
* for ordered histories, the order ``<`` as ``(txn_index, pos)`` pairs.

``History``, ``OrderedHistory`` and ``Event`` install ``__reduce__`` hooks
that route plain ``pickle`` through this encoding, so multiprocessing
queues get the compact form with no cooperation from callers.

Framing
-------

The persistent worker pool (:mod:`repro.dpor.pool`) exchanges
**frames**: a fixed header (magic, version, tag, payload length) followed
by one pickle of an already-wire-encoded payload — one length-prefixed
unit the receiver can validate before trusting.  :func:`encode_frame` /
:func:`decode_frame` implement the framing; :func:`encode_items` /
:func:`decode_items` encode the work items a frame carries.  Truncated,
corrupt and oversized frames all raise :class:`FrameError` instead of
feeding garbage to ``pickle``.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, List, Optional, Tuple

from .bitrel import RelationMatrix
from .events import Event, EventId, EventType, TxnId
from .history import History, TransactionLog
from .ordered_history import OrderedHistory

#: Stable small-int codes for event types (order of declaration in EventType).
_TYPE_CODE: Dict[EventType, int] = {t: i for i, t in enumerate(EventType)}
_CODE_TYPE: Tuple[EventType, ...] = tuple(EventType)

#: ``(sessions, txn_table, logs, wr, closure)`` — see the module docstring.
HistoryWire = Tuple[Tuple, Tuple, Tuple, Tuple, Optional[Tuple]]
#: ``(history_wire, order)``.
OrderedHistoryWire = Tuple[HistoryWire, Tuple]


def history_to_wire(history: History) -> HistoryWire:
    """Encode a history as nested tuples of ints/strings/values."""
    txn_ids = tuple(history.txns)
    txn_index = {tid: i for i, tid in enumerate(txn_ids)}
    table = tuple((tid.session, tid.index) for tid in txn_ids)
    logs = tuple(
        tuple(
            (_TYPE_CODE[e.type], e.var, e.value, e.local)
            for e in history.txns[tid].events
        )
        for tid in txn_ids
    )
    wr = tuple(
        (txn_index[read.txn], read.pos, txn_index[writer])
        for read, writer in history.wr.items()
    )
    sessions = tuple((session, len(order)) for session, order in history.sessions.items())
    matrix = history.cached_causal_matrix()
    closure = matrix.closure_rows() if matrix is not None else None
    return (sessions, table, logs, wr, closure)


def history_from_wire(wire: HistoryWire) -> History:
    """Rebuild a history, restoring the causal closure when it was shipped."""
    sessions_wire, table, logs, wr_wire, closure = wire
    tids = tuple(TxnId(session, index) for session, index in table)
    txns: Dict[TxnId, TransactionLog] = {}
    for tid, log in zip(tids, logs):
        events = tuple(
            Event(EventId(tid, pos), _CODE_TYPE[code], var, value, local)
            for pos, (code, var, value, local) in enumerate(log)
        )
        txns[tid] = TransactionLog(tid, events)
    sessions = {
        session: tuple(TxnId(session, i) for i in range(count))
        for session, count in sessions_wire
    }
    wr = {
        EventId(tids[reader], pos): tids[writer]
        for reader, pos, writer in wr_wire
    }
    history = History(sessions, txns, wr)
    if closure is not None:
        history.adopt_causal_matrix(RelationMatrix.from_closure(tids, closure))
    return history


def ordered_history_to_wire(oh: OrderedHistory) -> OrderedHistoryWire:
    """Encode an ordered history: history wire + ``<`` as index pairs."""
    history_wire = history_to_wire(oh.history)
    txn_index = {tid: i for i, tid in enumerate(oh.history.txns)}
    order = tuple((txn_index[eid.txn], eid.pos) for eid in oh.order)
    return (history_wire, order)


def ordered_history_from_wire(wire: OrderedHistoryWire) -> OrderedHistory:
    history_wire, order_wire = wire
    history = history_from_wire(history_wire)
    tids = tuple(history.txns)
    order = [EventId(tids[txn_i], pos) for txn_i, pos in order_wire]
    return OrderedHistory(history, order)


def encode_items(items: List[Tuple[int, OrderedHistory]]) -> List[Tuple[int, OrderedHistoryWire]]:
    """Encode a batch of work-stack items (kind, ordered history)."""
    return [(kind, ordered_history_to_wire(oh)) for kind, oh in items]


def decode_items(items: List[Tuple[int, OrderedHistoryWire]]) -> List[Tuple[int, OrderedHistory]]:
    return [(kind, ordered_history_from_wire(wire)) for kind, wire in items]


# -- length-prefixed frames ---------------------------------------------------

#: Frame header: 2-byte magic, 1-byte format version, 1-byte tag (the
#: pool's message kind), 4-byte big-endian payload length.
_FRAME_HEADER = struct.Struct(">2sBBI")

FRAME_MAGIC = b"RW"
#: Bumped whenever a frame's payload layout changes (version 2: the
#: closure travels as ``(pred, anc)`` rows).
FRAME_VERSION = 2

#: Hard ceiling on one frame's payload.  A coordinator/worker pair never
#: legitimately approaches this (a frame holds one seed, or one time
#: slice's outputs and unfinished stack); anything larger is a protocol
#: error, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """A wire frame is truncated, corrupt, oversized, or mis-tagged."""


def encode_frame(tag: int, payload: object, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One length-prefixed frame: header + a single pickle of ``payload``.

    ``payload`` must already be in wire form (plain tuples of ints,
    strings and event values — see :func:`encode_items`), so the whole
    message costs exactly one serialisation call.
    """
    if not 0 <= tag <= 0xFF:
        raise FrameError(f"frame tag must fit one byte, got {tag}")
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > max_bytes:
        raise FrameError(f"frame payload {len(body)} bytes exceeds limit {max_bytes}")
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, tag, len(body)) + body


def decode_frame(frame: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Tuple[int, object]:
    """Validate and decode one frame; returns ``(tag, payload)``.

    Every malformation short of a valid header + exactly-matching payload
    raises :class:`FrameError` *before* the payload reaches ``pickle`` —
    a truncated or over-long byte string is never partially trusted.
    """
    if len(frame) < _FRAME_HEADER.size:
        raise FrameError(f"truncated frame: {len(frame)} bytes < {_FRAME_HEADER.size}-byte header")
    magic, version, tag, length = _FRAME_HEADER.unpack_from(frame)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if length > max_bytes:
        raise FrameError(f"frame declares {length} bytes, exceeds limit {max_bytes}")
    body = frame[_FRAME_HEADER.size:]
    if len(body) != length:
        kind = "truncated" if len(body) < length else "trailing garbage in"
        raise FrameError(f"{kind} frame: header declares {length} bytes, got {len(body)}")
    return tag, pickle.loads(body)

