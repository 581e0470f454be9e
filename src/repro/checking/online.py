"""Online incremental isolation checking of streamed trace events.

:class:`OnlineChecker` consumes one :class:`~repro.trace.format.TraceEvent`
at a time and re-decides, after every append, which isolation levels the
prefix history observed so far satisfies.  The verdict after the last event
equals the batch verdict of the corresponding level checker on the
completed history — the *batch-equivalence guarantee*, property-tested in
``tests/test_online_checker.py`` on paper, fuzzed and application-workload
traces — and so does the verdict after every intermediate event, each
against the batch checker run on that prefix.

What is incremental
-------------------

* the ``so ∪ wr`` closure lives in one
  :class:`~repro.core.bitrel.RelationMatrix` that grows with the stream —
  ``add_node`` per ``begin``, ``add_edge`` per session-successor and
  write-read edge — instead of being rebuilt per event (the from-scratch
  build is cubic in transactions; the increments are O(affected rows));
* levels whose axioms are all co-free — RC/RA/CC and the session
  guarantees (RYW/MR/MW/WFR/SESSION) — run on
  :class:`~repro.isolation.saturation.IncrementalSaturation`, whose
  per-event step (the one the explorer also uses) is called in place:
  only the instances an event creates are expanded, pending premises are
  re-checked only after an external read (the one event adding an edge
  they can use; they are monotone in the grow-only prefix), and the
  verdict is the maintained closure's O(1) acyclicity flag;
* the search levels — SI, SER, PSI, PC, BS-3 — re-run their memoized
  searches per event (their axioms mention the commit order, so no
  saturation state carries over) but on the maintained matrix (passed via
  ``History.adopt_causal_matrix``) rather than a rebuilt one.

Which camp a level falls in is read off its
:class:`~repro.isolation.registry.LevelSpec`, so spec-registered
extensions stream without touching this module.

The abort exception
-------------------

Aborting a transaction retroactively *removes* its writes (§2.2.1), the
one non-monotone step of the model: saturation instances quantified over
that writer — and any forced edges they already contributed — become
invalid.  Fired edges are recorded one-step in each state's matrix, so
the retraction is in place and exact
(``IncrementalSaturation.abort_writer``: clear the writer's fired bits,
re-close); write-free aborts don't touch the states at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.bitrel import RelationMatrix
from ..core.events import INIT_TXN, Event, TxnId
from ..core.history import History
from ..isolation.base import IsolationLevel, get_level
from ..isolation.registry import LevelSpec, level_spec
from ..isolation.saturation import IncrementalSaturation
from ..trace.format import Trace, TraceEvent, TraceHeader, TraceReplayer

#: The levels an OnlineChecker decides by default, weakest first (the
#: paper's chain; any registered level name is accepted — ``repro levels``
#: lists them all).
DEFAULT_LEVELS: Tuple[str, ...] = ("RC", "RA", "CC", "SI", "SER")


def _saturation_eligible(spec: LevelSpec) -> bool:
    """Whether a level is decided by incremental saturation online.

    Co-free axioms without an order predicate and without a bespoke search
    checker: the forced-edge state streams; everything else (SI/SER/PSI/
    PC/BS-3) re-runs its batch search per event on the maintained matrix.
    An axiom-free level (TRUE) is saturation-eligible regardless of its
    batch check — with no axioms the streamed verdict is exactly base
    ``so ∪ wr`` acyclicity.
    """
    if spec.order_predicate is not None:
        return False
    if not all(axiom.co_free for axiom in spec.axioms):
        return False
    return spec.check is None or not spec.axioms


@dataclass(frozen=True)
class OnlineStep:
    """The checker's state right after one fed event.

    ``verdicts`` maps each configured level name to whether the prefix
    history *up to and including this event* satisfies it;
    ``newly_violated`` lists the levels whose verdict flipped to ``False``
    on exactly this event — the streaming analogue of a violation witness.
    """

    index: int
    event: TraceEvent
    verdicts: Dict[str, bool]
    newly_violated: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether every configured level still holds on this prefix."""
        return all(self.verdicts.values())


_NO_SOURCES: frozenset = frozenset()


class _TxnEvents:
    """Minimal stand-in for a ``TransactionLog``: just the event list."""

    __slots__ = ("events",)

    def __init__(self, events):
        self.events = events


class _LogsProxy:
    """``txns[tid]`` over the replayer's live logs, no materialisation."""

    __slots__ = ("_logs",)

    def __init__(self, logs):
        self._logs = logs

    def __getitem__(self, tid: TxnId) -> _TxnEvents:
        return _TxnEvents(self._logs[tid])


class _PrefixFacts:
    """The slice of the :class:`~repro.core.history.History` surface that
    co-free axiom premises consult — ``txns``/``wr`` (RC), ``so_before`` /
    ``wr_edge`` (RA), ``causally_before`` (CC) — answered straight off the
    checker's maintained state in O(1) per query.

    Materialising the real history per fed event was the monitor's
    throughput ceiling: the premise pass only ever touches these five
    members, so the hot path passes this view instead and the history is
    built lazily only where search levels truly need it.
    """

    __slots__ = ("_checker", "txns")

    def __init__(self, checker: "OnlineChecker"):
        self._checker = checker
        self.txns = _LogsProxy(checker._replayer._logs)

    @property
    def wr(self):
        return self._checker._replayer.wr_map

    @staticmethod
    def so_before(a: TxnId, b: TxnId) -> bool:
        if a == b:
            return False
        if a == INIT_TXN:
            return True
        return a.session == b.session and a.index < b.index

    def wr_edge(self, a: TxnId, b: TxnId) -> bool:
        return a in self._checker._sources_read.get(b, _NO_SOURCES)

    def causally_before(self, a: TxnId, b: TxnId) -> bool:
        return self._checker._causal.reaches(a, b)


@dataclass(frozen=True)
class Frontier:
    """A snapshot of the checker's live window (watermark API).

    ``events`` counts every event fed so far; ``live`` the transactions
    currently materialised (``init`` included); ``evicted`` the
    transactions garbage-collected via :meth:`OnlineChecker.evict`;
    ``pending`` the still-open transactions (at most one per session);
    ``settled`` the live transactions whose causal ancestor cone is fully
    complete — the frozen past that eviction policies may nominate from.
    """

    events: int
    live: int
    evicted: int
    pending: Tuple[TxnId, ...]
    settled: Tuple[TxnId, ...]


class OnlineChecker:
    """Streaming isolation checker over a growing trace.

    Parameters
    ----------
    variables:
        The global-variable universe (usually from the trace header).
    initial:
        Per-variable initial values written by the implied ``init``
        transaction (default ``0`` each).
    levels:
        Which levels to decide after every event; any registered level
        names or aliases (default the paper's RC/RA/CC/SI/SER chain).
    record_steps:
        With the default ``True`` every :class:`OnlineStep` is retained
        (O(events) memory — fine for replay-and-inspect usage).  The
        streaming monitor passes ``False``: only steps that newly violate
        a level are kept (bounded by the number of levels), so
        :meth:`first_violation` still works on unbounded streams.

    Use :meth:`from_header` / :meth:`from_trace` when starting from a
    recorded trace, :meth:`feed` per streamed event, and :meth:`replay`
    for the whole-trace convenience loop.  :meth:`evict` and
    :meth:`frontier` are the garbage-collection mechanism the streaming
    monitor drives (policy lives in :mod:`repro.isolation.liveness`).
    """

    def __init__(
        self,
        variables: Iterable[str],
        initial: Optional[Mapping[str, Hashable]] = None,
        levels: Iterable[str] = DEFAULT_LEVELS,
        record_steps: bool = True,
    ):
        resolved: List[IsolationLevel] = []
        for raw in levels:
            try:
                level = get_level(str(raw))
            except KeyError as exc:
                raise ValueError(str(exc)) from None
            if level not in resolved:
                resolved.append(level)
        self.levels: Tuple[str, ...] = tuple(
            level.name for level in sorted(resolved, key=lambda l: l.strength)
        )
        header = TraceHeader(variables=tuple(sorted(set(variables))), initial=dict(initial or {}))
        self._replayer = TraceReplayer(header)
        #: Maintained so ∪ wr closure over all transactions, init included.
        self._causal = RelationMatrix((INIT_TXN,))
        self._saturation: Dict[str, IncrementalSaturation] = {}
        search: List[str] = []
        for name in self.levels:
            spec = level_spec(name)
            if _saturation_eligible(spec):
                self._saturation[name] = IncrementalSaturation(spec.axioms)
            else:
                search.append(name)
        self._search_levels: Tuple[str, ...] = tuple(search)
        #: var → (read event, source tid) for every external read so far.
        self._reads_of_var: Dict[str, List[Tuple[Event, TxnId]]] = {}
        #: var → transactions with a visible (non-aborted) write, in order.
        self._writers_of_var: Dict[str, List[TxnId]] = {
            var: [INIT_TXN] for var in header.variables
        }
        self._steps: List[OnlineStep] = []
        self._record_steps = record_steps
        self._verdicts: Dict[str, bool] = {}
        self._history: Optional[History] = None
        self._evicted = 0
        #: reader → wr sources of its external reads so far.  Equals the
        #: lifted ``wr`` pairs restricted to live transactions; answers
        #: the RA premise and the RC fast path in O(1).
        self._sources_read: Dict[TxnId, Set[TxnId]] = {}
        self._facts = _PrefixFacts(self)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_header(cls, header: TraceHeader, levels: Iterable[str] = DEFAULT_LEVELS) -> "OnlineChecker":
        """A checker primed with a trace header's variable universe."""
        return cls(header.variables, initial=header.initial, levels=levels)

    @classmethod
    def from_trace(cls, trace: Trace, levels: Iterable[str] = DEFAULT_LEVELS) -> "OnlineChecker":
        """A checker primed with ``trace``'s header (events not yet fed)."""
        return cls.from_header(trace.header, levels=levels)

    # -- feeding ----------------------------------------------------------------

    def feed(self, event: TraceEvent) -> OnlineStep:
        """Append one event, make the saturation step, re-decide levels."""
        added = self._replayer.apply(event)
        tid = event.tid
        states = self._saturation.values()
        # Premises are decided against the O(1) facts view, so the prefix
        # history is materialised only for the search levels.
        facts = self._facts
        if event.op == "begin":
            order = self._replayer.session_order(tid.session)
            prev = order[-2] if len(order) > 1 else INIT_TXN
            self._causal.add_node(tid)
            self._causal.add_edge(prev, tid)
            for state in states:
                state.begin(tid, prev)
        elif event.op == "read" and not event.local:
            source = self._replayer.wr_source(added.eid)
            if source != tid:
                self._causal.add_edge(source, tid)
            prior = self._sources_read.setdefault(tid, set())
            prior.add(source)
            self._reads_of_var.setdefault(event.var, []).append((added, source))
            writers = self._writers_of_var.get(event.var, ())
            for state in states:
                state.external_read(facts, added, source, writers, prior)
        elif event.op == "write":
            writers = self._writers_of_var.setdefault(event.var, [])
            if tid not in writers:
                writers.append(tid)
                reads = self._reads_of_var.get(event.var, ())
                for state in states:
                    state.first_write(facts, tid, reads)
        elif event.op == "abort" and self._replayer.wrote_any(tid):
            # The aborted writer's writes become invisible (§2.2.1): it
            # leaves every writers-of bucket and every saturation state.
            for writers in self._writers_of_var.values():
                if tid in writers:
                    writers.remove(tid)
            for state in states:
                state.abort_writer(facts, tid)
        self._history = None
        previous = self._verdicts
        verdicts: Dict[str, bool] = {}
        base_acyclic = self._causal.is_acyclic()
        for name in self.levels:
            if name in self._saturation:
                verdicts[name] = base_acyclic and self._saturation[name].consistent
            elif not base_acyclic:
                verdicts[name] = False
            else:
                # Search levels (SI/SER/PSI/PC/BS-3 and any spec-registered
                # extension): batch check on the prefix history, running on
                # the maintained matrix via adopt_causal_matrix.
                verdicts[name] = get_level(name).satisfies(self.history())
        newly = tuple(
            name for name in self.levels if not verdicts[name] and previous.get(name, True)
        )
        self._verdicts = verdicts
        step = OnlineStep(
            index=self._replayer.event_count - 1,
            event=event,
            verdicts=verdicts,
            newly_violated=newly,
        )
        if self._record_steps or newly:
            self._steps.append(step)
        return step

    def replay(self, trace: Trace) -> List[OnlineStep]:
        """Feed every event of ``trace``; returns one step per event."""
        return [self.feed(event) for event in trace.events]

    # -- garbage collection (streaming-monitor mechanism) -----------------------

    def pending_transactions(self) -> Tuple[TxnId, ...]:
        """Still-open transactions, at most one per session."""
        return tuple(
            tid for tid in self._replayer.transactions()
            if tid != INIT_TXN and not self._replayer.is_complete(tid)
        )

    def pending_mask(self) -> int:
        """Bitmask of pending transactions in the maintained causal matrix."""
        mask = 0
        for tid in self._replayer.transactions():
            if tid != INIT_TXN and not self._replayer.is_complete(tid):
                mask |= 1 << self._causal.index_of(tid)
        return mask

    def is_settled(self, tid: TxnId, pending_mask: Optional[int] = None) -> bool:
        """Whether ``tid``'s causal (``so ∪ wr``) ancestor cone is complete.

        A settled transaction's in-edge set and premise-relevant past are
        frozen: no pending ancestor can still write, so no new axiom
        instance against its reads can ever fire.  This is the common gate
        of every eviction policy.
        """
        if pending_mask is None:
            pending_mask = self.pending_mask()
        return not (self._causal.ancestors_mask(tid) & pending_mask)

    def live_wr_sources(self) -> Set[TxnId]:
        """Transactions named as wr source by a read that can still re-arm.

        While such a read is live, a future first-write of its variable
        can fire a forced edge *into* the source — so the source must
        stay.  The reads that can still do that are exactly the un-pruned
        ``reads-of-var`` entries (settled readers' reads are frozen and
        dropped by :meth:`prune_settled`); a settled reader keeps its
        replayer bookkeeping but no longer pins its sources.  Premises
        quantifying an evicted source as *writer* (``t2``) need the reader
        to have read from it directly, which implies an un-pruned entry
        too — new instances never mention an evicted source in any role.
        """
        return {
            source
            for reads in self._reads_of_var.values()
            for _read, source in reads
        }

    def saturation_states(self) -> Tuple["IncrementalSaturation", ...]:
        """The per-level saturation states (read-only; GC-gate probing)."""
        return tuple(self._saturation.values())

    def frontier(self) -> Frontier:
        """The live-window snapshot (see :class:`Frontier`)."""
        pending_mask = self.pending_mask()
        pending = self.pending_transactions()
        settled = tuple(
            tid for tid in self._replayer.transactions()
            if tid != INIT_TXN
            and self._replayer.is_complete(tid)
            and not (self._causal.ancestors_mask(tid) & pending_mask)
        )
        return Frontier(
            events=self._replayer.event_count,
            live=self._replayer.live_count,
            evicted=self._evicted,
            pending=pending,
            settled=settled,
        )

    @property
    def evicted_count(self) -> int:
        """Transactions garbage-collected via :meth:`evict` so far."""
        return self._evicted

    @property
    def live_transaction_count(self) -> int:
        """Currently materialised transactions (``init`` included)."""
        return self._replayer.live_count

    def evict(self, tids: Iterable[TxnId]) -> int:
        """Drop the given transactions from every maintained structure.

        This is the *mechanism*; eviction *policy* — which transactions can
        provably never participate in a future violation at the configured
        level — lives in :mod:`repro.isolation.liveness` and is what the
        streaming monitor consults before calling this.  The mechanism
        validates only the invariants whose violation would corrupt state
        outright: ``init``, pending transactions and each session's most
        recently begun transaction (its next ``begin`` still needs an
        ``so`` edge from it) are refused with ``ValueError``.

        Fired edges whose endpoints both survive stay in each saturation
        state's ``fired_edges`` record, and ``remove_nodes`` keeps every
        path through a dropped node as a one-step edge, so a later writer
        abort stays exact: it goes through
        :meth:`IncrementalSaturation.abort_writer`, in place.  Returns
        the number of transactions evicted.
        """
        drop = set(tids)
        if not drop:
            return 0
        for tid in drop:
            if tid == INIT_TXN:
                raise ValueError("cannot evict the init transaction")
            if not self._replayer.is_live(tid):
                raise ValueError(f"cannot evict unknown/already-evicted {tid!r}")
            if not self._replayer.is_complete(tid):
                raise ValueError(f"cannot evict pending transaction {tid!r}")
            order = self._replayer.session_order(tid.session)
            if order and order[-1] == tid:
                raise ValueError(f"cannot evict session-latest transaction {tid!r}")
        self._replayer.forget(drop)
        self._causal = self._causal.remove_nodes(drop)
        for state in self._saturation.values():
            state.evict(drop)
        for var, reads in list(self._reads_of_var.items()):
            kept = [(read, source) for read, source in reads if read.eid.txn not in drop]
            if kept:
                self._reads_of_var[var] = kept
            else:
                del self._reads_of_var[var]
        for writers in self._writers_of_var.values():
            if any(t in drop for t in writers):
                writers[:] = [t for t in writers if t not in drop]
        for tid in drop:
            self._sources_read.pop(tid, None)
        self._history = None
        self._evicted += len(drop)
        return len(drop)

    def prune_settled(self) -> int:
        """Drop bookkeeping that settled, complete readers can never re-arm.

        Once a reader is settled every so/wr edge into it is frozen, so a
        pending instance over one of its reads that has not fired is false
        forever, and any *future* writer's instance against those reads
        would evaluate the same frozen premise — also false (a complete
        ancestor's writes were all seen; a non-ancestor never satisfies an
        RA/CC premise, and an RC premise would need the reader to have
        read from the future writer, which its frozen log does not).  So
        both the pending instances and the ``reads-of-var`` entries of
        settled readers are dropped.  Returns the number of entries
        pruned.  This is what bounds the monitor's per-event quantifier
        state on unbounded streams.
        """
        pending_mask = self.pending_mask()
        causal = self._causal
        replayer = self._replayer

        def reader_settled(tid: TxnId) -> bool:
            return replayer.is_complete(tid) and not (
                causal.ancestors_mask(tid) & pending_mask
            )

        pruned = 0
        for var, reads in list(self._reads_of_var.items()):
            kept = [
                (read, source)
                for read, source in reads
                if not reader_settled(read.eid.txn)
            ]
            pruned += len(reads) - len(kept)
            if kept:
                self._reads_of_var[var] = kept
            else:
                del self._reads_of_var[var]
        for state in self._saturation.values():
            pruned += state.prune_pending(
                lambda t1, t2, read: reader_settled(read.eid.txn)
            )
        return pruned

    # -- state ----------------------------------------------------------------------

    def history(self) -> History:
        """The prefix history, with the maintained closure pre-adopted.

        Materialised lazily per fed event; the returned history's
        ``causal_matrix()`` is a frozen copy of the maintained matrix, so
        downstream consistency checks never rebuild the relation.
        """
        if self._history is None:
            history = self._replayer.history()
            history.adopt_causal_matrix(self._causal.copy())
            self._history = history
        return self._history

    @property
    def replayer(self) -> TraceReplayer:
        """The underlying trace → history state machine (read-only use)."""
        return self._replayer

    @property
    def causal_matrix(self) -> RelationMatrix:
        """The maintained ``so ∪ wr`` closure (do not mutate)."""
        return self._causal

    @property
    def verdicts(self) -> Dict[str, bool]:
        """Level → verdict on the current prefix (all True before any event)."""
        if not self._verdicts:
            return {name: True for name in self.levels}
        return dict(self._verdicts)

    @property
    def steps(self) -> Tuple[OnlineStep, ...]:
        """Every step so far, in feed order."""
        return tuple(self._steps)

    def first_violation(self, level: str) -> Optional[OnlineStep]:
        """The step at which ``level`` first flipped to violated, if any."""
        name = get_level(level).name
        if name not in self.levels:
            raise KeyError(f"level {name!r} is not being checked (have {self.levels})")
        for step in self._steps:
            if name in step.newly_violated:
                return step
        return None


def check_trace(
    trace: Trace, levels: Iterable[str] = DEFAULT_LEVELS, online: bool = False
) -> Dict[str, bool]:
    """One-shot trace checking: level → verdict on the complete trace,
    keyed by canonical level name (``"causal"`` reports as ``CC``).

    ``online`` routes through :class:`OnlineChecker` (event-at-a-time,
    incremental); otherwise each level's batch checker runs once on the
    replayed history.  Both paths return identical verdicts (the
    batch-equivalence guarantee).
    """
    names = [get_level(str(l)).name for l in levels]
    if online:
        checker = OnlineChecker.from_trace(trace, levels=names)
        checker.replay(trace)
        return checker.verdicts
    history = trace.to_history(strict=False)
    return {name: get_level(name).satisfies(history) for name in names}
