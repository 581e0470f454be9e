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
* the search levels — SI, SER, PSI, PC, BS-3 — decide by their memoized
  searches (their axioms mention the commit order, so no saturation state
  carries over), but only on an event that can change the verdict, and on
  state the checker maintains rather than rebuilds: the matrix
  (``History.adopt_causal_matrix``) and the searches' per-transaction
  summaries (:class:`~repro.isolation.summaries.LiveSummaries`, seeded via
  ``History.adopt_summaries``: a ``begin`` appends a row, an external read
  its ``(variable, source)``, a first write its variable, a writer's abort
  clears the writes and keeps the reads, and :meth:`OnlineChecker.evict`
  compacts the rows as the matrix does).  SER, SI and PC first re-check
  their witness, at the event's own transaction, and most events never
  search (see below).  Without a search level nothing of this is kept.

Which camp a level falls in is read off its
:class:`~repro.isolation.registry.LevelSpec`, so spec-registered
extensions stream without touching this module.

When a search level keeps its verdict
-------------------------------------

A level's check decides from the transactions, ``so ∪ wr``, the external
reads with their sources and the visible write sets (the contract on
:class:`~repro.isolation.registry.LevelSpec`).  No verdict code reads
commit status — a pending transaction's writes count, only an abort hides
them — so these events are verdict-inert and decide by the previous
verdict, with no history materialised: a ``begin`` (its transaction has
no reads, no writes and no outgoing edge, so it can go last in any commit
order), a ``commit``, a local read, a write to a variable the transaction
already wrote, and the abort of a transaction that wrote nothing.  Every
level holds before the first event.  And while a prefix-closed level is
violated, every event except a writer's abort keeps it violated: the old
history is a prefix of the new one.  So a search runs only on an external
read, a first write or a writer's abort, and on a violated prefix-closed
level only on a writer's abort.

On such an event SER, SI and PC first re-check a witness.  Def. 2.2 is
existential, so the path a successful search took certifies its verdict: a
commit order for SER, a start/commit schedule for SI and PC.  The checker
keeps it per level as a placement on the maintained matrix's rows
(``LevelSpec.witness`` names how to build one), with the transactions
begun since placed last in begin order (for SI/PC start-then-commit);
:meth:`OnlineChecker.witness` reads it as transaction ids.  Before the
event the placement passes the search's step conditions, and the event
changes one transaction's reads or write set, so it is re-checked at that
transaction alone, with one ``bisect`` and one dict lookup.  An external
read of ``x`` by ``t`` from ``s`` holds iff ``s`` is the last writer of
``x`` placed (for SI/PC: committed) before ``t`` (before ``t`` starts).  A
first write of ``x`` by ``t`` holds iff no reader of ``x`` from the last
writer placed (committed) before ``t`` sits after ``t`` (starts after
``t`` commits); for SI ``t`` must also not overlap that writer or the next
one.  A writer's abort, an eviction and a fresh search witness instead
re-run the search's step conditions in one pass over the matrix's ancestor
rows and the summaries' rows, which builds the placement: no history is
built and nothing is copied.  A passing re-check is a witness for exactly
the state the search would see, so the verdict is the search's.  Only a
failing re-check, or no witness, searches, and that search's witness
(cached on the history it ran on, so it costs no second search) replaces
the old one; a violated verdict drops it.  PSI and BS-3 search every time.

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
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.bitrel import RelationMatrix
from ..core.events import INIT_TXN, Event, TxnId
from ..core.history import History
from ..isolation.base import IsolationLevel, get_level
from ..isolation.registry import LevelSpec, Placement, WitnessCheck, level_spec
from ..isolation.saturation import IncrementalSaturation
from ..isolation.summaries import LiveSummaries
from ..trace.format import Trace, TraceEvent, TraceHeader, TraceReplayer

#: The levels an OnlineChecker decides by default, weakest first (the
#: paper's chain; any registered level name is accepted — ``repro levels``
#: lists them all).
DEFAULT_LEVELS: Tuple[str, ...] = ("RC", "RA", "CC", "SI", "SER")

#: :meth:`OnlineChecker.replay` prunes settled readers once the un-pruned
#: reads-of-var entries reach twice what the last prune left, and at least
#: this many.
PRUNE_FLOOR = 64


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
    for the whole-trace convenience loop.  :meth:`evict` is the
    garbage-collection mechanism the streaming monitor drives (policy
    lives in :mod:`repro.isolation.liveness`).
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
        #: Search levels whose violation no appending event can undo.
        self._prefix_closed: Set[str] = {
            name for name in search if level_spec(name).prefix_closed
        }
        #: Search levels that keep a witness, and how to re-check it.
        self._witness_checks: Dict[str, WitnessCheck] = {
            name: level_spec(name).witness
            for name in search
            if level_spec(name).witness is not None
        }
        #: Level → its witness as a placement on ``_causal``'s rows, while
        #: that level holds.
        self._placements: Dict[str, Placement] = {}
        #: The searches' per-transaction summaries, on ``_causal``'s rows;
        #: kept only when some level searches.
        self._summaries: Optional[LiveSummaries] = (
            LiveSummaries(header.variables) if search else None
        )
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
        summaries = self._summaries
        # Premises are decided against the O(1) facts view, so the prefix
        # history is materialised only for the search levels.
        facts = self._facts
        # Whether the event can change a search level's verdict, and
        # whether it retracts writes (the one step that can undo a
        # violation); see the module docstring.
        inert = True
        retracts = False
        # The re-check of a kept witness at the event's own transaction;
        # None after a writer's abort, which re-checks it in one pass.
        recheck: Optional[Callable[[Placement], bool]] = None
        if event.op == "begin":
            order = self._replayer.session_order(tid.session)
            prev = order[-2] if len(order) > 1 else INIT_TXN
            self._causal.add_node(tid)
            self._causal.add_edge(prev, tid)
            for state in states:
                state.begin(tid, prev)
            if summaries is not None:
                summaries.begin()
        elif event.op == "read" and not event.local:
            inert = False
            source = self._replayer.wr_source(added.eid)
            if source != tid:
                self._causal.add_edge(source, tid)
            prior = self._sources_read.setdefault(tid, set())
            prior.add(source)
            self._reads_of_var.setdefault(event.var, []).append((added, source))
            writers = self._writers_of_var.get(event.var, ())
            for state in states:
                state.external_read(facts, added, source, writers, prior)
            if summaries is not None:
                index = self._causal.index_of
                reader, src = index(tid), index(source)
                var = summaries.external_read(reader, event.var, src)
                recheck = lambda placement: placement.external_read(reader, var, src)
        elif event.op == "write":
            writers = self._writers_of_var.setdefault(event.var, [])
            if tid not in writers:
                inert = False
                writers.append(tid)
                reads = self._reads_of_var.get(event.var, ())
                for state in states:
                    state.first_write(facts, tid, reads)
                if summaries is not None:
                    row = self._causal.index_of(tid)
                    var = summaries.first_write(row, event.var)
                    recheck = lambda placement: placement.first_write(row, var)
        elif event.op == "abort" and self._replayer.wrote_any(tid):
            inert = False
            retracts = True
            # The aborted writer's writes become invisible (§2.2.1): it
            # leaves every writers-of bucket and every saturation state.
            for writers in self._writers_of_var.values():
                if tid in writers:
                    writers.remove(tid)
            for state in states:
                state.abort_writer(facts, tid)
            if summaries is not None:
                summaries.abort_writer(self._causal.index_of(tid))
        self._history = None
        previous = self._verdicts
        verdicts: Dict[str, bool] = {}
        base_acyclic = self._causal.is_acyclic()
        for name in self.levels:
            if name in self._saturation:
                verdicts[name] = base_acyclic and self._saturation[name].consistent
            elif not base_acyclic:
                verdicts[name] = False
                self._placements.pop(name, None)
            elif inert:
                verdicts[name] = previous.get(name, True)
            elif not (retracts or previous.get(name, True)) and name in self._prefix_closed:
                # The old history is a prefix of the new one: still violated.
                verdicts[name] = False
            else:
                verdicts[name] = self._decide(name, recheck)
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

    def _decide(self, name: str, recheck: Optional[Callable[[Placement], bool]]) -> bool:
        """Decide search level ``name`` on the current prefix.

        Re-check the level's kept witness first, with the transactions
        begun since placed last: at the event's own transaction
        (``recheck``), or in one pass over the maintained matrix and
        summaries after a writer's abort (``recheck`` None).  Only when
        that fails, or there is none, run the batch check (SI/SER/PSI/PC/
        BS-3 or any spec-registered extension) on the prefix history, which
        adopts the maintained matrix and summaries.  Its witness, placed in
        one pass, replaces the old one; a violation drops it.
        """
        check = self._witness_checks.get(name)
        placement = self._placements.pop(name, None)
        if placement is not None:
            placement.grow(len(self._causal))
            if recheck is None:
                placement = check.place(placement.rows(), self._summaries.view(self._causal))
            elif not recheck(placement):
                placement = None
            if placement is not None:
                self._placements[name] = placement
                return True
        history = self.history()
        holds = get_level(name).satisfies(history)
        if holds and check is not None:
            placement = check.place(check.path(history), self._summaries.view(self._causal))
            if placement is not None:
                self._placements[name] = placement
        return holds

    def replay(self, trace: Trace) -> List[OnlineStep]:
        """Feed every event of ``trace``; returns one step per event.

        Settled readers are pruned (:meth:`prune_settled`) whenever the
        un-pruned reads-of-var entries reach twice what the last prune
        left, and at least :data:`PRUNE_FLOOR`: amortised O(1) per event,
        and it bounds the pending premises each external read re-checks.
        """
        steps = []
        unpruned = self._unpruned_reads()
        threshold = max(PRUNE_FLOOR, 2 * unpruned)
        for event in trace.events:
            steps.append(self.feed(event))
            if event.op == "read" and not event.local:
                unpruned += 1
                if unpruned >= threshold:
                    self.prune_settled()
                    unpruned = self._unpruned_reads()
                    threshold = max(PRUNE_FLOOR, 2 * unpruned)
        return steps

    def _unpruned_reads(self) -> int:
        """The reads-of-var entries :meth:`prune_settled` has not dropped."""
        return sum(len(reads) for reads in self._reads_of_var.values())

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
        nodes = self._causal.nodes
        self._causal = self._causal.remove_nodes(drop)
        if self._summaries is not None:
            keep = [i for i, tid in enumerate(nodes) if tid not in drop]
            self._summaries.evict(keep)
            if self._placements:
                self._compact_placements(keep)
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

    def _compact_placements(self, keep: List[int]) -> None:
        """Re-place every kept witness on the rows ``keep`` (old indices,
        ascending) that survived an eviction, in one pass each.  Dropping
        transactions keeps the step conditions, so each still passes."""
        new_row = {old: new for new, old in enumerate(keep)}
        view = self._summaries.view(self._causal)
        for name, placement in list(self._placements.items()):
            rows = [new_row[row] for row in placement.rows() if row in new_row]
            placement = self._witness_checks[name].place(rows, view)
            if placement is None:
                del self._placements[name]
            else:
                self._placements[name] = placement

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
        downstream consistency checks never rebuild the relation.  With a
        search level it also carries a snapshot of the maintained search
        summaries, so the searches do not rebuild those either.
        """
        if self._history is None:
            history = self._replayer.history()
            matrix = self._causal.copy()
            history.adopt_causal_matrix(matrix)
            if self._summaries is not None:
                history.adopt_summaries(self._summaries.snapshot(matrix))
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

    def witness(self, level: str) -> Optional[Tuple[TxnId, ...]]:
        """The witness ``level`` keeps, while the level holds.

        A commit order for SER, a start/commit schedule for SI and PC (see
        :func:`~repro.isolation.snapshot.si_witness`), over every live
        transaction: the last search's witness, with the transactions
        begun since placed last in begin order and evicted ones dropped.
        None for a level that keeps no witness, before its first search
        and while it is violated.
        """
        name = self._checked(level)
        placement = self._placements.get(name)
        if placement is None:
            return None
        placement.grow(len(self._causal))
        nodes = self._causal.nodes
        return tuple(nodes[row] for row in placement.rows())

    def first_violation(self, level: str) -> Optional[OnlineStep]:
        """The step at which ``level`` first flipped to violated, if any."""
        name = self._checked(level)
        for step in self._steps:
            if name in step.newly_violated:
                return step
        return None

    def _checked(self, level: str) -> str:
        """The canonical name of ``level``; KeyError when it is not checked."""
        name = get_level(level).name
        if name not in self.levels:
            raise KeyError(f"level {name!r} is not being checked (have {self.levels})")
        return name


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
