"""Polynomial consistency checks for RC, RA and CC by edge saturation.

The premises of the Read Committed, Read Atomic and Causal axioms never
mention the commit order, so the axiom schema

    premise(t2, read) ⇒ ⟨t2, t1⟩ ∈ co

pins down a fixed set of *forced* commit-order edges.  A total order
satisfying the axioms and extending ``so ∪ wr`` exists iff
``so ∪ wr ∪ forced`` is acyclic:

* (⇒) any witnessing ``co`` contains all forced edges, so the union embeds
  into a total order and is acyclic;
* (⇐) if acyclic, any topological extension is a witnessing ``co`` because
  the premises, being co-free, are unaffected by the choice of extension.

This matches the polynomial-time consistency results of Biswas & Enea
[OOPSLA 2019] for these levels and is cross-validated against the
brute-force reference checker in the tests.

Implementation: :class:`IncrementalSaturation` keeps ``so ∪ wr ∪ forced``
in a :class:`~repro.core.bitrel.RelationMatrix` whose closure is
maintained by ``add_edge``, and owns the per-event step: one method per
event kind that can change the state.  The explorer calls them on a fork
of the parent node's state (:func:`derive_extension_states`); the online
checker (:mod:`repro.checking.online`) calls them in place.  Since edges
are only ever added between aborts, the union is cyclic iff some single
addition closes a cycle — which the maintained closure answers in O(1) —
so every step stops at the first contradictory edge instead of
saturating fully and re-running a DFS cycle search.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..core.bitrel import RelationMatrix
from ..core.events import INIT_TXN, Event, EventType, TxnId
from ..core.history import History
from .axioms import Axiom, axiom_instances

#: One quantifier instance ``(t1, t2, read)`` of an axiom: ``t1`` is the
#: read's wr source and ``t2`` another writer of its variable.
Instance = Tuple[TxnId, TxnId, Event]


def satisfies_by_saturation(history: History, axioms: Tuple[Axiom, ...]) -> bool:
    """Polynomial ``h ⊨ I`` for levels whose axioms are all co-free.

    The verdict is served from the history's cached
    :class:`IncrementalSaturation` state when one exists — the DPOR hot
    path derives each child node's state from its parent's
    (:func:`derive_extension_states`), making this O(1) per node.  On a
    cache miss (roots, swapped histories, standalone histories) the state
    is batch-built once and cached for any future extensions.
    """
    states = history.saturation_states()
    state = states.get(axioms)
    if state is None:
        if not history.causal_matrix().is_acyclic():
            return False
        state = IncrementalSaturation.from_history(history, axioms)
        states[axioms] = state
    return state.consistent


class IncrementalSaturation:
    """Saturation state for one co-free axiom set (RC, RA, CC, session guarantees).

    It maintains ``so ∪ wr ∪ forced`` over a history that grows one event
    at a time.  An *instance* ``(t1, t2, read)`` *fires* when its premise
    holds and its forced edge ``⟨t2, t1⟩`` is added.  Premises mention only
    ``po``/``so``/``wr`` (co-free), all grow-only, so a premise that is
    false now can only become true later: an unfired instance stays
    pending until it fires.  With only *static* premises (RC) an unfired
    instance can never fire later, so it is dropped once evaluated.

    The per-event step, shared by the explorer and the online checker:

    * :meth:`begin` adds the node and its ``so`` edge;
    * :meth:`external_read` adds the ``wr`` edge, then evaluates the
      pending instances and the read's new ones;
    * :meth:`first_write` evaluates only the new writer's instances;
    * :meth:`abort_writer` retracts the writer's fired edges.

    Commits, local reads, overwrites and write-free aborts change nothing.
    Every evaluation stops at the first edge that closes a cycle and keeps
    the rest pending for a later retraction.  ``facts`` is the prefix
    history, or any view answering the same premise queries (the online
    checker's O(1) view).  The verdict is the maintained closure's O(1)
    acyclicity flag.
    """

    __slots__ = (
        "axioms",
        "matrix",
        "_pending",
        "_drop_unfired",
        "_prior_source",
        "fired_edges",
        "fired_writers",
    )

    #: Axiom premise evaluations since interpreter start (batch and
    #: incremental paths both count): the "saturation ticks" work counter
    #: the exploration statistics and the benchmark report.
    premise_evals: int = 0

    def __init__(self, axioms: Tuple[Axiom, ...], matrix: Optional[RelationMatrix] = None):
        for axiom in axioms:
            if not axiom.co_free:
                raise ValueError(f"axiom {axiom.name!r} is not co-free; saturation does not apply")
        self.axioms = axioms
        #: The maintained ``so ∪ wr ∪ forced`` relation, closure kept by add_edge.
        self.matrix = RelationMatrix((INIT_TXN,)) if matrix is None else matrix
        self._pending: List[Instance] = []
        self._drop_unfired = all(axiom.static_premise for axiom in axioms)
        self._prior_source = bool(axioms) and all(
            axiom.prior_source_premise for axiom in axioms
        )
        #: Forced edges ``(t2, t1)`` fired so far — on a consistent state,
        #: every edge the axioms force.  Premises are monotone and
        #: unaffected by aborts of *other* transactions, so a fired edge
        #: stays valid until its writer ``t2`` aborts (:meth:`abort_writer`).
        self.fired_edges: Set[Tuple[TxnId, TxnId]] = set()
        #: Distinct writers with at least one fired edge — the O(1) index
        #: behind the monitor's GC gate ("compact only when every fired
        #: edge's writer is committed").
        self.fired_writers: Set[TxnId] = set()

    @classmethod
    def from_history(cls, history: History, axioms: Tuple[Axiom, ...]) -> "IncrementalSaturation":
        """Batch-build the state for an existing history.

        Starts from a copy of the history's cached ``so ∪ wr`` closure and
        evaluates the full quantifier expansion once.
        """
        state = cls(axioms, matrix=history.causal_matrix().copy())
        state._pending = list(axiom_instances(history))
        state.advance(history)
        return state

    # -- the per-event step ------------------------------------------------------

    def begin(self, tid: TxnId, prev: TxnId) -> None:
        """``tid`` begins after ``prev`` in its session (``init`` first).

        A fresh sink has no reads and no writes, so it brings no instance,
        and no pending premise can fire through its ``so`` edge.
        """
        self.matrix.add_node(tid)
        self.matrix.add_edge(prev, tid)

    def external_read(
        self,
        facts,
        read: Event,
        source: TxnId,
        writers: Sequence[TxnId],
        prior_sources: Optional[Set[TxnId]] = None,
    ) -> None:
        """``read`` reads from ``source``; ``writers`` are its variable's writers.

        The new ``wr`` edge can enable pending RA/CC premises, so the
        pending instances are re-checked along with the read's new ones
        ``(source, t2, read)``.  ``prior_sources`` (online only) is the
        reader's set of wr sources including ``source``: a prior-source
        premise (RC) of an instance evaluated the moment its read is
        appended is then one membership test (``t2 = source`` is excluded
        by the schema, so testing the updated set is exact).
        """
        reader = read.eid.txn
        if source != reader:
            self.matrix.add_edge(source, reader)
            if (source, reader) in self.fired_edges:
                # A reader can read from a writer that already forced an
                # edge into it: the edge is permanent now, never retracted.
                self.fired_edges.discard((source, reader))
                if all(edge[0] != source for edge in self.fired_edges):
                    self.fired_writers.discard(source)
        if prior_sources is None or not self._prior_source or not self.matrix.is_acyclic():
            self._pending.extend((source, t2, read) for t2 in writers if t2 != source)
            self.advance(facts)
            return
        # Static premises leave nothing pending on a consistent state.
        for idx, t2 in enumerate(writers):
            if t2 != source and t2 in prior_sources:
                self._fire(t2, source)
                if not self.matrix.is_acyclic():
                    self._pending.extend(
                        (source, t, read) for t in writers[idx + 1 :] if t != source
                    )
                    return

    def first_write(self, facts, writer: TxnId, reads: Iterable[Tuple[Event, TxnId]]) -> bool:
        """``writer`` writes a variable for the first time.

        ``reads`` are the variable's ``(read, source)`` pairs; only the new
        instances ``(source, writer, read)`` are evaluated.  A write adds
        no ``so``/``wr`` edge, so no pending premise can newly fire.
        Returns whether any instance fired or was left pending.
        """
        fired, pending = len(self.fired_edges), len(self._pending)
        self._evaluate(facts, [(t1, writer, read) for read, t1 in reads if t1 != writer])
        return len(self.fired_edges) != fired or len(self._pending) != pending

    def abort_writer(self, facts, tid: TxnId) -> None:
        """The writer ``tid`` aborts: undo its contribution, in place and exactly.

        An abort retroactively empties ``tid``'s write set (§2.2.1): every
        instance quantifying ``tid`` as writer never existed, so its fired
        edges leave the relation and its pending instances are dropped.
        Premises are co-free, so un-firing ``tid``'s edges cannot un-fire
        anyone else's; clearing the one-step bits and re-closing the
        matrix (:meth:`RelationMatrix.retract_edges`) gives exactly the
        state a rebuild without ``tid`` as writer would build.  Pending
        instances are re-checked only if the state was cyclic: only then
        can the retraction reopen it, and only then may instances be
        pending unevaluated.
        """
        was_cyclic = not self.matrix.is_acyclic()
        if tid in self.fired_writers:
            dead_edges = [edge for edge in self.fired_edges if edge[0] == tid]
            self.matrix.retract_edges(dead_edges)
            self.fired_edges.difference_update(dead_edges)
            self.fired_writers.discard(tid)
        if self._pending:
            self._pending = [inst for inst in self._pending if inst[1] != tid]
        if was_cyclic:
            self.advance(facts)

    def advance(self, facts) -> None:
        """Evaluate every pending instance against ``facts``.

        Skipped while the closure is cyclic — more edges cannot un-close a
        cycle.  One pass suffices: co-free premises cannot be enabled by
        the forced edges the pass adds.
        """
        if not self._pending or not self.matrix.is_acyclic():
            return
        pending, self._pending = self._pending, []
        self._evaluate(facts, pending)

    def _evaluate(self, facts, instances: List[Instance]) -> None:
        """Fire the instances whose premise holds; keep the unfired ones
        pending unless premises are static.  At the first contradiction
        the verdict is settled for every append-extension, so the
        unevaluated tail stays pending, for the pass after a writer's
        abort retracts the cycle."""
        if not self.matrix.is_acyclic():
            self._pending.extend(instances)
            return
        for idx, (t1, t2, read) in enumerate(instances):
            for axiom in self.axioms:
                IncrementalSaturation.premise_evals += 1
                if axiom.premise(facts, {}, t2, read):
                    self._fire(t2, t1)
                    if not self.matrix.is_acyclic():
                        self._pending.extend(instances[idx + 1 :])
                        return
                    break
            else:
                if not self._drop_unfired:
                    self._pending.append((t1, t2, read))

    def _fire(self, t2: TxnId, t1: TxnId) -> None:
        matrix = self.matrix
        if matrix.predecessors_mask(t1) >> matrix.index_of(t2) & 1:
            # Already a one-step edge: fired before, or a permanent so/wr
            # edge that a retraction of this writer must not delete.
            return
        matrix.add_edge(t2, t1)
        self.fired_edges.add((t2, t1))
        self.fired_writers.add(t2)

    # -- state management --------------------------------------------------------

    def evict(self, drop: Set[TxnId]) -> None:
        """Compact the state to the transactions outside ``drop``.

        The matrix is restricted via
        :meth:`~repro.core.bitrel.RelationMatrix.remove_nodes` (closure
        shortcuts through dropped nodes are preserved), and every pending
        instance mentioning a dropped participant — as source ``t1``,
        writer ``t2`` or reader — is discarded.  Exactness is the caller's
        contract: the monitor's per-level eviction predicates
        (:mod:`repro.isolation.liveness`) only nominate transactions whose
        dropped instances are provably frozen-false or whose forced edges
        could never lie on a future cycle, and only while the state is
        consistent (evicting nodes of an already-closed cycle could
        otherwise erase the cycle).
        """
        if not drop:
            return
        self.matrix = self.matrix.remove_nodes(drop)
        # A fired edge with an evicted endpoint leaves the record: its
        # closure contribution is already baked in (and survives
        # remove_nodes as shortcut edges), and the monitor's GC gate only
        # compacts once its writer committed, so it is never retracted.
        self.fired_edges = {
            edge for edge in self.fired_edges
            if edge[0] not in drop and edge[1] not in drop
        }
        self.fired_writers = {edge[0] for edge in self.fired_edges}
        self._pending = [
            (t1, t2, read)
            for t1, t2, read in self._pending
            if t1 not in drop and t2 not in drop and read.eid.txn not in drop
        ]

    def prune_pending(self, dead) -> int:
        """Drop pending instances ``dead(t1, t2, read)`` says can never fire.

        ``dead`` must only answer ``True`` for instances whose premise is
        *frozen* — e.g. RA's one-step ``so ∪ wr`` premise once the reading
        transaction is complete, or CC's causal premise once the reader's
        ancestor cone has no pending transaction.  Every pending instance
        of a consistent state was evaluated false, so it is frozen false;
        a cyclic state may hold unevaluated ones and prunes nothing.
        Returns the number of instances dropped.  This is what keeps the
        monitor's pending list O(live window) instead of O(history).
        """
        if not self._pending or not self.matrix.is_acyclic():
            return 0
        kept = [inst for inst in self._pending if not dead(*inst)]
        dropped = len(self._pending) - len(kept)
        self._pending = kept
        return dropped

    def fork(self) -> "IncrementalSaturation":
        """An independent state to extend for a child history.

        O(n): the matrix's two row lists are copied
        (:meth:`~repro.core.bitrel.RelationMatrix.copy`) and the
        pending-instance list is copied shallowly (instances are immutable
        tuples).  The original is untouched, so a parent node's state can
        be forked once per child branch.
        """
        dup = object.__new__(IncrementalSaturation)
        dup.axioms = self.axioms
        dup.matrix = self.matrix.copy()
        dup._pending = list(self._pending)
        dup._drop_unfired = self._drop_unfired
        dup._prior_source = self._prior_source
        dup.fired_edges = set(self.fired_edges)
        dup.fired_writers = set(self.fired_writers)
        return dup

    @property
    def pending_instances(self) -> int:
        """Number of instances whose premise has not fired yet."""
        return len(self._pending)

    @property
    def consistent(self) -> bool:
        """O(1) verdict: ``so ∪ wr ∪ forced`` acyclic on the current prefix."""
        return self.matrix.is_acyclic()


def derive_extension_states(
    parent: History,
    child: History,
    kind: EventType,
    tid: TxnId,
    event: Optional[Event] = None,
    writer: Optional[TxnId] = None,
) -> None:
    """Derive ``child``'s saturation states from ``parent``'s.

    ``child`` must be ``parent`` extended by exactly one step of kind
    ``kind`` on transaction ``tid`` (``event`` is the appended event for
    non-BEGIN kinds; ``writer`` the wr source of an external read).  Each
    state cached on the parent is shared with the child when the step
    changes nothing — a commit, a local read, an overwrite, a write-free
    abort, or a first write that fires and queues nothing — and otherwise
    forked and advanced by the matching per-event method of
    :class:`IncrementalSaturation`.
    """
    states = parent.saturation_states()
    if not states:
        return
    child_states = child.saturation_states()
    for axioms, state in states.items():
        child_states[axioms] = _derive_state(state, parent, child, kind, tid, event, writer)


def _derive_state(
    state: IncrementalSaturation,
    parent: History,
    child: History,
    kind: EventType,
    tid: TxnId,
    event: Optional[Event],
    writer: Optional[TxnId],
) -> IncrementalSaturation:
    """Share ``state`` or fork it, then make the step's call."""
    if kind is EventType.BEGIN:
        order = child.sessions[tid.session]
        forked = state.fork()
        forked.begin(tid, order[-2] if len(order) > 1 else INIT_TXN)
        return forked
    if kind is EventType.READ and writer is not None:
        forked = state.fork()
        forked.external_read(child, event, writer, child.writers_of(event.var))
        return forked
    if kind is EventType.WRITE and event.var not in parent.txns[tid].writes():
        reads = [
            (read, t1)
            for read, t1 in ((child.event(eid), t1) for eid, t1 in child.wr.items())
            if read.var == event.var
        ]
        forked = state.fork()
        return forked if forked.first_write(child, tid, reads) else state
    if kind is EventType.ABORT and parent.txns[tid].writes():
        forked = state.fork()
        forked.abort_writer(child, tid)
        return forked
    return state
