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

Implementation: the check starts from the history's cached
:class:`~repro.core.bitrel.RelationMatrix` (the ``so ∪ wr`` closure, built
once per history), copies it, and feeds forced edges into the copy
**incrementally**.  Since edges are only ever added, the union is cyclic
iff some single addition closes a cycle — which the maintained closure
answers in O(1) — so the check aborts at the first contradictory edge
instead of saturating fully and re-running a DFS cycle search.
"""

from __future__ import annotations

from typing import List, Optional, Iterator, Set, Tuple

from ..core.bitrel import RelationMatrix
from ..core.events import INIT_TXN, Event, EventType, TxnId
from ..core.history import History
from .axioms import Axiom, axiom_instances


def _check_co_free(axioms: Tuple[Axiom, ...]) -> None:
    for axiom in axioms:
        if not axiom.co_free:
            raise ValueError(f"axiom {axiom.name!r} is not co-free; saturation does not apply")


def iter_forced_edges(history: History, axioms: Tuple[Axiom, ...]) -> Iterator[Tuple[TxnId, TxnId]]:
    """Forced commit-order edges ``(t2, t1)``, streamed as they are found.

    Streaming lets :func:`satisfies_by_saturation` stop at the first edge
    that closes a cycle, skipping the remaining quantifier instances.
    """
    _check_co_free(axioms)
    for t1, t2, read in axiom_instances(history):
        for axiom in axioms:
            IncrementalSaturation.premise_evals += 1
            if axiom.premise(history, {}, t2, read):
                yield t2, t1
                break


def forced_edges(history: History, axioms: Tuple[Axiom, ...]) -> Set[Tuple[TxnId, TxnId]]:
    """All commit-order edges ``(t2, t1)`` forced by co-free axioms."""
    return set(iter_forced_edges(history, axioms))


def satisfies_by_saturation(history: History, axioms: Tuple[Axiom, ...]) -> bool:
    """Polynomial ``h ⊨ I`` for levels whose axioms are all co-free.

    The verdict is served from the history's cached
    :class:`IncrementalSaturation` state when one exists — the DPOR hot
    path derives each child node's state from its parent's
    (:func:`derive_extension_states`), making this O(1) per node.  On a
    cache miss (roots, abort rebuilds, standalone histories) the state is
    batch-built once and cached for any future extensions.
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
    """Online saturation state for one co-free-axiom level (RC, RA or CC).

    Where :func:`satisfies_by_saturation` re-derives every forced edge from
    scratch per history, this class maintains ``so ∪ wr ∪ forced`` across a
    *growing* history: the caller feeds transactions, base (``so``/``wr``)
    edges and freshly quantifier-expanded axiom instances as events arrive,
    and :meth:`advance` evaluates only the instances whose premise has not
    fired yet.  Correctness rests on the premises being **monotone** in the
    history prefix: they mention only ``po``/``so``/``wr`` (co-free), all of
    which grow-only, so a premise that is false now can only *become* true
    later — an instance therefore needs re-checking until it fires, never
    after.  The verdict is O(1): the maintained closure's acyclicity flag.

    The one non-monotone step is an **abort**: an aborted transaction's
    writes vanish (§2.2.1), retroactively deleting every instance it was the
    writer of — including forced edges already baked into the closure.
    :meth:`retract_writer` undoes exactly those (fired edges are recorded
    one-step in the matrix, so clearing them and re-closing is exact);
    aborts of write-free transactions need no matrix work at all.
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
    #: incremental paths both count).  The per-node cost profile of the
    #: exploration reports deltas of this counter — it is the "saturation
    #: ticks" axis of ``scripts/profile_explore.py``.
    premise_evals: int = 0

    def __init__(self, axioms: Tuple[Axiom, ...], matrix: Optional[RelationMatrix] = None):
        _check_co_free(axioms)
        self.axioms = axioms
        #: The maintained ``so ∪ wr ∪ forced`` relation, closure kept by add_edge.
        self.matrix = RelationMatrix((INIT_TXN,)) if matrix is None else matrix
        self._pending: List[Tuple[TxnId, TxnId, Event]] = []
        #: With only static premises (RC), an unfired instance can never
        #: fire later — evaluate once and drop instead of re-scanning.
        self._drop_unfired = all(axiom.static_premise for axiom in axioms)
        self._prior_source = bool(axioms) and all(
            axiom.prior_source_premise for axiom in axioms
        )
        #: Forced edges ``(t2, t1)`` actually fired so far.  Premises
        #: are monotone and unaffected by aborts of *other* transactions,
        #: so a fired edge stays valid until its writer ``t2`` aborts —
        #: which lets :meth:`retract_writer` undo an aborted writer in
        #: place: drop its pending instances and clear exactly its own
        #: fired edges from the matrix.
        self.fired_edges: Set[Tuple[TxnId, TxnId]] = set()
        #: Distinct writers with at least one fired edge — the O(1) index
        #: behind :meth:`has_fired_writer` and the monitor's GC gate
        #: ("compact only when every fired edge's writer is committed").
        self.fired_writers: Set[TxnId] = set()

    @classmethod
    def from_history(cls, history: History, axioms: Tuple[Axiom, ...]) -> "IncrementalSaturation":
        """Batch-build the state for an existing history (abort rebuilds).

        Starts from a copy of the history's cached ``so ∪ wr`` closure and
        replays the full quantifier expansion once.
        """
        state = cls(axioms, matrix=history.causal_matrix().copy())
        state._pending = list(axiom_instances(history))
        state.advance(history)
        return state

    def add_transaction(self, tid: TxnId) -> None:
        """Grow the node universe by one (isolated) transaction."""
        self.matrix.add_node(tid)

    def add_base_edge(self, src: TxnId, dst: TxnId) -> None:
        """Record a new ``so`` or ``wr`` edge."""
        if src != dst:
            self.matrix.add_edge(src, dst)

    def add_instance(self, t1: TxnId, t2: TxnId, read: Event) -> None:
        """Queue a new axiom instance ``(t1, t2, read)`` for evaluation."""
        self._pending.append((t1, t2, read))

    def evaluate_instance(self, t1: TxnId, t2: TxnId, read: Event, facts) -> bool:
        """Evaluate one instance right now instead of queuing it.

        Only meaningful for states whose premises are all *static* (RC):
        the verdict is final the moment the instance exists, so the online
        hot path evaluates against its O(1) prefix-facts view and never
        queues.  ``facts`` is anything premise-compatible with a
        :class:`~repro.core.history.History`.  Returns whether the
        instance fired (its forced edge was added).
        """
        for axiom in self.axioms:
            IncrementalSaturation.premise_evals += 1
            if axiom.premise(facts, {}, t2, read):
                self.force_edge(t2, t1)
                return True
        return False

    def force_edge(self, t2: TxnId, t1: TxnId) -> None:
        """Apply and record one forced edge whose premise was decided."""
        self.matrix.add_edge(t2, t1)
        self.fired_edges.add((t2, t1))
        self.fired_writers.add(t2)

    def has_fired_writer(self, tid: TxnId) -> bool:
        """Whether any fired edge is quantified over ``tid`` as writer."""
        return tid in self.fired_writers

    def retract_writer(self, tid: TxnId) -> None:
        """Undo an aborted writer's contribution, in place and exactly.

        An abort retroactively empties ``tid``'s write set (§2.2.1):
        every instance quantifying ``tid`` as writer never existed, so its
        fired edges leave the relation and its pending instances are
        dropped.  Premises are co-free, so un-firing ``tid``'s edges
        cannot un-fire anyone else's — clearing the one-step bits and
        re-closing the matrix (:meth:`RelationMatrix.retract_edges`)
        reproduces exactly the state a from-scratch rebuild without
        ``tid``-as-writer instances would build, at O(live²) bit ops
        instead of a full history re-expansion.
        """
        if tid in self.fired_writers:
            dead_edges = [edge for edge in self.fired_edges if edge[0] == tid]
            self.matrix.retract_edges(dead_edges)
            self.fired_edges.difference_update(dead_edges)
            self.fired_writers.discard(tid)
        if self._pending:
            self._pending = [inst for inst in self._pending if inst[1] != tid]

    def advance(self, history: History) -> None:
        """Evaluate pending premises against the current prefix history.

        Instances whose premise holds contribute their forced edge ``⟨t2,
        t1⟩`` to the maintained closure and are retired; the rest stay
        pending.  One pass suffices per fed event: co-free premises cannot
        be enabled by the forced edges this pass adds.

        Once the closure is cyclic the pass is skipped entirely — more
        edges cannot un-close a cycle.  This mirrors the batch checker's
        first-contradiction early exit.  The only event that can restore
        consistency is a writer's abort.  Online, :meth:`retract_writer`
        removes that writer's edges in place, and the next pass evaluates
        the instances left pending.  In the DPOR derivation such an abort
        derives nothing (:func:`derive_extension_states`), so the child
        rebuilds with :meth:`from_history`.
        """
        if not self.matrix.is_acyclic():
            return
        still: List[Tuple[TxnId, TxnId, Event]] = []
        pending = self._pending
        for idx, (t1, t2, read) in enumerate(pending):
            fired = False
            for axiom in self.axioms:
                IncrementalSaturation.premise_evals += 1
                if axiom.premise(history, {}, t2, read):
                    fired = True
                    break
            if fired:
                self.force_edge(t2, t1)
                if not self.matrix.is_acyclic():
                    # First contradiction: the verdict is settled for this
                    # history and every append-extension.  Keep the
                    # unevaluated tail pending, for the pass after a
                    # writer's abort retracts the cycle, and stop scanning.
                    still.extend(pending[idx + 1 :])
                    break
            elif not self._drop_unfired:
                still.append((t1, t2, read))
        self._pending = still

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
        *frozen* false — e.g. RA's one-step ``so ∪ wr`` premise once the
        reading transaction is complete, or CC's causal premise once the
        reader's ancestor cone has no pending transaction.  Returns the
        number of instances dropped.  This is what keeps the monitor's
        pending list O(live window) instead of O(history).
        """
        if not self._pending:
            return 0
        kept = [inst for inst in self._pending if not dead(*inst)]
        dropped = len(self._pending) - len(kept)
        self._pending = kept
        return dropped

    def fork(self) -> "IncrementalSaturation":
        """An independent state to extend for a child history.

        O(n): the matrix's three row lists are copied
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
    def static_only(self) -> bool:
        """All premises static: instances decide eagerly, never queue."""
        return self._drop_unfired

    @property
    def prior_source_only(self) -> bool:
        """Every premise is ``⟨t2, read⟩ ∈ wr ∘ po`` (the RC shape): a new
        read's instances reduce to hash lookups in the reader's prior
        wr-source set."""
        return self._prior_source

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
    kind: "EventType",
    tid: TxnId,
    event: Optional[Event] = None,
    writer: Optional[TxnId] = None,
) -> None:
    """Derive ``child``'s saturation states from ``parent``'s by diffing.

    ``child`` must be ``parent`` extended by exactly one step of kind
    ``kind`` on transaction ``tid`` (``event`` is the appended event for
    non-BEGIN kinds; ``writer`` the wr-source for an external read).  For
    every axiom set with a state cached on the parent, the child gets a
    state reflecting just the delta — shared outright when the step cannot
    change the verdict, forked and minimally advanced otherwise — instead
    of re-deriving every forced edge from scratch per node.

    The one step this cannot express is an **abort of a transaction with
    writes**: retired instances and already-forced edges would have to be
    retracted.  In that case nothing is derived — the child's cache stays
    empty and :func:`satisfies_by_saturation` falls back to the
    :meth:`IncrementalSaturation.from_history` rebuild (the correctness
    escape hatch).
    """
    states = parent.saturation_states()
    if not states:
        return
    if kind is EventType.ABORT and any(
        e.type is EventType.WRITE for e in parent.txns[tid].events
    ):
        return
    child_states = child.saturation_states()
    for axioms, state in states.items():
        child_states[axioms] = _derive_state(state, parent, child, kind, tid, event, writer)


def _derive_state(
    state: IncrementalSaturation,
    parent: History,
    child: History,
    kind: "EventType",
    tid: TxnId,
    event: Optional[Event],
    writer: Optional[TxnId],
) -> IncrementalSaturation:
    """One derived state; shares ``state`` itself whenever the verdict and
    instance set are provably unchanged by the step."""
    if not state.consistent:
        # Monotone: append-extensions never un-close a cycle (aborts of
        # writers take the rebuild path above), so the inconsistent state
        # is shared verbatim with the whole subtree.  Its matrix may lag
        # the node universe; only the O(1) verdict is ever read.
        return state
    if kind is EventType.BEGIN:
        # New sink node: no reads, no writes — no new instances, and no
        # pending premise can fire through a fresh sink's so edge.
        forked = state.fork()
        forked.add_transaction(tid)
        order = child.sessions[tid.session]
        prev = order[-2] if len(order) > 1 else INIT_TXN
        forked.add_base_edge(prev, tid)
        return forked
    if kind is EventType.READ and writer is not None:
        # New wr edge + new instances quantified over the read; the edge
        # can also enable pending so∪wr (RA) / causal (CC) premises, so a
        # full pending re-scan runs against the child.
        forked = state.fork()
        forked.add_base_edge(writer, tid)
        assert event is not None
        for t2 in child.writers_of(event.var):
            if t2 != writer:
                forked.add_instance(writer, t2, event)
        forked.advance(child)
        return forked
    if kind is EventType.WRITE:
        assert event is not None
        if event.var in parent.txns[tid].writes():
            # Overwrite: writers_of and wr are unchanged — no new
            # instances, no new edges, premises see the same relations.
            return state
        # First write of ``var`` by ``tid``: exactly the instances pairing
        # the new writer with every existing read of ``var`` are new.  A
        # write adds no so/wr edge, so pending instances cannot newly
        # fire — only the fresh instances need evaluating.
        forked = None
        for read_eid, t1 in child.wr.items():
            if t1 == tid or child.event(read_eid).var != event.var:
                continue
            read_ev = child.event(read_eid)
            fired = False
            for axiom in state.axioms:
                IncrementalSaturation.premise_evals += 1
                if axiom.premise(child, {}, tid, read_ev):
                    fired = True
                    break
            if fired:
                if forked is None:
                    forked = state.fork()
                forked.force_edge(tid, t1)
            elif not state._drop_unfired:
                if forked is None:
                    forked = state.fork()
                forked.add_instance(t1, tid, read_ev)
        return state if forked is None else forked
    # COMMIT, local READ, write-free ABORT: writes() visibility, wr and so
    # are all unchanged — the state transfers verbatim.
    return state
