"""Per-level "can this transaction still matter?" eviction predicates.

The streaming monitor (:mod:`repro.monitor`) keeps memory O(live window)
by evicting transactions that provably cannot participate in any *future*
violation at the configured isolation level.  This module is where that
proof obligation lives, derived from the axiom schema (§2.2): every axiom
instantiates as ``premise(t2, read) ⇒ ⟨t2, t1⟩ ∈ co`` for an instance
``(t1, t2, read)`` with ``⟨t1, tr(read)⟩ ∈ wr`` and ``t2`` a visible
writer of the read variable.  A transaction therefore only ever matters in
three roles — wr source (``t1``), competing writer (``t2``), or reader
(``tr(read)``) — plus as a node carrying ``so`` edges.  A transaction may
be evicted once *none* of those roles can arm a new forced edge or lie on
a new cycle:

Common gates (every level)
    * **complete** — pending transactions are trivially live;
    * **not the session's latest transaction** — the session's next
      ``begin`` takes an ``so`` edge from it (keeping one transaction per
      session live is the monitor's O(sessions) floor);
    * **settled** — no pending transaction in its causal (``so ∪ wr``)
      ancestor cone.  All so/wr edges into a complete transaction are
      frozen, but a *pending* ancestor may still issue a first write and
      thereby create a new axiom instance over the transaction's reads
      whose (frozen) premise evaluates true.  Once every ancestor is
      complete, their write sets are final and every such instance has
      already been expanded and evaluated;
    * **not a wr source of a live read** — while a read naming ``t`` is
      live, a future first-write of that variable spawns an instance
      ``(t, w, read)`` whose forced edge ``w → t`` points *into* ``t``.

Per-level refinements
    * **RC / RA / CC** additionally require **no visible writes** (aborted,
      or committed without writing): a visible writer can always be the
      ``t2`` of a future read's instance — under the default ``keep``
      retention mode any committed writer of a live variable must stay,
      which is also why exact bounded-memory monitoring of write-heavy
      streams is impossible without further assumptions.
    * **RC under "assume-fresh"** may also evict committed writers that
      the staleness assumption makes unnameable (the monitor passes the
      still-fresh writer set).  RC's premise is *static* — it inspects
      only the reading transaction's own log prefix — so a future read can
      only resurrect an unnameable writer by naming it, which the
      assumption excludes (and the replayer turns into a defined
      :class:`~repro.trace.format.EvictedTransactionError`).  RA/CC
      premises can fire through the evicted writer's *session* (a later
      same-session read arms ``⟨t2, t3⟩ ∈ so``), so freshness alone is not
      an eviction licence there and the flag is ignored.
    * **SI / SER / PSI / PC / BS-3 — and MR / WFR / SESSION** additionally
      require **no external reads**: the search levels' axioms mention the
      commit order, so a premise over an old read is never frozen — any
      transaction that read something can join a violation witness
      arbitrarily late (the classic long-fork reader) — and the monotonic
      reads / writes-follow-reads premises traverse *session-mates'* read
      logs, so a future reader's instance can re-inspect an old read.
      Only *inert* transactions (no visible writes, no external reads) are
      evictable, which still covers aborted write-free transactions and
      keeps the property tests exact at every level.

Which rule applies is declared per level in its
:class:`~repro.isolation.registry.LevelSpec` (``eviction=``), so new
levels pick a sound rule at registration time.

The monitor separately enforces a retention window (the last ``W``
completed transactions are protected regardless), and only runs eviction
while the level's verdict is still consistent — evicting nodes of an
already-closed cycle could erase the cycle from the compacted closure.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Set

from ..core.events import INIT_TXN, TxnId

__all__ = [
    "EvictionPolicy",
    "eviction_policy",
    "evictable_transactions",
]


class _View:
    """Precomputed per-GC-pass context shared by all predicate calls."""

    __slots__ = ("checker", "replayer", "matrix", "pending_mask", "wr_sources", "fresh_writers", "_history")

    def __init__(self, checker, fresh_writers: Optional[Set[TxnId]]):
        self.checker = checker
        self.replayer = checker.replayer
        self.matrix = checker.causal_matrix
        self.pending_mask = checker.pending_mask()
        self.wr_sources = checker.live_wr_sources()
        self.fresh_writers = fresh_writers
        self._history = None

    def has_external_reads(self, tid: TxnId) -> bool:
        if self._history is None:
            self._history = self.checker.history()
        return any(e.is_external_read for e in self._history.txns[tid].events)


class EvictionPolicy:
    """The common-gate predicate; levels subclass to refine (see module doc)."""

    level = "?"
    #: Visible writers must be retained (False never occurs — every level
    #: requires it; "assume-fresh" weakens it for RC via ``fresh_writers``).
    supports_fresh_eviction = False
    #: Whether transactions with external reads must be retained (SI/SER).
    requires_no_external_reads = False

    def still_matters(self, view: _View, tid: TxnId) -> bool:
        """Whether ``tid`` could participate in a future violation."""
        replayer = view.replayer
        if not replayer.is_complete(tid):
            return True
        order = replayer.session_order(tid.session)
        if order and order[-1] == tid:
            return True
        if tid in view.wr_sources:
            return True
        if view.pending_mask and (view.matrix.ancestors_mask(tid) & view.pending_mask):
            return True
        if self.supports_fresh_eviction and view.fresh_writers is not None:
            # assume-fresh: only committed writers inside the freshness
            # window are pinned; anything older (or aborted) is assumed
            # never named again — a read that breaks the assumption
            # fail-stops (EvictedTransactionError), never lies.
            if replayer.visible_writes(tid) and tid in view.fresh_writers:
                return True
        elif replayer.wrote_any(tid):
            # keep (exact) mode: any writer — committed *or aborted* — can
            # still be named as a wr source by a late (dirty) read, so
            # writers are pinned for life.  This is what makes keep mode
            # exact on arbitrary streams, and linear on write-heavy ones.
            return True
        if self.requires_no_external_reads and view.has_external_reads(tid):
            return True
        return False


class FreshCapablePolicy(EvictionPolicy):
    """``"fresh"`` rule (RC): static premises allow assume-fresh eviction."""

    level = "fresh"
    supports_fresh_eviction = True


class WriterPinningPolicy(EvictionPolicy):
    """``"writers"`` rule: the common gates alone are exact.

    Covers levels whose premises never traverse another transaction's read
    set — RA, the one-step ``so ∪ wr`` premise; CC, whose ``(so ∪ wr)+``
    premise is preserved through eviction by the compacted closure matrix;
    RYW/MW, whose session clauses consult only static ``so`` and the
    reader's own log.
    """

    level = "writers"


class InertOnlyPolicy(EvictionPolicy):
    """``"inert"`` rule: transactions with external reads stay too.

    Needed by the commit-order searches (SI/SER/PSI/PC/BS — a premise
    over an old read is never frozen) and by the session premises that
    traverse session-mates' read logs (MR/WFR/SESSION): a *future*
    reader's instance may re-inspect an earlier transaction's reads, which
    eviction would have discarded.
    """

    level = "inert"
    requires_no_external_reads = True


_POLICIES = {
    "fresh": FreshCapablePolicy(),
    "writers": WriterPinningPolicy(),
    "inert": InertOnlyPolicy(),
}


def eviction_policy(level: str) -> EvictionPolicy:
    """The eviction policy for a registered isolation level name.

    The rule comes from the level's :class:`~repro.isolation.registry.LevelSpec`
    (``spec.eviction``), so newly registered levels get sound GC without
    touching this module.
    """
    from .registry import level_spec

    try:
        spec = level_spec(level)
    except KeyError:
        raise ValueError(f"no eviction policy for level {level!r}") from None
    return _POLICIES[spec.eviction]


def evictable_transactions(
    checker,
    level: str,
    protect: Collection[TxnId] = (),
    fresh_writers: Optional[Set[TxnId]] = None,
) -> List[TxnId]:
    """All transactions the level's policy allows evicting right now.

    ``checker`` is an :class:`~repro.checking.online.OnlineChecker`;
    ``protect`` is the monitor's retention window (kept regardless);
    ``fresh_writers`` enables the assume-fresh weakening on capable levels
    (``None`` = pure ``keep`` mode).  The returned transactions can be
    passed directly to :meth:`OnlineChecker.evict`.
    """
    policy = eviction_policy(level)
    view = _View(checker, fresh_writers)
    # GC gate: compaction bakes the matrix closure into one-step rows
    # (RelationMatrix.remove_nodes), which is only sound when everything
    # in the matrix is permanent.  A fired edge whose writer is still
    # uncommitted may yet be retracted by an abort, so no one is
    # evictable until that writer completes (open fires are transient:
    # at most one per session is pending).
    pending = checker.pending_transactions()
    if pending and any(
        tid in state.fired_writers
        for state in checker.saturation_states()
        for tid in pending
    ):
        return []
    protected = set(protect)
    out: List[TxnId] = []
    for tid in view.replayer.transactions():
        if tid == INIT_TXN or tid in protected:
            continue
        if not policy.still_matters(view, tid):
            out.append(tid)
    return out
