"""Declarative isolation-level specifications (the extension seam of §3).

The paper's central move is treating an isolation level as *data* — a set
of axiom-schema instances — so every algorithm (saturation, the searches,
DPOR, the online checker, the streaming monitor's GC) is parameterized by
the level rather than hard-coding it.  :class:`LevelSpec` makes that
concrete: one frozen record naming the axioms, the search (for levels
saturation cannot decide), the position in the weaker-than lattice, and
the monitor eviction rule.  The built-in levels in
:mod:`repro.isolation.levels` register through it, and new levels need
nothing more than another :func:`register_spec` call.

Eviction rules (consumed by :mod:`repro.isolation.liveness`):

``"fresh"``
    Complete readers may evict even if they wrote, when the monitor runs
    in assume-fresh mode (RC: premises only look inside the reader's log).
``"writers"``
    Writers stay until their variables are overwritten; complete
    transactions whose effects are summarized elsewhere may go (RA, CC and
    the session atoms whose premises never traverse another transaction's
    read set — CC survives eviction because the compacted closure matrix
    preserves reachability through evicted nodes).
``"inert"``
    Additionally pins transactions with external reads (levels whose
    premises or searches re-inspect other transactions' reads: MR/WFR
    traverse session-mates' read logs, and the SI/SER/PSI/PC/BS searches
    re-read every read in the live window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..core.events import TxnId
from ..core.history import History
from .axioms import Axiom, OrderPredicate
from .base import IsolationLevel, add_aliases, get_level, record_lattice, register
from .saturation import satisfies_by_saturation
from .summaries import DenseSummaries, dense_summaries

if TYPE_CHECKING:
    from .search import Search

#: Valid eviction rule names, weakest pinning first.
EVICTION_RULES = ("fresh", "writers", "inert")


class Placement(Protocol):
    """A witness the online checker keeps, in row indices of its matrix.

    Once a witness passes the search's step conditions, appending an event
    can only break them at the transaction the event touches, so each
    external read or first write is re-checked there alone.  When the
    re-check fails, the witness's prefix before the earliest step the
    event can have broken still passes, and the search repairs the witness
    from it.
    """

    def rows(self) -> Sequence[int]:
        """The witness, in row indices."""

    def grow(self, rows: int) -> None:
        """Place the rows below ``rows`` that are not placed yet last, in
        row (begin) order."""

    def external_read(self, reader: int, var: int, source: int) -> bool:
        """Whether the witness still passes once row ``reader`` reads the
        variable with index ``var`` from row ``source``; records it if so."""

    def first_write(self, writer: int, var: int) -> bool:
        """Whether the witness still passes once row ``writer`` first
        writes the variable with index ``var``; records it if so."""

    def cut_before(self, row: int) -> int:
        """The length of the witness's prefix before row ``row`` is placed
        (for a schedule: starts), which a first write or an abort by
        ``row`` leaves intact."""

    def read_cut(self, reader: int, var: int, source: int) -> int:
        """The length of the witness's prefix that row ``reader``'s read of
        the variable with index ``var`` from row ``source`` leaves intact
        and does not rule out: before ``reader`` and before the first
        writer of ``var`` placed after ``source``."""


@dataclass(frozen=True)
class LevelSpec:
    """Everything the toolchain needs to know about one isolation level.

    The contract ``axioms`` and ``search`` keep, which the online
    checker's skip rules rest on: they decide from the transactions, ``so
    ∪ wr``, the external reads with their sources and the visible write
    sets (the writes of every transaction that has not aborted), and from
    nothing else — not commit status, local reads or a repeated write to a
    variable.  Adding a transaction with no reads, no writes and no
    outgoing edge (what a ``begin`` appends) never changes the verdict: it
    can go last in any commit order.  ``prefix_closed`` also licenses the
    checker to keep a violated verdict without searching until a writer
    aborts, the one step after which the old history is not a prefix of
    the new one.
    """

    #: Canonical short name (registry key), e.g. ``"PSI"``.
    name: str
    #: Rank used only for display ordering; the lattice edges carry the
    #: actual weaker-than semantics.  Must be unique and respect the
    #: lattice (weaker levels get smaller ranks).
    strength: int
    #: The level's instances of the axiom schema (may be empty for TRUE).
    #: A level without a ``search`` is decided by saturation over them.
    axioms: Tuple[Axiom, ...] = ()
    #: Extra whole-order constraint (bounded staleness); None for levels
    #: fully captured by the implication schema.
    order_predicate: Optional[OrderPredicate] = None
    #: Def. 3.1 — every prefix of a consistent history is consistent.  The
    #: online checker then keeps a violated search level violated until a
    #: writer aborts.
    prefix_closed: bool = True
    #: Def. 3.3 — None derives it: co-free axioms without an order
    #: predicate are causally extensible (Thm. 3.4 generalizes: each
    #: premise is a sub-relation of ``(so ∪ wr)+``).
    causally_extensible: Optional[bool] = None
    #: Immediate *weaker* neighbours in the lattice (must already be
    #: registered — register weakest-first).
    stronger_than: Tuple[str, ...] = ()
    #: Extra case-insensitive lookup aliases.
    aliases: Tuple[str, ...] = ()
    #: One-line description for ``repro levels`` and the docs.
    description: str = ""
    #: Monitor eviction rule: ``"fresh"`` | ``"writers"`` | ``"inert"``.
    eviction: str = "inert"
    #: The commit-order search that decides the level: its input's
    #: ancestors are the closure of ``so ∪ wr`` plus the edges the level's
    #: co-free axioms force (:meth:`forced_axioms`), and it returns the path
    #: it found (a witness, in rows) or None.  Required for a level that
    #: saturation cannot decide (a co-dependent axiom or an order
    #: predicate); batch checks (:func:`search_history`) and the online
    #: checker, on the state it maintains, decide every level that names
    #: one by it.
    search: Optional[Search] = None
    #: ``place(rows, summaries)``: a ``search`` path given in row indices
    #: of ``summaries`` as a :class:`Placement`, with the rows it leaves
    #: out (the last ones) placed after it in row order, when the search's
    #: step conditions hold along it; None otherwise.  For searches over
    #: ``so ∪ wr`` alone (SER, SI, PC): the online checker then keeps the
    #: witness and re-checks it per event before searching, and when that
    #: fails calls ``search(summaries, prefix)`` with the witness's intact
    #: prefix (:meth:`Placement.cut_before`, :meth:`Placement.read_cut`),
    #: which the search must try first and whose verdict must not depend
    #: on it (:func:`~repro.isolation.search.repaired_path`).  None: it
    #: searches from the root every time.
    place: Optional[Callable[[Sequence[int], DenseSummaries], Optional[Placement]]] = None

    def derived_causal_extensibility(self) -> bool:
        if self.causally_extensible is not None:
            return self.causally_extensible
        return self.order_predicate is None and all(a.co_free for a in self.axioms)

    def forced_axioms(self) -> Tuple[Axiom, ...]:
        """The co-free axioms, whose forced edges a ``search`` respects."""
        return tuple(axiom for axiom in self.axioms if axiom.co_free)


class _SpecLevel(IsolationLevel):
    """An :class:`IsolationLevel` built from a :class:`LevelSpec`."""

    def __init__(self, spec: LevelSpec, check: Callable[[History], bool]):
        self.spec = spec
        self.name = spec.name
        self.prefix_closed = spec.prefix_closed
        self.causally_extensible = spec.derived_causal_extensibility()
        self.strength = spec.strength
        self._check = check

    def satisfies(self, history: History) -> bool:
        return self._check(history)

    def __reduce__(self):
        # Levels are process-global registry entries (re-registered by the
        # module imports of any interpreter), so cross process boundaries
        # by name — the derived saturation check is a closure that plain
        # pickling could not ship under the spawn start method.
        return (get_level, (self.name,))


_SPECS: Dict[str, LevelSpec] = {}


def register_spec(spec: LevelSpec) -> IsolationLevel:
    """Register a level from its declarative spec; returns the level."""
    if spec.eviction not in EVICTION_RULES:
        raise ValueError(
            f"level {spec.name!r}: unknown eviction rule {spec.eviction!r}; "
            f"expected one of {EVICTION_RULES}"
        )
    if spec.search is None:
        if not all(a.co_free for a in spec.axioms):
            raise ValueError(f"level {spec.name!r} has co-dependent axioms and no search")
        if spec.order_predicate is not None:
            raise ValueError(f"level {spec.name!r} has an order predicate and no search")
    elif spec.place is not None and spec.forced_axioms():
        raise ValueError(
            f"level {spec.name!r}: a placed witness is re-checked on so ∪ wr alone, "
            f"so its search cannot have co-free axioms"
        )
    axioms = spec.axioms
    if spec.search is not None:

        def check(history: History) -> bool:
            return search_history(history, spec) is not None

    elif axioms:

        def check(history: History) -> bool:
            return satisfies_by_saturation(history, axioms)

    else:  # saturation over no axioms would only test so ∪ wr for a cycle

        def check(history: History) -> bool:
            return history.is_so_wr_acyclic()

    level = _SpecLevel(spec, check)
    key = spec.name.upper()
    for existing in _SPECS.values():
        if existing.name.upper() != key and existing.strength == spec.strength:
            raise ValueError(
                f"level {spec.name!r} reuses strength rank {spec.strength} "
                f"of {existing.name!r}"
            )
    register(level)
    record_lattice(spec.name, spec.stronger_than)
    add_aliases(spec.name, spec.aliases)
    _SPECS[key] = spec
    return level


def search_history(history: History, spec: LevelSpec) -> Optional[Tuple[TxnId, ...]]:
    """The path ``spec``'s search finds on ``history``, as transaction ids,
    or None.

    The dense input's ancestors are the closure of ``so ∪ wr`` plus the
    edges ``spec``'s co-free axioms force (:meth:`LevelSpec.forced_axioms`):
    the matrix of the saturation state cached on the history
    (:func:`satisfies_by_saturation`), or the history's causal matrix when
    there are none.  A cyclic closure admits no commit order and is not
    searched.
    """
    if spec.search is None:
        raise ValueError(f"level {spec.name!r} names no search")
    forced = spec.forced_axioms()
    if forced:
        if not satisfies_by_saturation(history, forced):
            return None
        matrix = history.saturation_states()[forced].matrix
    else:
        matrix = history.causal_matrix()
        if not matrix.is_acyclic():
            return None
    path = spec.search(dense_summaries(history, matrix))
    if path is None:
        return None
    nodes = matrix.nodes
    return tuple(nodes[i] for i in path)


def level_spec(name: str) -> LevelSpec:
    """The :class:`LevelSpec` behind a registered level name or alias."""
    canonical = get_level(name).name.upper()
    try:
        return _SPECS[canonical]
    except KeyError:
        raise KeyError(f"level {name!r} was registered without a spec") from None


def level_specs() -> List[LevelSpec]:
    """All registered specs, weakest display rank first."""
    return sorted(_SPECS.values(), key=lambda spec: spec.strength)


def lattice_edges() -> List[Tuple[str, str]]:
    """Direct ``(weaker, stronger)`` edges of the registered lattice."""
    edges: List[Tuple[str, str]] = []
    for spec in level_specs():
        for weaker in spec.stronger_than:
            edges.append((get_level(weaker).name, spec.name))
    return edges
