"""Declarative isolation-level specifications (the extension seam of §3).

The paper's central move is treating an isolation level as *data* — a set
of axiom-schema instances — so every algorithm (saturation, the searches,
DPOR, the online checker, the streaming monitor's GC) is parameterized by
the level rather than hard-coding it.  :class:`LevelSpec` makes that
concrete: one frozen record naming the axioms, the efficient checker, the
position in the weaker-than lattice, and the monitor eviction rule.  The
built-in levels in :mod:`repro.isolation.levels` register through it, and
new levels need nothing more than another :func:`register_spec` call.

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
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..core.history import History
from .axioms import Axiom, OrderPredicate
from .base import IsolationLevel, add_aliases, get_level, record_lattice, register
from .summaries import DenseSummaries

#: Valid eviction rule names, weakest pinning first.
EVICTION_RULES = ("fresh", "writers", "inert")


class Placement(Protocol):
    """A witness the online checker keeps, in row indices of its matrix.

    Once a witness passes the search's step conditions, appending an event
    can only break them at the transaction the event touches, so each
    external read or first write is re-checked there alone.
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


@dataclass(frozen=True)
class WitnessCheck:
    """A search level's witness, and the one-pass re-check that places it.

    Def. 2.2 is existential, so the commit order (or schedule) a successful
    search finds certifies the verdict, and re-running the search's step
    conditions along it decides the same history in one pass.  That pass
    also returns the witness as a :class:`Placement`, which the online
    checker keeps and re-checks per event.
    """

    #: The witness the level's ``check`` found on a history, in row
    #: indices of its ``causal_matrix()`` (cached on the history by that
    #: check: no second search), or None when it found none.
    path: Callable[[History], Optional[Sequence[int]]]
    #: ``place(rows, summaries)``: the witness given in row indices of
    #: ``summaries`` as a placement, with the rows it leaves out (the last
    #: ones) placed after it in row order, when the search's step
    #: conditions hold along it; None otherwise.
    place: Callable[[Sequence[int], DenseSummaries], Optional[Placement]]


@dataclass(frozen=True)
class LevelSpec:
    """Everything the toolchain needs to know about one isolation level.

    The contract ``check`` keeps, which the online checker's skip rules
    rest on: it decides from the transactions, ``so ∪ wr``, the external
    reads with their sources and the visible write sets (the writes of
    every transaction that has not aborted), and from nothing else — not
    commit status, local reads or a repeated write to a variable.  Adding
    a transaction with no reads, no writes and no outgoing edge (what a
    ``begin`` appends) never changes the verdict: it can go last in any
    commit order.  ``prefix_closed`` also licenses the checker to keep a
    violated verdict without searching until a writer aborts, the one
    step after which the old history is not a prefix of the new one.
    """

    #: Canonical short name (registry key), e.g. ``"PSI"``.
    name: str
    #: Rank used only for display ordering; the lattice edges carry the
    #: actual weaker-than semantics.  Must be unique and respect the
    #: lattice (weaker levels get smaller ranks).
    strength: int
    #: The level's instances of the axiom schema (may be empty for TRUE).
    axioms: Tuple[Axiom, ...] = ()
    #: Efficient consistency check.  Defaults to saturation over
    #: ``axioms`` when they are all co-free; must be given otherwise.
    check: Optional[Callable[[History], bool]] = None
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
    #: The search's witness and its re-check, for levels whose ``check``
    #: keeps one (SER, SI, PC); the online checker then keeps the witness
    #: and re-checks it per event before searching.  None: it searches
    #: every time.
    witness: Optional[WitnessCheck] = None

    def derived_causal_extensibility(self) -> bool:
        if self.causally_extensible is not None:
            return self.causally_extensible
        return self.order_predicate is None and all(a.co_free for a in self.axioms)


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
    check = spec.check
    if check is None:
        if not all(a.co_free for a in spec.axioms):
            raise ValueError(
                f"level {spec.name!r} has co-dependent axioms and no explicit check"
            )
        if spec.order_predicate is not None:
            raise ValueError(
                f"level {spec.name!r} has an order predicate and no explicit check"
            )
        from .saturation import satisfies_by_saturation

        axioms = spec.axioms

        def check(history: History, _axioms: Tuple[Axiom, ...] = axioms) -> bool:
            return satisfies_by_saturation(history, _axioms)

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
