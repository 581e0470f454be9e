"""Isolation-level interface and registry (paper §2.2.2, §3).

An isolation level is defined by a set of axioms over histories: a history
satisfies the level iff there is a strict total *commit order* ``co``
extending ``so ∪ wr`` such that the axioms hold (Def. 2.2).

Each concrete level exposes:

* :meth:`IsolationLevel.satisfies` — the (efficient) consistency check used
  by the model-checking algorithms;
* :attr:`IsolationLevel.prefix_closed` / :attr:`IsolationLevel.causally_extensible`
  — the §3 properties that determine which DPOR algorithm applies;
* :attr:`IsolationLevel.strength` — position in the weaker-than order
  RC < RA < CC < SI < SER (§2.2.2).
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, Iterable, List

from ..core.history import History


class IsolationLevel(abc.ABC):
    """Abstract isolation level."""

    #: Short name, e.g. ``"CC"``.
    name: str = ""
    #: Whether every prefix of a consistent history is consistent (Def. 3.1).
    prefix_closed: bool = True
    #: Whether (so ∪ wr)+-maximal pending transactions can always be extended
    #: consistently (Def. 3.3).
    causally_extensible: bool = False
    #: Rank in the weaker-than order; larger = stronger.
    strength: int = 0

    @abc.abstractmethod
    def satisfies(self, history: History) -> bool:
        """Whether ``history`` is consistent with this level."""

    def is_weaker_than(self, other: "IsolationLevel") -> bool:
        """Whether every history consistent with ``other`` satisfies ``self``.

        Includes equality.  Levels registered through the
        :mod:`repro.isolation.registry` lattice are decided by the recorded
        weaker-than closure (the lattice is a partial order — PSI and PC,
        or BS-3 and SI, are incomparable); levels registered without
        lattice edges fall back to comparing strength ranks, which is exact
        for the original RC < RA < CC < SI < SER chain.
        """
        closure = _WEAKER_CLOSURE.get(other.name.upper())
        if closure is not None and self.name.upper() in _WEAKER_CLOSURE:
            return self.name.upper() in closure
        return self.strength <= other.strength

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IsolationLevel {self.name}>"


_REGISTRY: Dict[str, IsolationLevel] = {}

#: Lower-cased alias → registered level name (filled by :func:`add_aliases`).
_ALIASES: Dict[str, str] = {}

#: name → every registered level weaker than or equal to it (reflexive,
#: transitive closure of the declared lattice edges).
_WEAKER_CLOSURE: Dict[str, FrozenSet[str]] = {}


def register(level: IsolationLevel) -> IsolationLevel:
    """Add a level instance to the global registry (keyed by name)."""
    _REGISTRY[level.name.upper()] = level
    return level


def record_lattice(name: str, stronger_than: Iterable[str]) -> None:
    """Record ``name``'s position in the weaker-than lattice.

    ``stronger_than`` names the level's immediate weaker neighbours, which
    must already be recorded — levels register weakest-first.
    """
    key = name.upper()
    closure = {key}
    for weaker in stronger_than:
        weaker_key = weaker.upper()
        if weaker_key not in _WEAKER_CLOSURE:
            raise KeyError(
                f"level {name!r} declared stronger than unrecorded level {weaker!r}; "
                "register weaker levels first"
            )
        closure.update(_WEAKER_CLOSURE[weaker_key])
    _WEAKER_CLOSURE[key] = frozenset(closure)


def add_aliases(name: str, aliases: Iterable[str]) -> None:
    """Register extra case-insensitive lookup aliases for a level name."""
    for alias in aliases:
        _ALIASES[alias.strip().lower()] = name.upper()


def get_level(name: str) -> IsolationLevel:
    """Look up a registered level by (case-insensitive) name.

    Accepts every registered short name (``RC``, ``RA``, ``CC``, ``SI``,
    ``SER``, ``TRUE``, ``RYW``, ``MR``, ``MW``, ``WFR``, ``SESSION``,
    ``PSI``, ``PC``, ``BS-3``) plus the long aliases (``read committed``,
    ``parallel snapshot isolation``, ``bounded staleness`` etc.) —
    ``repro levels`` on the command line lists them all.
    """
    key = _ALIASES.get(name.strip().lower(), name.strip().upper())
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown isolation level {name!r}; known: {sorted(_REGISTRY)}") from None


def registered_levels() -> List[IsolationLevel]:
    return sorted(_REGISTRY.values(), key=lambda l: l.strength)
