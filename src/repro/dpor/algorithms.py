"""Named entry points for the paper's algorithms.

* :func:`explore_ce` — the strongly optimal algorithm of §5 for
  prefix-closed, causally-extensible levels (RC, RA, CC, and ``true``).
* :func:`explore_ce_star` — the filtering variant of §6 for stronger levels
  (typically SI and SER explored under CC).
* :func:`dfs_baseline` — the no-POR baseline ``DFS(I)`` of §7.3.
"""

from __future__ import annotations

from typing import Optional, Union

from ..isolation.base import IsolationLevel, get_level
from ..lang.program import Program
from ..semantics.enumerate import EnumerationResult, enumerate_histories
from .explore import ExplorationResult, SwappingExplorer

LevelLike = Union[str, IsolationLevel]


def _resolve(level: LevelLike) -> IsolationLevel:
    return get_level(level) if isinstance(level, str) else level


def explore_ce(
    program: Program, level: LevelLike = "CC", workers: int = 1, **kwargs
) -> ExplorationResult:
    """Run ``explore-ce(level)`` on ``program`` (Theorem 5.1).

    ``level`` must be prefix-closed and causally extensible (RC/RA/CC/true).
    ``workers`` > 1 (or 0 for one per CPU, on a host with several) spreads
    the exploration over a process pool with identical outputs.  Keyword
    arguments are forwarded to :class:`SwappingExplorer`.
    """
    return SwappingExplorer(program, _resolve(level), workers=workers, **kwargs).run()


def explore_ce_star(
    program: Program,
    explore_level: LevelLike = "CC",
    valid_level: LevelLike = "SER",
    workers: int = 1,
    **kwargs,
) -> ExplorationResult:
    """Run ``explore-ce*(explore_level, valid_level)`` (Corollary 6.2).

    Explores under the weaker ``explore_level`` and filters outputs with
    ``valid_level`` — sound, complete and (plain) optimal for the stronger
    level, e.g. ``explore_ce_star(p, "CC", "SI")``.  ``workers`` as in
    :func:`explore_ce`.
    """
    return SwappingExplorer(
        program,
        _resolve(explore_level),
        valid_level=_resolve(valid_level),
        workers=workers,
        **kwargs,
    ).run()


def dfs_baseline(
    program: Program, level: LevelLike = "CC", timeout: Optional[float] = None
) -> EnumerationResult:
    """Run the partial-order-reduction-free baseline ``DFS(level)``."""
    return enumerate_histories(program, _resolve(level), timeout=timeout)
