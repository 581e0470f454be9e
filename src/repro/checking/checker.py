"""The model-checking facade — the library's primary public entry point.

::

    from repro import ModelChecker
    result = ModelChecker(program, isolation="CC").run(assertions=[...])
    assert result.ok

The checker picks the right algorithm for the requested isolation level:

* prefix-closed causally-extensible levels (RC / RA / CC / true, the
  session guarantees RYW/MR/MW/WFR/SESSION) → the strongly optimal
  ``explore-ce`` (§5);
* search levels (SI / SER / PSI / PC / BS-3) → ``explore-ce*(base,
  level)`` (§6), exploring under the strongest registered prefix-closed
  causally-extensible level weaker than the target — CC for SI/SER/PSI/PC
  (per the paper's observation that CC+SI / CC+SER overhead is
  negligible), RC for BS-3;
* ``method="dfs"`` forces the no-POR baseline (for comparison only).

Any name registered in the isolation registry is accepted (``repro
levels`` lists them).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..dpor.explore import SwappingExplorer, resolve_workers
from ..isolation.base import IsolationLevel, get_level, registered_levels
from ..lang.program import Program
from ..semantics.enumerate import enumerate_histories
from .assertions import Assertion
from .result import CheckResult, Outcome, Violation

LevelLike = Union[str, IsolationLevel]


def _default_base(level: IsolationLevel) -> IsolationLevel:
    """The strongest sound exploration base for ``explore-ce*(base, level)``.

    The base must be prefix-closed, causally extensible, and weaker than
    the target so no valid history is pruned.  Picking the strongest such
    registered level keeps the exploration tight: CC for SI/SER/PSI/PC
    (the paper's default — CC+SI / CC+SER overhead is negligible, §6), but
    RC for BS-3, which is *not* stronger than CC, so exploring it under a
    CC base would be unsound.  TRUE always qualifies as the fallback.
    """
    candidates = [
        other
        for other in registered_levels()
        if other.name != level.name
        and other.prefix_closed
        and other.causally_extensible
        and other.is_weaker_than(level)
    ]
    return max(candidates, key=lambda other: other.strength)


def _normalize_keep_outcomes(keep_outcomes: Union[bool, int]) -> Tuple[bool, Optional[int]]:
    """``keep_outcomes`` → ``(collect, cap)``.

    ``True`` keeps every outcome (no cap), ``False`` keeps none
    (``result.outcomes is None``), and an integer ``n >= 0`` keeps at most
    ``n`` — ``0`` meaning "collect but keep none" (``result.outcomes ==
    []``, distinguishable from not collecting at all).  Negative caps are
    rejected.  Booleans are checked identity-first because ``bool`` is an
    ``int`` subtype, which previously conflated ``0`` with ``False`` and
    cap handling with ``True``.
    """
    if keep_outcomes is True:
        return True, None
    if keep_outcomes is False:
        return False, None
    cap = int(keep_outcomes)
    if cap < 0:
        raise ValueError(f"keep_outcomes must be a bool or a cap >= 0, got {cap}")
    return True, cap


class ModelChecker:
    """Configured checker for one program and isolation level.

    Parameters
    ----------
    program:
        The bounded transactional program to check.
    isolation:
        The isolation level the database provides: any registered name
        (``"RC"``, ``"RA"``, ``"CC"``, ``"SI"``, ``"SER"``, ``"TRUE"``,
        ``"PSI"``, ``"PC"``, ``"SESSION"``, ``"BS-3"``, ...).
    base:
        For search levels: the weaker exploration level of
        ``explore-ce*`` (default: strongest registered causally-extensible
        level weaker than the target — CC for SI/SER/PSI/PC, RC for BS-3).
    method:
        ``"dpor"`` (default) or ``"dfs"`` for the baseline.
    workers:
        Process count for the exploration: ``1`` (default) runs in-process,
        ``0`` means one worker per CPU, and any N > 1 spreads the DPOR
        exploration over a persistent pool of N worker processes with
        identical results (``method="dfs"`` always runs in-process).
        Where no pool can start — no multiprocessing start method can
        ship this program's engine — :meth:`run` raises
        :class:`~repro.dpor.pool.PoolUnavailableError` immediately rather
        than hanging or silently falling back to serial; callers wanting
        the serial behaviour pass ``workers=1`` explicitly.
    """

    def __init__(
        self,
        program: Program,
        isolation: LevelLike = "SER",
        base: Optional[LevelLike] = None,
        method: str = "dpor",
        workers: int = 1,
    ):
        self.program = program
        self.level = get_level(isolation) if isinstance(isolation, str) else isolation
        if base is not None:
            self.base: Optional[IsolationLevel] = (
                get_level(base) if isinstance(base, str) else base
            )
        elif self.level.prefix_closed and self.level.causally_extensible:
            self.base = None
        else:
            self.base = _default_base(self.level)
        if method not in ("dpor", "dfs"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.workers = resolve_workers(workers)

    # -- running ------------------------------------------------------------------

    def run(
        self,
        assertions: Iterable[Assertion] = (),
        timeout: Optional[float] = None,
        keep_outcomes: Union[bool, int] = False,
        max_violations: Optional[int] = 10,
    ) -> CheckResult:
        """Enumerate all histories and evaluate the assertions.

        ``keep_outcomes`` retains outcome objects for inspection: ``True``
        for all, ``False`` for none, or an integer cap (``0`` keeps none
        but still yields an empty list; negative caps are rejected).
        ``max_violations`` stops collecting witnesses (not exploring)
        beyond the given count.
        """
        checks: List[Assertion] = list(assertions)
        violations: List[Violation] = []
        collect_outcomes, outcome_cap = _normalize_keep_outcomes(keep_outcomes)
        outcomes: Optional[List[Outcome]] = [] if collect_outcomes else None
        count = 0

        def on_history(history) -> None:
            nonlocal count
            count += 1
            needed = checks or outcomes is not None
            if not needed:
                return
            outcome = Outcome(self.program, history)
            if outcomes is not None and (outcome_cap is None or len(outcomes) < outcome_cap):
                outcomes.append(outcome)
            for check in checks:
                if max_violations is not None and len(violations) >= max_violations:
                    return
                if not check.holds(outcome):
                    violations.append(Violation(check.name, outcome))

        if self.method == "dfs":
            result = enumerate_histories(self.program, self.level, timeout=timeout, on_output=on_history)
            # DFS revisits histories; count each class once for reporting.
            stats_holder = _dfs_stats(result)
            return CheckResult(
                program_name=self.program.name,
                algorithm=f"DFS({self.level.name})",
                isolation=self.level.name,
                history_count=len(result.histories),
                stats=stats_holder,
                violations=violations,
                outcomes=outcomes,
            )

        explorer = SwappingExplorer(
            self.program,
            self.base or self.level,
            valid_level=self.level if self.base is not None else None,
            on_output=on_history,
            collect_histories=False,
            timeout=timeout,
            workers=self.workers,
        )
        run = explorer.run()
        return CheckResult(
            program_name=self.program.name,
            algorithm=run.algorithm,
            isolation=self.level.name,
            history_count=run.stats.outputs,
            stats=run.stats,
            violations=violations,
            outcomes=outcomes,
        )


def _dfs_stats(result):
    from ..dpor.stats import ExplorationStats

    return ExplorationStats(
        explore_calls=result.steps,
        end_states=result.end_states,
        outputs=result.histories.total_added,
        blocked=result.blocked,
        seconds=result.seconds,
        timed_out=result.timed_out,
    )


def check_program(
    program: Program,
    isolation: LevelLike,
    assertions: Sequence[Assertion] = (),
    workers: int = 1,
    **kwargs,
) -> CheckResult:
    """One-shot convenience wrapper around :class:`ModelChecker`."""
    return ModelChecker(program, isolation, workers=workers).run(
        assertions=assertions, **kwargs
    )
