"""Two-phase lock manager for the in-process MVCC engine.

The engine's concurrency control is built from per-key shared/exclusive
locks.  The manager is deliberately *non-blocking*: an acquisition that
cannot be granted raises :class:`WouldBlock` after recording the wait-for
edges, and the caller (the scheduler-driven worker loop in
:mod:`repro.engine.harness`) decides how to wait.  This keeps the lock
manager usable both under real free-running threads and under the
deterministic lockstep scheduler — blocking policy lives in one place,
the scheduler.

Deadlocks are detected on the wait-for graph at acquisition time: a
request that would close a cycle aborts the *requesting* transaction (the
"detector dies" policy of most real engines — the requester is always a
member of the cycle it just closed, so aborting it is sufficient and
deterministic).

Lock strictness is the caller's choice: the honest configurations hold
every lock to commit (strict two-phase locking); the seeded bug knobs
release early or skip acquisition entirely (see
:mod:`repro.engine.mvcc`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

#: A transaction is identified engine-side by ``(session, index)`` — the
#: same pair the trace format uses, so commit-log entries adapt directly.
TxnKey = Tuple[str, int]

#: Lock modes.
SHARED = "S"
EXCLUSIVE = "X"


class EngineError(RuntimeError):
    """Misuse of the engine API (unknown key, op on a finished txn, ...)."""


class TransactionAborted(Exception):
    """The engine aborted the transaction (deadlock victim, FCW loser).

    The abort is already recorded in the commit log when this propagates;
    the worker loop reacts by retrying the program transaction as a fresh
    engine transaction (new index in the same session).
    """

    def __init__(self, txn: TxnKey, reason: str):
        super().__init__(f"transaction {txn} aborted: {reason}")
        self.txn = txn
        self.reason = reason


class WouldBlock(Exception):
    """Internal control flow: the operation must wait for ``key``.

    Raised *before* any engine state changed, so the operation can simply
    be retried once the scheduler re-runs it.
    """

    def __init__(self, key: str, holders: FrozenSet[TxnKey]):
        super().__init__(f"would block on {key!r} held by {sorted(holders)}")
        self.key = key
        self.holders = holders


class LockManager:
    """Per-key S/X locks with wait-for-graph deadlock detection."""

    def __init__(self) -> None:
        #: key → {txn: mode} current holders (all SHARED, or one EXCLUSIVE).
        self._holders: Dict[str, Dict[TxnKey, str]] = {}
        #: txn → (key, blockers) — the wait edge of a txn whose last
        #: acquisition would have blocked.  Cleared on grant and release.
        self._waits: Dict[TxnKey, Tuple[str, FrozenSet[TxnKey]]] = {}

    # -- queries ---------------------------------------------------------------

    def holders(self, key: str) -> Dict[TxnKey, str]:
        """Current holders of ``key`` (txn → mode)."""
        return dict(self._holders.get(key, {}))

    # -- acquisition ----------------------------------------------------------

    def acquire(self, txn: TxnKey, key: str, mode: str) -> None:
        """Grant ``key`` to ``txn`` in ``mode``, or refuse.

        Re-entrant grants and lone-holder S→X upgrades succeed silently.
        A refused request records the wait-for edge and raises
        :class:`WouldBlock`; if that edge closes a cycle in the wait-for
        graph the request raises :class:`TransactionAborted` instead (the
        requester is the deadlock victim).
        """
        holders = self._holders.setdefault(key, {})
        held = holders.get(txn)
        if held == EXCLUSIVE or (held == SHARED and mode == SHARED):
            self._waits.pop(txn, None)
            return
        blockers = frozenset(
            t
            for t, m in holders.items()
            if t != txn and (mode == EXCLUSIVE or m == EXCLUSIVE)
        )
        if not blockers:
            holders[txn] = mode if held is None else EXCLUSIVE
            self._waits.pop(txn, None)
            return
        self._waits[txn] = (key, blockers)
        if self._closes_cycle(txn):
            del self._waits[txn]
            raise TransactionAborted(txn, f"deadlock waiting for {key!r}")
        raise WouldBlock(key, blockers)

    def _closes_cycle(self, start: TxnKey) -> bool:
        """Whether ``start`` is reachable from the transactions it waits on."""
        seen: Set[TxnKey] = set()
        frontier: List[TxnKey] = list(self._waits[start][1])
        while frontier:
            txn = frontier.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            wait = self._waits.get(txn)
            if wait is not None:
                frontier.extend(wait[1])
        return False

    # -- release ---------------------------------------------------------------

    def release(self, txn: TxnKey, key: str) -> None:
        """Release one key (the early-release bug path)."""
        holders = self._holders.get(key)
        if holders is not None:
            holders.pop(txn, None)

    def release_all(self, txn: TxnKey) -> List[str]:
        """Drop every lock and wait edge of ``txn``; returns the freed keys."""
        freed: List[str] = []
        for key, holders in self._holders.items():
            if holders.pop(txn, None) is not None:
                freed.append(key)
        self._waits.pop(txn, None)
        return freed
