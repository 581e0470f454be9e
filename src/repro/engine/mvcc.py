"""A small in-process MVCC key-value engine.

This is the "system under test" half of the differential-testing harness:
a storage engine with version-chain storage, a :class:`LockManager` with
configurable two-phase-locking strictness, snapshot read visibility, and
a commit log whose entries are *exactly* v1 trace records — running a
workload and calling :meth:`MVCCEngine.to_trace` yields a file the
checker in :mod:`repro.checking.online` can replay unchanged.

Each :class:`EngineConfig` *claims* an isolation level:

* ``read-committed`` — reads see the latest committed version; exclusive
  write locks held to commit; claims **RC**.
* ``snapshot-isolation`` — reads come from the begin snapshot; writers
  take exclusive locks and lose first-committer-wins conflicts; claims
  **SI**.
* ``serializable`` — strict two-phase locking: shared locks on read,
  exclusive on write, all held to commit; claims **SER**.

On top of each honest configuration sit deliberately *seeded bugs*
(:data:`SEEDED_BUGS`) — drop the read locks, lose first-committer-wins,
lag the snapshot, release write locks early, serve stale replica reads —
each of which demotes the actual isolation level below the claim in a
way :class:`~repro.checking.online.OnlineChecker` must detect.  The
mapping from knob to expected demotion is part of the regression suite
(``tests/test_engine_difftest.py``) and documented in ``docs/engine.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..core.events import INIT_SESSION
from ..core.serde import to_jsonable
from ..trace.format import Trace
from .locks import (
    EXCLUSIVE,
    SHARED,
    EngineError,
    LockManager,
    TransactionAborted,
    TxnKey,
    WouldBlock,
)

#: The commit-log name the trace format reserves for the initial state.
INIT_KEY: TxnKey = (INIT_SESSION, 0)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """One concurrency-control policy plus its claimed isolation level.

    The first block of fields selects the honest mechanism; the second
    block holds the seeded bug knobs, all off by default.  A config with
    a bug still *claims* the base level — that lie is what the difftest
    harness exists to catch.
    """

    name: str
    claimed: str  # RC | SI | SER
    snapshot_reads: bool  # read from the begin snapshot, not latest-committed
    read_locks: bool  # shared locks on read, held to commit (S2PL)
    first_committer_wins: bool  # abort on write-write conflict at commit

    # -- seeded bug knobs ------------------------------------------------------
    bug: Optional[str] = None
    dirty_writes: bool = False  # publish writes in place and release X early
    snapshot_lag: int = 0  # read snapshots this many commits behind begin
    replica_lag: int = 0  # reads of the lagged key partition miss this many commits

    def describe(self) -> str:
        mech = []
        mech.append("snapshot reads" if self.snapshot_reads else "latest-committed reads")
        mech.append("S+X locks" if self.read_locks else "X locks only")
        if self.first_committer_wins:
            mech.append("first-committer-wins")
        if self.bug:
            mech.append(f"BUG:{self.bug}")
        return f"{self.name} (claims {self.claimed}; {', '.join(mech)})"


@dataclass(frozen=True)
class SeededBug:
    """One deliberately planted engine defect and its expected detection."""

    name: str
    base: str  # honest config the bug is planted in
    description: str
    breaks: str  # weakest isolation level the bug violates
    detected: Optional[str]  # strongest level still passing (None: not even RC)
    knobs: Mapping[str, object] = field(default_factory=dict)

    def config(self) -> "EngineConfig":
        base = HONEST_CONFIGS[self.base]
        return replace(base, name=f"{self.base}+{self.name}", bug=self.name, **self.knobs)


HONEST_CONFIGS: Dict[str, EngineConfig] = {
    cfg.name: cfg
    for cfg in (
        EngineConfig(
            name="read-committed",
            claimed="RC",
            snapshot_reads=False,
            read_locks=False,
            first_committer_wins=False,
        ),
        EngineConfig(
            name="snapshot-isolation",
            claimed="SI",
            snapshot_reads=True,
            read_locks=False,
            first_committer_wins=True,
        ),
        EngineConfig(
            name="serializable",
            claimed="SER",
            snapshot_reads=False,
            read_locks=True,
            first_committer_wins=False,
        ),
    )
}

SEEDED_BUGS: Dict[str, SeededBug] = {
    bug.name: bug
    for bug in (
        SeededBug(
            name="no_read_locks",
            base="serializable",
            description="S2PL without the shared read locks: write skew slips through",
            breaks="SER",
            detected="SI",
            knobs={"read_locks": False},
        ),
        SeededBug(
            name="first_committer_loses",
            base="snapshot-isolation",
            description="write-write conflict check disabled: lost updates",
            breaks="SI",
            detected="CC",
            knobs={"first_committer_wins": False},
        ),
        SeededBug(
            name="stale_snapshot",
            base="snapshot-isolation",
            description="snapshots lag one commit behind begin: own commits vanish",
            breaks="RA",
            detected="RC",
            knobs={"snapshot_lag": 1},
        ),
        SeededBug(
            name="early_release",
            base="read-committed",
            description="writes published in place, locks released early: dirty reads",
            breaks="RC",
            detected=None,
            knobs={"dirty_writes": True},
        ),
        SeededBug(
            name="lagging_replica",
            base="read-committed",
            description="reads of half the key space served one commit stale",
            breaks="RC",
            detected=None,
            knobs={"replica_lag": 1},
        ),
    )
}


#: Every named configuration, honest ones first, then the bugged variants;
#: built once, as configs are frozen.
_NAMED_CONFIGS: Dict[str, EngineConfig] = {
    **HONEST_CONFIGS,
    **{cfg.name: cfg for cfg in (bug.config() for bug in SEEDED_BUGS.values())},
}


def engine_configs(include_bugs: bool = True) -> Dict[str, EngineConfig]:
    """All named configurations: honest ones, plus bugged variants."""
    return dict(_NAMED_CONFIGS if include_bugs else HONEST_CONFIGS)


def get_engine_config(name: str) -> EngineConfig:
    """Resolve ``name`` to a config.

    Accepts an honest name (``serializable``), a bugged name
    (``serializable+no_read_locks``), or a bare bug name
    (``no_read_locks``).
    """
    if name in _NAMED_CONFIGS:
        return _NAMED_CONFIGS[name]
    if name in SEEDED_BUGS:
        bug = SEEDED_BUGS[name]
        return _NAMED_CONFIGS[f"{bug.base}+{bug.name}"]
    raise EngineError(
        f"unknown engine config {name!r}; try one of {sorted(_NAMED_CONFIGS)} "
        f"or a bug name in {sorted(SEEDED_BUGS)}"
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class EngineTxn:
    """The handle a session holds while a transaction is in flight."""

    session: str
    index: int
    begin_seq: int  # commit counter at begin (FCW baseline)
    snapshot_seq: int  # visibility horizon for snapshot reads
    buffer: Dict[str, Hashable] = field(default_factory=dict)
    status: str = "pending"  # pending | committed | aborted

    @property
    def key(self) -> TxnKey:
        return (self.session, self.index)


@dataclass
class EngineStats:
    commits: int = 0
    user_aborts: int = 0
    deadlock_aborts: int = 0
    fcw_aborts: int = 0
    lock_waits: int = 0


class MVCCEngine:
    """Version-chain storage whose operations clients interleave.

    Every public operation is atomic under a single engine latch (like a
    real engine's short internal critical sections); the harness
    interleaves whole operations of concurrent transactions.  The commit
    log is appended under the latch in observation order, which is what
    makes it a replayable trace: a read is always logged after the write
    it observed, a begin before the transaction's operations, and session
    indices are sequential.
    """

    def __init__(
        self,
        config: EngineConfig,
        variables: Tuple[str, ...],
        initial: Optional[Mapping[str, Hashable]] = None,
        default_initial: Hashable = 0,
    ):
        self.config = config
        self.variables = tuple(sorted(variables))
        self.initial = {var: default_initial for var in self.variables}
        self.initial.update(initial or {})
        self.stats = EngineStats()
        #: Lock release points passed: commit, every abort and the early
        #: release write.  The driver lets blocked sessions retry whenever
        #: this moves, whether or not a lock was actually freed.
        self.releases = 0
        self._latch = threading.RLock()
        #: var → version chain: list of (commit_seq, writer, value), seq ascending.
        self._versions: Dict[str, List[Tuple[int, TxnKey, Hashable]]] = {
            var: [(0, INIT_KEY, self.initial[var])] for var in self.variables
        }
        #: var → stack of uncommitted in-place writes (dirty_writes bug only).
        self._dirty: Dict[str, List[Tuple[TxnKey, Hashable]]] = {}
        self._locks = LockManager()
        self._commit_seq = 0
        self._next_index: Dict[str, int] = {}
        #: the commit log: v1 trace records, in observation order.
        self.log: List[Dict] = []
        #: txn → (first op tick, last op tick) for race forensics in tests.
        self.spans: Dict[TxnKey, Tuple[int, int]] = {}
        self._tick = 0
        #: keys whose reads the lagging-replica bug serves stale: every
        #: other variable in sorted order, so workloads touching two keys
        #: always straddle the fresh/stale partition boundary.
        self.lagged_keys = (
            frozenset(self.variables[::2]) if config.replica_lag else frozenset()
        )

    # -- public transaction API -------------------------------------------------

    def begin(self, session: str) -> EngineTxn:
        with self._latch:
            if session == INIT_SESSION:
                raise EngineError(f"session name {session!r} is reserved")
            index = self._next_index.get(session, 0)
            self._next_index[session] = index + 1
            snapshot = max(0, self._commit_seq - self.config.snapshot_lag)
            txn = EngineTxn(session, index, begin_seq=self._commit_seq, snapshot_seq=snapshot)
            self._touch(txn)
            self._append({"type": "begin", "session": session, "txn": index})
            return txn

    def read(self, txn: EngineTxn, var: str) -> Hashable:
        with self._latch:
            self._check_pending(txn)
            self._check_var(var)
            if var in txn.buffer:
                self._touch(txn)
                self._append(
                    {
                        "type": "read",
                        "session": txn.session,
                        "txn": txn.index,
                        "var": var,
                        "value": to_jsonable(txn.buffer[var]),
                        "local": True,
                    }
                )
                return txn.buffer[var]
            if self.config.read_locks:
                self._acquire(txn, var, SHARED)
            writer, value = self._visible_version(txn, var)
            self._touch(txn)
            self._append(
                {
                    "type": "read",
                    "session": txn.session,
                    "txn": txn.index,
                    "var": var,
                    "value": to_jsonable(value),
                    "from": [writer[0], writer[1]],
                }
            )
            return value

    def write(self, txn: EngineTxn, var: str, value: Hashable) -> None:
        with self._latch:
            self._check_pending(txn)
            self._check_var(var)
            self._acquire(txn, var, EXCLUSIVE)
            txn.buffer[var] = value
            self._touch(txn)
            self._append(
                {
                    "type": "write",
                    "session": txn.session,
                    "txn": txn.index,
                    "var": var,
                    "value": to_jsonable(value),
                }
            )
            if self.config.dirty_writes:
                # The seeded bug: publish in place and give the lock back
                # immediately, exposing the uncommitted value to everyone.
                self._dirty.setdefault(var, []).append((txn.key, value))
                self._locks.release(txn.key, var)
                self.releases += 1

    def commit(self, txn: EngineTxn) -> None:
        with self._latch:
            self._check_pending(txn)
            if (
                self.config.snapshot_reads
                and self.config.first_committer_wins
                and txn.buffer
            ):
                for var in sorted(txn.buffer):
                    latest_seq = self._versions[var][-1][0]
                    if latest_seq > txn.begin_seq:
                        self.stats.fcw_aborts += 1
                        self._abort_locked(txn)
                        raise TransactionAborted(
                            txn.key, f"first-committer-wins conflict on {var!r}"
                        )
            self._commit_seq += 1
            for var in sorted(txn.buffer):
                self._versions[var].append((self._commit_seq, txn.key, txn.buffer[var]))
                self._drop_dirty(var, txn.key)
            txn.status = "committed"
            self.stats.commits += 1
            self._touch(txn)
            self._append({"type": "commit", "session": txn.session, "txn": txn.index})
            self._locks.release_all(txn.key)
            self.releases += 1

    def abort(self, txn: EngineTxn) -> None:
        """Voluntary abort (the program executed its abort instruction)."""
        with self._latch:
            self._check_pending(txn)
            self.stats.user_aborts += 1
            self._abort_locked(txn)

    # -- trace adaptation -------------------------------------------------------

    def to_trace(self, name: str = "engine", meta: Optional[Dict] = None) -> Trace:
        """Adapt the commit log into a v1 trace, ready for the checker."""
        full_meta = {
            "engine": self.config.name,
            "claimed": self.config.claimed,
            "bug": self.config.bug,
        }
        full_meta.update(meta or {})
        return Trace.from_records(
            self.log,
            variables=self.variables,
            initial=self.initial,
            name=name,
            meta=full_meta,
        )

    # -- internals --------------------------------------------------------------

    def _visible_version(self, txn: EngineTxn, var: str) -> Tuple[TxnKey, Hashable]:
        chain = self._versions[var]
        dirty = self._dirty.get(var)
        if self.config.dirty_writes and dirty:
            writer, value = dirty[-1]
            return writer, value
        if self.config.snapshot_reads:
            for seq, writer, value in reversed(chain):
                if seq <= txn.snapshot_seq:
                    return writer, value
            seq, writer, value = chain[0]
            return writer, value
        lag = self.config.replica_lag if var in self.lagged_keys else 0
        index = max(0, len(chain) - 1 - lag)
        seq, writer, value = chain[index]
        return writer, value

    def _acquire(self, txn: EngineTxn, var: str, mode: str) -> None:
        try:
            self._locks.acquire(txn.key, var, mode)
        except WouldBlock:
            self.stats.lock_waits += 1
            raise
        except TransactionAborted:
            self.stats.deadlock_aborts += 1
            self._abort_locked(txn)
            raise

    def _abort_locked(self, txn: EngineTxn) -> None:
        txn.status = "aborted"
        txn.buffer.clear()
        for var in list(self._dirty):
            self._drop_dirty(var, txn.key)
        self._touch(txn)
        self._append({"type": "abort", "session": txn.session, "txn": txn.index})
        self._locks.release_all(txn.key)
        self.releases += 1

    def _drop_dirty(self, var: str, txn_key: TxnKey) -> None:
        stack = self._dirty.get(var)
        if stack:
            stack[:] = [entry for entry in stack if entry[0] != txn_key]

    def _append(self, record: Dict) -> None:
        self.log.append(record)

    def _touch(self, txn: EngineTxn) -> None:
        self._tick += 1
        first, _ = self.spans.get(txn.key, (self._tick, self._tick))
        self.spans[txn.key] = (first, self._tick)

    def _check_pending(self, txn: EngineTxn) -> None:
        if txn.status != "pending":
            raise EngineError(f"operation on {txn.status} transaction {txn.key}")

    def _check_var(self, var: str) -> None:
        if var not in self._versions:
            raise EngineError(f"unknown variable {var!r}")
