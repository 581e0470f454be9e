"""Differential-testing harness: programs → engine → trace → checker.

The harness closes the loop the ROADMAP calls "real storage engine in the
loop": it runs an ordinary :class:`~repro.lang.program.Program` against an
:class:`~repro.engine.mvcc.MVCCEngine`, adapts the engine's commit log
into a v1 trace, replays that trace through
:class:`~repro.checking.online.OnlineChecker`, and compares the level the
engine *claims* against the strongest level the checker can *confirm*.

Each session is a generator that yields its next engine operation, with
every transaction body interpreted by the generator the model checker
replays (:func:`repro.semantics.executor.execute`).  One thread drives
them all: a ``random.Random(seed)`` draws which live session not blocked
on a lock performs the next operation, so the trace is a function of
``(program, config, seed)`` and "config X lies on workload W at seed k"
is a reproducible regression, not a flaky race.  :func:`run_difftest`
sweeps those seeds.

Engine-forced aborts (deadlock victims, first-committer-wins losers) are
retried as fresh transactions of the same session, exactly like a real
client; the trace therefore contains the aborted attempts too, which the
checker's abort semantics (§2.2.1) handle natively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Iterable, List, Mapping, Optional, Sequence, Tuple

import random

from ..apps.workloads import APPLICATIONS, client_program
from ..checking.online import DEFAULT_LEVELS, OnlineChecker, OnlineStep
from ..core.events import TxnId
from ..lang.expr import L
from ..lang.program import Program, ProgramBuilder, Transaction
from ..semantics.executor import AbortOp, CommitOp, ReadOp, execute
from ..trace.format import Trace
from .locks import TransactionAborted, TxnKey, WouldBlock
from .mvcc import (
    SEEDED_BUGS,
    EngineConfig,
    EngineStats,
    MVCCEngine,
    engine_configs,
    get_engine_config,
)

#: How often an engine-aborted transaction is retried before giving up.
DEFAULT_MAX_RETRIES = 8

#: One engine operation of a session, ready to run: ``begin``, ``read``,
#: ``write``, ``commit`` or ``abort`` with its arguments bound.
EngineOp = Callable[[], object]
#: A client session: yields its next engine operation, resumed with its result.
Session = Generator[EngineOp, object, None]


# ---------------------------------------------------------------------------
# running a program on the engine
# ---------------------------------------------------------------------------


@dataclass
class EngineRun:
    """One workload execution: the recorded trace plus engine forensics."""

    program: Program
    config: EngineConfig
    trace: Trace
    stats: EngineStats
    spans: Dict[TxnKey, Tuple[int, int]]
    seed: int
    gave_up: List[Tuple[str, int]] = field(default_factory=list)

    def check(self, levels: Iterable[str] = DEFAULT_LEVELS) -> "RunVerdict":
        """Replay the trace through the online checker."""
        checker = OnlineChecker.from_trace(self.trace, levels=levels)
        checker.replay(self.trace)
        verdicts = checker.verdicts
        return RunVerdict(
            run=self,
            verdicts=verdicts,
            first_violations={
                name: checker.first_violation(name)
                for name, ok in verdicts.items()
                if not ok
            },
        )

    def concurrent(self, a: TxnId, b: TxnId) -> bool:
        """Whether two transactions' engine operation spans overlapped."""
        sa = self.spans.get((a.session, a.index))
        sb = self.spans.get((b.session, b.index))
        if sa is None or sb is None:
            return False
        return sa[0] <= sb[1] and sb[0] <= sa[1]


@dataclass
class RunVerdict:
    """Checker verdicts for one engine run."""

    run: EngineRun
    verdicts: Dict[str, bool]
    first_violations: Dict[str, Optional[OnlineStep]]

    @property
    def detected(self) -> Optional[str]:
        return detected_level(self.verdicts)

    @property
    def claim_holds(self) -> bool:
        return self.verdicts.get(self.run.config.claimed, False)


def detected_level(verdicts: Mapping[str, bool]) -> Optional[str]:
    """The strongest checked level whose downward closure all holds.

    On the classical chain (RC ⊆ RA ⊆ CC ⊆ SI ⊆ SER) this is the last
    rung reachable without stepping over a violation.  The registry's
    lattice is a partial order (PSI and PC are incomparable, BS-3 sits on
    its own branch), so in general a level only counts as detected if it
    holds *and* every strictly-weaker checked level holds too; among such
    levels the strongest wins.  ``None`` means not even the weakest
    checked level survived.
    """
    from ..isolation import get_level

    names = sorted(verdicts, key=lambda n: get_level(n).strength)
    detected: Optional[str] = None
    for name in names:
        if not verdicts[name]:
            continue
        level = get_level(name)
        weaker = [o for o in names if o != name and get_level(o).is_weaker_than(level)]
        if all(verdicts[o] for o in weaker):
            detected = name
    return detected


class SchedulerStuck(RuntimeError):
    """Every live session is blocked and no lock release can wake one (engine bug)."""


def run_program(
    program: Program,
    config: EngineConfig,
    seed: int,
    max_retries: int = DEFAULT_MAX_RETRIES,
    name: Optional[str] = None,
) -> EngineRun:
    """Execute ``program`` on a fresh engine under the seeded driver.

    Each session is a generator (:func:`_session`) that yields its next
    engine operation; a ``random.Random(seed)`` draws which live, unblocked
    session performs it.  The trace is a function of
    ``(program, config, seed)``: same seed, byte-identical trace.
    """
    engine = MVCCEngine(
        config,
        program.variables,
        initial=dict(program.initial_values),
        default_initial=program.initial_value,
    )
    gave_up: List[Tuple[str, int]] = []
    sessions = {
        session: _session(engine, session, txns, max_retries, gave_up)
        for session, txns in program.sessions.items()
    }
    _drive(engine, sessions, random.Random(seed))
    trace = engine.to_trace(
        name=name or f"{program.name}@{config.name}",
        meta={"seed": seed, "program": program.name},
    )
    return EngineRun(
        program=program,
        config=config,
        trace=trace,
        stats=engine.stats,
        spans=dict(engine.spans),
        seed=seed,
        gave_up=gave_up,
    )


def _drive(engine: MVCCEngine, sessions: Dict[str, Session], rng: random.Random) -> None:
    """Run every session to its end, one engine operation per draw.

    Each draw picks among the live sessions not blocked on a lock.  A
    session whose operation raised :class:`WouldBlock` keeps that operation
    pending and stays out of the draw until the engine passes a lock
    release point; :class:`TransactionAborted` is thrown into the session.
    """
    pending: Dict[str, EngineOp] = {}
    for session, client in sessions.items():
        op = next(client, None)
        if op is not None:
            pending[session] = op
    blocked: Dict[str, str] = {}  # session → key it last blocked on
    while pending:
        runnable = sorted(session for session in pending if session not in blocked)
        if not runnable:
            raise SchedulerStuck(f"all live sessions blocked: {dict(sorted(blocked.items()))}")
        session = rng.choice(runnable)
        client = sessions[session]
        releases = engine.releases
        try:
            try:
                result = pending[session]()
            except WouldBlock as wb:  # raised before any engine state changed
                blocked[session] = wb.key
                continue
            except TransactionAborted as aborted:
                pending[session] = client.throw(aborted)
            else:
                pending[session] = client.send(result)
        except StopIteration:
            del pending[session]
        except Exception as err:
            raise RuntimeError(f"worker for session {session!r} failed: {err!r}") from err
        if engine.releases != releases:
            blocked.clear()  # a lock may have come free: every session may retry


def _session(
    engine: MVCCEngine,
    session: str,
    txns: Sequence[Transaction],
    max_retries: int,
    gave_up: List[Tuple[str, int]],
) -> Session:
    """One client session: yields each engine operation, resumed with its result.

    An engine-forced abort is thrown in at the yield; the transaction is then
    retried as a fresh engine transaction, up to ``max_retries`` times.
    """
    for position, txn_decl in enumerate(txns):
        for _attempt in range(max_retries + 1):
            try:
                handle = yield lambda: engine.begin(session)
                run = execute(txn_decl, {})
                op = next(run)
                while not isinstance(op, (CommitOp, AbortOp)):
                    if isinstance(op, ReadOp):
                        var = op.var
                        op = run.send((yield lambda: engine.read(handle, var)))
                    else:
                        var, value = op.var, op.value
                        yield lambda: engine.write(handle, var, value)
                        op = run.send(None)
                finish = engine.abort if isinstance(op, AbortOp) else engine.commit
                yield lambda: finish(handle)
                break
            except TransactionAborted:
                pass
        else:
            gave_up.append((session, position))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def hotkey_program(
    sessions: int = 3, txns_per_session: int = 3, seed: int = 0
) -> Program:
    """A contended micro-workload over three keys.

    Each transaction is drawn (seeded) from a pattern mix designed to
    exercise every anomaly family: hot-key increments (lost updates),
    read-only audits (fractured/stale reads), x/y pair writers and readers
    in both orders (co-cycle shapes), and write-skew pairs.
    """
    rng = random.Random(seed)
    p = ProgramBuilder(f"hotkeys-{sessions}x{txns_per_session}", extra_variables=("h", "x", "y"))
    stamp = 0
    for s in range(sessions):
        sb = p.session(f"c{s}")
        for _ in range(txns_per_session):
            stamp += 1
            pattern = rng.choice(
                ["incr", "incr", "audit", "pair_write", "pair_read_xy", "pair_read_yx", "skew"]
            )
            t = sb.transaction(pattern)
            if pattern == "incr":
                t.read("a", "h")
                t.write("h", L("a") + 1)
            elif pattern == "audit":
                t.read("a", "h")
                t.read("b", "x")
                t.read("c", "y")
            elif pattern == "pair_write":
                t.write("x", stamp)
                t.write("y", stamp)
            elif pattern == "pair_read_xy":
                t.read("a", "x")
                t.read("b", "y")
            elif pattern == "pair_read_yx":
                t.read("b", "y")
                t.read("a", "x")
            else:  # skew
                var = rng.choice(["x", "y"])
                t.read("a", "x")
                t.read("b", "y")
                t.write(var, L("a") + L("b") + 1)
    return p.build()


def increment_program(sessions: int, txns_per_session: int) -> Program:
    """Pure hot-key increments: the classic lost-update stress workload."""
    p = ProgramBuilder(f"increments-{sessions}x{txns_per_session}")
    for s in range(sessions):
        sb = p.session(f"c{s}")
        for _ in range(txns_per_session):
            t = sb.transaction("incr")
            t.read("a", "h")
            t.write("h", L("a") + 1)
    return p.build()


def _demo_no_read_locks() -> Program:
    # Pure write skew: each txn writes a single key, so the only anomaly
    # any interleaving can produce violates exactly SER.
    p = ProgramBuilder("demo-write-skew")
    for mine, theirs in (("x", "y"), ("y", "x")):
        t = p.session(f"w{mine}").transaction("skew")
        t.read("a", mine)
        t.read("b", theirs)
        t.write(mine, L("a") + L("b") + 1)
    return p.build()


def _demo_first_committer_loses() -> Program:
    # Two concurrent increments of the same key: the only anomaly is a
    # lost update, which passes RC/RA/CC and violates exactly SI.
    return increment_program(sessions=2, txns_per_session=1)


def _demo_stale_snapshot() -> Program:
    # Session "acct" increments h, then audits it read-only; session "bg"
    # commits unrelated traffic so the commit counter (and therefore the
    # lagged snapshot horizon) moves between the two.  When the audit's
    # snapshot misses the session's own committed increment the so-edge
    # forces a co cycle: an RA violation while RC still holds.
    p = ProgramBuilder("demo-stale-snapshot")
    acct = p.session("acct")
    t = acct.transaction("incr")
    t.read("a", "h")
    t.write("h", L("a") + 1)
    audit = acct.transaction("audit")
    audit.read("b", "h")
    bg = p.session("bg")
    for _ in range(2):
        t = bg.transaction("noise")
        t.read("k0", "k")
        t.write("k", L("k0") + 1)
    return p.build()


def _demo_early_release() -> Program:
    # Mutual dirty reads: both writers commit, so the write-read cycle is
    # between committed transactions and every level (even RC) fails.
    p = ProgramBuilder("demo-dirty-read")
    for mine, theirs in (("x", "y"), ("y", "x")):
        t = p.session(f"w{mine}").transaction("dirty")
        t.write(mine, 1)
        t.read("a", theirs)
    return p.build()


def _demo_lagging_replica() -> Program:
    # Two writers update both keys; two readers scan them in opposite
    # orders.  With reads of x lagging one commit, the readers observe the
    # writers in contradictory orders — the textbook RC co-cycle.  The
    # leading z-reads just delay the readers so the writers usually finish
    # first.
    p = ProgramBuilder("demo-replica-lag", extra_variables=("z",))
    for i, w in enumerate(("w1", "w2")):
        t = p.session(w).transaction("pair")
        t.write("x", i + 1)
        t.write("y", i + 1)
    r1 = p.session("r1").transaction("scan-xy")
    r1.read("p", "z")
    r1.read("q", "z")
    r1.read("a", "x")
    r1.read("b", "y")
    r2 = p.session("r2").transaction("scan-yx")
    r2.read("p", "z")
    r2.read("q", "z")
    r2.read("b", "y")
    r2.read("a", "x")
    return p.build()


#: Per-bug demo workloads whose only reachable anomaly is the bug's
#: signature shape — this is what pins "detected at exactly level L".
BUG_DEMOS: Dict[str, Callable[[], Program]] = {
    "no_read_locks": _demo_no_read_locks,
    "first_committer_loses": _demo_first_committer_loses,
    "stale_snapshot": _demo_stale_snapshot,
    "early_release": _demo_early_release,
    "lagging_replica": _demo_lagging_replica,
}


def workload_program(
    workload: str, sessions: int = 2, txns_per_session: int = 2, seed: int = 0
) -> Program:
    """Resolve a workload name to a program.

    Accepts ``hotkeys``, ``increments``, ``demo:<bug>``, any application
    name from :data:`repro.apps.workloads.APPLICATIONS`, a generator preset
    (``gen-hotspot``, ...) or an inline ``gen:knob=value,...`` spec string.
    """
    if workload == "hotkeys":
        return hotkey_program(sessions, txns_per_session, seed)
    if workload == "increments":
        return increment_program(sessions, txns_per_session)
    if workload.startswith("demo:"):
        bug = workload[len("demo:"):]
        if bug not in BUG_DEMOS:
            raise KeyError(f"no demo workload for bug {bug!r} (have {sorted(BUG_DEMOS)})")
        return BUG_DEMOS[bug]()
    try:
        return client_program(
            workload, sessions=sessions, txns_per_session=txns_per_session, seed=seed
        )
    except KeyError:
        pass
    from ..apps.workloads import workload_names

    raise KeyError(
        f"unknown workload {workload!r}; try hotkeys, increments, demo:<bug>, "
        f"a gen:knob=value,... spec, or one of {workload_names()}"
    )


# ---------------------------------------------------------------------------
# the difftest sweep
# ---------------------------------------------------------------------------


@dataclass
class ConfigReport:
    """Claimed vs. detected level for one config across the whole sweep."""

    config: EngineConfig
    results: List[RunVerdict]

    @property
    def detected(self) -> Optional[str]:
        """The strongest level *every* run satisfied (the sweep's floor)."""
        floor: Optional[str] = "SER"
        for result in self.results:
            d = result.detected
            if d is None:
                return None
            if floor is None or _rank(d) < _rank(floor):
                floor = d
        return floor

    @property
    def honest(self) -> bool:
        """Whether every run upheld the claimed level."""
        return all(result.claim_holds for result in self.results)

    @property
    def violations(self) -> List[RunVerdict]:
        return [result for result in self.results if not result.claim_holds]


@dataclass
class DifftestReport:
    """The full sweep: config name → :class:`ConfigReport`."""

    configs: Dict[str, ConfigReport]

    @property
    def liars(self) -> List[str]:
        return [name for name, report in self.configs.items() if not report.honest]

    @property
    def ok(self) -> bool:
        return not self.liars

    def render(self) -> str:
        lines = [
            f"{'config':<38} {'claimed':<8} {'detected':<9} {'runs':<5} verdict",
            "-" * 78,
        ]
        for name in sorted(self.configs):
            report = self.configs[name]
            detected = report.detected or "none"
            verdict = "ok" if report.honest else "LYING"
            lines.append(
                f"{name:<38} {report.config.claimed:<8} {detected:<9} "
                f"{len(report.results):<5} {verdict}"
            )
            for result in report.violations[:1]:
                step = result.first_violations.get(result.run.config.claimed)
                where = (
                    f"event #{step.index} ({step.event.op} {step.event.var or ''} "
                    f"by {step.event.session}/{step.event.txn})".replace("  ", " ")
                    if step is not None
                    else "n/a"
                )
                lines.append(
                    f"    first {result.run.config.claimed} violation: "
                    f"{result.run.trace.header.name} seed={result.run.seed} {where}"
                )
        return "\n".join(lines)


def _rank(level: str) -> int:
    """Lattice strength rank — total over all registered levels, so the
    sweep's ``levels`` may include any registered name, not just the
    classical five."""
    from ..isolation import get_level

    return get_level(level).strength


def run_difftest(
    configs: Optional[Iterable[str]] = None,
    workloads: Optional[Iterable[str]] = None,
    seeds: Iterable[int] = range(8),
    sessions: int = 2,
    txns_per_session: int = 2,
    max_retries: int = DEFAULT_MAX_RETRIES,
    levels: Iterable[str] = DEFAULT_LEVELS,
    on_run: Optional[Callable[[RunVerdict], None]] = None,
) -> DifftestReport:
    """Sweep configs × workloads × scheduler seeds; check every trace.

    ``configs`` defaults to every named config (honest and bugged);
    ``workloads`` defaults to the config's bug demo (bugged configs) plus
    ``hotkeys``.  ``on_run`` is invoked once per finished run — the CLI
    uses it to write trace files.
    """
    if configs is None:
        chosen = list(engine_configs().values())
    else:
        chosen = [get_engine_config(name) for name in configs]
    seeds = list(seeds)
    reports: Dict[str, ConfigReport] = {}
    for config in chosen:
        if workloads is None:
            names = ["hotkeys"] + ([f"demo:{config.bug}"] if config.bug else [])
        else:
            names = list(workloads)
        results: List[RunVerdict] = []
        for workload in names:
            for seed in seeds:
                program = workload_program(workload, sessions, txns_per_session, seed)
                run = run_program(
                    program,
                    config,
                    seed=seed,
                    max_retries=max_retries,
                    name=f"{workload}@{config.name}#s{seed}",
                )
                result = run.check(levels=levels)
                results.append(result)
                if on_run is not None:
                    on_run(result)
        reports[config.name] = ConfigReport(config=config, results=results)
    return DifftestReport(configs=reports)
