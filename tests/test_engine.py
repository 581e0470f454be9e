"""Unit tests for the MVCC engine (repro.engine).

These pin the engine's mechanics — locks, deadlock detection, snapshot
visibility, the seeded session driver, and the commit-log → trace
adapter — independently of what the isolation checker later says about
the traces (that's ``tests/test_engine_difftest.py``).
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.events import INIT_SESSION
from repro.engine import (
    EXCLUSIVE,
    SHARED,
    EngineError,
    LockManager,
    MVCCEngine,
    SEEDED_BUGS,
    SchedulerStuck,
    TransactionAborted,
    WouldBlock,
    engine_configs,
    get_engine_config,
    hotkey_program,
    run_difftest,
    run_program,
)
from repro.engine import harness
from repro.engine.harness import BUG_DEMOS, detected_level, workload_program
from repro.lang import L, Program, Transaction, assign, read, write
from repro.lang.expr import concat
from repro.semantics import executor


class TestLockManager:
    def test_shared_locks_coexist_exclusive_blocks(self):
        lm = LockManager()
        lm.acquire(("a", 0), "x", SHARED)
        lm.acquire(("b", 0), "x", SHARED)
        with pytest.raises(WouldBlock) as exc:
            lm.acquire(("c", 0), "x", EXCLUSIVE)
        assert exc.value.key == "x"
        assert exc.value.holders == {("a", 0), ("b", 0)}

    def test_reentrant_and_lone_upgrade(self):
        lm = LockManager()
        lm.acquire(("a", 0), "x", SHARED)
        lm.acquire(("a", 0), "x", SHARED)  # re-entrant
        lm.acquire(("a", 0), "x", EXCLUSIVE)  # lone holder upgrades
        assert lm.holders("x") == {("a", 0): EXCLUSIVE}
        lm.acquire(("a", 0), "x", SHARED)  # X covers S

    def test_release_all_unblocks(self):
        lm = LockManager()
        lm.acquire(("a", 0), "x", EXCLUSIVE)
        with pytest.raises(WouldBlock):
            lm.acquire(("b", 0), "x", SHARED)
        assert lm.release_all(("a", 0)) == ["x"]
        lm.acquire(("b", 0), "x", SHARED)

    def test_upgrade_deadlock_aborts_the_requester(self):
        """Two S holders racing to upgrade is the classic 2PL deadlock."""
        lm = LockManager()
        lm.acquire(("a", 0), "x", SHARED)
        lm.acquire(("b", 0), "x", SHARED)
        with pytest.raises(WouldBlock):
            lm.acquire(("a", 0), "x", EXCLUSIVE)
        with pytest.raises(TransactionAborted) as exc:
            lm.acquire(("b", 0), "x", EXCLUSIVE)
        assert exc.value.txn == ("b", 0)
        # The victim releases; the survivor's retry now succeeds.
        lm.release_all(("b", 0))
        lm.acquire(("a", 0), "x", EXCLUSIVE)

    def test_two_key_cycle_detected(self):
        lm = LockManager()
        lm.acquire(("a", 0), "x", EXCLUSIVE)
        lm.acquire(("b", 0), "y", EXCLUSIVE)
        with pytest.raises(WouldBlock):
            lm.acquire(("a", 0), "y", EXCLUSIVE)
        with pytest.raises(TransactionAborted):
            lm.acquire(("b", 0), "x", EXCLUSIVE)


class TestEngineBasics:
    def engine(self, name="serializable", variables=("x", "y")):
        return MVCCEngine(get_engine_config(name), variables)

    def test_read_your_own_writes_and_commit(self):
        eng = self.engine()
        t = eng.begin("s")
        assert eng.read(t, "x") == 0
        eng.write(t, "x", 5)
        assert eng.read(t, "x") == 5  # buffered, logged as a local read
        eng.commit(t)
        t2 = eng.begin("s")
        assert eng.read(t2, "x") == 5
        types = [r["type"] for r in eng.log]
        assert types == ["begin", "read", "write", "read", "commit", "begin", "read"]
        assert eng.log[3]["local"] is True
        assert eng.log[6]["from"] == ["s", 0]

    def test_uncommitted_writes_invisible(self):
        eng = self.engine(name="read-committed")
        t1 = eng.begin("a")
        eng.write(t1, "x", 1)
        t2 = eng.begin("b")
        assert eng.read(t2, "x") == 0
        assert eng.log[-1]["from"] == [INIT_SESSION, 0]

    def test_abort_discards_writes_and_releases_locks(self):
        eng = self.engine(name="read-committed")
        t1 = eng.begin("a")
        eng.write(t1, "x", 9)
        eng.abort(t1)
        t2 = eng.begin("b")
        assert eng.read(t2, "x") == 0
        eng.write(t2, "x", 2)  # lock is free again
        assert eng.stats.user_aborts == 1

    def test_snapshot_reads_ignore_later_commits(self):
        eng = self.engine(name="snapshot-isolation")
        t1 = eng.begin("a")
        t2 = eng.begin("b")
        eng.write(t2, "x", 1)
        eng.commit(t2)
        assert eng.read(t1, "x") == 0  # t1's snapshot predates t2's commit

    def test_first_committer_wins_aborts_the_second(self):
        eng = self.engine(name="snapshot-isolation")
        t1 = eng.begin("a")
        t2 = eng.begin("b")
        eng.write(t1, "x", 1)
        eng.commit(t1)
        eng.write(t2, "x", 2)
        with pytest.raises(TransactionAborted, match="first-committer-wins"):
            eng.commit(t2)
        assert eng.stats.fcw_aborts == 1
        assert eng.log[-1]["type"] == "abort"

    def test_engine_misuse_is_an_error(self):
        eng = self.engine()
        t = eng.begin("s")
        eng.commit(t)
        with pytest.raises(EngineError):
            eng.read(t, "x")
        t2 = eng.begin("s")
        with pytest.raises(EngineError):
            eng.read(t2, "zz")
        with pytest.raises(EngineError):
            eng.begin(INIT_SESSION)

    def test_session_indices_are_sequential(self):
        eng = self.engine()
        for expect in range(3):
            t = eng.begin("s")
            assert (t.session, t.index) == ("s", expect)
            eng.commit(t)


class TestConfigs:
    def test_every_bug_rides_on_a_real_base(self):
        configs = engine_configs()
        for bug in SEEDED_BUGS.values():
            cfg = bug.config()
            assert cfg.name in configs
            assert cfg.claimed == configs[bug.base].claimed
            assert cfg.bug == bug.name
            assert bug.name in BUG_DEMOS

    def test_get_engine_config_accepts_bare_bug_names(self):
        assert get_engine_config("no_read_locks").name == "serializable+no_read_locks"
        assert get_engine_config("serializable").bug is None
        with pytest.raises(EngineError, match="unknown engine config"):
            get_engine_config("write-behind-cache")

    def test_describe_mentions_the_bug(self):
        assert "BUG:stale_snapshot" in get_engine_config("stale_snapshot").describe()

    def test_configs_are_built_once(self, monkeypatch):
        """Every lookup returns the one frozen config per name, and a
        difftest over named configs never copies the whole map."""
        configs = engine_configs()
        for name, config in configs.items():
            assert get_engine_config(name) is config
        for bug in SEEDED_BUGS.values():
            assert get_engine_config(bug.name) is configs[f"{bug.base}+{bug.name}"]
        assert engine_configs() == configs and engine_configs() is not configs
        assert set(engine_configs(include_bugs=False)) == {
            name for name, config in configs.items() if config.bug is None
        }
        monkeypatch.setattr(harness, "engine_configs", lambda: pytest.fail("copied"))
        report = run_difftest(configs=["no_read_locks"], workloads=["hotkeys"], seeds=[0])
        assert list(report.configs) == ["serializable+no_read_locks"]


class TestScheduledRuns:
    def test_same_seed_gives_identical_traces(self):
        program = hotkey_program(3, 3, seed=5)
        config = get_engine_config("serializable")
        first = run_program(program, config, seed=11).trace.dumps()
        second = run_program(program, config, seed=11).trace.dumps()
        assert first == second

    def test_different_seeds_explore_different_interleavings(self):
        program = hotkey_program(3, 3, seed=5)
        config = get_engine_config("serializable")
        traces = {run_program(program, config, seed=s).trace.dumps() for s in range(6)}
        assert len(traces) > 1

    def test_engine_aborts_are_retried_as_new_indices(self):
        """Deadlock victims reappear as fresh transactions of the session."""
        program = workload_program("increments", sessions=3, txns_per_session=3)
        found = None
        for seed in range(40):
            run = run_program(program, get_engine_config("serializable"), seed=seed)
            if run.stats.deadlock_aborts > 0:
                found = run
                break
        assert found is not None, "no seed produced an upgrade deadlock"
        assert not found.gave_up
        assert found.stats.commits == 9
        aborts = [e for e in found.trace.events if e.op == "abort"]
        assert len(aborts) == found.stats.deadlock_aborts
        found.trace.to_history(strict=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_body_error_fails_the_run_at_once(self, seed):
        """An error in one session fails the run, even while another
        session is blocked on a lock the failing one holds."""
        program = Program({
            "s": [Transaction("t", (write("x", 1), assign("k", 1),
                                    read("a", concat("row_", L("k")))))],
            "u": [Transaction("v", (read("b", "x"),))],
        })
        with pytest.raises(RuntimeError, match="session 's' failed") as exc:
            run_program(program, get_engine_config("serializable"), seed=seed)
        assert isinstance(exc.value.__cause__, EngineError)
        assert "unknown variable 'row_1'" in str(exc.value.__cause__)

    def test_undetected_deadlock_raises_instead_of_hanging(self, monkeypatch):
        """With deadlock detection switched off, seed 3's upgrade deadlock
        leaves every live session blocked: the driver says so."""
        monkeypatch.setattr(LockManager, "_closes_cycle", lambda self, start: False)
        program = workload_program("increments", sessions=2, txns_per_session=1)
        with pytest.raises(SchedulerStuck, match="all live sessions blocked"):
            run_program(program, get_engine_config("serializable"), seed=3)

    def test_run_records_spans_for_race_forensics(self):
        program = workload_program("increments", sessions=2, txns_per_session=1)
        run = run_program(program, get_engine_config("read-committed"), seed=0)
        keys = [k for k in run.spans if k[0] != INIT_SESSION]
        assert len(keys) >= 2

    def test_trace_header_carries_engine_metadata(self):
        program = workload_program("increments", sessions=2, txns_per_session=1)
        run = run_program(program, get_engine_config("stale_snapshot"), seed=1)
        meta = run.trace.header.meta
        assert meta["engine"] == "snapshot-isolation+stale_snapshot"
        assert meta["claimed"] == "SI"
        assert meta["bug"] == "stale_snapshot"
        assert meta["seed"] == 1


#: SHA-256 of :func:`_pinned_runs_digest`, recorded when each session ran
#: on its own thread in seeded lockstep.  The one-thread driver must draw
#: the same sessions in the same order, so every trace stays the same.
PINNED_RUNS_DIGEST = "622b6fb40b8931f309b3e65b9c9e3d8798db4076ba383314e8c6abe1888022ea"


def _pinned_runs_digest():
    """Digest the runs difftest and stream-search's set-up make at seed 1.

    Each run contributes its trace text, engine stats, sorted spans,
    ``gave_up`` and the executor instructions it dispatched, as JSON, so
    the digest depends on neither ``hash()`` nor set order.
    """
    digest = hashlib.sha256()

    def record(run, instructions):
        stats = run.stats
        digest.update(json.dumps([
            run.trace.dumps(),
            [getattr(stats, f.name) for f in dataclasses.fields(stats)],
            sorted([list(key), list(span)] for key, span in run.spans.items()),
            [list(entry) for entry in run.gave_up],
            instructions,
        ]).encode())
        digest.update(b"\n")

    def run(program, config, seed, **kwargs):
        before = executor.INSTRUCTIONS_EXECUTED
        result = run_program(program, config, seed=seed, **kwargs)
        record(result, executor.INSTRUCTIONS_EXECUTED - before)

    # perfbench difftest's runs at --seed 1: 1,300 runs at 2x3.
    seeds = random.Random(1).sample(range(1 << 20), 100)
    for name, config in engine_configs().items():
        for workload in ["hotkeys"] + ([f"demo:{config.bug}"] if config.bug else []):
            for seed in seeds:
                run(workload_program(workload, 2, 3, seed), config, seed,
                    name=f"{workload}@{name}#s{seed}")
    # stream-search's 48 engine streams at --seed 1.
    rng = random.Random(1)
    serializable = get_engine_config("serializable")
    for workload, txns in (("hotkeys", 60), ("tpcc", 50)):
        for _ in range(24):
            seed = rng.randrange(1 << 30)
            run(workload_program(workload, 2, txns, seed), serializable, seed)
    # repro difftest's default sweep.
    mark = [executor.INSTRUCTIONS_EXECUTED]

    def on_run(result):
        now = executor.INSTRUCTIONS_EXECUTED
        record(result.run, now - mark[0])
        mark[0] = now

    run_difftest(seeds=range(8), on_run=on_run)
    return digest.hexdigest()


class TestPinnedTraces:
    def test_traces_match_the_recorded_digest(self):
        assert _pinned_runs_digest() == PINNED_RUNS_DIGEST


class TestDetectedLevel:
    def test_ladder_floor(self):
        assert detected_level({"RC": True, "RA": True, "CC": True, "SI": True, "SER": True}) == "SER"
        assert detected_level({"RC": True, "RA": True, "CC": True, "SI": True, "SER": False}) == "SI"
        assert detected_level({"RC": True, "RA": False, "CC": False, "SI": False, "SER": False}) == "RC"
        assert detected_level({"RC": False, "RA": False, "CC": False, "SI": False, "SER": False}) is None

    def test_partial_verdicts(self):
        assert detected_level({"RC": True, "SER": False}) == "RC"
