"""Serial/parallel equivalence of the exploration, and the wire encoding.

At several workers, ``SwappingExplorer`` decomposes the explore-ce
recursion into disjoint subtrees, so a pool run must produce the
*identical* set of canonical output histories and identical additive
counter totals as the in-process run — for any program, level and worker
count.  These property tests pin that down on the paper's example
programs, seeded random programs, and the application workloads, for both
explore-ce and explore-ce*.  A task that raises must hand its error to the
caller once, without looking like a worker crash.
"""

import pickle
import random

import pytest

from repro.core.bitrel import RelationMatrix
from repro.core.wire import (
    decode_items,
    history_from_wire,
    history_to_wire,
    ordered_history_from_wire,
    ordered_history_to_wire,
)
from repro.dpor import StepEngine, SwappingExplorer, explore_ce, resolve_workers
from repro.dpor import parallel as parallel_module
from repro.dpor import pool as pool_module
from repro.dpor.stats import ExplorationStats
from repro.isolation import get_level
from repro.lang.ast import read, write
from repro.lang.expr import L, concat
from repro.lang.program import Program, Transaction

from tests.helpers import PAPER_PROGRAMS, figd1_program, random_history, random_program

#: The counters that must be bit-identical between serial and parallel runs
#: (everything additive; peaks and seconds are scheduling-dependent).
ADDITIVE_COUNTERS = (
    "explore_calls",
    "end_states",
    "outputs",
    "filtered",
    "blocked",
    "swap_candidates",
    "swaps_applied",
    "consistency_checks",
)


def run_serial(program, level, valid=None):
    return SwappingExplorer(
        program, get_level(level), valid_level=get_level(valid) if valid else None
    ).run()


def run_parallel(program, level, valid=None, workers=2, **kwargs):
    return SwappingExplorer(
        program,
        get_level(level),
        valid_level=get_level(valid) if valid else None,
        workers=workers,
        **kwargs,
    ).run()


def assert_equivalent(serial, parallel, context=""):
    assert sorted(serial.histories.keys()) == sorted(parallel.histories.keys()), context
    assert parallel.histories.duplicates == 0, context
    for counter in ADDITIVE_COUNTERS:
        got = getattr(parallel.stats, counter)
        want = getattr(serial.stats, counter)
        assert got == want, f"{context}: {counter} {got} != {want}"


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("factory", PAPER_PROGRAMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_explore_ce_paper_programs(self, factory, workers):
        program = factory()
        serial = run_serial(program, "CC")
        parallel = run_parallel(program, "CC", workers=workers)
        assert_equivalent(serial, parallel, f"{program.name}/CC/w{workers}")

    @pytest.mark.parametrize("factory", PAPER_PROGRAMS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("valid", ["SI", "SER"])
    def test_explore_ce_star_paper_programs(self, factory, valid):
        program = factory()
        serial = run_serial(program, "CC", valid)
        parallel = run_parallel(program, "CC", valid, workers=2)
        assert_equivalent(serial, parallel, f"{program.name}/CC+{valid}")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs(self, seed):
        rng = random.Random(seed)
        program = random_program(rng, name=f"random{seed}")
        serial = run_serial(program, "CC")
        parallel = run_parallel(program, "CC", workers=2)
        assert_equivalent(serial, parallel, f"random{seed}")

    def test_application_program_exercises_pool(self):
        # Large enough that the frontier outgrows the seed phase and real
        # worker processes (distinct pids in worker_stats) take subtrees.
        from repro.apps import client_program

        program = client_program("courseware", 3, 2, 3)
        serial = run_serial(program, "CC", "SER")
        explorer = SwappingExplorer(
            program, get_level("CC"), valid_level=get_level("SER"), workers=2
        )
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "courseware-3")
        worker_pids = [pid for pid in parallel.worker_stats if pid != 0]
        assert worker_pids, "exploration never reached the worker pool"

    def test_worker_stats_sum_to_merged_totals(self):
        from repro.apps import client_program

        program = client_program("courseware", 3, 2, 3)
        result = run_parallel(program, "CC", "SER", workers=2)
        for counter in ADDITIVE_COUNTERS:
            total = sum(getattr(s, counter) for s in result.worker_stats.values())
            assert total == getattr(result.stats, counter), counter

    def test_work_sharing_rebalances_small_stacks(self, monkeypatch):
        # Tiny budgets force every mechanism: a two-step probe, one-tick
        # tasks, a remainder returned after every step, frontier
        # ping-pong — totals must still be exact.
        monkeypatch.setattr(parallel_module, "SEED_FACTOR", 1)
        monkeypatch.setattr(parallel_module, "MIN_FORK_STEPS", 2)
        monkeypatch.setattr(pool_module, "TASK_TICKS", 1)
        program = figd1_program()
        serial = run_serial(program, "CC")
        explorer = SwappingExplorer(program, get_level("CC"), workers=2)
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "figD1/tiny-budgets")
        assert [pid for pid in parallel.worker_stats if pid != 0]
        assert explorer.pool.tasks_dispatched > 1

    def test_tiny_trees_finish_without_forking(self):
        # The seed-phase probe (MIN_FORK_STEPS) must notice that a paper
        # program's whole tree dies out in a few dozen steps and skip the
        # pool entirely: only the coordinator (key 0) contributes stats.
        program = PAPER_PROGRAMS[1]()  # fig10, the smallest tree
        serial = run_serial(program, "CC")
        explorer = SwappingExplorer(program, get_level("CC"), workers=2)
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "fig10/probe")
        assert list(parallel.worker_stats) == [0]

    def test_min_fork_steps_zero_restores_eager_fanout(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "SEED_FACTOR", 1)
        monkeypatch.setattr(parallel_module, "MIN_FORK_STEPS", 0)
        program = figd1_program()
        serial = run_serial(program, "CC")
        explorer = SwappingExplorer(program, get_level("CC"), workers=2)
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "figD1/eager")
        assert [pid for pid in parallel.worker_stats if pid != 0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_run_reports_the_same(self, workers):
        # Each run starts from fresh stats and a fresh history set: the
        # second run neither adds to the first's counters nor re-adds its
        # histories, and the first result keeps what it reported.
        explorer = SwappingExplorer(figd1_program(), get_level("CC"), workers=workers)
        first = explorer.run()
        counters = {counter: getattr(first.stats, counter) for counter in ADDITIVE_COUNTERS}
        keys = sorted(first.histories.keys())
        second = explorer.run()
        assert_equivalent(first, second, f"figD1/w{workers}/second run")
        assert {counter: getattr(first.stats, counter) for counter in ADDITIVE_COUNTERS} == counters
        assert sorted(first.histories.keys()) == keys
        assert first.histories.duplicates == second.histories.duplicates == 0

    def test_workers_zero_on_one_cpu_drains_in_process(self, monkeypatch):
        # One worker per CPU on a one-CPU host is the in-process drain:
        # no pool, no seed phase, no per-participant stats.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        program = figd1_program()
        serial = explore_ce(program, "CC", workers=1)
        result = explore_ce(program, "CC", workers=0)
        assert result.worker_stats is None
        assert_equivalent(serial, result, "figD1/workers=0 on one CPU")

    def test_workers_zero_means_cpu_count(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestTimeoutPropagation:
    def test_parallel_timeout_sets_flag_and_returns_promptly(self):
        import time

        from repro.apps import client_program

        # A tree of ~37k steps (seconds of work at two workers), so the
        # deadline fires inside the pool rather than after the whole tree.
        program = client_program("courseware", 3, 4, 3)
        start = time.monotonic()
        explorer = SwappingExplorer(
            program, get_level("CC"), valid_level=get_level("SER"), workers=2, timeout=0.2
        )
        result = explorer.run()
        wall = time.monotonic() - start
        assert result.stats.timed_out
        assert explorer.pool.tasks_dispatched > 0
        # Workers check the deadline every tick, so the overshoot is one
        # step plus pool teardown, not a 32-tick coordinator poll.
        assert wall < 5.0, wall

    def test_serial_timeout_still_reported(self):
        from repro.apps import client_program

        program = client_program("courseware", 3, 3, 3)
        result = SwappingExplorer(
            program,
            get_level("CC"),
            valid_level=get_level("SER"),
            timeout=0.05,
        ).run()
        assert result.stats.timed_out


class TestWireEncoding:
    @pytest.mark.parametrize("seed", range(25))
    def test_history_round_trip(self, seed):
        rng = random.Random(seed)
        history = random_history(rng, allow_pending=True)
        rebuilt = history_from_wire(history_to_wire(history))
        assert rebuilt.canonical_key() == history.canonical_key()
        # RelationMatrix indexing depends on txn insertion order: preserve it.
        assert tuple(rebuilt.txns) == tuple(history.txns)
        assert rebuilt.sessions == history.sessions
        assert rebuilt.wr == history.wr

    @pytest.mark.parametrize("seed", range(10))
    def test_pickle_uses_wire_and_ships_matrix_cache(self, seed):
        """A cached causal closure survives the wire bit-for-bit.

        The closure is a fixpoint the receiver would otherwise recompute
        on its first causality query; the wire ships the packed rows so a
        decoded work item is as cheap to step as the original.  Restoring
        must not count as a matrix build (``full_builds``), and the
        restored matrix must answer every causality query identically to
        one rebuilt from scratch.
        """
        rng = random.Random(seed)
        history = random_history(rng)
        history.causal_matrix()  # populate the cache
        clone = pickle.loads(pickle.dumps(history))
        assert clone.canonical_key() == history.canonical_key()
        builds_before = RelationMatrix.full_builds
        restored = clone.cached_causal_matrix()
        assert restored is not None
        assert RelationMatrix.full_builds == builds_before
        assert restored.closure_rows() == history.causal_matrix().closure_rows()
        for a in history.txns:
            for b in history.txns:
                assert clone.causally_before(a, b) == history.causally_before(a, b)
        assert RelationMatrix.full_builds == builds_before

    @pytest.mark.parametrize("seed", range(10))
    def test_wire_without_cached_matrix_rebuilds_lazily(self, seed):
        rng = random.Random(seed)
        history = random_history(rng)
        history._cache.pop("causal_matrix", None)  # force the closure-less path
        clone = pickle.loads(pickle.dumps(history))
        assert clone.cached_causal_matrix() is None
        for a in history.txns:
            for b in history.txns:
                assert clone.causally_before(a, b) == history.causally_before(a, b)

    def test_ordered_history_round_trip_through_exploration(self):
        program = figd1_program()
        engine = StepEngine(program, get_level("CC"))
        stats = ExplorationStats()
        stack = [engine.initial_item()]
        seen = 0
        while stack and seen < 200:
            kind, oh = stack.pop()
            rebuilt = ordered_history_from_wire(ordered_history_to_wire(oh))
            assert rebuilt.order == oh.order
            assert rebuilt.history.canonical_key() == oh.history.canonical_key()
            rebuilt.validate()
            pushed, _outputs = engine.step(oh, kind, stats)
            stack.extend(pushed)
            seen += 1
        assert seen > 10

    def test_event_pickle_round_trip(self):
        program = figd1_program()
        for event in program.initial_history().events():
            clone = pickle.loads(pickle.dumps(event))
            assert clone == event


class TestStatsMerging:
    def test_add_operator_matches_merge(self):
        a = ExplorationStats(explore_calls=5, outputs=2, peak_stack=10, seconds=1.0)
        b = ExplorationStats(explore_calls=3, outputs=1, peak_stack=4, seconds=0.5, timed_out=True)
        assert a + b == a.merge(b)
        assert sum([a, b], ExplorationStats()) == a.merge(b)

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            ExplorationStats() + 1


class TestResolveWorkers:
    def test_identity_above_zero(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(2) == 2
        assert resolve_workers(64) == 64

    def test_zero_means_cpu_count_even_when_unknown(self, monkeypatch):
        import os as _os

        monkeypatch.setattr(_os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1

    def test_negative_rejected_with_value(self):
        with pytest.raises(ValueError, match="-7"):
            resolve_workers(-7)


class TestPoolResilience:
    """Crash recovery, the one-seed task protocol, and the spawn start method.

    Every scenario must end in the same place: the identical canonical
    history set and identical additive counters as the serial run.
    """

    def _courseware(self):
        from repro.apps import client_program

        return client_program("courseware", 3, 2, 3)

    def test_worker_killed_mid_task_recovers_exactly(self, monkeypatch):
        # Chaos hook: the first worker os._exit(17)s after serving two
        # tasks, *before* committing the second one.  The coordinator must
        # re-queue the inflight seed, whose results were never committed —
        # the final history set and counters stay bit-identical to serial.
        monkeypatch.setattr(pool_module, "TASK_TICKS", 64)
        monkeypatch.setattr(pool_module, "TASK_BUDGET", 0.005)
        program = self._courseware()
        serial = run_serial(program, "CC", "SER")
        explorer = SwappingExplorer(
            program,
            get_level("CC"),
            valid_level=get_level("SER"),
            workers=2,
            _chaos_kill_after=2,
        )
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "courseware/chaos-kill-2")
        assert explorer.pool.crashes > 0, "chaos hook never fired"

    def test_whole_pool_loss_finishes_serially_and_exactly(self, monkeypatch):
        # A single chaos-armed worker with no respawn budget dies on its
        # first task; the coordinator must notice the empty pool and drain
        # the entire frontier itself, exactly.  (The explorer only ever
        # arms the first worker, so this scenario is pinned at the pool
        # layer directly.)
        from repro.dpor.pool import PersistentPool

        monkeypatch.setattr(pool_module, "TASK_TICKS", 4)
        program = figd1_program()
        engine = StepEngine(program, get_level("CC"))
        items = [engine.initial_item()]

        want_stats = ExplorationStats()
        want_outputs = []
        engine.drain(list(items), want_stats, want_outputs.append)

        pool = PersistentPool(engine, workers=1, chaos_exit_after=1)
        pool.max_respawns = 0
        pool.start()
        got_outputs = []
        worker_stats = {}
        coordinator_stats = ExplorationStats()
        try:
            timed_out = pool.explore(
                list(items), None, True, got_outputs.append, worker_stats, coordinator_stats
            )
        finally:
            pool.shutdown()
        assert not timed_out
        assert pool.crashes == 1 and pool.respawns == 0
        total = sum(worker_stats.values(), coordinator_stats)
        for counter in ADDITIVE_COUNTERS:
            assert getattr(total, counter) == getattr(want_stats, counter), counter
        assert sorted(h.canonical_key() for h in got_outputs) == sorted(
            h.canonical_key() for h in want_outputs
        )
        assert coordinator_stats.explore_calls > 0, "serial drain never ran"

    def test_one_seed_per_task_frame(self, monkeypatch):
        # Shrink the time slice and the step cap so the run dispatches
        # many tasks, each returning a remainder; every TASK frame must
        # carry exactly one seed, and the result must still equal serial.
        monkeypatch.setattr(pool_module, "TASK_BUDGET", 0.001)
        monkeypatch.setattr(pool_module, "TASK_TICKS", 32)
        frames = []
        encode = pool_module.encode_frame

        def recording_encode(tag, payload):
            if tag == pool_module.TAG_TASK:
                frames.append(payload)
            return encode(tag, payload)

        monkeypatch.setattr(pool_module, "encode_frame", recording_encode)
        program = self._courseware()
        serial = run_serial(program, "CC", "SER")
        explorer = SwappingExplorer(
            program, get_level("CC"), valid_level=get_level("SER"), workers=2
        )
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "courseware/one-seed-tasks")
        assert len(frames) == explorer.pool.tasks_dispatched > 20
        for meta, seed in frames:
            [(_kind, oh)] = decode_items([seed])
            oh.validate()
            assert meta[1:3] == (0.001, 32), "task metadata lost the constants"

    def test_spawn_start_method_equivalence(self, monkeypatch):
        # One-step tasks under spawn: the step cap reaches the workers
        # only through the task metadata, since a spawned worker imports
        # the pool module afresh.
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(parallel_module, "SEED_FACTOR", 1)
        monkeypatch.setattr(parallel_module, "MIN_FORK_STEPS", 0)
        monkeypatch.setattr(pool_module, "TASK_TICKS", 1)
        program = figd1_program()  # module-level transactions: spawn-picklable
        serial = run_serial(program, "CC")
        explorer = SwappingExplorer(program, get_level("CC"), workers=2)
        parallel = explorer.run()
        assert_equivalent(serial, parallel, "figD1/spawn")
        assert explorer.pool.start_method == "spawn"
        worker_calls = sum(
            stats.explore_calls for pid, stats in parallel.worker_stats.items() if pid != 0
        )
        assert 0 < worker_calls <= explorer.pool.tasks_dispatched


def body_error_program():
    """Three sessions of three ``a := read(k0); write(k0, a + 1)``
    transactions; the last one also writes the computed name ``k<a>``,
    which only ``a == 0`` keeps inside the declared universe."""
    sessions = {}
    for s in range(3):
        txns = []
        for i in range(3):
            body = [read("a", "k0"), write("k0", L("a") + 1)]
            if (s, i) == (2, 2):
                body.append(write(concat("k", L("a")), 1))
            txns.append(Transaction(f"t{s}{i}", tuple(body)))
        sessions[f"s{s}"] = txns
    return Program(sessions, name="body-error")


class TestTaskErrors:
    def test_body_error_in_a_worker_reaches_the_caller_once(self, monkeypatch, capfd):
        # The seed phase stops after one step, so the body error is raised
        # inside a worker.  It must come back as the same ValueError, with
        # no worker crash, respawn or traceback on the way.
        monkeypatch.setattr(parallel_module, "MIN_FORK_STEPS", 0)
        monkeypatch.setattr(parallel_module, "SEED_FACTOR", 1)
        explorer = SwappingExplorer(body_error_program(), get_level("CC"), workers=2)
        with pytest.raises(ValueError, match=r"variable 'k[1-9]'.*extra_variables") as info:
            explorer.run()
        assert "_pending_action" in str(info.value.__cause__), "worker traceback lost"
        assert explorer.pool.tasks_dispatched > 0
        assert explorer.pool.crashes == 0
        assert explorer.pool.respawns == 0
        assert "Traceback" not in capfd.readouterr().err


class TestPoolUnavailable:
    """--workers > 1 where no pool can start must fail loudly and early."""

    def test_unpicklable_engine_on_spawn_raises_at_construction(self, monkeypatch):
        # The courseware app builds transactions from Python closures, which
        # spawn cannot ship.  On a spawn-only platform the error must fire
        # when the explorer is *constructed* — not hang or silently fall
        # back to serial.
        import multiprocessing

        from repro.apps import client_program
        from repro.dpor.pool import PoolUnavailableError

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        program = client_program("courseware", 3, 2, 3)
        with pytest.raises(PoolUnavailableError, match="workers=1"):
            SwappingExplorer(program, get_level("CC"), workers=2)

    def test_no_start_method_at_all_raises(self, monkeypatch):
        import multiprocessing

        from repro.dpor.pool import PoolUnavailableError

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [])
        with pytest.raises(PoolUnavailableError, match="workers=1"):
            SwappingExplorer(figd1_program(), get_level("CC"), workers=2)

    def test_model_checker_surfaces_pool_error(self, monkeypatch):
        import multiprocessing

        from repro.checking import ModelChecker
        from repro.dpor.pool import PoolUnavailableError

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [])
        checker = ModelChecker(figd1_program(), isolation="CC", workers=2)
        with pytest.raises(PoolUnavailableError):
            checker.run()

    def test_cli_check_exits_with_clear_error(self, monkeypatch, tmp_path, capsys):
        import multiprocessing

        from repro.cli import main

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [])
        source = tmp_path / "prog.txt"
        source.write_text(
            "session a { transaction { write(x, 1); } }\n"
            "session b { transaction { v := read(x); } }\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["check", str(source), "--workers", "2"])
        assert "error:" in str(exc.value)
        assert "workers=1" in str(exc.value)
