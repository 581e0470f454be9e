"""Unit tests for transaction execution and replay (repro.semantics.executor)."""

import random
from collections import Counter

import pytest

from repro.apps.workloads import APPLICATIONS, client_program
from repro.core.events import INIT_TXN, Event, EventId, EventType, TxnId
from repro.core.history import TransactionLog
from repro.dpor import explore_ce
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import get_engine_config
from repro.lang import L, ProgramBuilder, Transaction, abort, assign, if_, read, write
from repro.lang.ast import Abort, Assign, If, Read, Write
from repro.lang.expr import concat
from repro.semantics import executor
from repro.semantics.executor import (
    AbortOp,
    CommitOp,
    ReadOp,
    ReplayMismatch,
    WriteOp,
    final_env,
    next_operation,
)

from tests.helpers import random_program

TID = TxnId("s", 0)


def log_with(*events):
    log = TransactionLog.begin(TID)
    for i, (kind, var, value, *rest) in enumerate(events, start=1):
        local = rest[0] if rest else False
        log = log.appended(Event(EventId(TID, i), kind, var, value, local=local))
    return log


class TestNextOperation:
    def test_fresh_transaction_yields_first_db_op(self):
        txn = Transaction("t", (assign("a", 1), write("x", L("a") + 1)))
        op, env = next_operation(txn, TransactionLog.begin(TID))
        assert op == WriteOp("x", 2)
        assert env["a"] == 1

    def test_read_then_dependent_write(self):
        txn = Transaction("t", (read("a", "x"), write("y", L("a") * 10)))
        log = log_with((EventType.READ, "x", 4))
        op, env = next_operation(txn, log)
        assert op == WriteOp("y", 40)
        assert env["a"] == 4

    def test_exhausted_body_commits(self):
        txn = Transaction("t", (write("x", 1),))
        log = log_with((EventType.WRITE, "x", 1))
        op, _ = next_operation(txn, log)
        assert op == CommitOp()

    def test_empty_body_commits_immediately(self):
        op, _ = next_operation(Transaction("t", ()), TransactionLog.begin(TID))
        assert op == CommitOp()

    def test_abort_instruction(self):
        txn = Transaction("t", (read("a", "x"), if_(L("a") == 0, then=[abort()]), write("y", 1)))
        taken = log_with((EventType.READ, "x", 0))
        op, _ = next_operation(txn, taken)
        assert op == AbortOp()
        not_taken = log_with((EventType.READ, "x", 5))
        op, _ = next_operation(txn, not_taken)
        assert op == WriteOp("y", 1)

    def test_if_else_branches(self):
        txn = Transaction(
            "t",
            (read("a", "x"), if_(L("a") == 0, then=[write("y", 1)], orelse=[write("z", 2)])),
        )
        op, _ = next_operation(txn, log_with((EventType.READ, "x", 0)))
        assert op == WriteOp("y", 1)
        op, _ = next_operation(txn, log_with((EventType.READ, "x", 9)))
        assert op == WriteOp("z", 2)

    def test_dynamic_variable_names(self):
        txn = Transaction("t", (read("k", "key"), write(concat("row_", L("k")), 1)))
        op, _ = next_operation(txn, log_with((EventType.READ, "key", 7)))
        assert op == WriteOp("row_7", 1)

    def test_replay_is_value_sensitive(self):
        """Replaying a different recorded value changes the continuation."""
        txn = Transaction("t", (read("a", "x"), if_(L("a") == 1, then=[write("y", 1)])))
        op1, _ = next_operation(txn, log_with((EventType.READ, "x", 1)))
        op2, _ = next_operation(txn, log_with((EventType.READ, "x", 2)))
        assert op1 == WriteOp("y", 1)
        assert op2 == CommitOp()

    def test_complete_log_rejected(self):
        log = log_with((EventType.COMMIT, None, None))
        with pytest.raises(ValueError):
            next_operation(Transaction("t", ()), log)

    def test_mismatched_recorded_event_raises(self):
        txn = Transaction("t", (write("x", 1),))
        for recorded in ((EventType.WRITE, "y", 1), (EventType.WRITE, "x", 2)):
            with pytest.raises(ReplayMismatch):
                next_operation(txn, log_with(recorded))

    def test_too_many_recorded_events_raise(self):
        txn = Transaction("t", (write("x", 1),))
        log = log_with((EventType.WRITE, "x", 1), (EventType.WRITE, "x", 2))
        with pytest.raises(ReplayMismatch):
            next_operation(txn, log)

    def test_non_string_computed_name_raises(self):
        txn = Transaction("t", (assign("k", 7), read("a", L("k"))))
        with pytest.raises(TypeError, match="non-string 7"):
            next_operation(txn, TransactionLog.begin(TID))


class TestFinalEnv:
    def test_locals_after_commit(self):
        txn = Transaction("t", (read("a", "x"), assign("b", L("a") + 1)))
        log = log_with((EventType.READ, "x", 2), (EventType.COMMIT, None, None))
        env = final_env(txn, log)
        assert env == {"a": 2, "b": 3}

    def test_locals_of_aborted_txn(self):
        txn = Transaction("t", (read("a", "x"), if_(L("a") == 0, then=[abort()]), assign("b", 1)))
        log = log_with((EventType.READ, "x", 0), (EventType.ABORT, None, None))
        env = final_env(txn, log)
        assert env == {"a": 0}, "instructions after abort never ran"

    def test_local_reads_replay_too(self):
        txn = Transaction("t", (write("x", 5), read("a", "x")))
        log = log_with(
            (EventType.WRITE, "x", 5),
            (EventType.READ, "x", 5, True),
            (EventType.COMMIT, None, None),
        )
        assert final_env(txn, log)["a"] == 5

    def test_log_the_body_cannot_produce_raises(self):
        """The body reads x first; a log that writes it is no run of it."""
        txn = Transaction("t", (read("a", "x"), assign("b", L("a"))))
        log = log_with((EventType.WRITE, "x", 1), (EventType.COMMIT, None, None))
        with pytest.raises(ReplayMismatch):
            final_env(txn, log)


# -- the AST semantics, kept as the reference the interpreter must match ------


def resolve_var(ref, env):
    """Evaluate a variable reference to a concrete global-variable name."""
    if isinstance(ref, str):
        return ref
    name = ref.evaluate(env)
    if not isinstance(name, str):
        raise TypeError(f"variable reference {ref!r} evaluated to non-string {name!r}")
    return name


def ast_run(instrs, env):
    """Interpret a body over the raw AST, yielding DB operations; returns
    True on abort.  Reads receive the observed value via ``send``."""
    for instr in instrs:
        if isinstance(instr, Assign):
            env[instr.target] = instr.expr.evaluate(env)
        elif isinstance(instr, Read):
            env[instr.target] = yield ReadOp(resolve_var(instr.var, env))
        elif isinstance(instr, Write):
            yield WriteOp(resolve_var(instr.var, env), instr.expr.evaluate(env))
        elif isinstance(instr, If):
            branch = instr.then if instr.cond.evaluate(env) else instr.orelse
            if (yield from ast_run(branch, env)):
                return True
        elif isinstance(instr, Abort):
            return True
    return False


def ast_stepper(body, env):
    """``send`` for :func:`ast_run`, turning its return into the terminal
    operation the way :func:`repro.semantics.executor.execute` yields it."""
    run = ast_run(body, env)

    def resume(value):
        try:
            return run.send(value)
        except StopIteration as stop:
            return AbortOp() if stop.value else CommitOp()

    return resume


def ast_replay(txn, log):
    """Feed ``log``'s READ/WRITE events to :func:`ast_run`; return the next
    operation and the locals."""
    env = {}
    resume = ast_stepper(txn.body, env)
    op = resume(None)
    for event in log.events:
        if event.type is EventType.READ:
            assert op == ReadOp(event.var), (op, event)
            op = resume(event.value)
        elif event.type is EventType.WRITE:
            assert op == WriteOp(event.var, event.value), (op, event)
            op = resume(None)
    return op, env


def compare_with_ast_semantics(program):
    """Check every transaction log of every CC output history of
    ``program``: the final valuation against the reference's, and the next
    operation and locals of every pending prefix.  Returns the operation
    kinds met at pending prefixes."""
    kinds = Counter()
    for history in explore_ce(program, "CC").histories:
        for tid, log in history.txns.items():
            if tid == INIT_TXN:
                continue
            txn = program.transaction(tid)
            assert final_env(txn, log) == ast_replay(txn, log)[1], (program.name, tid)
            for length in range(1, len(log.events)):
                prefix = log.prefix(length)
                expected = ast_replay(txn, prefix)
                assert next_operation(txn, prefix) == expected, (program.name, tid, length)
                kinds[type(expected[0]).__name__] += 1
    return kinds


LOCALS = ("v0", "v1", "v2")


def random_body(rng, depth=0):
    """Straight-line code, nested ``if``/``else`` blocks, aborts and a
    computed name: the shapes the compiler turns into jumps."""
    instrs = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.25:
            var = rng.choice(["x", "y", concat("row_", L("v0"))])
            instrs.append(read(rng.choice(LOCALS), var))
        elif roll < 0.45:
            instrs.append(write(rng.choice(["x", "y"]), L(rng.choice(LOCALS)) + rng.randint(0, 2)))
        elif roll < 0.6:
            instrs.append(assign(rng.choice(LOCALS), L(rng.choice(LOCALS)) * 2 - 1))
        elif roll < 0.95 and depth < 2:
            cond = L(rng.choice(LOCALS)) < rng.randint(0, 3)
            orelse = random_body(rng, depth + 1) if rng.random() < 0.7 else []
            instrs.append(if_(cond, then=random_body(rng, depth + 1), orelse=orelse))
        else:
            instrs.append(abort())
    return instrs


def run_against_world(resume):
    """Drive an interpreter whose next operation ``resume(value)`` returns,
    answering each read from a fixed function of the trace so far."""
    ops = [resume(None)]
    while isinstance(ops[-1], (ReadOp, WriteOp)):
        op = ops[-1]
        value = (len(ops) + sum(map(ord, op.var))) % 4 if isinstance(op, ReadOp) else None
        ops.append(resume(value))
    return ops


class TestAgainstAstSemantics:
    """The one interpreter against the AST semantics it replaced."""

    def test_generated_bodies(self):
        rng = random.Random(17)
        for trial in range(500):
            body = tuple(assign(v, rng.randint(0, 3)) for v in LOCALS) + tuple(random_body(rng))
            txn = Transaction(f"t{trial}", body)
            env, reference = {}, {}
            ops = run_against_world(executor.execute(txn, env).send)
            assert ops == run_against_world(ast_stepper(txn.body, reference)), body
            assert env == reference, body

    @pytest.mark.parametrize("workload", sorted(APPLICATIONS) + ["gen-aborty", "gen-hotspot"])
    def test_workloads(self, workload):
        kinds = compare_with_ast_semantics(client_program(workload, 3, 3, 0))
        assert kinds["ReadOp"] and kinds["CommitOp"]

    def test_random_programs(self):
        kinds = Counter()
        for seed in range(100):
            kinds += compare_with_ast_semantics(random_program(random.Random(seed), f"ast{seed}"))
        assert set(kinds) == {"ReadOp", "WriteOp", "CommitOp", "AbortOp"}


class TestEngineHarness:
    """The engine runs transaction bodies on the same interpreter."""

    def test_engine_instructions_are_counted_deterministically(self):
        config = get_engine_config("serializable")
        deltas = []
        for _ in range(2):
            before = executor.INSTRUCTIONS_EXECUTED
            run_program(workload_program("hotkeys", 3, 3, 5), config, seed=5)
            deltas.append(executor.INSTRUCTIONS_EXECUTED - before)
        assert deltas[0] > 0 and deltas[0] == deltas[1]

    def test_body_abort_is_one_unretried_abort(self):
        p = ProgramBuilder("user-abort")
        p.session("s").transaction("t").read("a", "x").abort()
        run = run_program(p.build(), get_engine_config("serializable"), seed=0)
        ops = [(e.op, e.txn) for e in run.trace.events if e.session == "s"]
        assert ops == [("begin", 0), ("read", 0), ("abort", 0)]
        assert run.stats.user_aborts == 1
        assert run.gave_up == []
