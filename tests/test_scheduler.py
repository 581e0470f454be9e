"""Unit tests for Next, ValidWrites and history extension (repro.semantics.scheduler)."""

import pytest

from repro.core.events import EventType, INIT_TXN, TxnId
from repro.core.ordered_history import OrderedHistory
from repro.isolation import get_level
from repro import ModelChecker
from repro.checking.assertions import local_equals
from repro.lang import L, Program, ProgramBuilder, Transaction, assign, read, write
from repro.lang.expr import concat
from repro.semantics import (
    apply_action,
    enumerate_histories,
    extend_history,
    next_action,
    pending_transaction,
    unstarted_transactions,
    valid_writes,
)

CC = get_level("CC")
RC = get_level("RC")


def two_session_program():
    p = ProgramBuilder("sched")
    p.session("s0").transaction("t").write("x", 1)
    p.session("s1").transaction("u").read("a", "x")
    return p.build()


def drive(program, *, until_events=None):
    """Run Next/apply deterministically, taking the first valid write."""
    oh = OrderedHistory.initial(program.initial_history())
    while True:
        action = next_action(program, oh.history)
        if action is None:
            return oh
        if action.is_external_read:
            writer, _ = valid_writes(oh.history, action, CC)[0]
            oh = apply_action(oh, action, writer)
        else:
            oh = apply_action(oh, action)
        if until_events is not None and len(oh.order) >= until_events:
            return oh


class TestNextAction:
    def test_starts_oracle_minimal_session_first(self):
        p = two_session_program()
        action = next_action(p, p.initial_history())
        assert action.kind is EventType.BEGIN
        assert action.txn == TxnId("s0", 0)

    def test_completes_pending_before_starting_new(self):
        p = two_session_program()
        h, _ = p.initial_history().begin_transaction("s0")
        action = next_action(p, h)
        assert action.kind is EventType.WRITE and action.txn == TxnId("s0", 0)

    def test_commit_after_body_exhausted(self):
        p = two_session_program()
        oh = drive(p, until_events=5)  # init(3) + begin + write
        action = next_action(p, oh.history)
        assert action.kind is EventType.COMMIT

    def test_none_when_program_finished(self):
        p = two_session_program()
        oh = drive(p)
        assert next_action(p, oh.history) is None
        assert oh.history.txns[TxnId("s1", 0)].is_committed

    def test_local_read_detected(self):
        p = ProgramBuilder("local")
        p.session("s").transaction("t").write("x", 9).read("a", "x")
        prog = p.build()
        oh = drive(prog, until_events=5)  # init(3) + begin + write
        action = next_action(prog, oh.history)
        assert action.kind is EventType.READ and action.local and action.value == 9

    def test_pending_transaction_invariant_enforced(self):
        p = two_session_program()
        h, _ = p.initial_history().begin_transaction("s0")
        h, _ = h.begin_transaction("s1")
        with pytest.raises(AssertionError):
            pending_transaction(h)


class TestUndeclaredVariables:
    """A computed name outside the program's universe is a typed error.

    ``init`` writes only the declared variables, so a read of any other
    name has no writer.  Unchecked, ValidWrites returns nothing and the
    branch counts as blocked: 0 histories at CC, against Theorem 3.4.
    """

    def test_model_checker_and_dfs_raise(self):
        body = (assign("k", 1), read("a", concat("row_", L("k"))), write("x", L("a")))
        program = Program({"s": [Transaction("t", body)]})
        with pytest.raises(ValueError, match=r"t\(s,0\).*'row_1'.*extra_variables"):
            ModelChecker(program, isolation="CC").run(assertions=[local_equals("s", "a", 99)])
        with pytest.raises(ValueError, match="'row_1'"):
            enumerate_histories(program, CC)

    def test_computed_write_name_raises(self):
        body = (assign("k", 2), write(concat("row_", L("k")), 1))
        program = Program({"s": [Transaction("t", body)]}, extra_variables=("row_1",))
        with pytest.raises(ValueError, match="'row_2'"):
            drive(program)


class TestUnstarted:
    def test_all_unstarted_initially(self):
        p = two_session_program()
        assert unstarted_transactions(p, p.initial_history()) == [
            TxnId("s0", 0),
            TxnId("s1", 0),
        ]

    def test_empty_when_all_started(self):
        p = two_session_program()
        oh = drive(p)
        assert unstarted_transactions(p, oh.history) == []


class TestValidWrites:
    def writers_program(self):
        p = ProgramBuilder("vw")
        p.session("w1").transaction().write("x", 1)
        p.session("w2").transaction().write("x", 2)
        p.session("r").transaction().read("a", "x").read("b", "y")
        return p.build()

    def test_returns_all_consistent_writers(self):
        p = self.writers_program()
        oh = drive(p, until_events=11)  # init(4) + 2 writer txns + begin reader
        action = next_action(p, oh.history)
        assert action.is_external_read and action.var == "x"
        writers = {w for w, _ in valid_writes(oh.history, action, CC)}
        assert writers == {INIT_TXN, TxnId("w1", 0), TxnId("w2", 0)}

    def test_aborted_writers_excluded(self):
        p = ProgramBuilder("aborted")
        t = p.session("w").transaction()
        t.write("x", 1).abort()
        p.session("r").transaction().read("a", "x")
        prog = p.build()
        oh = drive(prog, until_events=7)
        action = next_action(prog, oh.history)
        writers = {w for w, _ in valid_writes(oh.history, action, CC)}
        assert writers == {INIT_TXN}

    def test_extension_carries_value_and_wr(self):
        p = self.writers_program()
        oh = drive(p, until_events=11)
        action = next_action(p, oh.history)
        for writer, extended in valid_writes(oh.history, action, CC):
            read = extended.txns[action.txn].reads()[0]
            assert extended.wr[read.eid] == writer
            assert read.value == extended.visible_write_value(writer, "x")


class TestApplyAction:
    def test_begin_appends_block(self):
        p = two_session_program()
        oh = OrderedHistory.initial(p.initial_history())
        action = next_action(p, oh.history)
        oh2 = apply_action(oh, action)
        assert oh2.order[-1].txn == TxnId("s0", 0)
        oh2.validate()

    def test_external_read_requires_writer(self):
        p = two_session_program()
        oh = drive(p, until_events=7)  # s0 done, reader begun
        action = next_action(p, oh.history)
        assert action.is_external_read
        with pytest.raises(ValueError):
            apply_action(oh, action)

    def test_non_read_rejects_writer(self):
        p = two_session_program()
        oh = OrderedHistory.initial(p.initial_history())
        action = next_action(p, oh.history)
        with pytest.raises(ValueError):
            apply_action(oh, action, writer=INIT_TXN)

    def test_extend_history_matches_apply_action(self):
        p = two_session_program()
        oh = OrderedHistory.initial(p.initial_history())
        action = next_action(p, oh.history)
        assert (
            extend_history(oh.history, action).canonical_key()
            == apply_action(oh, action).history.canonical_key()
        )
