"""Unit tests for transaction logs and histories (repro.core.history)."""

import pytest

from repro.core import (
    INIT_TXN,
    Event,
    EventId,
    EventType,
    History,
    HistoryBuilder,
    TransactionLog,
    TxnId,
    is_prefix,
)


def simple_history():
    """t1 writes x and commits; t2 reads x from t1 (still pending)."""
    h = History.initial(["x", "y"])
    h, t1 = h.begin_transaction("s1")
    h = h.append_event("s1", Event(EventId(t1, 1), EventType.WRITE, "x", 5))
    h = h.append_event("s1", Event(EventId(t1, 2), EventType.COMMIT))
    h, t2 = h.begin_transaction("s2")
    eid = EventId(t2, 1)
    h = h.append_event("s2", Event(eid, EventType.READ, "x", 5))
    h = h.add_wr(t1, eid)
    return h, t1, t2, eid


class TestTransactionLog:
    def test_begin_creates_pending_log(self):
        log = TransactionLog.begin(TxnId("s", 0))
        assert log.is_pending and not log.is_complete
        assert log.events[0].type is EventType.BEGIN

    def test_status_transitions(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        committed = log.appended(Event(EventId(tid, 1), EventType.COMMIT))
        assert committed.is_committed and committed.is_complete
        aborted = log.appended(Event(EventId(tid, 1), EventType.ABORT))
        assert aborted.is_aborted and not aborted.is_committed

    def test_cannot_extend_complete_log(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid).appended(Event(EventId(tid, 1), EventType.COMMIT))
        with pytest.raises(ValueError):
            log.appended(Event(EventId(tid, 2), EventType.WRITE, "x", 1))

    def test_event_id_must_extend_po(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        with pytest.raises(ValueError):
            log.appended(Event(EventId(tid, 5), EventType.WRITE, "x", 1))

    def test_writes_keeps_last_write_per_var(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        log = log.appended(Event(EventId(tid, 1), EventType.WRITE, "x", 1))
        log = log.appended(Event(EventId(tid, 2), EventType.WRITE, "x", 2))
        log = log.appended(Event(EventId(tid, 3), EventType.COMMIT))
        assert log.writes()["x"].value == 2

    def test_aborted_log_has_no_visible_writes(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        log = log.appended(Event(EventId(tid, 1), EventType.WRITE, "x", 1))
        log = log.appended(Event(EventId(tid, 2), EventType.ABORT))
        assert log.writes() == {}
        assert not log.writes_var("x")

    def test_reads_excludes_local_reads(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        log = log.appended(Event(EventId(tid, 1), EventType.READ, "x", 0))
        log = log.appended(Event(EventId(tid, 2), EventType.WRITE, "y", 1))
        log = log.appended(Event(EventId(tid, 3), EventType.READ, "y", 1, local=True))
        assert [e.eid.pos for e in log.reads()] == [1]

    def test_prefix(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        log = log.appended(Event(EventId(tid, 1), EventType.WRITE, "x", 1))
        log = log.appended(Event(EventId(tid, 2), EventType.COMMIT))
        assert len(log.prefix(2)) == 2
        with pytest.raises(ValueError):
            log.prefix(0)
        with pytest.raises(ValueError):
            log.prefix(4)

    def test_last_write_before(self):
        tid = TxnId("s", 0)
        log = TransactionLog.begin(tid)
        log = log.appended(Event(EventId(tid, 1), EventType.WRITE, "x", 1))
        log = log.appended(Event(EventId(tid, 2), EventType.WRITE, "x", 2))
        assert log.last_write_before("x", 2).value == 1
        assert log.last_write_before("x", 3).value == 2
        assert log.last_write_before("y", 3) is None


class TestHistoryConstruction:
    def test_initial_history_writes_all_variables(self):
        h = History.initial(["x", "y"], initial_value=0, overrides={"y": frozenset()})
        init = h.txns[INIT_TXN]
        assert init.is_committed
        writes = init.writes()
        assert writes["x"].value == 0 and writes["y"].value == frozenset()

    def test_begin_assigns_sequential_ids(self):
        h = History.initial(["x"])
        h, t1 = h.begin_transaction("s1")
        h = h.append_event("s1", Event(EventId(t1, 1), EventType.COMMIT))
        h, t2 = h.begin_transaction("s1")
        assert (t1.index, t2.index) == (0, 1)
        assert h.sessions["s1"] == (t1, t2)

    def test_histories_are_persistent(self):
        h1 = History.initial(["x"])
        h2, _ = h1.begin_transaction("s1")
        assert "s1" not in h1.sessions and "s1" in h2.sessions

    def test_append_requires_existing_session(self):
        h = History.initial(["x"])
        with pytest.raises(ValueError):
            h.append_event("ghost", Event(EventId(TxnId("ghost", 0), 1), EventType.COMMIT))

    def test_validate_accepts_simple_history(self):
        h, *_ = simple_history()
        h.validate()


class TestHistoryQueries:
    def test_wr_and_relations(self):
        h, t1, t2, eid = simple_history()
        assert h.wr[eid] == t1
        assert h.causally_before(t1, t2)
        assert not h.causally_before(t2, t1)
        assert h.causally_before(INIT_TXN, t2)

    def test_so_before_is_transitive_within_session(self):
        b = HistoryBuilder(["x"])
        a = b.txn("s")
        a.write("x", 1)
        a.commit()
        c = b.txn("s")
        c.write("x", 2)
        c.commit()
        d = b.txn("s")
        d.write("x", 3)
        d.commit()
        h = b.build()
        assert h.so_before(a.tid, d.tid), "so must relate non-consecutive txns"
        assert not h.so_before(d.tid, a.tid)
        assert h.so_before(INIT_TXN, d.tid)

    def test_writers_of_excludes_aborted(self):
        b = HistoryBuilder(["x"])
        t = b.txn("s")
        t.write("x", 1)
        t.abort()
        h = b.build()
        assert h.writers_of("x") == [INIT_TXN]

    def test_maximal_in_causal_order(self):
        h, t1, t2, _ = simple_history()
        assert h.maximal_in_causal_order(t2)
        assert not h.maximal_in_causal_order(t1)

    def test_visible_write_value(self):
        h, t1, *_ = simple_history()
        assert h.visible_write_value(t1, "x") == 5
        with pytest.raises(KeyError):
            h.visible_write_value(t1, "y")


class TestWithReadSource:
    def test_updates_value_and_wr(self):
        h, t1, t2, eid = simple_history()
        h2 = h.with_read_source(eid, INIT_TXN)
        assert h2.wr[eid] == INIT_TXN
        assert h2.event(eid).value == 0
        assert h.wr[eid] == t1, "original history untouched"

    def test_rejects_non_reads(self):
        h, t1, *_ = simple_history()
        with pytest.raises(ValueError):
            h.with_read_source(EventId(t1, 1), INIT_TXN)


class TestRemoveEvents:
    def test_removes_suffix_and_empty_txns(self):
        h, t1, t2, eid = simple_history()
        pruned = h.remove_events({EventId(t2, 0), eid})
        assert t2 not in pruned.txns
        assert "s2" not in pruned.sessions
        assert eid not in pruned.wr

    def test_partial_suffix_keeps_prefix(self):
        h, t1, t2, eid = simple_history()
        pruned = h.remove_events({eid})
        assert len(pruned.txns[t2].events) == 1
        assert pruned.txns[t2].is_pending

    def test_non_suffix_deletion_asserts(self):
        h, t1, *_ = simple_history()
        with pytest.raises(AssertionError):
            h.remove_events({EventId(t1, 1)})  # middle of t1


class TestIsPrefix:
    def test_fig4_prefix(self):
        """Fig. 4(b) is a prefix of Fig. 4(a)."""
        full, t1, t2, eid = simple_history()
        cut = full.remove_events({eid})
        assert is_prefix(cut, full)
        assert is_prefix(full, full)

    def test_fig4_non_prefix_missing_wr_predecessor(self):
        """Fig. 4(c): dropping a wr predecessor is not a prefix."""
        full, t1, t2, eid = simple_history()
        # Removing t1 while keeping the read that reads from it cannot even
        # be represented by remove_events (wr is dropped with the writer);
        # build the non-prefix directly instead.
        sessions = {"s2": full.sessions["s2"]}
        txns = {INIT_TXN: full.txns[INIT_TXN], t2: full.txns[t2]}
        candidate = History(sessions, txns, {eid: t1})
        assert not is_prefix(candidate, full)

    def test_different_wr_is_not_prefix(self):
        full, t1, t2, eid = simple_history()
        rebound = full.with_read_source(eid, INIT_TXN)
        assert not is_prefix(rebound, full)

    def test_event_sets_must_be_po_prefixes(self):
        full, t1, t2, eid = simple_history()
        # A "prefix" missing t1's write but keeping its commit is malformed.
        txns = dict(full.txns)
        log = txns[t1]
        txns[t1] = TransactionLog(t1, (log.events[0], log.events[2]))
        candidate = History(full.sessions, txns, full.wr)
        assert not is_prefix(candidate, full)
