"""Tests for the portable JSONL trace format (repro.trace).

The load-bearing property is the round-trip guarantee:
``deserialize(serialize(h)) == h`` up to read-from equivalence, on
executor-generated, fuzzed and application-workload histories — plus the
schema validation that keeps hand-written/foreign traces honest.
"""

import json
import random

import pytest

from helpers import PAPER_PROGRAMS, random_history
from repro.core import HistoryBuilder, from_jsonable, to_jsonable
from repro.core.events import INIT_TXN, TxnId
from repro.dpor import explore_ce
from repro.isolation import get_level
from repro.trace import (
    TRACE_VERSION,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    TraceReplayer,
    adversarial_corpus,
    fuzz_history,
    fuzz_traces,
    gadget_histories,
)

LEVELS = ("RC", "RA", "CC", "SI", "SER")


def assert_round_trip(history, name="t"):
    trace = Trace.from_history(history, name=name)
    text = trace.dumps()
    loaded = Trace.loads(text)
    assert loaded == trace, "loads(dumps(t)) must be the identity on traces"
    replayed = loaded.to_history()
    assert replayed.canonical_key() == history.canonical_key()
    assert replayed.sessions == history.sessions
    assert replayed.wr == history.wr
    return trace


class TestRoundTrip:
    @pytest.mark.parametrize("make_program", PAPER_PROGRAMS, ids=lambda f: f.__name__)
    def test_executor_generated_histories(self, make_program):
        program = make_program()
        result = explore_ce(program, get_level("CC"))
        for history in result.histories:
            assert_round_trip(history, name=program.name)

    def test_ordered_history_uses_execution_order(self):
        program = PAPER_PROGRAMS[1]()  # fig10: reader vs writer
        result = explore_ce(program, get_level("CC"))
        history = next(iter(result.histories))
        from repro.core import OrderedHistory

        order = [e.eid for tid in history.txns for e in history.txns[tid].events]
        ordered = OrderedHistory(history, order)
        trace = Trace.from_history(ordered, name="ordered")
        non_init = [eid for eid in order if eid.txn != INIT_TXN]
        got = [(e.session, e.txn) for e in trace.events]
        assert got == [(eid.txn.session, eid.txn.index) for eid in non_init]
        assert trace.to_history().canonical_key() == history.canonical_key()

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzzed_histories(self, seed):
        assert_round_trip(fuzz_history(seed, abort_rate=0.2), name=f"fuzz{seed}")

    @pytest.mark.parametrize("seed", range(10))
    def test_random_histories_with_pending(self, seed):
        history = random_history(random.Random(seed), allow_pending=True)
        assert_round_trip(history, name=f"rand{seed}")

    def test_container_values_round_trip(self):
        b = HistoryBuilder(["ids", "pair"], initial_value=frozenset())
        t = b.txn("s")
        t.write("ids", frozenset({1, "two", (3, 4)}))
        t.write("pair", (1, ("nested", frozenset({5}))))
        t.commit()
        r = b.txn("s2")
        r.read("ids", source=t)
        r.commit()
        assert_round_trip(b.build(auto_commit=False), name="containers")

    def test_dumps_is_deterministic(self):
        h1 = fuzz_history(3)
        h2 = fuzz_history(3)
        assert Trace.from_history(h1).dumps() == Trace.from_history(h2).dumps()


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [None, True, 0, -7, 3.5, "s", (), (1, 2), frozenset(), frozenset({1, (2, "x")})],
    )
    def test_identity(self, value):
        assert from_jsonable(to_jsonable(value)) == value

    def test_rejects_unencodable(self):
        with pytest.raises(ValueError):
            to_jsonable(object())

    def test_rejects_unknown_markers(self):
        with pytest.raises(ValueError):
            from_jsonable({"$mystery": []})
        with pytest.raises(ValueError):
            from_jsonable([1, 2])


class TestSchemaValidation:
    def test_empty_file_rejected(self):
        with pytest.raises(TraceFormatError, match="no header"):
            Trace.loads("")

    def test_missing_header_rejected(self):
        line = json.dumps({"type": "begin", "session": "s", "txn": 0})
        with pytest.raises(TraceFormatError, match="header"):
            Trace.loads(line)

    def test_newer_version_rejected(self):
        header = TraceHeader(variables=("x",)).to_json_obj()
        header["version"] = TRACE_VERSION + 1
        with pytest.raises(TraceFormatError, match="newer"):
            Trace.loads(json.dumps(header))

    def test_unknown_optional_keys_tolerated(self):
        """Versioning rule: same-version additions must not break readers."""
        trace = Trace.from_history(fuzz_history(0))
        lines = trace.dumps().splitlines()
        header = json.loads(lines[0])
        header["future_key"] = {"anything": 1}
        event = json.loads(lines[1])
        event["annotation"] = "recorder-specific"
        patched = "\n".join([json.dumps(header), json.dumps(event)] + lines[2:])
        reloaded = Trace.loads(patched)
        assert reloaded.events == trace.events

    def test_comment_and_blank_lines_skipped(self):
        trace = Trace.from_history(fuzz_history(1))
        noisy = trace.dumps().replace("\n", "\n# comment\n\n", 1)
        assert Trace.loads(noisy) == trace

    def test_bad_event_type_rejected(self):
        header = json.dumps(TraceHeader(variables=("x",)).to_json_obj())
        bad = json.dumps({"type": "merge", "session": "s", "txn": 0})
        with pytest.raises(TraceFormatError, match="unknown event type"):
            Trace.loads(header + "\n" + bad)

    @pytest.mark.parametrize("kind", [{}, []])
    def test_non_string_event_type_rejected(self, kind):
        header = json.dumps(TraceHeader(variables=("x",)).to_json_obj())
        bad = json.dumps({"type": kind, "session": "s", "txn": 0})
        with pytest.raises(TraceFormatError, match=r"line 2: unknown event type [\[{]"):
            Trace.loads(header + "\n" + bad)

    def test_external_read_requires_source(self):
        with pytest.raises(TraceFormatError, match="from"):
            TraceEvent.from_json_obj({"type": "read", "session": "s", "txn": 0, "var": "x"})

    def test_bad_source_index_rejected(self):
        for bad in ["zero", 1.7, True, None]:
            with pytest.raises(TraceFormatError, match="from"):
                TraceEvent.from_json_obj(
                    {"type": "read", "session": "s", "txn": 0, "var": "x",
                     "from": ["w", bad]}
                )

    @pytest.mark.parametrize("field", ["txn", "from"])
    def test_negative_index_rejected_with_line(self, field):
        """A negative transaction index fails at decode, not later as an
        "evicted" transaction that never began."""
        header = json.dumps(TraceHeader(variables=("x",)).to_json_obj())
        begin = json.dumps({"type": "begin", "session": "s0", "txn": 0})
        if field == "txn":
            bad = {"type": "write", "session": "s0", "txn": -1, "var": "x", "value": 1}
        else:
            bad = {"type": "read", "session": "s0", "txn": 0, "var": "x", "value": 0,
                   "from": ["s0", -1]}
        with pytest.raises(TraceFormatError, match=r"line 3: .*>= 0"):
            Trace.loads("\n".join([header, begin, json.dumps(bad)]))

    def test_bad_value_encoding_reported_with_line(self):
        header = json.dumps(TraceHeader(variables=("x",)).to_json_obj())
        bad = json.dumps(
            {"type": "write", "session": "s", "txn": 0, "var": "x",
             "value": {"$mystery": 1}}
        )
        with pytest.raises(TraceFormatError, match="line 2.*value"):
            Trace.loads(header + "\n" + bad)

    def test_bad_header_initial_encoding_rejected(self):
        header = TraceHeader(variables=("x",)).to_json_obj()
        header["initial"] = {"x": [1, 2]}
        with pytest.raises(TraceFormatError, match="initial"):
            Trace.loads(json.dumps(header))

    def test_non_object_meta_rejected(self):
        header = TraceHeader(variables=("x",)).to_json_obj()
        header["meta"] = ["not", "a", "dict"]
        with pytest.raises(TraceFormatError, match="meta"):
            Trace.loads(json.dumps(header))

    def test_local_read_rejects_source(self):
        with pytest.raises(TraceFormatError, match="local"):
            TraceEvent.from_json_obj(
                {"type": "read", "session": "s", "txn": 0, "var": "x",
                 "local": True, "from": ["s", 0]}
            )


class TestReplayRules:
    def header(self):
        return TraceHeader(variables=("x",))

    def test_begin_out_of_order_rejected(self):
        trace = Trace(self.header(), [TraceEvent("begin", "s", 1)])
        with pytest.raises(TraceFormatError, match="out of order"):
            trace.to_history()

    def test_begin_while_pending_rejected(self):
        trace = Trace(
            self.header(),
            [TraceEvent("begin", "s", 0), TraceEvent("begin", "s", 1)],
        )
        with pytest.raises(TraceFormatError, match="still pending"):
            trace.to_history()

    def test_event_before_begin_rejected(self):
        trace = Trace(self.header(), [TraceEvent("write", "s", 0, var="x", value=1)])
        with pytest.raises(TraceFormatError, match="missing begin"):
            trace.to_history()

    def test_event_after_commit_rejected(self):
        trace = Trace(
            self.header(),
            [
                TraceEvent("begin", "s", 0),
                TraceEvent("commit", "s", 0),
                TraceEvent("write", "s", 0, var="x", value=1),
            ],
        )
        with pytest.raises(TraceFormatError, match="already-complete"):
            trace.to_history()

    def test_read_before_source_wrote_rejected(self):
        trace = Trace(
            self.header(),
            [
                TraceEvent("begin", "w", 0),
                TraceEvent("begin", "r", 0),
                TraceEvent("read", "r", 0, var="x", value=1, source=("w", 0)),
            ],
        )
        with pytest.raises(TraceFormatError, match="not .*written"):
            trace.to_history()

    def test_write_to_undeclared_variable_rejected(self):
        trace = Trace(
            self.header(),
            [TraceEvent("begin", "s", 0), TraceEvent("write", "s", 0, var="zz", value=1)],
        )
        with pytest.raises(TraceFormatError, match="undeclared"):
            trace.to_history()

    def test_reserved_init_session_rejected(self):
        trace = Trace(self.header(), [TraceEvent("begin", INIT_TXN.session, 0)])
        with pytest.raises(TraceFormatError, match="reserved"):
            trace.to_history()

    def test_session_tail_accessors_match_the_session_order(self):
        """session_latest and session_predecessor read the last two live
        transactions of the session's order in the replayed history, before
        and after forget drops transactions."""
        trace = Trace.from_history(fuzz_history(3, sessions=3, txns_per_session=4))
        replayer = TraceReplayer(trace.header)
        sessions = {event.session for event in trace.events}

        def assert_tails():
            for session in sessions | {"never-begun"}:
                order = replayer.history().sessions.get(session, ())
                assert replayer.session_latest(session) == (order[-1] if order else None)
                assert replayer.session_predecessor(session) == (
                    order[-2] if len(order) > 1 else INIT_TXN
                )

        for event in trace.events:
            replayer.apply(event)
            assert_tails()
        complete = [
            tid for tid in replayer.transactions()
            if tid != INIT_TXN and replayer.is_complete(tid)
        ]
        replayer.forget(complete[::2])
        assert_tails()

    def test_prefixes_replay_cleanly(self):
        """from_history orders events so every prefix is a valid trace."""
        trace = Trace.from_history(fuzz_history(7))
        for k in range(len(trace) + 1):
            trace.prefix(k).to_history(strict=False)


class TestFromRecords:
    def test_plain_dict_input(self):
        records = [
            {"type": "begin", "session": "alice", "txn": 0},
            {"type": "write", "session": "alice", "txn": 0, "var": "x", "value": 1},
            {"type": "commit", "session": "alice", "txn": 0},
            {"type": "begin", "session": "bob", "txn": 0},
            {"type": "read", "session": "bob", "txn": 0, "var": "x", "value": 1,
             "from": ["alice", 0]},
            {"type": "commit", "session": "bob", "txn": 0},
        ]
        trace = Trace.from_records(records, name="from-logs")
        assert trace.header.variables == ("x",)
        history = trace.to_history()
        assert history.wr and next(iter(history.wr.values())) == TxnId("alice", 0)
        for name in LEVELS:
            assert get_level(name).satisfies(history)

    def test_empty_log_is_a_valid_trace(self):
        """An engine that committed nothing still yields a replayable trace."""
        trace = Trace.from_records([], variables=["x"], initial={"x": 7})
        assert len(trace) == 0
        history = trace.to_history()
        assert set(history.txns) == {INIT_TXN}
        for name in LEVELS:
            assert get_level(name).satisfies(history)
        assert Trace.loads(trace.dumps()) == trace

    def test_commit_only_log_replays_cleanly(self):
        """Begin/commit pairs with no reads or writes are a valid history."""
        records = []
        for session in ("a", "b"):
            records.append({"type": "begin", "session": session, "txn": 0})
            records.append({"type": "commit", "session": session, "txn": 0})
        trace = Trace.from_records(records, variables=["x"])
        history = trace.to_history()
        assert len(history.txns) == 3  # init + two empty transactions
        for name in LEVELS:
            assert get_level(name).satisfies(history)
        assert Trace.loads(trace.dumps()) == trace

    def test_variables_inferred_from_initial_keys(self):
        """Initial values alone must declare their variables, or the header
        would reject its own round-trip."""
        trace = Trace.from_records([], initial={"x": 5})
        assert trace.header.variables == ("x",)
        assert Trace.loads(trace.dumps()).header.initial == {"x": 5}

    def test_meta_passthrough(self):
        trace = Trace.from_records([], variables=["x"], meta={"engine": "mvcc"})
        assert Trace.loads(trace.dumps()).header.meta == {"engine": "mvcc"}


class TestFuzzer:
    def test_gadgets_violate_exactly_their_level_and_up(self):
        expected_first_violation = {
            "rc_violation": "RC",
            "ra_violation": "RA",
            "cc_violation": "CC",
            "si_violation": "SI",
            "ser_violation": "SER",
        }
        histories = gadget_histories()
        for gadget, first in expected_first_violation.items():
            cut = LEVELS.index(first)
            verdicts = {name: get_level(name).satisfies(histories[gadget]) for name in LEVELS}
            assert verdicts == {
                name: LEVELS.index(name) < cut for name in LEVELS
            }, f"{gadget}: {verdicts}"

    def test_lost_update_separates_si_from_cc(self):
        history = gadget_histories()["lost_update"]
        assert get_level("CC").satisfies(history)
        assert not get_level("SI").satisfies(history)

    def test_fuzz_deterministic_in_seed(self):
        assert fuzz_history(11).canonical_key() == fuzz_history(11).canonical_key()
        t1, t2 = fuzz_traces(2, seed=5)
        assert (t1.dumps(), t2.dumps()) == tuple(t.dumps() for t in fuzz_traces(2, seed=5))

    def test_fuzzed_histories_are_well_formed(self):
        for seed in range(30):
            fuzz_history(seed, abort_rate=0.3).validate()

    def test_adversarial_corpus_covers_every_level(self):
        corpus = adversarial_corpus(per_level=2, seed=0)
        assert set(corpus) == set(LEVELS)
        for name, bucket in corpus.items():
            assert len(bucket) == 2
            for history in bucket:
                history.validate()
                assert not get_level(name).satisfies(history)
