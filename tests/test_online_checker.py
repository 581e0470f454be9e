"""Online incremental checker vs. batch checkers (repro.checking.online).

The contract under test is **batch equivalence**: after every fed event,
``OnlineChecker``'s verdict for each level equals the batch checker run
from scratch on that prefix (replayed independently through
``Trace.prefix(k).to_history()`` so the comparison shares no incremental
state), across paper histories, fuzzed traces and application workloads —
the acceptance property of the trace subsystem.
"""

import random

import pytest

from helpers import PAPER_PROGRAMS
from repro.apps.workloads import record_workload_trace
from repro.checking.online import DEFAULT_LEVELS, OnlineChecker, OnlineStep, check_trace
from repro.core import HistoryBuilder, RelationMatrix
from repro.dpor import explore_ce
from repro.isolation import get_level
from repro.trace import Trace, TraceEvent, TraceFormatError, fuzz_history, gadget_traces

LEVELS = DEFAULT_LEVELS


def batch_verdicts(trace, length):
    """Ground truth: fresh batch check of the first ``length`` events."""
    history = trace.prefix(length).to_history(strict=False)
    return {name: get_level(name).satisfies(history) for name in LEVELS}


def assert_online_equals_batch(trace):
    checker = OnlineChecker.from_trace(trace)
    for index, event in enumerate(trace.events):
        step = checker.feed(event)
        assert step.index == index
        expected = batch_verdicts(trace, index + 1)
        assert step.verdicts == expected, (
            f"{trace.header.name}: prefix {index + 1} ({event}): "
            f"online {step.verdicts} != batch {expected}"
        )
    return checker


class TestBatchEquivalence:
    @pytest.mark.parametrize("make_program", PAPER_PROGRAMS, ids=lambda f: f.__name__)
    def test_paper_program_histories(self, make_program):
        program = make_program()
        result = explore_ce(program, get_level("CC"))
        for history in result.histories:
            assert_online_equals_batch(Trace.from_history(history, name=program.name))

    @pytest.mark.parametrize("name", sorted(gadget_traces()))
    def test_gadget_traces(self, name):
        assert_online_equals_batch(gadget_traces()[name])

    @pytest.mark.parametrize("seed", range(30))
    def test_fuzzed_traces(self, seed):
        history = fuzz_history(seed, abort_rate=0.25)
        assert_online_equals_batch(Trace.from_history(history, name=f"fuzz{seed}"))

    @pytest.mark.parametrize("app", ["twitter", "shoppingCart"])
    def test_application_workload_traces(self, app):
        trace = record_workload_trace(app, sessions=2, txns_per_session=2, seed=0,
                                      isolation="CC")
        checker = assert_online_equals_batch(trace)
        assert checker.verdicts["CC"], "a CC-explored history satisfies CC"

    def test_final_verdict_equals_batch_on_completed_history(self):
        for seed in range(15):
            history = fuzz_history(seed)
            checker = OnlineChecker.from_trace(Trace.from_history(history))
            checker.replay(Trace.from_history(history))
            assert checker.verdicts == {
                name: get_level(name).satisfies(history) for name in LEVELS
            }

    def test_check_trace_online_matches_batch(self):
        aliases = ["read committed", "causal", "snapshot isolation", "serializable"]
        for name, trace in gadget_traces().items():
            assert check_trace(trace) == check_trace(trace, online=True), name
            batch = check_trace(trace, aliases)
            assert batch == check_trace(trace, aliases, online=True), name
            assert set(batch) == {"RC", "CC", "SI", "SER"}, name
            checker = OnlineChecker.from_trace(trace, levels=aliases)
            checker.replay(trace)
            for alias in aliases:
                canonical = get_level(alias).name
                assert checker.first_violation(alias) == checker.first_violation(canonical)


class TestAborts:
    def test_abort_retracts_forced_edges(self):
        """A pending writer can force a violation that its abort dissolves —
        the rebuild path must flip the verdict back to consistent."""
        header_vars = ["x", "y"]
        b = HistoryBuilder(header_vars)
        t1 = b.txn("w").write("x", 1).write("y", 1).commit()
        doomed = b.txn("d").write("y", 2).write("x", 2)  # will abort
        b.txn("r1").read("x", source=t1).read("y", source=t1).commit()
        doomed.abort()
        history = b.build(auto_commit=False)
        # Reorder so the doomed writer's abort arrives *after* the reads.
        trace = Trace.from_history(history, name="abort-retract")
        events = sorted(trace.events, key=lambda e: (e.op == "abort"))
        checker = OnlineChecker.from_trace(trace)
        verdict_history = [checker.feed(e).verdicts["RA"] for e in events]
        # Mid-stream the pending writer makes the fractured read RA-suspect
        # under some interleavings; the final verdict must match batch.
        assert checker.verdicts == {
            name: get_level(name).satisfies(history) for name in LEVELS
        }
        assert verdict_history[-1] is checker.verdicts["RA"]

    def test_abort_of_writer_mid_stream_equivalence(self):
        """Hand-built stream where the verdict flips False then True again."""
        trace = Trace.from_records(
            [
                {"type": "begin", "session": "w", "txn": 0},
                {"type": "write", "session": "w", "txn": 0, "var": "x", "value": 1},
                {"type": "write", "session": "w", "txn": 0, "var": "y", "value": 1},
                {"type": "commit", "session": "w", "txn": 0},
                {"type": "begin", "session": "d", "txn": 0},
                {"type": "write", "session": "d", "txn": 0, "var": "x", "value": 9},
                # Fractured read from w while d's write to x is pending:
                {"type": "begin", "session": "r", "txn": 0},
                {"type": "read", "session": "r", "txn": 0, "var": "y", "value": 0,
                 "from": ["__init__", 0]},
                {"type": "read", "session": "r", "txn": 0, "var": "x", "value": 1,
                 "from": ["w", 0]},
                {"type": "commit", "session": "r", "txn": 0},
                {"type": "abort", "session": "d", "txn": 0},
            ],
            variables=["x", "y"],
            name="abort-stream",
        )
        checker = OnlineChecker.from_trace(trace)
        for index, event in enumerate(trace.events):
            step = checker.feed(event)
            assert step.verdicts == batch_verdicts(trace, index + 1), (index, event)
        # The fractured read violates RA regardless of d's fate…
        assert checker.verdicts["RA"] is False
        # …and RC stays consistent throughout (reads are ordered old→new).
        assert checker.verdicts["RC"] is True

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_streams_with_heavy_aborts(self, seed):
        history = fuzz_history(100 + seed, sessions=3, txns_per_session=2, abort_rate=0.5)
        assert_online_equals_batch(Trace.from_history(history, name=f"aborty{seed}"))


class TestApiSurface:
    def trace(self):
        return gadget_traces()["cc_violation"]

    def test_first_violation_and_newly_violated(self):
        trace = self.trace()
        checker = OnlineChecker.from_trace(trace)
        steps = checker.replay(trace)
        cc = checker.first_violation("CC")
        assert isinstance(cc, OnlineStep)
        # The violation surfaces at the read of y — the event that puts the
        # newer write of x into the stale reader's causal past.
        assert cc.event.op == "read" and cc.event.var == "y"
        assert "CC" in cc.newly_violated
        assert checker.first_violation("RC") is None
        assert steps[-1].verdicts == checker.verdicts
        assert not steps[-1].ok and steps[0].ok

    def test_level_subset(self):
        trace = self.trace()
        checker = OnlineChecker.from_trace(trace, levels=["ser", "RC"])
        checker.replay(trace)
        assert checker.levels == ("RC", "SER")
        assert checker.verdicts == {"RC": True, "SER": False}
        with pytest.raises(KeyError):
            checker.first_violation("CC")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            OnlineChecker(["x"], levels=["BOGUS"])

    def test_every_registered_level_accepted(self):
        from repro.isolation import registered_levels

        names = [level.name for level in registered_levels()]
        checker = OnlineChecker(["x"], levels=names)
        assert checker.levels == tuple(names)

    def test_malformed_stream_rejected(self):
        checker = OnlineChecker(["x"])
        with pytest.raises(TraceFormatError):
            checker.feed(TraceEvent("write", "s", 0, var="x", value=1))

    def test_history_adopts_maintained_matrix(self):
        """The per-step history must reuse the incrementally-grown closure
        instead of triggering a from-scratch RelationMatrix build."""
        trace = self.trace()
        checker = OnlineChecker.from_trace(trace, levels=["CC"])
        for event in trace.events:
            checker.feed(event)
        before = RelationMatrix.full_builds
        history = checker.history()
        matrix = history.causal_matrix()
        assert RelationMatrix.full_builds == before, "causal_matrix() must be adopted"
        assert matrix.nodes == tuple(history.txns)

    def test_verdicts_before_any_event(self):
        checker = OnlineChecker(["x"])
        assert checker.verdicts == {name: True for name in LEVELS}
        assert checker.steps == ()
