"""Online incremental checker vs. batch checkers (repro.checking.online).

The contract under test is **batch equivalence**: after every fed event,
``OnlineChecker``'s verdict for each level equals the batch checker run
from scratch on that prefix (replayed independently through
``Trace.prefix(k).to_history()`` so the comparison shares no incremental
state), across paper histories, fuzzed traces and application workloads —
the acceptance property of the trace subsystem.
"""

import hashlib
import json
from collections import Counter

import pytest

from helpers import PAPER_PROGRAMS, evicting_stream
from repro.apps.workloads import record_workload_trace
from repro.checking.online import DEFAULT_LEVELS, OnlineChecker, OnlineStep, check_trace
from repro.core import INIT_TXN, HistoryBuilder, RelationMatrix, TxnId
from repro.dpor import explore_ce
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import engine_configs, get_engine_config
from repro.isolation import AXIOMS_BY_LEVEL, IncrementalSaturation, get_level, registered_levels
from repro.isolation.axioms import axioms_hold
from repro.isolation.registry import level_spec
from repro.isolation.snapshot import schedule_commit_order
from repro.isolation.summaries import dense_summaries
from repro.monitor import Monitor, MonitorConfig
from repro.trace import (
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceHeader,
    fuzz_history,
    gadget_traces,
)
from repro.trace.format import TraceReplayer

LEVELS = DEFAULT_LEVELS

#: The levels the online checker decides by search rather than saturation.
SEARCH_LEVELS = ("BS-3", "PSI", "PC", "SI", "SER")

#: The search levels that keep a witness and re-check it before searching.
WITNESS_LEVELS = ("PC", "SI", "SER")


def batch_verdicts(trace, length):
    """Ground truth: fresh batch check of the first ``length`` events."""
    history = trace.prefix(length).to_history(strict=False)
    return {name: get_level(name).satisfies(history) for name in LEVELS}


def record(op, session, **extra):
    """A trace record of ``session``'s first transaction."""
    return {"type": op, "session": session, "txn": 0, **extra}


def read_record(session, var, source, value=1):
    """An external read by ``session`` from ``source``'s first transaction."""
    return record("read", session, var=var, value=value, **{"from": [source, 0]})


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
        the retraction must flip the verdict back to consistent."""
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

    @pytest.mark.parametrize("wr_first", [True, False], ids=["wr-then-fire", "fire-then-wr"])
    def test_abort_keeps_wr_edge_equal_to_a_fired_edge(self, wr_first):
        """b reads from the pending writer w, and w's instance over r's read
        of x from b forces the same edge w → b.  When w aborts, its forced
        edge goes but the wr edge stays, closing the cycle with b → w."""
        b_reads_w = read_record("b", "y", "w")
        records = [
            record("begin", "w"),
            record("write", "w", var="x", value=1),
            record("write", "w", var="y", value=1),
            record("begin", "b"),
            record("write", "b", var="x", value=2),
            *([b_reads_w] if wr_first else []),
            record("begin", "r"),
            read_record("r", "y", "w"),
            # Forces w → b: w writes x and r read from w.
            read_record("r", "x", "b", value=2),
            *([] if wr_first else [b_reads_w]),
            # Forces b → w: b writes y and r read y from w after reading b.
            record("write", "b", var="y", value=2),
            record("abort", "w"),
        ]
        trace = Trace.from_records(records, variables=["x", "y"], name="abort-keeps-wr")
        assert assert_online_equals_batch(trace).verdicts["RA"] is False

    def test_prune_while_violated_keeps_unevaluated_instances(self):
        """While w's forced edge closes a cycle, x's first write of v only
        queues its instances.  Pruning the settled reader r2 must not drop
        them: once w aborts, x → t2 closes a second cycle."""
        trace = Trace.from_records(
            [
                record("begin", "t"), record("write", "t", var="x", value=1),
                record("commit", "t"),
                record("begin", "w"), read_record("w", "x", "t"),
                record("write", "w", var="x", value=2), record("write", "w", var="y", value=2),
                # w → t is forced (w writes x, r1 read y from w): a cycle.
                record("begin", "r1"), read_record("r1", "y", "w"), read_record("r1", "x", "t"),
                record("begin", "t2"), record("write", "t2", var="v", value=1),
                record("commit", "t2"),
                record("begin", "x"), read_record("x", "v", "t2"),
                record("write", "x", var="u", value=1),
                record("begin", "r2"), read_record("r2", "u", "x"), read_record("r2", "v", "t2"),
                record("write", "x", var="v", value=3),
                record("commit", "x"), record("commit", "r2"),
                record("abort", "w"),
            ],
            variables=["x", "y", "u", "v"],
            name="prune-while-violated",
        )
        checker = OnlineChecker.from_trace(trace)
        for index, event in enumerate(trace.events):
            if event.op == "abort":
                checker.prune_settled()
            step = checker.feed(event)
            assert step.verdicts == batch_verdicts(trace, index + 1), (index, event)
        assert checker.verdicts["RA"] is False

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzzed_streams_with_heavy_aborts(self, seed):
        history = fuzz_history(100 + seed, sessions=3, txns_per_session=2, abort_rate=0.5)
        assert_online_equals_batch(Trace.from_history(history, name=f"aborty{seed}"))


class TestRecheckRule:
    def test_inert_events_evaluate_no_premise(self):
        """Begins, commits, local reads and write-free aborts add no so/wr
        edge that could fire a pending premise, so they evaluate none —
        even while RA and CC hold pending instances — and every prefix
        verdict still equals batch."""
        trace = Trace.from_records(
            [
                record("begin", "w"),
                record("write", "w", var="x", value=1),
                record("commit", "w"),
                record("begin", "v"),
                record("write", "v", var="x", value=2),
                record("begin", "r"),
                # Pending for RA and CC: v writes x but is not before r.
                read_record("r", "x", "w"),
                record("write", "r", var="y", value=3),
                record("read", "r", var="y", value=3, local=True),
                record("commit", "r"),
                record("begin", "q"),
                record("abort", "q"),
                record("commit", "v"),
            ],
            variables=["x", "y"],
            name="inert-events",
        )
        checker = OnlineChecker.from_trace(trace)
        inert_while_pending = 0
        for index, event in enumerate(trace.events):
            before = IncrementalSaturation.premise_evals
            step = checker.feed(event)
            evals = IncrementalSaturation.premise_evals - before
            assert step.verdicts == batch_verdicts(trace, index + 1), (index, event)
            if event.op in ("begin", "commit", "abort") or event.local:
                assert evals == 0, (index, event)
                pending = [state.pending_instances for state in checker.saturation_states()]
                inert_while_pending += sum(1 for count in pending if count) >= 2
        assert inert_while_pending >= 5


class TestReplayPrunes:
    """``OnlineChecker.replay`` prunes settled readers as it goes, so RA and
    CC outside the monitor no longer re-check every pending premise of the
    whole run on each external read."""

    @pytest.fixture(scope="class")
    def hotkeys(self):
        return run_program(
            workload_program("hotkeys", 2, 300, 7), get_engine_config("serializable"), seed=7
        ).trace.prefix(700)

    def test_ra_premise_evaluations_stay_amortised(self, hotkeys):
        """Without pruning, RA evaluated 602,517 premises over these 700
        events; pruning at max(64, twice what the last prune left) leaves
        about a sixth of that."""
        checker = OnlineChecker.from_trace(hotkeys, levels=("RA",))
        before = IncrementalSaturation.premise_evals
        checker.replay(hotkeys)
        assert IncrementalSaturation.premise_evals - before < 150_000
        assert checker.verdicts == {"RA": True}

    def test_pruning_keeps_every_step(self, hotkeys):
        """The pruning replay gives the steps of a plain feed loop."""
        prefix = hotkeys.prefix(400)
        levels = ("RC", "RA", "CC", "SER")
        pruned = OnlineChecker.from_trace(prefix, levels=levels).replay(prefix)
        checker = OnlineChecker.from_trace(prefix, levels=levels)
        assert [checker.feed(event) for event in prefix.events] == pruned

    def test_short_runs_do_not_prune(self, monkeypatch):
        """Below PRUNE_FLOOR external reads, replay never prunes."""
        trace = Trace.from_history(fuzz_history(0, abort_rate=0.25))
        checker = OnlineChecker.from_trace(trace)
        monkeypatch.setattr(checker, "prune_settled", lambda: pytest.fail("pruned"))
        checker.replay(trace)


def event_kind(event, wrote):
    """Classify ``event`` for the skip rules; ``wrote`` maps each
    transaction to the variables it wrote so far, updated here."""
    if event.op == "read":
        return "local read" if event.local else "external read"
    if event.op == "write":
        written = wrote.setdefault(event.tid, set())
        first = event.var not in written
        written.add(event.var)
        return "first write" if first else "repeat write"
    if event.op == "abort":
        return "writer abort" if wrote.get(event.tid) else "write-free abort"
    return event.op


INERT_KINDS = {"begin", "commit", "local read", "repeat write", "write-free abort"}


@pytest.fixture
def search_calls(monkeypatch):
    """Counts online searches per level name, at ``OnlineChecker._search``,
    the one call through which an online decision searches."""
    calls = Counter()
    search = OnlineChecker._search

    def counting(checker, name, *args):
        calls[name] += 1
        return search(checker, name, *args)

    monkeypatch.setattr(OnlineChecker, "_search", counting)
    return calls


def feed_counting(checker, event, calls):
    """Feed one event; returns the step and the searches it ran per level."""
    before = Counter(calls)
    step = checker.feed(event)
    ran = Counter(calls)
    ran.subtract(before)
    return step, {name: ran[name] for name in SEARCH_LEVELS if name in checker.levels}


def placed_last(witness, level, begun):
    """``witness`` with the transactions of ``begun`` (in begin order) that
    it does not place appended, as the re-check places them: once in a
    commit order, start-then-commit in a schedule."""
    placed = set(witness)
    times = 1 if level == "SER" else 2
    return tuple(witness) + tuple(t for t in begun if t not in placed for _ in range(times))


def certified(prefix, level, witness):
    """Whether ``witness``'s commit order extends so ∪ wr on ``prefix`` and
    passes ``level``'s axioms (Def. 2.2)."""
    order = tuple(witness) if level == "SER" else schedule_commit_order(witness)
    position = {tid: i for i, tid in enumerate(order)}
    if set(position) != set(prefix.txns) or len(position) != len(order):
        return False
    pairs = list(prefix.so_pairs()) + list(prefix.wr_pairs())
    if any(position[a] >= position[b] for a, b in pairs if a != b):
        return False
    return axioms_hold(prefix, order, AXIOMS_BY_LEVEL[level])


class TestSkipRules:
    """A search level decides only on events that can change its verdict:
    an external read, a first write or a writer's abort — and, once the
    level is violated, only a writer's abort.  On such an event SER, SI
    and PC first re-check the witness of their last search, with the
    transactions begun since placed last; they search only when that fails
    (or there is none).  PSI and BS-3 search every time."""

    @pytest.mark.parametrize("seed", range(12))
    def test_searches_per_event_kind(self, seed, search_calls):
        trace = Trace.from_history(fuzz_history(seed, abort_rate=0.25), name=f"fuzz{seed}")
        checker = OnlineChecker.from_trace(trace, levels=("RC",) + SEARCH_LEVELS)
        wrote = {}
        begun = [INIT_TXN]
        rechecked = searched = 0
        for index, event in enumerate(trace.events):
            kind = event_kind(event, wrote)
            if event.op == "begin":
                begun.append(event.tid)
            previous = checker.verdicts
            witnesses = {name: checker.witness(name) for name in WITNESS_LEVELS}
            step, ran = feed_counting(checker, event, search_calls)
            prefix = trace.prefix(index + 1).to_history(strict=False)
            assert step.verdicts == {
                name: get_level(name).satisfies(prefix) for name in checker.levels
            }, (index, event)
            for name, count in ran.items():
                context = (index, kind, name, previous[name])
                skipped = kind in INERT_KINDS or (not previous[name] and kind != "writer abort")
                witness = witnesses.get(name)
                if skipped:
                    assert count == 0, context
                elif witness is None:
                    assert count == 1, context
                    searched += 1
                else:
                    holds = certified(prefix, name, placed_last(witness, name, begun))
                    if name == "SER":
                        # The re-check is exactly the certificate check.
                        assert count == (0 if holds else 1), context
                    else:
                        # A schedule fixes start points too: a certified
                        # commit order may still need a search.
                        assert count == 1 or holds, context
                    rechecked += count == 0
                    searched += count
                # The kept witness certifies the new prefix.
                kept = checker.witness(name) if name in WITNESS_LEVELS else None
                if kept is not None:
                    assert step.verdicts[name], context
                    assert certified(prefix, name, placed_last(kept, name, begun)), context
                elif name in WITNESS_LEVELS and count:
                    assert not step.verdicts[name], context
        assert rechecked and searched

    def test_corpus_covers_every_kind(self):
        seen = set()
        for seed in range(12):
            wrote = {}
            for event in Trace.from_history(fuzz_history(seed, abort_rate=0.25)).events:
                seen.add(event_kind(event, wrote))
        assert seen == INERT_KINDS | {"external read", "first write", "writer abort"}

    def test_violated_level_searches_only_on_writer_abort(self, search_calls):
        """SI and SER are violated at event 21 and hold again at event 24,
        when the writer that closed the cycle aborts."""
        trace = run_program(
            workload_program("hotkeys", 2, 5, 0),
            get_engine_config("snapshot-isolation"),
            seed=0,
        ).trace
        checker = OnlineChecker.from_trace(trace, levels=("SI", "SER"))
        wrote = {}
        for index, event in enumerate(trace.events):
            kind = event_kind(event, wrote)
            step, ran = feed_counting(checker, event, search_calls)
            if 21 < index < 24:
                assert kind in ("begin", "first write"), (index, kind)
                assert ran == {"SI": 0, "SER": 0}, (index, kind)
                assert step.verdicts == {"SI": False, "SER": False}
            elif index == 24:
                assert kind == "writer abort"
                assert ran == {"SI": 1, "SER": 1}
                assert step.verdicts == {"SI": True, "SER": True}
        first = checker.first_violation("SER")
        assert first is not None and first.index == 21


class TestSearchesRunOnTheCheckersState:
    """PSI and BS-3 search on the matrix of the saturation state of their
    co-free axioms (CC's, RC's), which the checker steps per event: no
    online search rebuilds that saturation or builds a prefix history."""

    @pytest.fixture(scope="class")
    def hotkeys(self):
        """A 177-event serializable-engine stream, hotkeys 2×20."""
        trace = run_program(
            workload_program("hotkeys", 2, 20, 3), get_engine_config("serializable"), seed=3
        ).trace
        assert len(trace) == 177
        return trace

    @pytest.mark.parametrize("level", ("PSI", "BS-3"))
    def test_no_rebuild_and_no_history(self, level, hotkeys, search_calls, monkeypatch):
        expected = [
            get_level(level).satisfies(hotkeys.prefix(length).to_history(strict=False))
            for length in range(1, len(hotkeys) + 1)
        ]
        built = Counter()

        def counted(name, fn):
            def wrapper(*args):
                built[name] += 1
                return fn(*args)

            return wrapper

        for owner, name in ((IncrementalSaturation, "from_history"), (TraceReplayer, "history")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        checker = OnlineChecker.from_trace(hotkeys, levels=(level,))
        verdicts = [checker.feed(event).verdicts[level] for event in hotkeys.events]
        assert verdicts == expected
        assert search_calls[level] > 50
        assert built == Counter()


def assert_summaries_maintained(checker):
    """The maintained summaries, read over the causal matrix and over every
    saturation state's matrix, equal a cold build on the prefix history
    over the same matrix.  Both number variables in sorted-name order, so
    equality is exact; the saturation states' rows must be the causal
    matrix's, which the search levels' input reads them on."""
    prefix = checker.replayer.history()
    for matrix in (checker.causal_matrix, *(s.matrix for s in checker.saturation_states())):
        assert matrix.nodes == checker.causal_matrix.nodes
        assert checker._summaries.view(matrix) == dense_summaries(prefix, matrix)


class TestMaintainedSummaries:
    """The per-event summaries equal the from-scratch build after every
    event: aborts, local reads, repeat writes and eviction included."""

    @pytest.mark.parametrize("level", SEARCH_LEVELS)
    def test_fuzzed_traces_at_every_search_level(self, level):
        for seed in range(10):
            trace = Trace.from_history(fuzz_history(seed, abort_rate=0.25))
            checker = OnlineChecker.from_trace(trace, levels=(level,))
            for event in trace.events:
                checker.feed(event)
                assert_summaries_maintained(checker)

    def test_mixed_levels(self):
        for seed in range(10):
            trace = Trace.from_history(fuzz_history(100 + seed, abort_rate=0.5))
            checker = OnlineChecker.from_trace(trace, levels=("RC", "SER"))
            for event in trace.events:
                checker.feed(event)
                assert_summaries_maintained(checker)

    def test_saturation_levels_keep_no_summaries(self):
        trace = Trace.from_history(fuzz_history(0, abort_rate=0.25))
        checker = OnlineChecker.from_trace(trace, levels=("RC", "RA", "CC"))
        checker.replay(trace)
        assert checker._summaries is None

    @pytest.mark.parametrize("level", ("SER", "SI", "PSI", "BS-3"))
    def test_evicting_stream(self, level, search_calls, monkeypatch):
        """SER and SI keep deciding by their witness right after an
        eviction drops some of its transactions."""
        trace = evicting_stream(0)
        monitor = Monitor(
            trace.header, MonitorConfig(isolation=level, window=1, gc_every=1, evict_batch=1)
        )
        checker = monitor.checker
        evict = checker.evict
        dropped = []

        def evicting(tids):
            before = len(checker.witness(level) or ())
            count = evict(tids)
            dropped.append(before - len(checker.witness(level) or ()))
            return count

        monkeypatch.setattr(checker, "evict", evicting)
        wrote = {}
        after_drop = False
        decided_after_drop = 0
        for event in trace.events:
            kind = event_kind(event, wrote)
            before = search_calls[level]
            assert monitor.feed(event).verdicts[level]
            assert_summaries_maintained(checker)
            if after_drop and kind not in INERT_KINDS:
                decided_after_drop += search_calls[level] == before
                after_drop = False
            after_drop = after_drop or any(dropped)
            dropped.clear()
            witness = checker.witness(level)
            if witness is not None:
                assert all(checker.replayer.is_live(tid) for tid in witness)
        assert checker.evicted_count > 0
        if level in WITNESS_LEVELS:
            assert decided_after_drop > 0
        else:
            assert decided_after_drop == 0

    def test_evicting_a_source_drops_its_reads(self):
        """Eviction drops the wr entries of reads whose source left, and the
        summaries drop those reads with them."""
        trace = Trace.from_records(
            [
                record("begin", "w"), record("write", "w", var="x", value=1),
                record("commit", "w"),
                record("begin", "r"), read_record("r", "x", "w"),
                record("read", "r", var="y", value=0, **{"from": ["__init__", 0]}),
                record("commit", "r"),
                {"type": "begin", "session": "w", "txn": 1},
            ],
            variables=["x", "y"],
            name="evict-source",
        )
        checker = OnlineChecker.from_trace(trace, levels=("SER",))
        checker.replay(trace)
        assert checker.evict([TxnId("w", 0)]) == 1
        assert_summaries_maintained(checker)
        reader = checker.causal_matrix.index_of(TxnId("r", 0))
        assert len(checker._summaries.view(checker.causal_matrix).reads_of[reader]) == 1


def steps_digest():
    """Digest every step's ``(index, sorted verdicts, newly_violated)``.

    One checker deciding every registered level over fuzzed histories with
    aborts and engine runs of every config; then keep-mode monitors at
    every level and assume-fresh monitors at the ``fresh``-eviction levels,
    at the tightest GC cadence on :func:`evicting_stream`, each followed by
    its report's ``peak_live`` and eviction counters.  As JSON, so the
    digest depends on neither ``hash()`` nor a ``repr``.
    """
    digest = hashlib.sha256()

    def add(step):
        record = [step.index, sorted(step.verdicts.items()), list(step.newly_violated)]
        digest.update(json.dumps(record).encode())

    levels = [level.name for level in registered_levels()]
    traces = [
        Trace.from_history(fuzz_history(seed, txns_per_session=3, abort_rate=0.25))
        for seed in range(30)
    ]
    for name, config in sorted(engine_configs().items()):
        workloads = ["hotkeys"] + ([f"demo:{config.bug}"] if config.bug else [])
        for workload in workloads:
            for seed in range(2):
                program = workload_program(workload, 2, 4, seed)
                traces.append(run_program(program, config, seed=seed).trace)
    for trace in traces:
        checker = OnlineChecker.from_trace(trace, levels=levels)
        for event in trace.events:
            add(checker.feed(event))
    fresh = [name for name in levels if level_spec(name).eviction == "fresh"]
    monitors = [("keep", name) for name in levels] + [("assume-fresh", name) for name in fresh]
    for seed in range(3):
        trace = evicting_stream(seed)
        for mode, name in monitors:
            monitor = Monitor(
                trace.header,
                MonitorConfig(isolation=name, mode=mode, window=1, gc_every=1, evict_batch=1),
            )
            for event in trace.events:
                add(monitor.feed(event))
            report = monitor.report()
            stats = report.stats
            digest.update(json.dumps(
                [report.peak_live, stats.evicted, stats.pruned, stats.collections]
            ).encode())
    return digest.hexdigest()


#: SHA-256 of :func:`steps_digest`, recorded when every event rebuilt every
#: level's verdict.  Skipping the level loop on the events no level decides
#: on must leave every step and every monitor gauge as it was.
PINNED_STEPS_DIGEST = "ebf47e5480294f850a064589c886980bfa032315b9df56360ca72d07fe011a09"


class TestPinnedVerdicts:
    def test_steps_match_the_recorded_digest(self):
        assert steps_digest() == PINNED_STEPS_DIGEST


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

    def test_a_steps_verdicts_are_its_own(self):
        """Editing a step's verdicts changes neither the checker's verdicts
        nor the next step's, whether the next event decides or is inert."""
        trace = Trace.from_records(
            [
                record("begin", "w"),
                record("write", "w", var="x", value=1),
                record("write", "w", var="x", value=2),
                record("commit", "w"),
                record("begin", "r"),
                read_record("r", "x", "w", value=2),
                record("commit", "r"),
            ],
            variables=["x"],
            name="all-hold",
        )
        checker = OnlineChecker.from_trace(trace)
        holds = dict.fromkeys(LEVELS, True)
        kinds = set()
        wrote = {}
        for event in trace.events:
            kinds.add(event_kind(event, wrote) in INERT_KINDS)
            step = checker.feed(event)
            assert step.verdicts == holds and step.newly_violated == (), event
            step.verdicts.update(dict.fromkeys(LEVELS, False))
            assert checker.verdicts == holds, event
        assert kinds == {True, False}

    def test_steps_are_immutable(self):
        step = OnlineChecker(["x"]).feed(TraceEvent("begin", "s", 0))
        for name in ("index", "event", "verdicts", "newly_violated", "ok", "other"):
            with pytest.raises(AttributeError):
                setattr(step, name, None)
        assert step.ok and step.index == 0

    def test_unknown_event_type_counts_nothing(self):
        """An unknown op, an unhashable one included, raises before anything
        is counted, through the checker and through the monitor."""
        begin = TraceEvent("begin", "s", 0)
        checker = OnlineChecker(["x"])
        monitor = Monitor(TraceHeader(variables=("x",)), MonitorConfig(isolation="SER"))
        for feed, replayer in (
            (checker.feed, checker.replayer),
            (monitor.feed, monitor.checker.replayer),
        ):
            feed(begin)
            for op in ("bogus", ["bogus"]):
                with pytest.raises(TraceFormatError, match="unknown event type"):
                    feed(TraceEvent(op, "s", 0))
            assert replayer.event_count == 1
        assert checker.steps[-1].index == 0
        assert monitor.stats().events == 1
