"""Per-event witness re-checks against the one-pass re-check
(repro.isolation.serializability, repro.isolation.snapshot,
repro.checking.online).

SER, SI and PC keep the witness of their last search as a *placement*:
positions per transaction, the sorted positions of each variable's
writers, and the latest reader of each (variable, writer).  Def. 2.2 is
existential, so once the witness passes the search's step conditions an
appended event can only break them at the transaction it touches, and the
online checker re-checks each external read and first write there alone.
The contract under test: after every such event, the per-event step
accepts iff the one pass (``place_ser`` / ``place_si`` / ``place_pc``)
accepts the same witness on the new summaries, in both directions, and an
accepted step leaves exactly the placement that pass builds cold.  The
checker's kept placement must equal a cold build of its own witness after
every event, evictions included.
"""

from collections import Counter
from functools import lru_cache

import pytest

from helpers import evicting_stream
from repro.checking.online import OnlineChecker
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import engine_configs, get_engine_config
from repro.isolation.serializability import place_ser
from repro.isolation.snapshot import place_pc, place_si
from repro.isolation.summaries import dense_summaries
from repro.monitor import Monitor, MonitorConfig
from repro.trace import Trace, fuzz_history

PLACE = {"SER": place_ser, "SI": place_si, "PC": place_pc}


def fields(placement):
    """Everything a placement keeps, for equality."""
    return {name: getattr(placement, name) for name in type(placement).__slots__}


def cold_summaries(checker):
    """The search summaries of the checker's prefix, built cold over its
    maintained matrix."""
    return dense_summaries(checker.replayer.history(), checker.causal_matrix)


def cold_placement(checker, level):
    """The checker's witness for ``level``, placed by the one pass on a
    cold build of the checker's current summaries; None when it keeps no
    witness."""
    witness = checker.witness(level)
    if witness is None:
        return None
    index = checker.causal_matrix.index_of
    summaries = cold_summaries(checker)
    placement = PLACE[level]([index(tid) for tid in witness], summaries)
    assert placement is not None, "a kept witness must pass the one pass"
    return placement


def per_event_step(placement, checker, event, var_index):
    """The per-event re-check of ``event`` (already fed) on ``placement``."""
    index = checker.causal_matrix.index_of
    var = var_index[event.var]
    if event.op == "read":
        return placement.external_read(index(event.tid), var, index(event.source_tid))
    return placement.first_write(index(event.tid), var)


def compare_stream(trace, level, monitor=None):
    """Feed ``trace`` at ``level``; around every external read and first
    write that the checker re-checks per event, compare the per-event step
    with the one pass.  Returns the outcomes seen, by event kind."""
    if monitor is None:
        checker = OnlineChecker.from_trace(trace, levels=(level,))
        feed = checker.feed
    else:
        checker = monitor.checker
        feed = monitor.feed
    var_index = {var: v for v, var in enumerate(sorted(trace.header.variables))}
    outcomes = Counter()
    for position, event in enumerate(trace.events):
        context = (trace.header.name, level, position, event)
        before = cold_placement(checker, level)
        if before is not None:
            assert fields(before) == fields(checker._placements[level]), context
        kind = None
        if event.op == "read" and not event.local:
            kind = "external read"
        elif event.op == "write" and event.var not in checker.replayer.visible_writes(event.tid):
            kind = "first write"
        feed(event)
        if before is None or kind is None:
            continue
        step = per_event_step(before, checker, event, var_index)
        full = PLACE[level](before.rows(), cold_summaries(checker))
        assert step == (full is not None), context
        if step:
            assert fields(before) == fields(full), context
        outcomes[kind, step] += 1
    after = cold_placement(checker, level)
    if after is not None:
        assert fields(after) == fields(checker._placements[level])
    return outcomes


def fuzzed_traces():
    return [
        Trace.from_history(fuzz_history(seed, abort_rate=0.1 + 0.05 * (seed % 4)),
                           name=f"fuzz{seed}")
        for seed in range(200)
    ]


def engine_traces():
    """Every engine config, honest and bugged, on hotkeys and on its bug's
    demo workload."""
    traces = []
    for name, config in sorted(engine_configs().items()):
        workloads = ["hotkeys"] + ([f"demo:{config.bug}"] if config.bug else [])
        for workload in workloads:
            for seed in range(4):
                program = workload_program(workload, 2, 4 + 2 * seed, seed)
                traces.append(run_program(program, config, seed=seed).trace)
    return traces


def search_streams():
    """Shaped as perfbench's stream-search streams: serializable-engine
    hotkeys 2×60 and tpcc 2×50 runs, cut to 300 events."""
    config = get_engine_config("serializable")
    traces = []
    for workload, txns in (("hotkeys", 60), ("tpcc", 50)):
        for seed in (11, 12, 13):
            run = run_program(workload_program(workload, 2, txns, seed), config, seed=seed)
            traces.append(run.trace.prefix(300))
    return traces


def overlap_traces():
    """Writers whose witnessed intervals overlap before they conflict.

    w reads x from init after t wrote x, so the SI/PC search starts w while
    t is active: t's and w's intervals overlap, w committing last.  w then
    writes q, and t's first write of q is checked against the next writer
    of q by commit position, w, which starts before t commits."""
    def record(op, session, **extra):
        return {"type": op, "session": session, "txn": 0, **extra}

    records = [
        record("begin", "t"),
        record("begin", "w"),
        record("write", "t", var="x", value=1),
        record("read", "w", var="x", value=0, **{"from": ["__init__", 0]}),
        record("write", "w", var="q", value=2),
        record("write", "t", var="q", value=1),
        record("commit", "t"),
        record("commit", "w"),
    ]
    return [Trace.from_records(records, variables=["q", "x"], name="overlap")]


CORPORA = {
    "fuzzed": fuzzed_traces,
    "engine": engine_traces,
    "stream-search": search_streams,
    "overlap": overlap_traces,
}


@lru_cache(maxsize=None)
def corpus_outcomes(level, corpus):
    """The per-event outcomes over one corpus, compared as they go."""
    outcomes = Counter()
    for trace in CORPORA[corpus]():
        outcomes += compare_stream(trace, level)
    return outcomes


@pytest.mark.parametrize("level", sorted(PLACE))
class TestPerEventStepEqualsOnePass:
    @pytest.mark.parametrize("corpus", sorted(set(CORPORA) - {"overlap"}))
    def test_corpus(self, level, corpus):
        outcomes = corpus_outcomes(level, corpus)
        assert outcomes["external read", True] and outcomes["first write", True]

    def test_overlapping_writers(self, level):
        """w's read fails every witness (t already wrote x).  Of the two
        first writes of q after the search, SI's next-writer test fails t's;
        PC and SER accept both."""
        expected = {("external read", False): 1, ("first write", True): 2}
        if level == "SI":
            expected = {("external read", False): 1, ("first write", True): 1,
                        ("first write", False): 1}
        assert corpus_outcomes(level, "overlap") == expected

    def test_both_verdicts_of_both_kinds(self, level):
        """Across the corpora, each kind of event both passes and fails the
        per-event step, so neither direction of the comparison is vacuous."""
        outcomes = sum((corpus_outcomes(level, corpus) for corpus in CORPORA), Counter())
        for kind in ("external read", "first write"):
            assert outcomes[kind, True] and outcomes[kind, False], (kind, outcomes)

    @pytest.mark.parametrize("seed", range(3))
    def test_evicting_stream(self, level, seed):
        """A tight-GC monitor evicts every few events; the compacted
        placement equals a cold build, and the steps after it agree."""
        trace = evicting_stream(seed)
        monitor = Monitor(
            trace.header, MonitorConfig(isolation=level, window=1, gc_every=1, evict_batch=1)
        )
        outcomes = compare_stream(trace, level, monitor)
        assert monitor.checker.evicted_count > 0
        assert sum(outcomes.values()) > 0
