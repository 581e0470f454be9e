"""Repairs of a broken witness against from-root searches
(repro.checking.online, repro.isolation.search).

When an event breaks the witness SER, SI or PC keeps, the online checker
cuts the witness before the earliest step the event can have broken and
hands that prefix to the level's search.  The search walks the prefix with
its own step conditions, searches from the state reached and, only if that
finds no path, from the root with the same failed-state memo.  The
contract under test: every event is decided exactly as by a checker whose
searches all start at the root; every repaired witness is placed by the
one pass and certified by ``axioms_hold`` (on the long trace at SI and PC
while at most 120 transactions are live); a level flips to violated after
expanding exactly the states one from-root search expands; and on
stream-search-shaped streams the repair serves at least 90% of the
searches that had a witness.  One digest per level pins every decision,
witness and expanded state over the corpora and the long trace.
"""

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

import pytest

import repro.isolation.search as search_module
from helpers import evicting_stream
from repro.checking.online import DECISIONS, OnlineChecker
from repro.core.events import INIT_TXN, TxnId
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import get_engine_config
from repro.isolation import level_spec
from repro.monitor import Monitor, MonitorConfig
from repro.trace import Trace
from test_certificates import commit_order, is_certificate
from test_witness_placement import CORPORA, PLACE, cold_summaries, search_streams

LEVELS = sorted(PLACE)


@contextmanager
def expansions():
    """Counts the states every search expands, and its runs, at
    ``first_path``."""
    counts = Counter()
    first_path = search_module.first_path

    def counting(root, expand, done, failed=None):
        def counted(state):
            counts["states"] += 1
            return expand(state)

        counts["runs"] += 1
        return first_path(root, counted, done, failed)

    search_module.first_path = counting
    try:
        yield counts
    finally:
        search_module.first_path = first_path


@pytest.fixture
def expanded():
    with expansions() as counts:
        yield counts


def from_root(checker):
    """``checker``, made to search from the root on every decision: its
    searches drop the prefix the repair hands them."""
    search = checker._search
    checker._search = lambda name, prefix=(): search(name)
    return checker


def certified(checker, level, axioms=True):
    """Whether the witness ``checker`` keeps for ``level`` is placed by the
    one pass on a cold build of its summaries and, with ``axioms``,
    certifies the live history (Def. 2.2)."""
    witness = checker.witness(level)
    index = checker.causal_matrix.index_of
    if PLACE[level]([index(tid) for tid in witness], cold_summaries(checker)) is None:
        return False
    if not axioms:
        return True
    return is_certificate(checker.replayer.history(), level, commit_order(level, witness))


def compare_with_root(trace, level, expanded, config=None, axioms_up_to=None):
    """Feed ``trace`` at ``level`` to a checker and to a from-root one
    (both inside a monitor under ``config``, if given).  After every event
    the verdicts must agree, a repaired witness must be certified (by
    ``axioms_hold`` only up to ``axioms_up_to`` live transactions, if
    given), and a decision that flips the level to violated must expand as
    many states as the from-root search.  Returns the checker's decisions,
    and under ``"fell_back", verdict`` the fallbacks by their outcome."""
    if config is None:
        checker = OnlineChecker.from_trace(trace, levels=(level,))
        root = from_root(OnlineChecker.from_trace(trace, levels=(level,)))
        feed, feed_root = checker.feed, root.feed
    else:
        monitor, root_monitor = Monitor(trace.header, config), Monitor(trace.header, config)
        checker, root = monitor.checker, from_root(root_monitor.checker)
        feed, feed_root = monitor.feed, root_monitor.feed
    fallbacks = Counter()
    for position, event in enumerate(trace.events):
        context = (trace.header.name, level, position, event)
        before = checker.decisions
        mark = expanded["states"]
        step = feed(event)
        mine = expanded["states"] - mark
        mark = expanded["states"]
        assert step.verdicts == feed_root(event).verdicts, context
        theirs = expanded["states"] - mark
        after = checker.decisions
        if after["repaired"] > before["repaired"]:
            axioms = axioms_up_to is None or len(checker.causal_matrix) <= axioms_up_to
            assert certified(checker, level, axioms), context
        if level in step.newly_violated and after != before:
            assert mine == theirs, context
        if after["fell_back"] > before["fell_back"]:
            fallbacks["fell_back", step.verdicts[level]] += 1
    if config is not None:
        assert checker.evicted_count > 0
    return Counter(checker.decisions) + fallbacks


@lru_cache(maxsize=None)
def corpus_outcomes(level, corpus):
    """:func:`compare_with_root` over one corpus, summed."""
    outcomes = Counter()
    with expansions() as expanded:
        for trace in CORPORA[corpus]():
            outcomes += compare_with_root(trace, level, expanded)
    return outcomes


@pytest.fixture(scope="module")
def long_trace():
    """The hotkeys 2×300 serializable-engine trace (seed 7)."""
    trace = run_program(
        workload_program("hotkeys", 2, 300, 7), get_engine_config("serializable"), seed=7
    ).trace
    assert len(trace) == 2652
    return trace


@pytest.mark.parametrize("level", LEVELS)
class TestRepairDecidesAsTheRoot:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_corpus(self, level, corpus):
        outcomes = corpus_outcomes(level, corpus)
        if corpus != "overlap":
            assert outcomes["repaired"] > 0, outcomes

    @pytest.mark.parametrize("seed", range(3))
    def test_evicting_stream(self, level, seed, expanded):
        config = MonitorConfig(isolation=level, window=1, gc_every=1, evict_batch=1)
        compare_with_root(evicting_stream(seed), level, expanded, config)

    def test_long_trace(self, level, long_trace, expanded):
        """Every repair is placed by the one pass.  ``axioms_hold`` is cubic
        in the transactions at SI and PC (0.5 s at 168, 1.5 s at 239), so
        there it certifies the repairs up to 120 live transactions; at SER
        it certifies every one."""
        decisions = compare_with_root(
            long_trace, level, expanded, axioms_up_to=None if level == "SER" else 120
        )
        assert decisions["repaired"] > 50, decisions

    def test_both_outcomes_are_exercised(self, level):
        """Across the corpora the repair both succeeds and falls back, and
        the fallbacks both find a witness and end in a violation."""
        outcomes = sum((corpus_outcomes(level, corpus) for corpus in CORPORA), Counter())
        assert outcomes["repaired"], outcomes
        assert outcomes["fell_back", True] and outcomes["fell_back", False], outcomes


@pytest.mark.parametrize("level", LEVELS)
def test_repair_serves_most_searches_with_a_witness(level, monkeypatch):
    """On stream-search-shaped streams at least 90% of the searches that had
    a broken witness find a new one through its intact prefix, and every
    decision is counted once, by name."""
    searches = Counter()
    search = OnlineChecker._search

    def counting(checker, name, *args):
        searches[name] += 1
        return search(checker, name, *args)

    monkeypatch.setattr(OnlineChecker, "_search", counting)
    decisions = Counter()
    for trace in search_streams():
        checker = OnlineChecker.from_trace(trace, levels=(level,))
        for event in trace.events:
            checker.feed(event)
        assert set(checker.decisions) == set(DECISIONS)
        decisions += Counter(checker.decisions)
    assert decisions["repaired"] + decisions["fell_back"] + decisions["searched"] == searches[level]
    with_witness = decisions["repaired"] + decisions["fell_back"]
    assert with_witness > 0 and decisions["repaired"] >= 0.9 * with_witness, decisions


def record(op, session, **extra):
    """A trace record of ``session``'s first transaction."""
    return {"type": op, "session": session, "txn": 0, **extra}


def read_record(session, var, source):
    """An external read by ``session`` from ``source``'s first transaction."""
    return record("read", session, var=var, value=1, **{"from": [source, 0]})


def three_writers(w_reads_z):
    """s writes x (and z); w writes x and y; t reads y from w, then x from
    s.  The witness kept before t's read of x places s, w, t in begin
    order; the read breaks it, and the cut keeps init and s.  From there w
    must precede t and follow s, so no completion exists.  Unless
    ``w_reads_z`` (w reads z from s, so s precedes w in every order), the
    order init, w, s, t is a witness."""
    records = [
        record("begin", "s"), record("write", "s", var="x", value=1),
        record("write", "s", var="z", value=1), record("commit", "s"),
        record("begin", "w"),
        *([read_record("w", "z", "s")] if w_reads_z else []),
        record("write", "w", var="x", value=1), record("write", "w", var="y", value=1),
        record("commit", "w"),
        record("begin", "t"), read_record("t", "y", "w"), read_record("t", "x", "s"),
        record("commit", "t"),
    ]
    return Trace.from_records(records, variables=["x", "y", "z"], name="three-writers")


def overwritten_source():
    """s writes x, w overwrites it, and t then reads x from s.  The witness
    kept before the read places s, w, t in begin order; the cut before w,
    the first writer of x after s, lets t go between s and w."""
    records = [
        record("begin", "s"), record("write", "s", var="x", value=1), record("commit", "s"),
        record("begin", "w"), record("write", "w", var="x", value=2), record("commit", "w"),
        record("begin", "t"), read_record("t", "x", "s"), record("commit", "t"),
    ]
    return Trace.from_records(records, variables=["x"], name="overwritten-source")


def feed_until_last_read(trace, level):
    """A checker fed ``trace`` up to, not including, its last read."""
    checker = OnlineChecker.from_trace(trace, levels=(level,))
    last = max(i for i, event in enumerate(trace.events) if event.op == "read")
    for event in trace.events[:last]:
        assert checker.feed(event).verdicts[level]
    assert checker.witness(level) is not None
    return checker, trace.events[last]


@pytest.mark.parametrize("level", LEVELS)
def test_read_repairs_from_before_the_overwriting_writer(level):
    checker, read = feed_until_last_read(overwritten_source(), level)
    before = checker.decisions
    assert checker.feed(read).verdicts[level]
    after = checker.decisions
    assert after["repaired"] == before["repaired"] + 1
    assert after["fell_back"] == before["fell_back"]
    times = 1 if level == "SER" else 2
    cut = (INIT_TXN,) * times + (TxnId("s", 0),) * times
    assert checker.witness(level)[: len(cut)] == cut
    assert certified(checker, level)


@pytest.mark.parametrize("level", LEVELS)
def test_fallback_finds_the_witness_the_prefix_cannot_reach(level):
    checker, read = feed_until_last_read(three_writers(w_reads_z=False), level)
    before = checker.decisions
    assert checker.feed(read).verdicts[level]
    after = checker.decisions
    assert after["fell_back"] == before["fell_back"] + 1
    assert after["repaired"] == before["repaired"]
    order = commit_order(level, checker.witness(level))
    s, w, t = (TxnId(name, 0) for name in "swt")
    assert order == (INIT_TXN, w, s, t)
    assert certified(checker, level)


@pytest.mark.parametrize("level", LEVELS)
def test_violation_exhausts_the_state_space_once(level, expanded):
    """The failed repair's states are memoized for the search from the
    root, so the violated verdict costs exactly one from-root search's
    expansions, in two runs."""
    checker, read = feed_until_last_read(three_writers(w_reads_z=True), level)
    before = checker.decisions
    expanded.clear()
    step = checker.feed(read)
    assert step.newly_violated == (level,)
    assert checker.decisions["fell_back"] == before["fell_back"] + 1
    repaired = Counter(expanded)
    expanded.clear()
    assert level_spec(level).search(checker._summaries.view(checker.causal_matrix)) is None
    assert repaired["runs"] == 2 and expanded["runs"] == 1
    assert repaired["states"] == expanded["states"] > 0


@lru_cache(maxsize=None)
def corpus_traces():
    """Every trace of every corpus, in corpus-name order."""
    return tuple(trace for corpus in sorted(CORPORA) for trace in CORPORA[corpus]())


def decisions_digest(level, traces):
    """Digest the online decisions at ``level`` over ``traces``.

    After every event: its index, verdicts and newly violated levels, and
    the witness the checker keeps; after every trace: the decision counts
    and the states the searches expanded so far.  As JSON, so the digest
    depends on neither ``hash()`` nor a ``repr``.
    """
    digest = hashlib.sha256()
    with expansions() as expanded:
        for trace in traces:
            checker = OnlineChecker.from_trace(trace, levels=(level,))
            for event in trace.events:
                step = checker.feed(event)
                record = [step.index, step.verdicts, step.newly_violated, checker.witness(level)]
                digest.update(json.dumps(record).encode())
            digest.update(json.dumps([checker.decisions, expanded["states"]]).encode())
    return digest.hexdigest()


#: SHA-256 of :func:`decisions_digest` over :func:`corpus_traces` and the
#: long trace, recorded when SER had a commit-order search and a placement
#: of its own.  Deciding SER with the interval search must take the same
#: paths, keep the same witnesses and expand the same states.
PINNED_DIGESTS = {
    "PC": "1192f20a1845c29251c358f9c98b4977f45189d90e7bfbf6feaf34137d696fbc",
    "SER": "52e1c12c81e5de62329dffcca40bcbfac236e2065f17f4431bcce4e653dcecd7",
    "SI": "78a0f3a751e21c466453177a4d50e424a2c57bb6f92541ea1a41317c66385c16",
}


@pytest.mark.parametrize("level", LEVELS)
def test_decisions_match_the_recorded_digest(level, long_trace):
    assert decisions_digest(level, corpus_traces() + (long_trace,)) == PINNED_DIGESTS[level]


def test_a_serial_witness_is_an_si_and_a_pc_schedule():
    """Every SER witness, each row listed twice (started and committed at
    once), passes the SI and the PC step conditions: a serial schedule is
    both."""
    checked = 0
    for trace in corpus_traces():
        checker = OnlineChecker.from_trace(trace, levels=("SER",))
        for event in trace.events:
            checker.feed(event)
            witness = checker.witness("SER")
            if witness is None:
                continue
            index = checker.causal_matrix.index_of
            schedule = [index(tid) for tid in witness for _twice in (0, 1)]
            view = checker._summaries.view(checker.causal_matrix)
            assert PLACE["SI"](schedule, view) is not None, (trace.header.name, event)
            assert PLACE["PC"](schedule, view) is not None, (trace.header.name, event)
            checked += 1
    assert checked > 1000, checked
