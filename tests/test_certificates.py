"""Witnesses of the SER and SI/PC searches, their one-pass re-checks, and
the depth the searches can reach (repro.isolation.serializability,
repro.isolation.snapshot, repro.isolation.search).

Def. 2.2 is existential: a history satisfies SER (SI, PC) iff some total
commit order extending ``so ∪ wr`` passes the level's axioms.  A successful
search returns such an order (for SI and PC a start/commit schedule, whose
commit order it is), so its verdict carries a certificate that
``axioms.axioms_hold`` verifies in polynomial time.  The re-checks re-run a
search's step conditions along a given witness in one pass; the online
checker decides by them before it searches again.
"""

import random
import sys
from itertools import chain

import pytest

from helpers import PAPER_PROGRAMS, random_history
from repro.apps.workloads import record_workload_trace
from repro.core import History, HistoryBuilder
from repro.dpor import explore_ce
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import engine_configs, get_engine_config
from repro.isolation import AXIOMS_BY_LEVEL, ORDER_PREDICATES, get_level, level_spec
from repro.isolation.axioms import axioms_hold
from repro.isolation.reference import topological_orders
from repro.isolation.registry import search_history
from repro.isolation.serializability import place_ser, ser_witness
from repro.isolation.snapshot import (
    pc_witness,
    place_pc,
    place_si,
    schedule_commit_order,
    si_witness,
)
from repro.isolation.summaries import dense_summaries
from repro.trace import fuzz_history, gadget_histories

WITNESSES = {"SER": ser_witness, "SI": si_witness, "PC": pc_witness}
PLACE = {"SER": place_ser, "SI": place_si, "PC": place_pc}


def commit_order(level, witness):
    """The commit order a witness of ``level`` certifies."""
    return tuple(witness) if level == "SER" else schedule_commit_order(witness)


def extends_so_wr(history, order):
    """Whether ``order`` lists every transaction once, after its so ∪ wr
    predecessors (Def. 2.2's other half, which ``axioms_hold`` assumes)."""
    position = {tid: i for i, tid in enumerate(order)}
    if len(position) != len(order) or set(position) != set(history.txns):
        return False
    return all(
        position[a] < position[b]
        for a, b in chain(history.so_pairs(), history.wr_pairs())
        if a != b
    )


def is_certificate(history, level, order):
    """Def. 2.2: ``order`` extends ``so ∪ wr`` and passes ``level``'s axioms."""
    return extends_so_wr(history, order) and axioms_hold(
        history, tuple(order), AXIOMS_BY_LEVEL[level]
    )


def recheck(history, level, witness):
    """Whether ``level``'s one-pass re-check places ``witness`` on
    ``history``'s own summaries."""
    matrix = history.causal_matrix()
    rows = [matrix.index_of(tid) for tid in witness]
    return PLACE[level](rows, dense_summaries(history, matrix)) is not None


def so_wr_successors(history):
    successors = {tid: set() for tid in history.txns}
    for a, b in chain(history.so_pairs(), history.wr_pairs()):
        if a != b:
            successors[a].add(b)
    return successors


def anchored_schedule(history, order, first_committer_wins):
    """A schedule with commit order ``order``: each transaction starts right
    after the commit of its latest so ∪ wr predecessor in ``order`` — for
    SI, also of its latest earlier writer of a common variable.  When
    ``order`` extends so ∪ wr, this schedule passes the interval rules iff
    ``order`` passes the level's axioms (the snapshot module's argument)."""
    position = {tid: i for i, tid in enumerate(order)}
    anchors = {tid: set() for tid in order}
    for a, successors in so_wr_successors(history).items():
        for b in successors:
            anchors[b].add(a)
    if first_committer_wins:
        writes = {tid: set(history.txns[tid].writes()) for tid in order}
        for i, t in enumerate(order):
            anchors[t].update(u for u in order[:i] if writes[u] & writes[t])
    starts_after = {}
    for t in order[1:]:
        anchor = max(anchors[t], key=position.__getitem__)
        starts_after.setdefault(anchor, []).append(t)
    schedule = [order[0]]
    for t in order:
        schedule.append(t)
        schedule.extend(starts_after.get(t, ()))
    return schedule


def random_schedule(rng, order):
    """A schedule with commit order ``order`` and random start points."""
    slots = {t: rng.randrange(i + 1) for i, t in enumerate(order)}
    schedule = []
    for i, t in enumerate(order):
        schedule.extend(u for u in order if slots[u] == i)
        schedule.append(t)
    return schedule


def corpus():
    """Fuzzed, gadget, application and engine histories."""
    histories = [(f"fuzz{seed}", fuzz_history(seed, abort_rate=0.25)) for seed in range(30)]
    histories += sorted(gadget_histories().items())
    for make_program in PAPER_PROGRAMS:
        program = make_program()
        for i, history in enumerate(explore_ce(program, get_level("CC")).histories):
            histories.append((f"{program.name}#{i}", history))
    for app in ("twitter", "shoppingCart"):
        trace = record_workload_trace(app, sessions=2, txns_per_session=2, seed=0,
                                      isolation="CC")
        histories.append((app, trace.to_history(strict=False)))
    for name, config in sorted(engine_configs().items()):
        for seed in range(3):
            run = run_program(workload_program("hotkeys", 2, 4, seed), config, seed=seed)
            histories.append((f"{name}#{seed}", run.trace.to_history(strict=False)))
    return histories


CORPUS = corpus()


def fresh(history):
    """``history`` with cold caches: its own matrix, summaries and searches."""
    return History(history.sessions, history.txns, history.wr)


class TestWitnesses:
    @pytest.mark.parametrize("level", sorted(WITNESSES))
    def test_every_witness_is_a_certificate(self, level):
        found = 0
        for name, history in CORPUS:
            history = fresh(history)
            witness = WITNESSES[level](history)
            assert (witness is not None) == get_level(level).satisfies(history), name
            if witness is None:
                continue
            found += 1
            order = commit_order(level, witness)
            assert is_certificate(history, level, order), name
            assert recheck(history, level, witness), name
            if level != "SER":
                assert sorted(witness) == sorted(order + order), name
        assert found >= 50


class TestCommitOrderSearchPath:
    """PSI's and BS-3's search keeps its path on the same stack: on success
    that path is a commit order their axioms (and BS-3's staleness bound)
    accept."""

    @pytest.mark.parametrize("level", ["PSI", "BS-3"])
    def test_path_is_a_certificate(self, level):
        spec = level_spec(level)
        found = 0
        for name, history in CORPUS:
            history = fresh(history)
            order = search_history(history, spec)
            assert (order is not None) == get_level(level).satisfies(history), name
            if order is None:
                continue
            found += 1
            assert is_certificate(history, level, order), name
            predicate = ORDER_PREDICATES.get(level)
            if predicate is not None:
                assert predicate(history, {tid: i for i, tid in enumerate(order)}), name
        assert found >= 50


class TestRechecks:
    SMALL = [fuzz_history(seed, abort_rate=0.25) for seed in range(25)] + [
        random_history(random.Random(seed), allow_pending=True) for seed in range(15)
    ]

    def test_ser_recheck_equals_axioms_on_every_topological_order(self):
        accepted = rejected = 0
        for history in self.SMALL:
            matrix = history.causal_matrix()
            summaries = dense_summaries(history, matrix)
            for order in topological_orders(so_wr_successors(history)):
                rows = [matrix.index_of(tid) for tid in order]
                holds = axioms_hold(history, order, AXIOMS_BY_LEVEL["SER"])
                assert (place_ser(rows, summaries) is not None) == holds, order
                accepted += holds
                rejected += not holds
        assert accepted and rejected

    @pytest.mark.parametrize("level", ["SI", "PC"])
    def test_schedule_recheck_accepts_only_certified_commit_orders(self, level):
        rng = random.Random(level)
        accepted = rejected = 0
        for history in self.SMALL:
            for order in topological_orders(so_wr_successors(history)):
                holds = axioms_hold(history, order, AXIOMS_BY_LEVEL[level])
                anchored = anchored_schedule(history, order, level == "SI")
                assert recheck(history, level, anchored) == holds, order
                for _ in range(3):
                    schedule = random_schedule(rng, order)
                    if recheck(history, level, schedule):
                        assert holds, schedule
                        accepted += 1
                    else:
                        rejected += 1
        assert accepted and rejected

    def test_recheck_places_unlisted_transactions_last(self):
        """Transactions begun after the witness was found go last, in row
        (begin) order; a witness must cover the leading rows exactly once."""
        b = HistoryBuilder(["x"])
        w = b.txn("s1").write("x", 1).commit()
        b.txn("s2").read("x", source=w).commit()
        history = b.build()
        matrix = history.causal_matrix()
        summaries = dense_summaries(history, matrix)
        init, writer, reader = (matrix.index_of(tid) for tid in matrix.nodes)
        assert place_ser([init], summaries) is not None
        assert place_ser([init, writer], summaries) is not None
        assert place_ser([init, reader], summaries) is None
        assert place_ser([init, writer, writer], summaries) is None
        assert place_si([init, init], summaries) is not None
        assert place_si([init, init, writer, writer], summaries) is not None
        assert place_si([init, init, writer], summaries) is None


class TestCorruptedWitnesses:
    """One corruption makes a witness fail both its re-check and the
    certificate check."""

    @staticmethod
    def history():
        """w1 writes x and y, w2 writes x, r reads x from w2 and y from w1."""
        b = HistoryBuilder(["x", "y"])
        w1 = b.txn("s1").write("x", 1).write("y", 1).commit()
        w2 = b.txn("s2").write("x", 2).commit()
        r = b.txn("s3").read("x", source=w2).read("y", source=w1).commit()
        return b.build(), w1.tid, w2.tid, r.tid

    @pytest.mark.parametrize("level", sorted(WITNESSES))
    def test_adjacent_swap_breaks_the_axioms(self, level):
        history, w1, w2, r = self.history()
        witness = WITNESSES[level](history)
        assert witness is not None and recheck(history, level, witness)
        order = commit_order(level, witness)
        assert order.index(w2) == order.index(w1) + 1
        # Swap the two writers: r's snapshot now ends with w1's x.
        swapped = tuple({w1: w2, w2: w1}.get(tid, tid) for tid in witness)
        corrupted = commit_order(level, swapped)
        assert not recheck(history, level, swapped)
        assert extends_so_wr(history, corrupted)
        assert not axioms_hold(history, corrupted, AXIOMS_BY_LEVEL[level])

    @pytest.mark.parametrize("level", sorted(WITNESSES))
    def test_reader_before_its_source(self, level):
        """Moving r before its source w2 breaks the extension of so ∪ wr,
        the half of Def. 2.2 that ``axioms_hold`` does not inspect."""
        history, w1, w2, r = self.history()
        witness = list(WITNESSES[level](history))
        rest = [tid for tid in witness if tid != r]
        at = rest.index(w2)
        moved = rest[:at] + [r] * (1 if level == "SER" else 2) + rest[at:]
        assert not recheck(history, level, moved)
        assert not is_certificate(history, level, commit_order(level, moved))

    @pytest.mark.parametrize("level", sorted(WITNESSES))
    def test_adjacent_swaps_over_the_corpus(self, level):
        """Every adjacent swap of a witness's commit order: SER's re-check
        rejects exactly the swaps that are no certificate; SI's and PC's
        accept only certificates."""
        broken = 0
        for name, history in CORPUS:
            witness = WITNESSES[level](history)
            if witness is None:
                continue
            order = commit_order(level, witness)
            for a, b in zip(order[1:], order[2:]):
                swapped = [{a: b, b: a}.get(tid, tid) for tid in witness]
                certified = is_certificate(history, level, commit_order(level, swapped))
                rechecked = recheck(history, level, swapped)
                if level == "SER":
                    assert rechecked == certified, (name, a, b)
                else:
                    assert certified or not rechecked, (name, a, b)
                broken += not certified
        assert broken >= 50


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestSearchDepth:
    """The searches keep their path on the heap: a 123-transaction history
    needs no interpreter recursion proportional to its length."""

    @pytest.fixture(scope="class")
    def long_history(self):
        run = run_program(
            workload_program("hotkeys", 2, 60, 7), get_engine_config("serializable"), seed=7
        )
        history = run.trace.to_history(strict=False)
        assert len(history.txns) == 123
        return history

    @pytest.mark.parametrize("level", ["SER", "SI", "PC", "PSI", "BS-3"])
    def test_checks_run_within_sixty_frames(self, level, long_history):
        history = fresh(long_history)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            holds = get_level(level).satisfies(history)
        finally:
            sys.setrecursionlimit(limit)
        assert holds
