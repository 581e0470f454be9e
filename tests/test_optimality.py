"""Unit tests for the Optimality condition, ``swapped`` and ``readLatest``
(repro.dpor.optimality), driven by the paper's Figs. 12 and 13 scenarios,
plus a differential sweep against the paper-literal definitions.
"""

import random
from collections import Counter

import pytest

import repro.dpor.explore as explore_module
from repro.apps import APPLICATIONS, client_program
from repro.core.events import EventType, TxnId
from repro.core.ordered_history import OrderedHistory
from repro.dpor.explore import SwappingExplorer
from repro.dpor.optimality import is_swapped, optimality, read_latest
from repro.dpor.swaps import compute_reorderings, doomed_events, swap
from repro.isolation import get_level
from repro.semantics.scheduler import NextAction, extend_history

from tests.helpers import PAPER_PROGRAMS, fig12_program, fig13_program, random_program
from tests.test_swaps import drive_all

CC = get_level("CC")


class TestIsSwapped:
    def test_oracle_order_reads_are_not_swapped(self):
        """Reads produced by plain Next (no swaps) are never 'swapped'."""
        p = fig12_program()
        oh = drive_all(p)
        for read in oh.history.reads():
            assert not is_swapped(p, oh, read.eid)

    def test_swap_marks_the_read(self):
        p = fig12_program()
        oh = drive_all(p)
        pairs = compute_reorderings(oh)
        read, target = pairs[0]
        swapped_oh = swap(oh, read, target)
        assert is_swapped(p, swapped_oh, read)

    def test_reads_from_init_never_swapped(self):
        """init precedes everything in the oracle order, so condition (1)
        (source after the read in oracle order) can never hold."""
        p = fig12_program()
        oh = drive_all(p)  # all reads read from init on the default drive...
        for read in oh.history.reads():
            if oh.history.wr[read.eid].is_init:
                assert not is_swapped(p, oh, read.eid)


class TestReadLatestFig12:
    """Fig. 12: swaps only fire from the branch where deleted reads read
    from the causally-latest valid write."""

    def setup_histories(self):
        p = fig12_program()
        # Branch A: both reads read from init; Branch B: r2 reads from w1.
        branch_a = drive_all(p, picks=[0, 0])
        branch_b = drive_all(p, picks=[0, 1])
        return p, branch_a, branch_b

    def test_only_latest_branch_enables_swap(self):
        """§5.3: "re-ordering is enabled only when the second read(x) reads
        from the initial write" — w1 is not in r2's causal past once r2's
        own wr dependency is excluded, so init is the causally-latest valid
        write for the deleted read."""
        p, branch_a, branch_b = self.setup_histories()
        w2 = TxnId("w2", 0)

        def first_read_pair(oh):
            pairs = compute_reorderings(oh)
            return [pr for pr in pairs if oh.history.event(pr[0]).var == "x"][0]

        # Branch A: r2 reads init (the latest write in its causal past) —
        # swapping the *first* read (which deletes r2's read) is enabled.
        read_a, _ = first_read_pair(branch_a)
        ok_a, _ = optimality(p, branch_a, read_a, w2, CC)
        # Branch B: r2 reads w1, which is *outside* its causal past — the
        # same swap is suppressed there, avoiding the Fig. 12(e) duplicate.
        read_b, _ = first_read_pair(branch_b)
        ok_b, _ = optimality(p, branch_b, read_b, w2, CC)
        assert ok_a and not ok_b

    def test_read_latest_predicate_directly(self):
        p, branch_a, branch_b = self.setup_histories()
        w2 = TxnId("w2", 0)
        r2_a = [r for r in branch_a.history.reads() if r.eid.txn == TxnId("r2", 0)][0]
        r2_b = [r for r in branch_b.history.reads() if r.eid.txn == TxnId("r2", 0)][0]
        assert read_latest(branch_a, r2_a.eid, w2, CC)
        assert not read_latest(branch_b, r2_b.eid, w2, CC)


class TestSwappedBlocksReswap:
    """Fig. 13: a read moved by a swap cannot be deleted by a later swap."""

    def test_swapped_read_disables_second_swap(self):
        p = fig13_program()
        # Drive to the state right after t3 (the y writer) commits.
        from repro.semantics import next_action
        from tests.test_swaps import run_next

        oh = OrderedHistory.initial(p.initial_history())
        while True:
            oh = run_next(p, oh)
            if oh.last_event().type.value == "commit" and oh.last.txn == TxnId("s3", 0):
                break
        pairs = compute_reorderings(oh)
        read_y = [pr for pr in pairs if oh.history.event(pr[0]).var == "y"][0]
        ok, swapped_oh = optimality(p, oh, read_y[0], read_y[1], CC)
        assert ok
        # Extend the swapped branch until t4 commits, then try swapping
        # t1's read of x with t4: the history contains the swapped read of y,
        # which would be deleted — Optimality must refuse.
        oh2 = swapped_oh
        while True:
            action = next_action(p, oh2.history)
            if action is None:
                break
            oh2 = run_next(p, oh2)
        pairs2 = compute_reorderings(oh2)
        x_pairs = [pr for pr in pairs2 if oh2.history.event(pr[0]).var == "x"]
        assert x_pairs, "t4 commits last; t1's read of x is a candidate"
        read_x, t4 = x_pairs[0]
        ok2, _ = optimality(p, oh2, read_x, t4, CC)
        assert not ok2, "re-swapping over an already-swapped read must be blocked"


class TestOptimalityGlobalEffect:
    """End-to-end: the Optimality condition is what removes duplicates."""

    def test_fig12_duplicates_without_restriction(self):
        """The restrict_swaps=False ablation swaps whenever consistent."""
        p = fig12_program()
        crippled = SwappingExplorer(p, CC, restrict_swaps=False, timeout=20).run()
        assert crippled.histories.duplicates > 0, "restriction removed ⇒ duplicates appear"

    def test_ablation_remains_sound_and_complete(self):
        from repro.dpor import explore_ce

        p = fig12_program()
        crippled = SwappingExplorer(p, CC, restrict_swaps=False, timeout=20).run()
        optimal = explore_ce(p, "CC")
        assert set(crippled.histories.keys()) == set(optimal.histories.keys())

    def test_fig12_no_duplicates_with_restriction(self):
        from repro.dpor import explore_ce

        result = explore_ce(fig12_program(), "CC")
        assert result.histories.duplicates == 0


# -- differential sweep against the paper-literal definitions ---------------------

#: The four ways readLatest can come out, by what the reader's causal past
#: in the pruned history holds.
OUTSIDE = "source outside the past"
NO_LATER = "no later writer"
LATER_INCONSISTENT = "later writers all inconsistent"
LATER_CONSISTENT = "a later writer consistent"


def reference_read_latest(oh, read, target, level):
    """The paper-literal ``readLatest``, and which of the four outcomes it hit.

    Prunes ``h`` to ``h'`` with ``remove_events``, warms its state, checks
    every committed writer of ``var(r')`` in the reader's causal past in
    ``h'`` and takes the ``<``-latest consistent one.
    """
    history = oh.history
    current_source = history.wr[read]
    pruned = history.remove_events(doomed_events(oh, read, target, strict=False))
    pruned_matrix = pruned.causal_matrix()
    level.satisfies(pruned)
    reader = read.txn
    var = history.event(read).var
    in_past, consistent = [], []
    for log in pruned.committed_transactions():
        if not log.writes_var(var) or not pruned_matrix.reaches_reflexive(log.tid, reader):
            continue
        in_past.append(log.tid)
        action = NextAction(EventType.READ, reader, var)
        if level.satisfies(extend_history(pruned, action, writer=log.tid)):
            consistent.append(log.tid)
    best = max(consistent, key=oh.txn_position, default=None)
    if current_source not in in_past:
        return best == current_source, OUTSIDE
    # Prefix closure: reading from the current source is always consistent.
    assert current_source in consistent, (read, current_source)
    source_pos = oh.txn_position(current_source)
    later = [tid for tid in in_past if oh.txn_position(tid) > source_pos]
    if not later:
        outcome = NO_LATER
    elif any(tid in consistent for tid in later):
        outcome = LATER_CONSISTENT
    else:
        outcome = LATER_INCONSISTENT
    return best == current_source, outcome


def affected_reads(oh, read, target):
    doomed = doomed_events(oh, read, target, strict=True)
    return [read] + [e.eid for e in oh.history.reads() if e.eid in doomed]


def reference_optimality(program, oh, read, target, level):
    """Optimality with the swap and its consistency check first, then
    ``¬swapped`` and the paper-literal ``readLatest`` read by read."""
    swapped_oh = swap(oh, read, target)
    if not level.satisfies(swapped_oh.history):
        return False, None
    for eid in affected_reads(oh, read, target):
        if is_swapped(program, oh, eid):
            return False, None
        if not reference_read_latest(oh, eid, target, level)[0]:
            return False, None
    return True, swapped_oh


def differential_corpus():
    """(label, program, level name) for every exploration of the sweep."""
    for make in PAPER_PROGRAMS:
        for level in ("RC", "RA", "CC"):
            yield make.__name__, make(), level
    rng = random.Random(20230916)
    for seed in range(150):
        program = random_program(rng, f"rand{seed}")
        for level in ("RC", "RA", "CC"):
            yield program.name, program, level
    for app in APPLICATIONS:
        yield app, client_program(app, 2, 2, 0), "CC"


@pytest.fixture(scope="module")
def sweep():
    """Explore the corpus, checking each Optimality call against the reference.

    Every affected read of every swap candidate gets both ``read_latest``
    and the reference, whether or not Optimality reaches it.
    """
    record = {"read_latest": 0, "optimality": 0, "enabled": 0, "mismatches": []}
    outcomes = {level: Counter() for level in ("RC", "RA", "CC")}
    current = {}

    def checked(program, oh, read, target, level):
        got = optimality(program, oh, read, target, level)
        want = reference_optimality(program, oh, read, target, level)
        record["optimality"] += 1
        where = (current["label"], level.name, read, target)
        if got[0] != want[0]:
            record["mismatches"].append(("optimality", where, got[0], want[0]))
        elif got[0]:
            record["enabled"] += 1
            if (got[1].history.canonical_key(), got[1].order) != (
                want[1].history.canonical_key(),
                want[1].order,
            ):
                record["mismatches"].append(("swap", where))
        for eid in affected_reads(oh, read, target):
            answer = read_latest(oh, eid, target, level)
            expected, outcome = reference_read_latest(oh, eid, target, level)
            record["read_latest"] += 1
            outcomes[level.name][outcome] += 1
            if answer != expected:
                record["mismatches"].append(("read_latest", where, eid, answer, expected))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explore_module, "optimality", checked)
        for label, program, level in differential_corpus():
            current["label"] = label
            SwappingExplorer(program, get_level(level), collect_histories=False).run()
    record["outcomes"] = outcomes
    return record


class TestDifferentialAgainstPaperLiteral:
    def test_read_latest_answers_agree(self, sweep):
        assert sweep["read_latest"] > 1000
        assert not [m for m in sweep["mismatches"] if m[0] == "read_latest"]

    def test_optimality_verdicts_agree(self, sweep):
        assert sweep["optimality"] > 1000 and sweep["enabled"] > 0
        assert not [m for m in sweep["mismatches"] if m[0] == "optimality"]

    def test_enabled_swaps_agree(self, sweep):
        assert not [m for m in sweep["mismatches"] if m[0] == "swap"]

    def test_sweep_reaches_all_four_outcomes(self, sweep):
        reached = sum(sweep["outcomes"].values(), Counter())
        for outcome in (OUTSIDE, NO_LATER, LATER_INCONSISTENT, LATER_CONSISTENT):
            assert reached[outcome] > 0, (outcome, dict(reached))
