"""Unit tests for ComputeReorderings and Swap (repro.dpor.swaps)."""

from repro.core import is_prefix
from repro.core.events import EventType, TxnId
from repro.core.ordered_history import OrderedHistory
from repro.dpor.swaps import compute_reorderings, doomed_events, swap
from repro.isolation import get_level
from repro.semantics import apply_action, next_action, valid_writes

from tests.helpers import causally_before_eq, fig10_program, fig12_program

CC = get_level("CC")


def run_next(program, oh, pick=0):
    """Apply one Next step, taking the pick-th valid write for reads."""
    action = next_action(program, oh.history)
    assert action is not None
    if action.is_external_read:
        writer, _ = valid_writes(oh.history, action, CC)[pick]
        return apply_action(oh, action, writer)
    return apply_action(oh, action)


def drive_all(program, picks=()):
    """Drive Next to completion; ``picks`` supplies read choices in order."""
    oh = OrderedHistory.initial(program.initial_history())
    picks = list(picks)
    while next_action(program, oh.history) is not None:
        action = next_action(program, oh.history)
        pick = picks.pop(0) if (action.is_external_read and picks) else 0
        oh = run_next(program, oh, pick)
    return oh


class TestComputeReorderings:
    def test_empty_unless_last_event_is_commit(self):
        p = fig10_program()
        oh = OrderedHistory.initial(p.initial_history())
        oh = run_next(p, oh)  # begin reader
        assert compute_reorderings(oh) == []
        oh = run_next(p, oh)  # read x (reads from init)
        assert compute_reorderings(oh) == []

    def test_pairs_for_last_committed_writer(self):
        """After the writer commits, both reader reads are swap candidates."""
        p = fig10_program()
        oh = drive_all(p)  # reader first (oracle order), then writer
        assert oh.last_event().type is EventType.COMMIT
        pairs = compute_reorderings(oh)
        writer = TxnId("writer", 0)
        assert {t for _, t in pairs} == {writer}
        read_vars = sorted(oh.history.event(r).var for r, _ in pairs)
        assert read_vars == ["x", "y"]

    def test_causally_related_transactions_not_swapped(self):
        """A read that already reads from the committing txn is not a pair."""
        p = fig12_program()
        # Drive far enough that r1 reads from w1, then w2 commits last.
        oh = drive_all(p, picks=[1, 0])  # r1 reads w1, r2 reads init
        pairs = compute_reorderings(oh)
        for read, target in pairs:
            assert not causally_before_eq(oh.history, read.txn, target)

    def test_aborted_target_has_no_pairs(self):
        from repro.lang import L, ProgramBuilder, abort

        p = ProgramBuilder("abt")
        p.session("r").transaction().read("a", "x")
        t = p.session("w").transaction()
        t.read("b", "x").write("x", 5).abort()
        prog = p.build()
        oh = drive_all(prog)
        # Last completed transaction aborted: no visible writes, no swaps.
        assert oh.history.txns[TxnId("w", 0)].is_aborted
        assert compute_reorderings(oh) == []

    def test_pairs_sorted_by_read_position(self):
        p = fig10_program()
        oh = drive_all(p)
        pairs = compute_reorderings(oh)
        indexes = [oh.index(r) for r, _ in pairs]
        assert indexes == sorted(indexes)


class TestSwap:
    def swap_first_pair(self, program, picks=()):
        oh = drive_all(program, picks)
        pairs = compute_reorderings(oh)
        assert pairs, "expected at least one reordering"
        read, target = pairs[0]
        return oh, read, target, swap(oh, read, target)

    def test_swapped_read_reads_from_target(self):
        p = fig10_program()
        oh, read, target, swapped = self.swap_first_pair(p)
        assert swapped.history.wr[read] == target
        value = swapped.history.event(read).value
        assert value == swapped.history.visible_write_value(target, "x")

    def test_result_without_read_is_prefix_of_original(self):
        """Condition (2) of §4: h' minus the re-ordered read prefixes h."""
        p = fig10_program()
        oh, read, target, swapped = self.swap_first_pair(p)
        pruned = swapped.history.remove_events({read})
        assert is_prefix(pruned, oh.history)

    def test_reader_transaction_moves_to_end(self):
        p = fig10_program()
        oh, read, target, swapped = self.swap_first_pair(p)
        tail = [e.txn for e in swapped.order[-len(swapped.history.txns[read.txn].events):]]
        assert set(tail) == {read.txn}
        assert swapped.order[-1] == read

    def test_single_pending_transaction_after_swap(self):
        p = fig10_program()
        oh, read, target, swapped = self.swap_first_pair(p)
        pending = swapped.history.pending_transactions()
        assert [log.tid for log in pending] == [read.txn]
        swapped.validate()

    def test_target_causal_past_retained(self):
        p = fig12_program()
        oh, read, target, swapped = self.swap_first_pair(p)
        assert target in swapped.history.txns
        for tid in swapped.history.txns:
            log = swapped.history.txns[tid]
            if tid != read.txn:
                assert log.is_complete

    def test_doomed_events_strict_vs_inclusive(self):
        p = fig10_program()
        oh = drive_all(p)
        pairs = compute_reorderings(oh)
        read, target = pairs[0]
        strict = doomed_events(oh, read, target, strict=True)
        inclusive = doomed_events(oh, read, target, strict=False)
        assert read not in strict
        assert read in inclusive
        assert strict | {read} == inclusive

    def test_events_after_read_outside_causal_past_deleted(self):
        p = fig10_program()
        oh, read, target, swapped = self.swap_first_pair(p)
        for eid in oh.order:
            if oh.before(read, eid) and not causally_before_eq(oh.history, eid.txn, target):
                assert not swapped.history.has_event(eid) or eid.txn == read.txn
