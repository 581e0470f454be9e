"""Tests for causal extensibility (paper §3.2, Theorem 3.4, Fig. 6).

Causal extensibility — every (so ∪ wr)+-maximal pending transaction can be
extended with any event while preserving consistency — is what lets
``explore-ce`` avoid fruitless explorations.  We verify it empirically for
RC/RA/CC on random histories and reproduce the paper's Fig. 5/Fig. 6
counterexamples showing SI and SER are *not* causally extensible.
"""

import random

from repro.core import HistoryBuilder
from repro.core.events import Event, EventId, EventType
from repro.isolation import get_level

from tests.helpers import causally_before_eq, maximal_in_causal_order


def _extend_with_write(history, tid, var, value):
    log = history.txns[tid]
    eid = EventId(tid, len(log.events))
    return history.append_event(tid.session, Event(eid, EventType.WRITE, var, value))


def _causal_read_extensions(history, tid, var):
    """All causal extensions of pending ``tid`` with a read of ``var``."""
    log = history.txns[tid]
    eid = EventId(tid, len(log.events))
    out = []
    for writer in history.txns.values():
        if not writer.is_committed or not writer.writes_var(var):
            continue
        if not causally_before_eq(history, writer.tid, tid):
            continue
        extended = history.append_event(
            tid.session, Event(eid, EventType.READ, var, writer.writes()[var].value)
        )
        out.append(extended.add_wr(writer.tid, eid))
    return out


class TestFig5:
    """The RA examples of Fig. 5 (extensible vs. non-extensible)."""

    def build(self, with_second_writes: bool):
        b = HistoryBuilder(["x", "y"])
        w = b.txn("right")
        w.write("x", 2)
        if with_second_writes:
            w.write("y", 2)
        w.commit()
        r = b.txn("bottom")
        r.read("x", source=w)
        return b, r, w

    def test_maximal_pending_transaction_extends(self):
        """Fig. 5(a): the pending reader (causally maximal) can read y."""
        b, r, _ = self.build(with_second_writes=False)
        h = b.build(auto_commit=False)
        ra = get_level("RA")
        assert ra.satisfies(h)
        extensions = _causal_read_extensions(h, r.tid, "y")
        assert any(ra.satisfies(x) for x in extensions)

    def test_non_maximal_pending_cannot_always_extend(self):
        """Fig. 5(b): extending the *non-maximal* writer breaks RA.

        The writer (read by the bottom transaction) is pending and not
        (so ∪ wr)+-maximal; adding write(y, 2) to it makes the bottom
        transaction's read of y from init fractured.
        """
        b = HistoryBuilder(["x", "y"])
        w = b.txn("right")
        w.write("x", 2)
        r = b.txn("bottom")
        r.read("x", source=w)
        r.read("y", source=b.init)
        r.commit()
        h = b.build(auto_commit=False)  # w stays pending
        ra = get_level("RA")
        assert ra.satisfies(h)
        extended = _extend_with_write(h, w.tid, "y", 2)
        assert not ra.satisfies(extended)


class TestFig6:
    """SI and SER are not causally extensible (Fig. 6)."""

    def build(self):
        b = HistoryBuilder(["x", "y", "z"])
        left = b.txn("left")
        left.write("z", 1)
        left.read("x", source=b.init)
        left.write("y", 1)
        left.commit()
        right = b.txn("right")
        right.write("z", 2)
        right.read("y", source=b.init)
        return b, right

    def test_counterexample(self):
        b, right = self.build()
        h = b.build(auto_commit=False)  # right pending, causally maximal
        for name in ("SI", "SER"):
            level = get_level(name)
            assert level.satisfies(h), f"base history should satisfy {name}"
            extended = _extend_with_write(h, right.tid, "x", 2)
            assert not level.satisfies(extended), f"{name} should reject the extension"

    def test_cc_tolerates_the_same_extension(self):
        """The same extension stays CC-consistent (the paper's remark)."""
        b, right = self.build()
        h = b.build(auto_commit=False)
        extended = _extend_with_write(h, right.tid, "x", 2)
        assert get_level("CC").satisfies(extended)


class TestRandomizedCausalExtensibility:
    """Theorem 3.4 on random consistent histories."""

    def test_read_extensions_of_maximal_pending(self):
        from tests.helpers import random_history

        rng = random.Random(99)
        tested = 0
        for _ in range(200):
            h = random_history(rng, allow_pending=True)
            pending = [t for t in h.pending_transactions() if maximal_in_causal_order(h, t.tid)]
            if not pending:
                continue
            tid = pending[0].tid
            for name in ("RC", "RA", "CC"):
                level = get_level(name)
                if not level.satisfies(h):
                    continue
                for var in ("x", "y"):
                    if h.txns[tid].writes_var(var):
                        continue  # would be a local read
                    extensions = _causal_read_extensions(h, tid, var)
                    if not extensions:
                        continue
                    tested += 1
                    assert any(level.satisfies(x) for x in extensions), (name, var)
        assert tested > 20, "the sweep should exercise a fair number of cases"
