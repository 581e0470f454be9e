"""Unit tests for the axiom schema machinery (repro.isolation.axioms)."""

from repro.core import HistoryBuilder
from repro.core.events import INIT_TXN
from repro.isolation.axioms import (
    AXIOMS_BY_LEVEL,
    CAUSAL_AXIOM,
    CONFLICT_AXIOM,
    PREFIX_AXIOM,
    READ_ATOMIC_AXIOM,
    READ_COMMITTED_AXIOM,
    SERIALIZABILITY_AXIOM,
    axiom_instances,
    axioms_hold,
)
from repro.isolation.saturation import IncrementalSaturation


def catalogue_history():
    """w writes x,y; r reads x from w then y from init."""
    b = HistoryBuilder(["x", "y"])
    w = b.txn("w")
    w.write("x", 1)
    w.write("y", 1)
    w.commit()
    r = b.txn("r")
    r.read("x", source=w)
    r.read("y", source=b.init)
    r.commit()
    return b.build(), w.tid, r.tid


class TestAxiomInstances:
    def test_instances_enumerate_conflicting_writers(self):
        h, w, r = catalogue_history()
        instances = list(axiom_instances(h))
        # read(x) from w: other x-writers = {init}; read(y) from init: {w}.
        pairs = {(t1, t2, event.var) for t1, t2, event in instances}
        assert pairs == {(w, INIT_TXN, "x"), (INIT_TXN, w, "y")}

    def test_aborted_transactions_never_instantiate(self):
        b = HistoryBuilder(["x"])
        a = b.txn("a")
        a.write("x", 5)
        a.abort()
        r = b.txn("r")
        r.read("x", source=b.init)
        r.commit()
        h = b.build()
        for t1, t2, _ in axiom_instances(h):
            assert a.tid not in (t1, t2)


class TestPremises:
    def test_rc_premise_requires_po_earlier_observation(self):
        h, w, r = catalogue_history()
        # read(y) (pos 2) is po-after read(x) which observes w ⇒ premise holds.
        read_y = h.txns[r].events[2]
        assert READ_COMMITTED_AXIOM.premise(h, {}, w, read_y)
        # read(x) (pos 1) has no earlier observation of anything.
        read_x = h.txns[r].events[1]
        assert not READ_COMMITTED_AXIOM.premise(h, {}, INIT_TXN, read_x)

    def test_ra_premise_is_one_step(self):
        h, w, r = catalogue_history()
        read_y = h.txns[r].events[2]
        assert READ_ATOMIC_AXIOM.premise(h, {}, w, read_y)  # wr edge w→r

    def test_causal_premise_is_transitive(self):
        b = HistoryBuilder(["x", "y"])
        t1 = b.txn("a")
        t1.write("x", 1)
        t1.commit()
        t2 = b.txn("b")
        t2.read("x", source=t1)
        t2.write("y", 1)
        t2.commit()
        t3 = b.txn("c")
        t3.read("y", source=t2)
        t3.read("x", source=b.init)
        t3.commit()
        h = b.build()
        read_x = h.txns[t3.tid].events[2]
        assert CAUSAL_AXIOM.premise(h, {}, t1.tid, read_x), "t1 →wr t2 →wr t3"
        assert not READ_ATOMIC_AXIOM.premise(h, {}, t1.tid, read_x), "two steps"

    def test_ser_premise_uses_co(self):
        h, w, r = catalogue_history()
        read_y = h.txns[r].events[2]
        co_w_first = {INIT_TXN: 0, w: 1, r: 2}
        co_w_last = {INIT_TXN: 0, r: 1, w: 2}
        assert SERIALIZABILITY_AXIOM.premise(h, co_w_first, w, read_y)
        assert not SERIALIZABILITY_AXIOM.premise(h, co_w_last, w, read_y)

    def test_co_free_flags(self):
        assert READ_COMMITTED_AXIOM.co_free
        assert READ_ATOMIC_AXIOM.co_free
        assert CAUSAL_AXIOM.co_free
        assert not SERIALIZABILITY_AXIOM.co_free
        assert not PREFIX_AXIOM.co_free
        assert not CONFLICT_AXIOM.co_free


class TestAxiomsHold:
    def test_catalogue_history_fails_under_its_only_legal_order(self):
        """(init, w, r) is the only order extending so ∪ wr; all axiom sets
        reject it, hence the history is inconsistent at every level.

        Orders that do not extend so ∪ wr (like (init, r, w)) are never
        consulted by the reference checker, so ``axioms_hold`` alone makes
        no claim about them.
        """
        h, w, r = catalogue_history()
        for axioms in (AXIOMS_BY_LEVEL["RC"], AXIOMS_BY_LEVEL["CC"], AXIOMS_BY_LEVEL["SER"]):
            assert not axioms_hold(h, (INIT_TXN, w, r), axioms)

    def test_empty_axiom_set_always_holds(self):
        h, w, r = catalogue_history()
        assert axioms_hold(h, (INIT_TXN, w, r), AXIOMS_BY_LEVEL["TRUE"])


class TestForcedEdges:
    def test_forced_edges_of_catalogue(self):
        h, w, r = catalogue_history()
        edges = IncrementalSaturation.from_history(h, AXIOMS_BY_LEVEL["RA"]).fired_edges
        assert (w, INIT_TXN) in edges, "w must commit before init — the violation"

    def test_forced_edges_reject_co_dependent_axioms(self):
        import pytest

        h, _, _ = catalogue_history()
        with pytest.raises(ValueError):
            IncrementalSaturation.from_history(h, AXIOMS_BY_LEVEL["SER"])
