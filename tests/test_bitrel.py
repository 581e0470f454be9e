"""Tests for the bitset relation engine (repro.core.bitrel).

Two halves:

* property-style cross-checks of :class:`RelationMatrix` against the naive
  dict-of-set DFS reference on random DAGs and cyclic graphs, including
  incremental ``add_edge`` vs. full-recompute equivalence, on small graphs
  and on universes around the 64-bit word of a row, and random
  interleavings of all four mutators (``add_node``, ``add_edge``,
  ``remove_nodes``, ``retract_edges``) growing through 64 and 128 nodes;
* "single construction per check" regressions: the saturation, SER, SI and
  DPOR call sites must reuse a history's cached matrix instead of
  rebuilding adjacency per query (tracked via ``RelationMatrix.full_builds``).
"""

import random

import pytest

from repro.core.bitrel import RelationMatrix
from repro.isolation import get_level
from repro.isolation.axioms import AXIOMS_BY_LEVEL
from repro.isolation.saturation import satisfies_by_saturation
from repro.isolation.serializability import satisfies_ser
from repro.isolation.snapshot import satisfies_si
from repro.semantics.scheduler import next_action, valid_writes

from tests.helpers import fig8_program, fig12_program, random_history

# Naive references, deliberately independent of RelationMatrix.


def naive_reachable(adj, start):
    seen, stack = set(), list(adj[start])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adj[node])
    return seen


def naive_closure(adj):
    return {node: naive_reachable(adj, node) for node in adj}


def naive_acyclic(adj):
    return all(node not in naive_reachable(adj, node) for node in adj)


def so_wr_adjacency(history):
    """The history's ``so ∪ wr`` as a dict-of-set adjacency."""
    adj = {tid: set() for tid in history.txns}
    for src, dst in (*history.so_pairs(), *history.wr_pairs()):
        if src != dst:
            adj[src].add(dst)
    return adj


#: Universe sizes around the 64-bit word of a row.
BOUNDARY_SIZES = (63, 64, 65, 66, 130)


def graph_sizes(small):
    """``small`` random small sizes (``None``), then :data:`BOUNDARY_SIZES`."""
    return [None] * small + list(BOUNDARY_SIZES)


def random_graph(rng, cyclic_ok=True, n=None):
    """``n`` nodes (default: a random 1–13) and up to ``2n`` random edges
    (``n`` forward edges when ``cyclic_ok`` is false)."""
    if n is None:
        n = rng.randrange(1, 14)
    limit = 2 * n if cyclic_ok else n
    edges = set()
    for _ in range(rng.randrange(0, limit)):
        u, v = rng.randrange(n), rng.randrange(n)
        if not cyclic_ok and u >= v:
            continue  # forward edges only → DAG
        edges.add((u, v))
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
    return n, sorted(edges), adj


class TestCrossChecks:
    @pytest.mark.parametrize("cyclic_ok", [False, True], ids=["dags", "cyclic"])
    def test_matches_naive_on_random_graphs(self, cyclic_ok):
        rng = random.Random(20230729 + cyclic_ok)
        for size in graph_sizes(200):
            n, edges, adj = random_graph(rng, cyclic_ok, size)
            matrix = RelationMatrix(range(n), edges)
            assert matrix.transitive_closure() == naive_closure(adj)
            assert matrix.is_acyclic() == naive_acyclic(adj)
            for node in range(n):
                assert matrix.descendants(node) == naive_reachable(adj, node)
                assert matrix.ancestors(node) == {
                    other for other in adj if node in naive_reachable(adj, other)
                }

    def test_incremental_add_edge_equals_full_recompute(self):
        rng = random.Random(42)
        for size in graph_sizes(150):
            n, edges, _adj = random_graph(rng, n=size)
            rng.shuffle(edges)
            incremental = RelationMatrix(range(n))
            for step, (u, v) in enumerate(edges):
                expected_cycle = incremental.would_close_cycle(u, v)
                incremental.add_edge(u, v)
                rebuilt = RelationMatrix(range(n), edges[: step + 1])
                assert incremental.transitive_closure() == rebuilt.transitive_closure()
                assert incremental.is_acyclic() == rebuilt.is_acyclic()
                if expected_cycle:
                    assert not incremental.is_acyclic()

    def test_reaches_and_reflexive(self):
        matrix = RelationMatrix("abc", [("a", "b"), ("b", "c")])
        assert matrix.reaches("a", "c") and not matrix.reaches("c", "a")
        assert not matrix.reaches("a", "a")
        assert matrix.reaches_reflexive("a", "a")

    def test_self_loop_and_cycle_flags(self):
        matrix = RelationMatrix(range(3), [(0, 1)])
        assert matrix.is_acyclic()
        assert matrix.would_close_cycle(1, 1)
        assert matrix.would_close_cycle(1, 0)
        assert not matrix.would_close_cycle(1, 2)
        matrix.add_edge(1, 0)
        assert not matrix.is_acyclic()
        assert matrix.reaches(0, 0)

    def test_redundant_edge_reports_no_change(self):
        matrix = RelationMatrix(range(3), [(0, 1), (1, 2)])
        assert matrix.add_edge(0, 2) is False, "edge already in the closure"
        assert matrix.add_edge(2, 0) is True

    def test_cached_history_matrix_is_frozen(self):
        rng = random.Random(5)
        history = random_history(rng)
        cached = history.causal_matrix()
        tids = list(history.txns)
        with pytest.raises(ValueError, match="frozen"):
            cached.add_edge(tids[0], tids[-1])
        cached.copy().add_edge(tids[0], tids[-1])  # copies stay mutable
        assert history.causal_matrix() is cached

    def test_copy_is_independent(self):
        base = RelationMatrix(range(3), [(0, 1)])
        dup = base.copy()
        dup.add_edge(1, 2)
        assert dup.reaches(0, 2)
        assert not base.reaches(0, 2)
        assert base.transitive_closure() == RelationMatrix(range(3), [(0, 1)]).transitive_closure()

    def test_masks_roundtrip(self):
        matrix = RelationMatrix("xyz")
        mask = matrix.mask_of("xz")
        assert matrix.nodes_of_mask(mask) == {"x", "z"}
        assert matrix.index_of("y") == 1 and matrix.node_at(1) == "y"
        assert "y" in matrix and "w" not in matrix
        assert len(matrix) == 3

    def test_rejects_dangling_edges_and_duplicates(self):
        with pytest.raises(ValueError):
            RelationMatrix([1, 2], [(1, 3)])
        with pytest.raises(ValueError):
            RelationMatrix([1, 1])


class TestSingleConstructionPerCheck:
    """The checkers must not rebuild the so∪wr relation per query."""

    def fresh_history(self, seed=7):
        rng = random.Random(seed)
        history = random_history(rng)
        history.causal_matrix()  # warm the per-history cache
        return history

    def builds(self):
        return RelationMatrix.full_builds

    def test_saturation_builds_nothing_on_warm_history(self):
        history = self.fresh_history()
        for level in ("RC", "RA", "CC"):
            before = self.builds()
            satisfies_by_saturation(history, AXIOMS_BY_LEVEL[level])
            assert self.builds() == before, f"{level} saturation rebuilt the relation"

    def test_ser_and_si_build_nothing_on_warm_history(self):
        history = self.fresh_history()
        before = self.builds()
        satisfies_ser(history)
        satisfies_si(history)
        assert self.builds() == before

    def test_cold_check_builds_exactly_once(self):
        from repro.core import History

        rng = random.Random(11)
        warm = random_history(rng)
        history = History(warm.sessions, warm.txns, warm.wr)  # fresh, cache-cold
        before = self.builds()
        satisfies_by_saturation(history, AXIOMS_BY_LEVEL["CC"])
        assert self.builds() == before + 1
        satisfies_ser(history)
        satisfies_si(history)
        satisfies_by_saturation(history, AXIOMS_BY_LEVEL["RA"])
        assert self.builds() == before + 1, "later checks must reuse the cached matrix"

    def test_valid_writes_derives_candidate_matrices_incrementally(self):
        """Every ValidWrites candidate adopts base-closure + one add_edge."""
        from repro.semantics.scheduler import apply_action
        from repro.core.ordered_history import OrderedHistory

        program = fig12_program()
        level = get_level("CC")
        oh = OrderedHistory.initial(program.initial_history())
        action = next_action(program, oh.history)
        # Drive the scheduler until it proposes an external read.
        while action is not None and not action.is_external_read:
            oh = apply_action(oh, action)
            action = next_action(program, oh.history)
        assert action is not None and action.is_external_read
        oh.history.causal_matrix()
        before = self.builds()
        choices = valid_writes(oh.history, action, level)
        assert choices, "scheduler should offer at least the init writer"
        assert self.builds() == before, "ValidWrites rebuilt a relation from scratch"
        for _writer, candidate in choices:
            assert candidate.is_so_wr_acyclic()  # served by the adopted matrix
        assert self.builds() == before

    def drive_first_choices(self, program, level):
        """Drive Next to completion, each read taking its first valid writer."""
        from repro.core.events import EventId
        from repro.core.ordered_history import OrderedHistory
        from repro.semantics.scheduler import apply_action

        oh = OrderedHistory.initial(program.initial_history())
        action = next_action(program, oh.history)
        while action is not None:
            if action.is_external_read:
                choices = valid_writes(oh.history, action, level)
                eid = EventId(action.txn, len(oh.history.txns[action.txn].events))
                oh = oh.extended(choices[0][1], eid)
            else:
                oh = apply_action(oh, action)
            action = next_action(program, oh.history)
        oh.history.causal_matrix()
        return oh

    def test_swap_candidates_share_one_matrix(self):
        from repro.dpor.optimality import read_latest
        from repro.dpor.swaps import compute_reorderings, doomed_events

        level = get_level("CC")
        oh = self.drive_first_choices(fig12_program(), level)
        before = self.builds()
        pairs = compute_reorderings(oh)
        for read, target in pairs:
            doomed_events(oh, read, target)
        assert self.builds() == before, "swap computation rebuilt the relation per pair"

        # Neither fig12 read has a committed writer later than its source
        # in its causal past, so readLatest decides both from the current
        # history's closure and builds nothing.
        assert pairs, "fig12 must offer at least one reordering here"
        before = self.builds()
        for read, target in pairs:
            read_latest(oh, read, target, level)
        assert self.builds() == before, "read_latest pruned a history it did not need"

    def test_read_latest_with_a_later_writer_builds_one_matrix(self):
        """fig8 under RC: t2 reads y from init although its session
        predecessor t1, a later writer of y, is in its causal past.  That
        takes the pruned history, whose matrix is the one build; every
        writer candidate adopts pruned-closure + add_edge."""
        from repro.core.events import INIT_TXN, EventId, TxnId
        from repro.dpor.optimality import read_latest

        level = get_level("RC")
        oh = self.drive_first_choices(fig8_program(), level)
        read_y = EventId(TxnId("s1", 1), 2)
        assert oh.history.wr[read_y] == INIT_TXN
        before = self.builds()
        assert not read_latest(oh, read_y, TxnId("s2", 0), level)
        assert self.builds() == before + 1, (
            "read_latest must build one matrix per pruning, none per candidate"
        )


class TestHistoryIntegration:
    """The matrix-backed History queries agree with a naive DFS over so ∪ wr."""

    def test_causal_past_excludes_self_on_cyclic_history(self):
        """causal_past agrees with the DFS even when so∪wr is cyclic."""
        from repro.core import History
        from repro.core.events import Event, EventId, EventType

        h = History.initial(["x"])
        h, t1 = h.begin_transaction("s")
        h = h.append_event("s", Event(EventId(t1, 1), EventType.READ, "x", 1))
        h = h.append_event("s", Event(EventId(t1, 2), EventType.COMMIT))
        h, t2 = h.begin_transaction("s")
        h = h.append_event("s", Event(EventId(t2, 1), EventType.WRITE, "x", 1))
        h = h.append_event("s", Event(EventId(t2, 2), EventType.COMMIT))
        h = h.add_wr(t2, EventId(t1, 1))  # wr opposes so: cycle t1 ⇄ t2
        assert not h.is_so_wr_acyclic()
        adj = so_wr_adjacency(h)
        for tid in (t1, t2):
            fast = h.causal_past(tid)
            assert tid not in fast
            assert fast == {t for t in adj if t != tid and tid in naive_reachable(adj, t)}

    def test_causal_queries_match_dfs_fallback(self):
        rng = random.Random(3)
        for _ in range(25):
            history = random_history(rng)
            adj = so_wr_adjacency(history)
            matrix = history.causal_matrix()
            assert matrix.is_acyclic() == history.is_so_wr_acyclic()
            for a in history.txns:
                assert matrix.descendants(a) == naive_reachable(adj, a)
                assert history.causal_past(a) == {
                    t for t in adj if t != a and a in naive_reachable(adj, t)
                }


class TestCompaction:
    """remove_nodes / retract_edges — the streaming monitor's primitives."""

    def test_remove_nodes_preserves_survivor_reachability(self):
        """Closure answers between survivors must survive compaction,
        including paths that ran *through* dropped nodes."""
        rng = random.Random(11)
        for size in graph_sizes(60):
            n, edges, adj = random_graph(rng, cyclic_ok=False, n=size)
            matrix = RelationMatrix(range(n), edges)
            drop = {i for i in range(n) if rng.random() < 0.4 and n - 1}
            if len(drop) == n:
                drop.pop()
            compacted = matrix.remove_nodes(drop)
            closure = naive_closure(adj)
            keep = [i for i in range(n) if i not in drop]
            assert set(compacted.nodes) == set(keep)
            for a in keep:
                for b in keep:
                    if a != b:
                        assert compacted.reaches(a, b) == (b in closure[a]), (
                            f"reaches({a},{b}) diverged after dropping {drop}"
                        )
            assert compacted.is_acyclic() == all(
                a not in closure[a] for a in keep
            )

    def test_remove_nodes_rejects_unknown(self):
        matrix = RelationMatrix(range(3), [(0, 1)])
        with pytest.raises(ValueError):
            matrix.remove_nodes({7})

    def test_compress_matches_per_bit_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            width = rng.randrange(1, 200)
            keep = sorted(rng.sample(range(width), rng.randrange(0, width + 1)))
            mask = 0
            for j in keep:
                mask |= 1 << j
            plan = RelationMatrix._compress_plan(mask, width)
            row = rng.getrandbits(width)
            expected = 0
            for new_j, old_j in enumerate(keep):
                if (row >> old_j) & 1:
                    expected |= 1 << new_j
            assert RelationMatrix._compress_row(row, mask, plan) == expected

    def test_retract_edges_equals_never_added(self):
        """add → retract must equal the matrix where the edges never were."""
        rng = random.Random(23)
        for size in graph_sizes(60):
            n, edges, adj = random_graph(rng, cyclic_ok=True, n=size)
            extra = set()
            for _ in range(rng.randrange(1, 4)):
                extra.add((rng.randrange(n), rng.randrange(n)))
            extra -= set(edges)
            extra -= {(i, i) for i in range(n)}
            matrix = RelationMatrix(range(n), edges)
            for src, dst in extra:
                matrix.add_edge(src, dst)
            matrix.retract_edges(extra)
            reference = RelationMatrix(range(n), edges)
            for a in range(n):
                for b in range(n):
                    assert matrix.reaches(a, b) == reference.reaches(a, b)
            assert matrix.is_acyclic() == reference.is_acyclic()

    def test_retract_after_compaction_keeps_baked_paths(self):
        """Compaction bakes through-paths into pred, so a later retraction
        must not lose them (the monitor's abort-after-eviction scenario).
        Per the GC gate's contract, the retractable edge arrives *after*
        the compaction — everything present at compaction is permanent.
        """
        matrix = RelationMatrix(range(4), [(0, 1), (1, 2)])
        compacted = matrix.remove_nodes({1})  # 0 → 2 survives as baked path
        assert compacted.reaches(0, 2)
        compacted.add_edge(3, 0)  # fired after the compaction
        assert compacted.reaches(3, 2)
        compacted.retract_edges([(3, 0)])
        assert compacted.reaches(0, 2), "baked through-path lost on re-close"
        assert not compacted.reaches(3, 2)
        assert not compacted.reaches(3, 0)

    def test_retract_on_frozen_matrix_raises(self):
        matrix = RelationMatrix(range(2), [(0, 1)]).freeze()
        with pytest.raises(ValueError):
            matrix.retract_edges([(0, 1)])


class TestWordBoundary:
    """Growth, compaction and transport across the 64/65-node boundary."""

    def test_add_node_growth_across_the_boundary(self):
        """Grow 62 → 67 nodes one add_node at a time, adding edges after
        each step; every step must equal a from-scratch build."""
        rng = random.Random(62)
        n, edges, _adj = random_graph(rng, cyclic_ok=False, n=62)
        matrix = RelationMatrix(range(n), edges)
        for node in range(62, 67):
            assert matrix.add_node(node) == node
            for _ in range(4):
                src, dst = rng.randrange(node + 1), rng.randrange(node + 1)
                if src != dst:
                    matrix.add_edge(src, dst)
                    edges.append((src, dst))
            rebuilt = RelationMatrix(range(node + 1), edges)
            assert matrix.closure_rows() == rebuilt.closure_rows()
            assert matrix.is_acyclic() == rebuilt.is_acyclic()

    def test_compaction_below_the_boundary_then_retract(self):
        """Compact 66 → 64 nodes, fire cycle-closing edges afterwards and
        retract them: the result equals the compaction that never saw them."""
        rng = random.Random(66)
        n, edges, _adj = random_graph(rng, cyclic_ok=False, n=66)
        matrix = RelationMatrix(range(n), edges)
        compacted = matrix.remove_nodes({3, 40})
        reference = matrix.remove_nodes({3, 40})
        assert len(compacted) == 64
        extra = [(60, 5), (63, 12), (65, 0)]
        for src, dst in extra:
            compacted.add_edge(src, dst)
        compacted.retract_edges(extra)
        assert compacted.closure_rows() == reference.closure_rows()
        assert compacted.is_acyclic() == reference.is_acyclic()

    def test_closure_rows_round_trip(self):
        rng = random.Random(65)
        n, edges, _adj = random_graph(rng, n=65)
        matrix = RelationMatrix(range(n), edges)
        restored = RelationMatrix.from_closure(matrix.nodes, matrix.closure_rows())
        assert restored.closure_rows() == matrix.closure_rows()
        assert restored.is_acyclic() == matrix.is_acyclic()
        assert restored.transitive_closure() == matrix.transitive_closure()
        restored.add_edge(64, 0)
        assert restored.reaches(64, 0) and not matrix.reaches(64, 0)

    def test_from_closure_rejects_other_arities(self):
        matrix = RelationMatrix(range(3), [(0, 1), (1, 2)])
        pred, anc = matrix.closure_rows()
        for rows in ((pred, pred, anc), (anc,)):
            with pytest.raises(ValueError, match=r"two row tuples \(pred, anc\)"):
                RelationMatrix.from_closure(matrix.nodes, rows)


class TestOneRowUpdate:
    """An edge into a node with no successor updates that node's row only."""

    def test_edge_into_the_newest_node_costs_one_row(self):
        matrix = RelationMatrix(range(130), [(i, i + 1) for i in range(129)])
        matrix.add_node(130)
        width = (131 + 63) >> 6
        before = RelationMatrix.word_ops
        assert matrix.add_edge(129, 130)
        assert RelationMatrix.word_ops - before == width == 3
        assert matrix.ancestors(130) == set(range(130))

    def test_edge_into_an_inner_node_costs_its_descendants(self):
        """Into node 100 of the chain: its row and its 30 descendants' rows."""
        matrix = RelationMatrix(range(131), [(i, i + 1) for i in range(130)])
        matrix.add_node("x")
        before = RelationMatrix.word_ops
        assert matrix.add_edge("x", 100)
        assert RelationMatrix.word_ops - before == (1 + 30) * 3
        assert all(matrix.reaches("x", d) for d in range(100, 131))
        assert not matrix.reaches("x", 99)


class TestMutatorInterleavings:
    """Random interleavings of the four mutators against a naive reference.

    The reference is a dict-of-set adjacency.  It models ``remove_nodes`` as
    restricted reachability: the survivors' new one-step edges are the old
    closure between survivors, which is what the matrix promotes its
    one-step rows to.  ``retract_edges`` only retracts edges first added
    since the last compaction, the streaming monitor's GC gate.  After every
    operation, every pair's ``reaches``, every node's ancestors, descendants
    and successor bit, ``is_acyclic`` and ``closure_rows`` (against a
    from-scratch build) must agree.
    """

    @staticmethod
    def check(matrix, nodes, adj):
        assert list(matrix.nodes) == nodes
        closure = naive_closure(adj)
        for a in nodes:
            assert matrix.descendants(a) == closure[a]
            assert matrix.ancestors(a) == {b for b in nodes if a in closure[b]}
            assert matrix.has_successor(a) == bool(adj[a])
            for b in nodes:
                assert matrix.reaches(a, b) == (b in closure[a]), (a, b)
        assert matrix.is_acyclic() == naive_acyclic(adj)
        edges = [(a, b) for a in nodes for b in adj[a]]
        rows = matrix.closure_rows()
        assert rows == RelationMatrix(nodes, edges).closure_rows()
        restored = RelationMatrix.from_closure(nodes, rows)
        assert all(restored.has_successor(a) == bool(adj[a]) for a in nodes)

    def random_edge(self, rng, nodes):
        kind = rng.random()
        if kind < 0.6:  # into the newest node, as so/wr edges are
            return rng.choice(nodes), nodes[-1]
        if kind < 0.85:  # forward
            i, j = sorted(rng.sample(range(len(nodes)), 2))
            return nodes[i], nodes[j]
        if kind < 0.95:  # back
            i, j = sorted(rng.sample(range(len(nodes)), 2))
            return nodes[j], nodes[i]
        node = rng.choice(nodes)  # self-loop
        return node, node

    @pytest.mark.parametrize("start,stop", [(58, 68), (122, 132)], ids=["64", "128"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_interleavings_across_the_row_width(self, start, stop, seed):
        rng = random.Random(seed * 1000 + start)
        nodes = list(range(start))
        adj = {a: set() for a in nodes}
        for a in nodes[1:]:
            for b in rng.sample(range(a), min(2, a)):
                adj[b].add(a)
        matrix = RelationMatrix(nodes, [(a, b) for a in nodes for b in adj[a]])
        fired = []
        crossed = set()
        fresh = start
        self.check(matrix, nodes, adj)
        while len(nodes) < stop:
            op = rng.random()
            if op < 0.3:
                assert matrix.add_node(fresh) == len(nodes)
                nodes.append(fresh)
                adj[fresh] = set()
                fresh += 1
            elif op < 0.8:
                src, dst = self.random_edge(rng, nodes)
                if dst not in adj[src]:
                    fired.append((src, dst))
                    adj[src].add(dst)
                matrix.add_edge(src, dst)
            elif op < 0.9:
                if fired:
                    dead = rng.sample(fired, rng.randrange(1, len(fired) + 1))
                    matrix.retract_edges(dead)
                    for src, dst in dead:
                        adj[src].discard(dst)
                    fired = [edge for edge in fired if edge not in dead]
            elif op < 0.95:
                drop = set(rng.sample(nodes, rng.randrange(1, 4)))
                closure = naive_closure(adj)
                nodes = [a for a in nodes if a not in drop]
                adj = {a: closure[a] - drop for a in nodes}
                matrix = matrix.remove_nodes(drop)
                fired = []  # everything present at compaction is permanent
            else:
                matrix = matrix.copy()
            crossed.add(len(nodes))
            self.check(matrix, nodes, adj)
        assert {start + 5, start + 6, start + 7} <= crossed
