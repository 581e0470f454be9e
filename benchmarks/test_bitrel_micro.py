"""Micro-benchmark: bitset relation engine vs. the naive dict-of-set closure.

The fig. 14 / table F1 suites demonstrate the end-to-end win; this file
isolates the relation engine itself on histories with ≥ 50 transactions —
the regime the ROADMAP's "fast as the hardware allows" axis targets:

* **closure**: full transitive closure, DFS-per-node vs. one word-parallel
  :class:`~repro.core.bitrel.RelationMatrix` build;
* **queries**: a saturation-style workload of many reachability queries,
  DFS per query vs. shift-and-mask on the maintained closure;
* **incremental**: growing the relation edge by edge, full recompute after
  every edge vs. ``add_edge``'s O(affected rows) closure maintenance.

A timing table is written to ``bitrel_micro.txt`` in the results directory
(see ``conftest.py``).
"""

import random
import time

import pytest

from conftest import save_bench_json, save_result
from repro.core import HistoryBuilder, RelationMatrix
from repro.bench.reporting import format_table


def build_history(sessions: int, txns_per_session: int, seed: int = 2023):
    """A random committed history with sessions × txns_per_session + 1 txns."""
    rng = random.Random(seed)
    variables = ["x", "y", "z", "u", "v"]
    b = HistoryBuilder(variables)
    writers = {var: [b.init] for var in variables}
    for s in range(sessions):
        for _ in range(txns_per_session):
            t = b.txn(f"s{s}")
            wrote = set()
            for _ in range(rng.randint(1, 3)):
                var = rng.choice(variables)
                if rng.random() < 0.5 and var not in wrote:
                    t.read(var, source=rng.choice(writers[var]))
                else:
                    t.write(var, rng.randint(1, 9))
                    wrote.add(var)
            t.commit()
            for var in wrote:
                writers[var].append(t)
    return b.build(auto_commit=False)


def best_of(repeats, fn):
    """Minimum wall time over ``repeats`` runs — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def bitrel_cases(results_dir):
    """Accumulates timing cases across the tests of this module, then writes
    the machine-readable ``BENCH_bitrel.json`` record at module teardown."""
    cases = []
    yield cases
    save_bench_json(results_dir, "bitrel", cases)


@pytest.fixture(scope="module")
def large_history():
    history = build_history(sessions=10, txns_per_session=6)  # 61 transactions
    assert len(history.txns) >= 50
    return history


def so_wr_adjacency(history):
    """The dict-of-set ``so ∪ wr`` baseline, from History's own edge
    iterators (so the benchmark cannot drift from what causal_matrix
    builds)."""
    adj = {tid: set() for tid in history.txns}
    for src, dst in (*history.so_pairs(), *history.wr_pairs()):
        if src != dst:
            adj[src].add(dst)
    return adj


def reachable_from(adj, start):
    """The naive baseline: one DFS from ``start``."""
    seen = set()
    stack = list(adj.get(start, ()))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adj.get(node, ()))
    return seen


def relation_edges(history):
    """The production so∪wr edge set."""
    adj = so_wr_adjacency(history)
    return [(src, dst) for src, succs in adj.items() for dst in succs]


def test_closure_bitset_beats_naive(large_history, results_dir, bitrel_cases):
    adj = so_wr_adjacency(large_history)
    edges = relation_edges(large_history)
    nodes = list(large_history.txns)

    naive_s = best_of(5, lambda: {n: reachable_from(adj, n) for n in adj})
    bitset_s = best_of(5, lambda: RelationMatrix(nodes, edges))

    matrix = RelationMatrix(nodes, edges)
    assert matrix.transitive_closure() == {n: reachable_from(adj, n) for n in adj}
    assert matrix.transitive_closure() == large_history.causal_matrix().transitive_closure()

    rng = random.Random(99)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(2000)]
    naive_q = best_of(3, lambda: [b in reachable_from(adj, a) for a, b in pairs])
    bitset_q = best_of(3, lambda: [matrix.reaches(a, b) for a, b in pairs])

    incr_edges = [(a, b) for a, b in pairs[:60] if a != b]

    def full_recompute():
        grown = list(edges)
        for edge in incr_edges:
            grown.append(edge)
            RelationMatrix(nodes, grown)

    def incremental():
        m = RelationMatrix(nodes, edges)
        for edge in incr_edges:
            m.add_edge(*edge)

    recompute_s = best_of(3, full_recompute)
    incremental_s = best_of(3, incremental)

    rows = [
        ("full closure (61 txns)", f"{naive_s * 1e3:.2f}", f"{bitset_s * 1e3:.2f}", f"{naive_s / bitset_s:.1f}x"),
        ("2000 reachability queries", f"{naive_q * 1e3:.2f}", f"{bitset_q * 1e3:.2f}", f"{naive_q / bitset_q:.1f}x"),
        (f"add {len(incr_edges)} edges + closure", f"{recompute_s * 1e3:.2f}", f"{incremental_s * 1e3:.2f}", f"{recompute_s / incremental_s:.1f}x"),
    ]
    text = format_table(["workload", "dict-of-set (ms)", "bitset (ms)", "speedup"], rows)
    save_result(results_dir, "bitrel_micro", text)
    bitrel_cases.extend(
        [
            {"name": "closure/61", "seconds": bitset_s},
            {"name": "queries/2000", "seconds": bitset_q},
            {"name": f"incremental/{len(incr_edges)}", "seconds": incremental_s},
        ]
    )
    print("\n" + text)

    assert bitset_s < naive_s, "bitset closure must beat DFS-per-node on ≥50 txns"
    assert bitset_q < naive_q, "maintained closure must beat per-query DFS"
    assert incremental_s < recompute_s, "add_edge must beat recompute-per-edge"


def test_incremental_scales_with_affected_rows(results_dir, bitrel_cases):
    """Closure maintenance stays cheap as the history grows: the per-edge
    cost of ``add_edge`` must grow far slower than a full rebuild."""
    rows = []
    for sessions, txns in ((5, 10), (10, 10), (20, 10)):
        history = build_history(sessions, txns)
        nodes = list(history.txns)
        edges = relation_edges(history)
        base = RelationMatrix(nodes, edges)
        rng = random.Random(7)
        extra = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(100)]

        def add_all():
            m = base.copy()
            for edge in extra:
                m.add_edge(*edge)

        rebuild_s = best_of(3, lambda: RelationMatrix(nodes, edges))
        incr_s = best_of(3, add_all)
        rows.append((f"{len(nodes)} txns", f"{rebuild_s * 1e3:.3f}", f"{incr_s / 100 * 1e3:.4f}"))
        bitrel_cases.append({"name": f"build/{len(nodes)}", "seconds": rebuild_s})
        bitrel_cases.append({"name": f"add_edge_100/{len(nodes)}", "seconds": incr_s})
        assert incr_s / 100 < rebuild_s, "one add_edge must be far cheaper than one rebuild"
    text = format_table(["history size", "full build (ms)", "per add_edge (ms)"], rows)
    save_result(results_dir, "bitrel_incremental", text)
    print("\n" + text)
