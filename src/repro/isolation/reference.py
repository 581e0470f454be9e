"""Brute-force reference consistency checker.

Implements Def. 2.2 literally: a history satisfies an isolation level iff
*some* strict total order ``co`` extending ``so ∪ wr`` satisfies the level's
axioms.  Enumerates every topological extension — exponential, so this is
only used on small histories, as the ground truth that the efficient
checkers (:mod:`repro.isolation.saturation`,
:mod:`repro.isolation.serializability`, :mod:`repro.isolation.snapshot`) are
validated against in the test suite.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from ..core.events import TxnId
from ..core.history import History
from .axioms import AXIOMS_BY_LEVEL, ORDER_PREDICATES, Axiom, OrderPredicate, axioms_hold


def topological_orders(adj: Dict[Hashable, Set[Hashable]]) -> Iterator[Tuple[Hashable, ...]]:
    """Yield every topological order of the DAG ``adj`` (exponential!).

    ``adj`` maps node → successors; an order lists each node after all its
    predecessors.  A cyclic ``adj`` yields nothing.
    """
    indegree: Dict[Hashable, int] = {n: 0 for n in adj}
    for node in adj:
        for succ in adj[node]:
            indegree[succ] += 1
    order: List[Hashable] = []
    placed: Set[Hashable] = set()

    def backtrack():
        ready = [n for n in adj if indegree[n] == 0 and n not in placed]
        if not ready:
            if len(order) == len(adj):
                yield tuple(order)
            return
        for node in ready:
            placed.add(node)
            order.append(node)
            for succ in adj[node]:
                indegree[succ] -= 1
            yield from backtrack()
            for succ in adj[node]:
                indegree[succ] += 1
            order.pop()
            placed.discard(node)

    yield from backtrack()


def witness_commit_order(
    history: History,
    axioms: Tuple[Axiom, ...],
    order_predicate: Optional[OrderPredicate] = None,
) -> Optional[Tuple[TxnId, ...]]:
    """A total commit order satisfying ``axioms``, or None if none exists.

    ``order_predicate`` adds a whole-order constraint (bounded staleness)
    that each candidate order must also pass.
    """
    if not history.is_so_wr_acyclic():
        return None
    adjacency: Dict[TxnId, Set[TxnId]] = {tid: set() for tid in history.txns}
    for src, dst in (*history.so_pairs(), *history.wr_pairs()):
        if src != dst:
            adjacency[src].add(dst)
    for order in topological_orders(adjacency):
        if not axioms_hold(history, order, axioms):
            continue
        if order_predicate is not None:
            co = {tid: i for i, tid in enumerate(order)}
            if not order_predicate(history, co):
                continue
        return order
    return None


def satisfies_reference(history: History, level_name: str) -> bool:
    """Ground-truth consistency check by exhaustive commit-order search."""
    name = level_name.upper()
    axioms = AXIOMS_BY_LEVEL[name]
    order_predicate = ORDER_PREDICATES.get(name)
    if not axioms and order_predicate is None:
        return history.is_so_wr_acyclic()
    return witness_commit_order(history, axioms, order_predicate) is not None
