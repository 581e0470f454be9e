"""Unit tests for the brute-force reference checker's helpers
(repro.isolation.reference)."""

from repro.isolation.reference import topological_orders


def chain(n):
    return {i: ({i + 1} if i + 1 < n else set()) for i in range(n)}


class TestTopologicalOrders:
    def test_chain_has_one_order(self):
        assert list(topological_orders(chain(3))) == [(0, 1, 2)]

    def test_antichain_has_factorial_orders(self):
        adj = {0: set(), 1: set(), 2: set()}
        assert len(list(topological_orders(adj))) == 6

    def test_orders_respect_edges(self):
        adj = {0: {1}, 1: set(), 2: {3}, 3: set()}
        for order in topological_orders(adj):
            assert order.index(0) < order.index(1)
            assert order.index(2) < order.index(3)

    def test_cycle_yields_nothing(self):
        adj = {0: {1}, 1: {0}}
        assert list(topological_orders(adj)) == []
