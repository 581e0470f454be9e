"""Bitset relation engine: dense node indexing + word-parallel closure.

:class:`RelationMatrix` is the workhorse behind every reachability,
acyclicity and closure query in the library.  Nodes (transaction ids in
practice, but any hashables) are indexed densely at construction; each
row is a single Python ``int`` used as a bitset, so set union is ``|``
and membership is a shift-and-mask — one machine word covers 64 nodes and
CPython big-int arithmetic extends this word-parallelism to arbitrary
sizes.

The matrix maintains the **strict transitive closure in one direction**:
each node's ancestor row, next to its one-step predecessor row and one
mask of the nodes that have a successor.  Every ``(so ∪ wr)+`` question
the library asks — causal past, reachability, acyclicity, the searches'
enabledness — reads an ancestor row.  :meth:`_close` computes the closure
from scratch with a semi-naive sparse fixpoint sweep, whose cost follows
the edges of the relation rather than ``n²``; after that, :meth:`add_edge`
updates the closure *incrementally*: adding ``u → v`` unions ``{u} ∪
anc(u)`` into the row of ``v`` and, only when ``v`` has a successor, into
the row of every descendant of ``v``.  Transactions are indexed in creation order and
almost every ``so``/``wr`` edge points into the newest one, which has no
successor yet, so such an edge updates one row.  The relations of this
code base (``so ∪ wr`` plus forced commit-order edges) only grow, with two
exceptions that re-close or restrict the closure instead: an aborted
writer's retracted edges (:meth:`retract_edges`) and the streaming
monitor's compaction (:meth:`remove_nodes`).

There is one row representation at every universe size: each row is a
plain ``int`` in a plain list, so :meth:`copy` — the hottest operation on
the matrix, one per candidate extension and per saturation fork — is two
list slices, and its result is mutable right away.

The engine deliberately knows nothing about histories; :mod:`repro.core.history`
caches one matrix per history (``History.causal_matrix``) and the isolation
and DPOR layers query/extend it instead of rebuilding graphs per query.
It is the one representation of ``so ∪ wr`` in the library.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

Node = Hashable


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RelationMatrix:
    """A binary relation over a fixed node universe, closed under composition.

    The node set is fixed at construction (dense indexing requires it);
    edges may be added at any time and the strict transitive closure is
    maintained incrementally as ancestor rows.  Ancestor, reachability and
    acyclicity queries read the maintained rows — no traversal happens at
    query time.  There are no descendant queries: nothing in the library
    asks one, and the closure is kept in the ancestor direction only.
    """

    # Row i of ``_pred`` holds node i's one-step predecessors and row i of
    # ``_anc`` its strict ancestors; bit i of ``_nonsinks`` is set iff node
    # i has a successor (iff bit i is set in some row).  ``_shared`` is set
    # while :meth:`copy` may have handed ``_index`` to another matrix.
    __slots__ = (
        "_nodes", "_index", "_shared", "_pred", "_anc", "_nonsinks", "_acyclic", "_frozen",
    )

    #: Number of full (closure-computing) constructions since interpreter
    #: start.  :meth:`copy` and :meth:`add_edge` do not count — the
    #: regression tests use this to assert that checkers build the relation
    #: once per history instead of once per query.
    full_builds: int = 0

    #: Closure row-word updates since interpreter start: every row union
    #: performed by :meth:`_close`, and every row that :meth:`add_edge`
    #: updates or :meth:`remove_nodes` compresses, counts the row's word
    #: width.  The exploration statistics (``repro.dpor.stats``) and the
    #: benchmark report deltas of this counter.
    word_ops: int = 0

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Tuple[Node, Node]] = ()):
        self._nodes: Tuple[Node, ...] = tuple(nodes)
        self._index: Dict[Node, int] = {n: i for i, n in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise ValueError("duplicate nodes in RelationMatrix universe")
        self._shared = False
        pred = [0] * len(self._nodes)
        for src, dst in edges:
            i = self._index.get(src)
            j = self._index.get(dst)
            if i is None or j is None:
                raise ValueError(f"edge ({src!r}, {dst!r}) has endpoint outside node set")
            pred[j] |= 1 << i
        self._pred: List[int] = pred
        self._close()
        self._frozen = False
        RelationMatrix.full_builds += 1

    def _close(self) -> None:
        """Ancestor rows from the one-step rows, by a semi-naive sweep.

        Rows are processed in *ascending* index order and each row unions
        the ancestor rows of its one-step predecessors; the sweep repeats
        until a pass changes nothing.  The relations of this code base
        point almost exclusively from lower to higher indices (transactions
        are indexed in creation order and ``so ∪ wr`` edges point forward
        in time), so the first pass already computes the fixpoint and the
        second merely verifies it — total work O(edges) row unions per
        pass, instead of the O(n²) row *scans* of the classic
        Floyd–Warshall sweep.  Back edges and cycles just cost extra
        passes.
        """
        pred = self._pred
        n = len(pred)
        # Decode each row's set bits to an index list once; the fixpoint
        # passes below then iterate plain int lists.
        adj: List[List[int]] = []
        edge_unions = 0
        for remaining in pred:
            row: List[int] = []
            while remaining:
                low = remaining & -remaining
                row.append(low.bit_length() - 1)
                remaining ^= low
            edge_unions += len(row)
            adj.append(row)
        anc = list(pred)
        passes = 0
        changed = True
        while changed:
            passes += 1
            changed = False
            for i in range(n):
                parents = adj[i]
                if not parents:
                    continue
                new = pred[i]
                for j in parents:
                    new |= anc[j]
                if new != anc[i]:
                    anc[i] = new
                    changed = True
        self._anc = anc
        self._nonsinks = reduce(or_, pred, 0)
        self._acyclic = all(not (row >> i) & 1 for i, row in enumerate(anc))
        RelationMatrix.word_ops += max(passes * edge_unions, n) * ((n + 63) >> 6)

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    def index_of(self, node: Node) -> int:
        """Dense index of ``node`` (stable for the lifetime of the matrix)."""
        return self._index[node]

    def node_at(self, index: int) -> Node:
        return self._nodes[index]

    def copy(self) -> "RelationMatrix":
        """An independent matrix sharing the node indexing.

        O(n) — rows are immutable ints, so copying the two row lists
        suffices, and the copy is mutable right away.  The node tuple and
        the index dict are shared, not copied: both matrices are marked as
        sharing the index, so the first :meth:`add_node` on either copies
        it before adding, and the other's indexing never moves.  Used by
        the saturation checker to extend a history's cached closure with
        forced edges without disturbing the cache, by
        :meth:`~repro.isolation.saturation.IncrementalSaturation.fork`, and
        by the scheduler to derive each child node's matrix from its
        parent's.
        """
        dup = object.__new__(RelationMatrix)
        dup._nodes = self._nodes
        dup._index = self._index
        dup._shared = self._shared = True
        dup._pred = self._pred[:]
        dup._anc = self._anc[:]
        dup._nonsinks = self._nonsinks
        dup._acyclic = self._acyclic
        dup._frozen = False
        return dup

    def freeze(self) -> "RelationMatrix":
        """Make :meth:`add_edge` raise on this instance (but not on copies).

        Matrices cached on a history are shared by every consumer of that
        history; freezing turns an in-place mutation — which would silently
        corrupt all future causal queries — into an immediate error.
        """
        self._frozen = True
        return self

    # -- wire transport -----------------------------------------------------

    def closure_rows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The matrix's whole state as plain int rows: ``(pred, anc)``.

        Row ``i``'s bit ``j`` refers to node index ``j`` — meaningful only
        to a receiver that reconstructs the *same node order*, which is what
        the wire encoding of :mod:`repro.core.wire` guarantees for a
        history's transaction table.
        """
        return (tuple(self._pred), tuple(self._anc))

    @classmethod
    def from_closure(
        cls,
        nodes: Iterable[Node],
        rows: Tuple[Tuple[int, ...], Tuple[int, ...]],
    ) -> "RelationMatrix":
        """Rebuild a matrix from :meth:`closure_rows` without re-closing.

        The inverse of :meth:`closure_rows` for wire transport: the closure
        fixpoint was already computed on the sending side, so restoring it
        is O(n) row copies instead of an O(edges · passes) sweep.  Does not
        count as a :attr:`full_builds` construction — it builds nothing.
        ``rows`` must be the two row tuples ``(pred, anc)``; any other
        arity raises ``ValueError``.
        """
        if len(rows) != 2:
            raise ValueError(
                f"closure rows must be two row tuples (pred, anc), got {len(rows)}"
            )
        pred, anc = rows
        matrix = object.__new__(cls)
        matrix._nodes = tuple(nodes)
        matrix._index = {n: i for i, n in enumerate(matrix._nodes)}
        matrix._shared = False
        n = len(matrix._nodes)
        if len(matrix._index) != n:
            raise ValueError("duplicate nodes in RelationMatrix universe")
        if not (len(pred) == len(anc) == n):
            raise ValueError(
                f"closure rows for {len(pred)} nodes do not match universe of {n}"
            )
        matrix._pred = list(pred)
        matrix._anc = list(anc)
        matrix._nonsinks = reduce(or_, anc, 0)
        matrix._acyclic = all(not (row >> i) & 1 for i, row in enumerate(anc))
        matrix._frozen = False
        return matrix

    # -- incremental growth -------------------------------------------------

    def add_node(self, node: Node) -> int:
        """Append ``node`` to the universe and return its dense index.

        The new node starts isolated (no edges), so the maintained closure
        and the acyclicity flag are unaffected: the closure rows just gain
        one zero row, and the node tuple is extended by concatenation.
        This is what lets the online checker grow a relation one
        transaction at a time instead of rebuilding the matrix per event.

        A matrix owns its index dict when a constructor or
        :meth:`remove_nodes` built it, and adds the node to it in place.
        After :meth:`copy` the original and the copy share it, so whichever
        adds a node first copies the dict and owns the copy; mutating the
        shared dict would silently desynchronise the other's indexing.  The
        online checker's matrices are never copied on its feed path, so a
        ``begin`` there copies no index.
        """
        if self._frozen:
            raise ValueError("matrix is frozen (cached on a history); copy() it before add_node")
        if node in self._index:
            raise ValueError(f"node {node!r} already in RelationMatrix universe")
        index = len(self._nodes)
        self._nodes = self._nodes + (node,)
        if self._shared:
            self._index = dict(self._index)
            self._shared = False
        self._index[node] = index
        self._pred.append(0)
        self._anc.append(0)
        return index

    def add_edge(self, src: Node, dst: Node) -> bool:
        """Add ``src → dst`` and update the maintained closure incrementally.

        Returns ``False`` when the edge was already implied by the closure
        (only the one-step row changed).  ``{src} ∪ anc(src)`` is unioned
        into the ancestor row of ``dst`` and, when ``dst`` has a successor,
        into the row of every descendant of ``dst``, which one scan of the
        rows finds.  An edge into a node with no successor — the newest
        transaction, for almost every ``so``/``wr`` edge — updates one row.
        """
        if self._frozen:
            raise ValueError("matrix is frozen (cached on a history); copy() it before add_edge")
        i = self._index[src]
        j = self._index[dst]
        self._pred[j] |= 1 << i
        anc = self._anc
        if i != j and (anc[j] >> i) & 1:
            # src, and so every ancestor of src, already precedes dst.
            return False
        gained = anc[i] | (1 << i)
        if (gained >> j) & 1:
            # dst is src or one of its ancestors: the edge closes a cycle.
            self._acyclic = False
        anc[j] |= gained
        rows = 1
        if (self._nonsinks >> j) & 1:
            # dst's descendants are the rows holding bit j; row j itself
            # (updated above) holds it only on a cycle.
            bit = 1 << j
            for k, row in enumerate(anc):
                if row & bit and k != j:
                    anc[k] = row | gained
                    rows += 1
        self._nonsinks |= gained
        RelationMatrix.word_ops += rows * ((len(anc) + 63) >> 6)
        return True

    def retract_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Remove one-step edges and recompute the closure from ``pred``.

        The inverse of :meth:`add_edge`, for the one retractable edge kind
        this code base has: an aborted writer's fired ``co`` edges (its
        axiom instances never existed, §2.2.1).  Clearing the ``pred`` bits
        and re-closing is exact because ``pred`` holds every *permanent*
        edge — base ``so ∪ wr`` edges, committed writers' fires, and the
        closure rows :meth:`remove_nodes` bakes in (all permanent by the
        monitor's GC gate: compaction never runs while an uncommitted
        writer has fired edges) — plus, as one-step bits, exactly the
        still-retractable fires.  Cost is one :meth:`_close` sweep.
        """
        if self._frozen:
            raise ValueError("matrix is frozen (cached on a history); copy() it before retract_edges")
        for src, dst in edges:
            self._pred[self._index[dst]] &= ~(1 << self._index[src])
        self._close()

    # -- compaction (streaming-monitor GC) -----------------------------------

    #: Number of :meth:`remove_nodes` compactions since interpreter start.
    compactions: int = 0

    def remove_nodes(self, drop: Iterable[Node]) -> "RelationMatrix":
        """A new matrix over the surviving nodes, closure restricted exactly.

        The result's ancestor rows are this matrix's maintained ancestor
        rows with the dropped bit positions squeezed out, so every path
        that ran *through* a dropped node survives as a closure edge
        between its surviving endpoints.  Consequently, as long as no future
        :meth:`add_edge` would ever have been incident to a dropped node,
        every future reachability/acyclicity answer on the compacted matrix
        equals the answer the uncompacted matrix would have given restricted
        to survivors — the exactness contract the streaming monitor's
        eviction relies on.  The one-step rows are promoted to the
        restricted closure (a copy of the compacted ancestor rows), so
        :meth:`retract_edges` (which re-closes from ``pred``) stays exact
        across compactions; see the inline comment.

        Cost is one row compression per survivor, O(survivors · log n)
        big-int ops; the monitor amortises it by evicting in batches.
        Dropping a node outside the universe raises ``ValueError``.
        """
        dropset = set(drop)
        unknown = dropset - set(self._index)
        if unknown:
            raise ValueError(f"remove_nodes: {sorted(map(repr, unknown))} not in universe")
        keep = [i for i, node in enumerate(self._nodes) if node not in dropset]
        keep_mask = 0
        for old_j in keep:
            keep_mask |= 1 << old_j
        plan = self._compress_plan(keep_mask, len(self._nodes))
        compact = self._compress_row
        dup = object.__new__(RelationMatrix)
        dup._nodes = tuple(self._nodes[i] for i in keep)
        dup._index = {node: j for j, node in enumerate(dup._nodes)}
        dup._shared = False
        anc = [compact(self._anc[i], keep_mask, plan) for i in keep]
        dup._anc = anc
        # pred is *promoted* to the restricted closure, not merely
        # restricted: a path that ran through a dropped node must survive as
        # a one-step edge so a later retract_edges() re-close cannot lose
        # it.  Sound because the monitor's GC gate guarantees everything in
        # the matrix at compaction time is permanent (no uncommitted
        # writer has fired edges).
        dup._pred = anc[:]
        dup._nonsinks = reduce(or_, anc, 0)
        dup._acyclic = all(not (anc[j] >> j) & 1 for j in range(len(keep)))
        dup._frozen = False
        RelationMatrix.compactions += 1
        RelationMatrix.word_ops += len(keep) * ((len(self._nodes) + 63) >> 6)
        return dup

    @staticmethod
    def _compress_plan(mask: int, width: int) -> List[int]:
        """Move masks for the parallel-suffix compress of ``mask``.

        Hacker's Delight 7-4 ("compress", the software PEXT), generalised
        to arbitrary width: level ``i``'s mask selects the bits that must
        move right by ``2**i`` so that after all ``ceil(log2(width))``
        levels the bits under ``mask`` sit densely at the bottom, in
        order.  Built once per :meth:`remove_nodes` and applied to every
        row, so each row costs O(log width) bigint ops instead of a
        Python loop over its set bits.
        """
        full = (1 << width) - 1
        plan: List[int] = []
        m = mask
        mk = (~m << 1) & full
        shift = 1
        for _ in range((width - 1).bit_length() if width > 1 else 0):
            mp = mk
            s = 1
            while s < width:
                mp ^= mp << s
                s <<= 1
            mv = mp & m
            plan.append(mv)
            m = (m ^ mv) | (mv >> shift)
            mk &= ~mp
            shift <<= 1
        return plan

    @staticmethod
    def _compress_row(row: int, keep_mask: int, plan: List[int]) -> int:
        """``row``'s bits under ``keep_mask``, squeezed dense at the bottom."""
        row &= keep_mask
        shift = 1
        for mv in plan:
            t = row & mv
            row = (row ^ t) | (t >> shift)
            shift <<= 1
        return row

    # -- queries on the maintained closure -----------------------------------

    def reaches(self, src: Node, dst: Node) -> bool:
        """``(src, dst) ∈ R+`` — a single shift-and-mask."""
        return (self._anc[self._index[dst]] >> self._index[src]) & 1 == 1

    def reaches_reflexive(self, src: Node, dst: Node) -> bool:
        """``(src, dst) ∈ R*``."""
        return src == dst or self.reaches(src, dst)

    def ancestors_mask(self, node: Node) -> int:
        return self._anc[self._index[node]]

    @property
    def ancestor_rows(self) -> List[int]:
        """Every node's ancestor mask, by dense index: the maintained list
        itself, not a copy (read only; it changes as edges are added)."""
        return self._anc

    def ancestors(self, node: Node) -> Set[Node]:
        """Strict ancestors ``{a | (a, node) ∈ R+}`` as a node set."""
        nodes = self._nodes
        return {nodes[i] for i in iter_bits(self._anc[self._index[node]])}

    def predecessors_mask(self, node: Node) -> int:
        """Direct (one-step) predecessors, as a bitmask."""
        return self._pred[self._index[node]]

    def is_acyclic(self) -> bool:
        """O(1): the cycle flag is maintained across :meth:`add_edge`."""
        return self._acyclic

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        edges = sum(bin(row).count("1") for row in self._pred)
        return f"<RelationMatrix {len(self._nodes)} nodes, {edges} edges, acyclic={self._acyclic}>"
