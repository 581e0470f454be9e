"""Shared fixtures and builders for the test suite.

Contains the paper's example programs (Figs. 8–13, D.1), a seeded random
program generator used by the completeness/optimality sweeps, history
generators for checker cross-validation, and a trace stream that the
streaming monitor evicts from at every level.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core import History, HistoryBuilder
from repro.isolation import get_level
from repro.lang import L, Program, ProgramBuilder, abort
from repro.semantics import enumerate_histories
from repro.trace import Trace


# -- paper example programs ------------------------------------------------------


def fig8_program() -> Program:
    """Fig. 8(a): conditional write guarded by an observed value."""
    p = ProgramBuilder("fig8")
    s1 = p.session("s1")
    t = s1.transaction("t1")
    t.read("a", "x").if_(L("a") == 3, then=[]).write("y", 1)
    s1.transaction("t2").read("b", "x").read("c", "y")
    p.session("s2").transaction("t3").read("d", "x").write("x", 3)
    return p.build()


def fig10_program() -> Program:
    """Fig. 10(a): reader of x,y vs writer of x,y."""
    p = ProgramBuilder("fig10")
    r = p.session("reader").transaction("r")
    r.read("a", "x").read("b", "y")
    w = p.session("writer").transaction("w")
    w.write("x", 2).write("y", 2)
    return p.build()


def fig11_program() -> Program:
    """Fig. 11(a): abort-guarded write plus two writer transactions."""
    p = ProgramBuilder("fig11")
    s1 = p.session("s1")
    t = s1.transaction("t1")
    t.read("a", "x").if_(L("a") == 0, then=[abort()]).write("y", 1)
    s1.transaction("t2").read("b", "x")
    s2 = p.session("s2")
    s2.transaction("t3").write("y", 3)
    s2.transaction("t4").write("x", 4)
    return p.build()


def fig12_program() -> Program:
    """Fig. 12(a): two readers and two writers of x, four sessions."""
    p = ProgramBuilder("fig12")
    p.session("w1").transaction("t1").write("x", 2)
    p.session("r1").transaction("t2").read("a", "x")
    p.session("r2").transaction("t3").read("b", "x")
    p.session("w2").transaction("t4").write("x", 4)
    return p.build()


def fig13_program() -> Program:
    """Fig. 13(a): read x | read y | write y | write x, four sessions."""
    p = ProgramBuilder("fig13")
    p.session("s1").transaction("t1").read("a", "x")
    p.session("s2").transaction("t2").read("b", "y")
    p.session("s3").transaction("t3").write("y", 3)
    p.session("s4").transaction("t4").write("x", 4)
    return p.build()


def figd1_program(extra_writes: int = 1) -> Program:
    """Fig. D.1(a): the Theorem 6.1 impossibility program (two sessions)."""
    p = ProgramBuilder("figD1")
    t1 = p.session("s1").transaction("t1")
    t1.read("a", "x").write("z", 1).write("y", 1)
    for i in range(extra_writes):
        t1.write(f"w{i}", 1)
    t2 = p.session("s2").transaction("t2")
    t2.read("b", "y").write("z", 2).write("x", 2)
    for i in range(extra_writes):
        t2.write(f"v{i}", 1)
    return p.build()


PAPER_PROGRAMS = [
    fig8_program,
    fig10_program,
    fig11_program,
    fig12_program,
    fig13_program,
    figd1_program,
]


# -- naive relation queries ------------------------------------------------------
# The library asks none of these; the tests that want them read them off the
# public pair queries (``RelationMatrix.reaches`` / ``ancestors``,
# ``History.causally_before``).


def descendants(matrix, node) -> set:
    """Strict descendants ``{d | (node, d) ∈ R+}`` of ``node`` in ``matrix``."""
    return {other for other in matrix.nodes if matrix.reaches(node, other)}


def transitive_closure(matrix) -> dict:
    """``matrix``'s closure as a node → strict-descendant-set map, by
    transposing every node's ancestor set."""
    closure = {node: set() for node in matrix.nodes}
    for node in matrix.nodes:
        for ancestor in matrix.ancestors(node):
            closure[ancestor].add(node)
    return closure


def has_successor(matrix, node) -> bool:
    """Whether some edge leaves ``node`` in ``matrix``: iff it reaches some
    node."""
    return any(matrix.reaches(node, other) for other in matrix.nodes)


def would_close_cycle(matrix, src, dst) -> bool:
    """Whether adding ``src → dst`` to ``matrix`` would create (or hit) a
    cycle."""
    return src == dst or matrix.reaches(dst, src)


def mask_of(matrix, nodes) -> int:
    """The bitmask of ``nodes`` in ``matrix``'s dense indexing."""
    return sum(1 << matrix.index_of(node) for node in set(nodes))


def nodes_of_mask(matrix, mask: int) -> set:
    """The nodes whose bits ``mask`` sets in ``matrix``'s dense indexing."""
    return {node for node in matrix.nodes if mask >> matrix.index_of(node) & 1}


def causally_before_eq(history: History, a, b) -> bool:
    """``(a, b) ∈ (so ∪ wr)*``."""
    return a == b or history.causally_before(a, b)


def maximal_in_causal_order(history: History, tid) -> bool:
    """``tid`` is ``(so ∪ wr)+``-maximal in ``history`` (paper §3.2)."""
    return not any(history.causally_before(tid, other) for other in history.txns)


# -- random generators ---------------------------------------------------------------


def random_program(rng: random.Random, name: str = "random") -> Program:
    """A small random program: ≤3 sessions × ≤2 txns × ≤3 instructions."""
    variables = ["x", "y", "z"][: rng.randint(1, 3)]
    p = ProgramBuilder(name)
    for s in range(rng.randint(1, 3)):
        session = p.session(f"s{s}")
        for _ in range(rng.randint(1, 2)):
            txn = session.transaction()
            for i in range(rng.randint(1, 3)):
                var = rng.choice(variables)
                roll = rng.random()
                if roll < 0.40:
                    txn.read(f"a{i}", var)
                elif roll < 0.85:
                    txn.write(var, rng.randint(1, 3))
                else:
                    txn.read(f"a{i}", var)
                    txn.if_(L(f"a{i}") == 0, then=[abort()])
    return p.build()


def random_history(rng: random.Random, allow_pending: bool = False) -> History:
    """A random well-formed history (possibly inconsistent with any level).

    Transactions read from arbitrary *earlier-declared* committed
    transactions, so ``wr ∪ so`` stays acyclic by construction yet the
    history can violate every isolation level's axioms.  With
    ``allow_pending`` the last declared transaction may stay open.
    """
    variables = ["x", "y"][: rng.randint(1, 2)]
    b = HistoryBuilder(variables)
    committed_writers = {var: [b.init] for var in variables}
    specs = [(s, k) for s in range(rng.randint(1, 3)) for k in range(rng.randint(1, 2))]
    for position, (s, _k) in enumerate(specs):
        t = b.txn(f"s{s}")
        wrote = set()
        for _ in range(rng.randint(1, 3)):
            var = rng.choice(variables)
            if rng.random() < 0.5:
                if var in wrote:
                    t.read(var)
                else:
                    t.read(var, source=rng.choice(committed_writers[var]))
            else:
                t.write(var, rng.randint(1, 3))
                wrote.add(var)
        is_last = position == len(specs) - 1
        if allow_pending and is_last and rng.random() < 0.6:
            continue  # leave pending
        if rng.random() < 0.9:
            t.commit()
            for var in wrote:
                committed_writers[var].append(t)
        else:
            t.abort()
    return b.build(auto_commit=False)


# -- comparison utilities -----------------------------------------------------------------


def reference_history_set(program: Program, level_name: str):
    """The ground-truth ``hist_I(P)`` via exhaustive DFS."""
    return enumerate_histories(program, get_level(level_name)).histories


def assert_explore_matches_reference(program, level_name: str, explore_result) -> None:
    """Completeness + soundness + optimality against the DFS reference."""
    reference = reference_history_set(program, level_name)
    got = explore_result.histories
    only_ref, only_got = reference.symmetric_difference(got)
    assert not only_ref, f"incomplete under {level_name}: missing {len(only_ref)} histories"
    assert not only_got, f"unsound under {level_name}: {len(only_got)} extra histories"
    assert got.duplicates == 0, f"not optimal under {level_name}: {got.duplicates} duplicates"


# -- trace streams ------------------------------------------------------------------


def evicting_stream(seed, transactions=80, sessions=3, empty=0.4, aborts=0.15, early=0.3):
    """A serial stream whose empty transactions search levels may evict.

    Transactions run one at a time, reading the latest committed value, so
    every level holds throughout and the monitor keeps collecting.  With
    probability ``early`` a transaction begins just before its predecessor
    in the stream (of another session) runs, so begin order is not commit
    order: a witness with the new transactions placed last in begin order
    can fail, and the witness levels search again over every live
    transaction.
    """
    rng = random.Random(seed)
    variables = ("x", "y")
    latest = {var: (["__init__", 0], 0) for var in variables}
    begun = [0] * sessions
    chunks = []
    for _ in range(transactions):
        s = rng.randrange(sessions)
        name, txn = f"s{s}", begun[s]
        begun[s] += 1
        chunk = []

        def rec(op, **extra):
            chunk.append({"type": op, "session": name, "txn": txn, **extra})

        rec("begin")
        wrote = {}
        if rng.random() >= empty:
            for _ in range(rng.randint(1, 4)):
                var = rng.choice(variables)
                if rng.random() < 0.5:
                    if var in wrote:
                        rec("read", var=var, value=wrote[var], local=True)
                    else:
                        source, value = latest[var]
                        rec("read", var=var, value=value, **{"from": source})
                else:
                    wrote[var] = rng.randint(1, 9)
                    rec("write", var=var, value=wrote[var])
        if rng.random() < aborts:
            rec("abort")
        else:
            rec("commit")
            for var, value in wrote.items():
                latest[var] = ([name, txn], value)
        chunks.append(chunk)
    # Never move two neighbours: a moved begin must follow its session's
    # previous transaction, which ended before the predecessor began.
    moved = [False] * len(chunks)
    for k in range(1, len(chunks)):
        other_session = chunks[k][0]["session"] != chunks[k - 1][0]["session"]
        moved[k] = other_session and not moved[k - 1] and rng.random() < early
    records = []
    for k, chunk in enumerate(chunks):
        if k + 1 < len(chunks) and moved[k + 1]:
            records.append(chunks[k + 1][0])
        records.extend(chunk[1:] if moved[k] else chunk)
    return Trace.from_records(records, variables=variables, name=f"evicting{seed}")
