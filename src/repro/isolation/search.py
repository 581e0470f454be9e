"""Generic commit-order search for levels with at-commit-decidable axioms.

PSI and bounded staleness do not fit the interval search that decides
SER, SI and PC (:mod:`repro.isolation.snapshot`): PSI's Conflict axiom
quantifies over *any* earlier conflicting writer (not just interval
overlap, so the SI timeline does not apply without Prefix), and bounded
staleness counts intervening writers (so the "last committed writer"
frontier of the SER search is too coarse).  Both, however, share a
useful shape:

* their co-free axioms (Causal for PSI, Read Committed for BS-k) force
  commit-order edges by saturation exactly as in
  :mod:`repro.isolation.saturation`;
* their remaining, co-dependent constraint on a reader ``t3`` is **fully
  decided the moment t3 commits** — it only mentions transactions ordered
  strictly before ``t3`` in ``co``.

So the search here builds the total commit order left to right (as the
SER search does), prunes a commit the moment its at-commit predicate fails,
and memoizes failing states on ``(committed set, committed-writer
sequence)`` — the writer sequence is exactly the information future
at-commit predicates may consult, so the memo key is sound.

Every search is a function of one dense input, a
:class:`~repro.isolation.summaries.DenseSummaries` whose ``ancestors`` are
the closure the search must respect: here the closure of ``so ∪ wr`` plus
the saturation-forced edges.  Enabledness is one word-parallel mask test
against it.  Every committed set the search reaches is downward closed, so
on those sets the closure enables exactly the candidates that the ``so ∪
wr`` ancestors plus the direct forced predecessors would.  Which edges
those are is the level's to say: a batch check builds the input with
:func:`~repro.isolation.registry.search_history` from the level's spec and
the saturation state cached on the history, and the online checker passes
the matrix of the saturation state it maintains instead.

Both searches (this one and the interval search) run on one loop,
:func:`first_path`: a depth-first search whose stack is an explicit list,
one candidate iterator per state on the current path, so a history's
length costs heap rather than interpreter recursion.  The rows
the path took are the search's witness when it succeeds.  Each search
starts from the empty state, where ``init`` (the one transaction without
ancestors) is the only candidate.

The interval search can also repair a witness an appended event broke
(:func:`repaired_path`): it defines one :data:`Step`, from which both its
candidates and a walk along the old witness's intact prefix are built,
and it searches from the state that prefix reaches before it searches
from the empty state, with one failed-state memo for both.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.history import History
from .base import get_level
from .registry import level_spec, search_history
from .summaries import DenseSummaries

#: A dense search: the rows of the path it finds through its input (the
#: witness), or None when there is none.
Search = Callable[[DenseSummaries], Optional[List[int]]]

#: An at-commit predicate: ``check(i, writer_seq)`` is True when committing
#: transaction index ``i`` right after the committed-writer sequence
#: ``writer_seq`` violates no axiom instance whose reader is ``i``.
CommitCheck = Callable[[int, Tuple[int, ...]], bool]

#: A search state's successors: ``(row, child state)`` per step, in
#: candidate order.
Expand = Callable[[Hashable], Iterator[Tuple[int, Hashable]]]

#: One step of a search: the state reached by taking ``row`` from
#: ``state``, or None when the step's conditions fail there.
Step = Callable[[Hashable, int], Optional[Hashable]]


def first_path(
    root: Hashable,
    expand: Expand,
    done: Callable[[Hashable], bool],
    failed: Optional[Set[Hashable]] = None,
) -> Optional[List[int]]:
    """The rows of the first path from ``root`` to a state ``done`` accepts.

    Depth-first in ``expand``'s candidate order, with an explicit stack:
    one candidate iterator per state on the current path.  A state whose
    candidates are exhausted is added to ``failed``, the memo of states
    with no path, and never expanded again; a child is tested against
    ``done`` before the memo, as a recursive search tests on entry.  Pass
    one ``failed`` set to searches over the same input to share it.  The
    returned list holds the row of every step taken; None when no path
    exists.
    """
    path: List[int] = []
    if done(root):
        return path
    if failed is None:
        failed = set()
    states = [root]
    frames = [expand(root)]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            failed.add(states.pop())
            frames.pop()
            if states:  # the root took no step
                path.pop()
            continue
        row, state = step
        if done(state):
            path.append(row)
            return path
        if state in failed:
            continue
        path.append(row)
        states.append(state)
        frames.append(expand(state))
    return None


def repaired_path(
    prefix: Sequence[int],
    root: Hashable,
    step: Step,
    expand: Expand,
    done: Callable[[Hashable], bool],
) -> Optional[List[int]]:
    """The first path to a state ``done`` accepts, tried first through
    ``prefix``: the rows of an old witness whose steps still hold.

    ``prefix`` is walked from ``root`` with ``step``, as far as its steps
    hold, and :func:`first_path` runs from the state reached; only if that
    finds none does it run from ``root``, sharing the failed-state memo.
    So a path exists iff one exists from ``root`` (a state with no path
    has none however it was reached), and no state is expanded twice.  A
    path that begins with the whole ``prefix`` was found through it: the
    search from ``root`` skips the prefix's state, which failed.  With an
    empty ``prefix`` this is :func:`first_path` from ``root``.
    """
    state = root
    walked: List[int] = []
    for row in prefix:
        child = step(state, row)
        if child is None:
            break
        walked.append(row)
        state = child
    failed: Set[Hashable] = set()
    if walked:
        path = first_path(state, expand, done, failed)
        if path is not None:
            return walked + path
    return first_path(root, expand, done, failed)


def _commit_order_search(summaries: DenseSummaries, check: CommitCheck) -> Optional[List[int]]:
    """A total co extending ``summaries``' ancestors that passes ``check``,
    in row indices, or None."""
    ancestors = summaries.ancestors
    writes_of = summaries.writes_of
    n = len(ancestors)
    full = (1 << n) - 1

    def placements(state):
        committed, writer_seq = state
        for i in range(n):
            if committed >> i & 1 or ancestors[i] & ~committed:
                continue
            if not check(i, writer_seq):
                continue
            next_seq = writer_seq + (i,) if writes_of[i] else writer_seq
            yield i, (committed | (1 << i), next_seq)

    return first_path((0, ()), placements, lambda state: state[0] == full)


def psi_search(summaries: DenseSummaries) -> Optional[List[int]]:
    """PSI's commit-order search; ``summaries``' ancestors must include the
    edges the Causal axiom forces."""
    return _commit_order_search(summaries, _psi_check(summaries))


def satisfies_psi(history: History) -> bool:
    """Whether ``history`` satisfies Parallel Snapshot Isolation.

    PSI = Causal ∧ Conflict [Sovran et al., SOSP 2011; Cerone & Gotsman,
    J.ACM 2018]: the SI axioms with Prefix weakened to Causal, so sibling
    snapshots may diverge (the long fork is allowed) but write-write
    conflicting transactions still order their observations (lost updates
    stay forbidden).  The Causal half saturates; the Conflict half is the
    at-commit predicate:

    for reader ``t3`` with an external read ``x ←wr t1``, every x-writer
    ``t2`` committed at or before the *latest* committed write-conflicting
    ``t4`` must satisfy ``co[t2] < co[t1]`` — i.e. no x-writer may sit
    between the read's source and the latest conflicting writer.
    """
    return get_level("PSI").satisfies(history)


def _psi_check(summaries: DenseSummaries) -> CommitCheck:
    reads_of = summaries.reads_of
    write_mask = summaries.write_mask

    def check(i: int, writer_seq: Tuple[int, ...]) -> bool:
        mask = write_mask[i]
        if not mask or not reads_of[i]:
            return True
        conflict_pos = -1
        for pos in range(len(writer_seq) - 1, -1, -1):
            if write_mask[writer_seq[pos]] & mask:
                conflict_pos = pos
                break
        if conflict_pos < 0:
            return True
        for var, src in reads_of[i]:
            bit = 1 << var
            # src writes var and is a co-ancestor of i, hence in writer_seq.
            src_pos = writer_seq.index(src)
            for pos in range(conflict_pos, src_pos, -1):
                if write_mask[writer_seq[pos]] & bit:
                    return False
        return True

    return check


def bounded_staleness_search(summaries: DenseSummaries, k: int) -> Optional[List[int]]:
    """BS-k's commit-order search; ``summaries``' ancestors must include
    the edges the Read Committed axiom forces."""
    return _commit_order_search(summaries, _bs_check(summaries, k))


def satisfies_bounded_staleness(history: History, k: int = 3) -> bool:
    """Whether ``history`` satisfies bounded staleness with bound ``k``.

    BS-k strengthens Read Committed with a *counting* constraint: an
    external read may be stale, but fewer than ``k`` other writers of the
    variable may commit between the read's source and the reader
    (k-staleness in the Pileus/Azure sense, counted in versions rather
    than seconds).  The RC axiom saturates; the count is the at-commit
    predicate — both the source and every intervening writer are committed
    when the reader commits, so the count is exact at that point.
    """
    if k < 1:
        raise ValueError(f"staleness bound must be >= 1, got {k}")
    if k == 3:
        return get_level("BS-3").satisfies(history)
    # Every BS-k has BS-3's axioms; only the count in the search differs.
    spec = replace(
        level_spec("BS-3"), search=lambda summaries: bounded_staleness_search(summaries, k)
    )
    return search_history(history, spec) is not None


def _bs_check(summaries: DenseSummaries, k: int) -> CommitCheck:
    reads_of = summaries.reads_of
    write_mask = summaries.write_mask

    def check(i: int, writer_seq: Tuple[int, ...]) -> bool:
        for var, src in reads_of[i]:
            bit = 1 << var
            src_pos = writer_seq.index(src)
            stale = 0
            for pos in range(src_pos + 1, len(writer_seq)):
                if write_mask[writer_seq[pos]] & bit:
                    stale += 1
                    if stale >= k:
                        return False
        return True

    return check
