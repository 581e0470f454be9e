#!/usr/bin/env python
"""Cross-validate sibling-shared saturation against from-scratch checks.

The DPOR hot path derives each child node's :class:`IncrementalSaturation`
state from its parent's by diffing
(:func:`repro.isolation.saturation.derive_extension_states`) instead of
rebuilding the forced-edge closure per node.  This script checks the
property that makes that sound: on **every node** of the exploration tree,
the derived verdict equals the one a from-scratch
``satisfies_by_saturation`` computes on a cache-cold copy of the same
history — for each of the saturation levels RC, RA and CC, including the
candidate extensions ``ValidWrites`` rejects and the abort-of-a-writer
nodes, which are derived by retracting the writer's fired edges.

On nodes where both sides are consistent it additionally compares the full
``so ∪ wr ∪ forced`` closures edge-by-edge (the closure the PSI/BS-3
search reads) and the fired edges: the derived state must hold exactly
what the batch rebuild derives, not merely agree on acyclicity.

Standalone on purpose: the property must hold on every supported
interpreter, and the auxiliary pythons (3.9/3.12) have no pytest, so

    PYTHONPATH=src python scripts/check_saturation_shared.py

is the whole harness.  ``tests/test_saturation_shared.py`` wraps the same
sweep for the main suite.  Exit code 0 iff no mismatch was found, every
program rebuilt only its root, and the abort-stream program derived at
least one writer's abort.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.events import EventType, TxnId  # noqa: E402
from repro.core.history import History  # noqa: E402
from repro.isolation.axioms import AXIOMS_BY_LEVEL  # noqa: E402
from repro.isolation.base import get_level  # noqa: E402
from repro.isolation.saturation import satisfies_by_saturation  # noqa: E402
from repro.lang import L, Program, ProgramBuilder, abort  # noqa: E402
from repro.semantics.scheduler import (  # noqa: E402
    NextAction,
    extend_history,
    next_action,
    pending_transaction,
    unstarted_transactions,
)

#: The saturation (co-free) levels whose verdicts are compared per node.
SATURATION_LEVELS: Tuple[str, ...] = ("RC", "RA", "CC")


@dataclass
class SweepStats:
    """Outcome of sweeping one program's exploration tree."""

    program: str
    nodes: int = 0
    checks: int = 0
    #: Nodes reached with no derived state cached, i.e. built from scratch
    #: (only the exploration root: every step is derived).
    rebuilds: int = 0
    #: Children derived from their parent by a writer's abort.
    writer_aborts: int = 0
    #: Verdict-False nodes seen (inconsistent-state sharing exercised).
    inconsistent: int = 0
    truncated: bool = False
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _closure_edges(matrix):
    """The relation as a set of (src, dst) pairs, order-independent."""
    nodes = matrix.nodes
    return {(a, b) for a in nodes for b in nodes if a != b and matrix.reaches(a, b)}


def check_node(history: History, stats: SweepStats) -> None:
    """Compare derived vs from-scratch verdicts (and closures) on one node."""
    states = history.saturation_states()
    if AXIOMS_BY_LEVEL["CC"] not in states:
        stats.rebuilds += 1
    for name in SATURATION_LEVELS:
        axioms = AXIOMS_BY_LEVEL[name]
        derived_state = states.get(axioms)
        derived = satisfies_by_saturation(history, axioms)
        cold = History(history.sessions, history.txns, history.wr)
        scratch = satisfies_by_saturation(cold, axioms)
        stats.checks += 1
        if not derived:
            stats.inconsistent += 1
        if derived != scratch:
            stats.mismatches.append(
                f"{stats.program}/{name}: derived verdict {derived} != "
                f"from-scratch {scratch} on {history!r}"
            )
            continue
        if derived and derived_state is not None:
            # Both consistent: the maintained closure and the fired edges
            # must match the batch rebuild edge-for-edge, not just on
            # acyclicity.
            rebuilt = cold.saturation_states()[axioms]
            for what, got, want in (
                ("closure", _closure_edges(derived_state.matrix), _closure_edges(rebuilt.matrix)),
                ("fired edges", derived_state.fired_edges, rebuilt.fired_edges),
            ):
                if got != want:
                    stats.mismatches.append(
                        f"{stats.program}/{name}: derived {what} differ from "
                        f"rebuilt: extra={sorted(got - want)} "
                        f"missing={sorted(want - got)} on {history!r}"
                    )


def sweep_program(
    program: Program,
    walk_level: str = "RC",
    max_nodes: int = 20000,
) -> SweepStats:
    """Walk every interleaving of ``program`` checking the property per node.

    The walk mirrors ``DFS(walk_level)`` (weakest level by default, for the
    widest tree) but, at external reads, *checks* every committed-writer
    candidate — including the ones ``ValidWrites`` rejects — and only
    recurses into the valid ones.  ``max_nodes`` truncates pathological
    trees; the stats record whether truncation happened.
    """
    level = get_level(walk_level)
    stats = SweepStats(program=program.name)
    root = program.initial_history()
    root.causal_matrix()
    check_node(root, stats)

    def rec(history: History) -> None:
        if stats.nodes >= max_nodes:
            stats.truncated = True
            return
        stats.nodes += 1

        pending = pending_transaction(history)
        if pending is None:
            starts = unstarted_transactions(program, history)
            startable = [
                tid for tid in starts if tid.index == len(history.sessions.get(tid.session, ()))
            ]
            for tid in startable:
                child = extend_history(history, NextAction(EventType.BEGIN, tid))
                check_node(child, stats)
                rec(child)
            return

        action = next_action(program, history)
        assert action is not None and action.txn == pending
        if action.is_external_read:
            history.causal_matrix()
            for log in history.committed_transactions():
                if not log.writes_var(action.var):
                    continue
                child = extend_history(history, action, log.tid)
                check_node(child, stats)
                if level.satisfies(child):
                    rec(child)
            return
        if action.kind is EventType.ABORT and history.txns[pending].writes():
            stats.writer_aborts += 1
        child = extend_history(history, action)
        check_node(child, stats)
        rec(child)

    rec(root)
    return stats


def abort_stream_program() -> Program:
    """Write-then-abort transactions in both sessions.

    Whether each guarded transaction aborts depends on the interleaving, so
    the sweep hits many abort-of-a-writer nodes — the one non-monotone
    step, which ``derive_extension_states`` derives by retracting the
    writer's fired edges and pending instances.
    """
    p = ProgramBuilder("abort-stream")
    s1 = p.session("s1")
    t1 = s1.transaction("t1")
    t1.write("x", 1).read("a", "y").if_(L("a") == 0, then=[abort()])
    s1.transaction("t2").read("b", "x")
    s2 = p.session("s2")
    t3 = s2.transaction("t3")
    t3.write("y", 1).read("c", "x").if_(L("c") == 0, then=[abort()])
    s2.transaction("t4").write("x", 2).write("y", 2)
    return p.build()


def _paper_programs() -> List[Program]:
    # Local copies of the tests/helpers.py paper programs: the script must
    # run standalone on interpreters that have only the repo and stdlib.
    programs: List[Program] = []

    p = ProgramBuilder("fig8")
    s1 = p.session("s1")
    s1.transaction("t1").read("a", "x").if_(L("a") == 3, then=[]).write("y", 1)
    s1.transaction("t2").read("b", "x").read("c", "y")
    p.session("s2").transaction("t3").read("d", "x").write("x", 3)
    programs.append(p.build())

    p = ProgramBuilder("fig10")
    p.session("reader").transaction("r").read("a", "x").read("b", "y")
    p.session("writer").transaction("w").write("x", 2).write("y", 2)
    programs.append(p.build())

    p = ProgramBuilder("fig11")
    s1 = p.session("s1")
    s1.transaction("t1").read("a", "x").if_(L("a") == 0, then=[abort()]).write("y", 1)
    s1.transaction("t2").read("b", "x")
    s2 = p.session("s2")
    s2.transaction("t3").write("y", 3)
    s2.transaction("t4").write("x", 4)
    programs.append(p.build())

    p = ProgramBuilder("fig13")
    p.session("s1").transaction("t1").read("a", "x")
    p.session("s2").transaction("t2").read("b", "y")
    p.session("s3").transaction("t3").write("y", 3)
    p.session("s4").transaction("t4").write("x", 4)
    programs.append(p.build())

    return programs


def random_program(rng: random.Random, name: str) -> Program:
    """Mirror of the tests/helpers.py generator (≤3 sessions × ≤2 txns)."""
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


def run_sweeps(
    seeds: int = 5,
    max_nodes: int = 20000,
    report: Callable[[str], None] = print,
) -> List[SweepStats]:
    """Sweep the paper programs, the abort stream and ``seeds`` random
    programs; report one summary line each and return all stats."""
    programs = _paper_programs()
    programs.append(abort_stream_program())
    rng = random.Random(20230708)
    programs.extend(random_program(rng, f"rand{i}") for i in range(seeds))

    all_stats: List[SweepStats] = []
    for program in programs:
        stats = sweep_program(program, max_nodes=max_nodes)
        all_stats.append(stats)
        flags = " TRUNCATED" if stats.truncated else ""
        verdict = "ok" if stats.ok else f"{len(stats.mismatches)} MISMATCH(ES)"
        report(
            f"{stats.program:>14}: {stats.nodes:6d} nodes, {stats.checks:6d} checks, "
            f"{stats.rebuilds:4d} rebuilds, {stats.writer_aborts:4d} writer aborts, "
            f"{stats.inconsistent:5d} inconsistent — "
            f"{verdict}{flags}"
        )
        for line in stats.mismatches:
            report(f"    {line}")
    return all_stats


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of random programs")
    parser.add_argument(
        "--max-nodes", type=int, default=20000, help="per-program node cap for the sweep"
    )
    args = parser.parse_args(argv)
    all_stats = run_sweeps(seeds=args.seeds, max_nodes=args.max_nodes)
    bad = sum(len(s.mismatches) for s in all_stats)
    rebuilds = sum(s.rebuilds for s in all_stats)
    print(
        f"{sum(s.checks for s in all_stats)} checks over "
        f"{sum(s.nodes for s in all_stats)} nodes ({rebuilds} rebuilds, "
        f"{sum(s.writer_aborts for s in all_stats)} writer aborts), "
        f"{bad} mismatch(es)"
    )
    rebuilt = [s.program for s in all_stats if s.rebuilds != 1]
    if rebuilt:
        print(f"error: {rebuilt} rebuilt more than the root", file=sys.stderr)
        return 1
    if not any(s.writer_aborts for s in all_stats if s.program == "abort-stream"):
        # The abort-stream program failed to exercise the retraction path;
        # treat as a harness bug rather than a pass.
        print("error: sweep derived no writer's abort", file=sys.stderr)
        return 1
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
