#!/usr/bin/env python
"""Per-node cost profile of the exploration hot path.

Runs ``explore-ce``/``explore-ce*`` over the Fig. 14 application suite and
breaks the per-node (= per ``explore`` call) cost into the three quantities
the PR's stacked optimisations target, sampled by the
:class:`~repro.dpor.stats.ExplorationStats` counters:

* **saturation ticks / node** — axiom premise evaluations
  (:attr:`IncrementalSaturation.premise_evals` delta): how much forced-edge
  work the sibling-shared derivation actually leaves per node;
* **closure word-ops / node** — :attr:`RelationMatrix.word_ops` delta:
  row-word updates the bitset relation engine performs;
* **executor instructions / node** — compiled-program instructions the
  dispatch loop retires re-running transaction bodies.

plus wall-clock µs/node.  Compare runs before/after a change to see where
per-node cost moved; ``--json`` emits the table machine-readably.

Usage::

    PYTHONPATH=src python scripts/profile_explore.py
    PYTHONPATH=src python scripts/profile_explore.py \
        --algorithms CC CC+SER --sessions 3 --txns 2 --per-app 2 --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.apps.workloads import application_suite  # noqa: E402
from repro.dpor.algorithms import explore_ce, explore_ce_star  # noqa: E402

#: Algorithm label → (explore level, Valid level or None), Fig. 14 naming.
PROFILES: Dict[str, tuple] = {
    "CC": ("CC", None),
    "RC+CC": ("RC", "CC"),
    "RA+CC": ("RA", "CC"),
    "CC+SI": ("CC", "SI"),
    "CC+SER": ("CC", "SER"),
}


def profile_algorithm(
    label: str, programs: Sequence, timeout: Optional[float]
) -> Dict[str, object]:
    """Aggregate stats of one algorithm over ``programs``, per-node rates."""
    level, valid = PROFILES[label]
    nodes = ticks = word_ops = instructions = checks = 0
    seconds = 0.0
    timed_out = 0
    for program in programs:
        start = time.perf_counter()
        if valid is None:
            result = explore_ce(program, level, collect_histories=False, timeout=timeout)
        else:
            result = explore_ce_star(
                program, level, valid, collect_histories=False, timeout=timeout
            )
        seconds += time.perf_counter() - start
        stats = result.stats
        nodes += stats.explore_calls
        ticks += stats.saturation_ticks
        word_ops += stats.closure_word_ops
        instructions += stats.executor_instructions
        checks += stats.consistency_checks
        timed_out += stats.timed_out
    per = nodes or 1
    return {
        "algorithm": label,
        "programs": len(programs),
        "nodes": nodes,
        "seconds": round(seconds, 4),
        "us_per_node": round(1e6 * seconds / per, 2),
        "saturation_ticks_per_node": round(ticks / per, 2),
        "closure_word_ops_per_node": round(word_ops / per, 2),
        "executor_instructions_per_node": round(instructions / per, 2),
        "consistency_checks_per_node": round(checks / per, 2),
        "timed_out": timed_out,
    }


def render(rows: List[Dict[str, object]]) -> str:
    columns = list(rows[0].keys())
    widths = [
        max(len(str(col)), max(len(str(row[col])) for row in rows)) for col in columns
    ]
    lines = [
        "  ".join(str(col).rjust(w) for col, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(row[col]).rjust(w) for col, w in zip(columns, widths)))
    return "\n".join(lines)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["CC", "CC+SER"],
        choices=sorted(PROFILES),
        help="Fig. 14 algorithm configurations to profile",
    )
    parser.add_argument("--sessions", type=int, default=3)
    parser.add_argument("--txns", type=int, default=2)
    parser.add_argument("--per-app", type=int, default=2, dest="per_app")
    parser.add_argument("--timeout", type=float, default=60.0, help="per-program timeout")
    parser.add_argument("--json", type=Path, default=None, help="also write rows as JSON")
    args = parser.parse_args(argv)

    programs = application_suite(args.sessions, args.txns, args.per_app)
    rows = [profile_algorithm(label, programs, args.timeout) for label in args.algorithms]
    print(render(rows))
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
