"""Regenerate the explore-apps history-count oracle from the DFS enumerator.

The counts come from ``dfs_baseline`` (the partial-order-reduction-free
``DFS(CC)`` of the paper's §7.3), never from explore-ce: DFS(CC) enumerates
``hist_CC(P)`` and the SI / SER counts are its members that satisfy the
stronger level (both are prefix-closed, so that is ``hist_SI(P)`` and
``hist_SER(P)``).  DFS at the 3x3 shape takes minutes per program, so the
result is stored in ``oracle_explore_apps.json`` and only rebuilt by hand::

    python3 perfbench/make_oracle.py

Entries already in the file are kept; delete the file to rebuild all.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.apps.workloads import APPLICATIONS, client_program  # noqa: E402
from repro.dpor.algorithms import dfs_baseline  # noqa: E402
from repro.isolation import get_level  # noqa: E402

ORACLE = HERE / "oracle_explore_apps.json"
SESSIONS, TXNS, PROGRAMS_PER_APP = 3, 3, 5


def main() -> int:
    data = json.loads(ORACLE.read_text()) if ORACLE.exists() else {}
    counts = data.setdefault("counts", {})
    data["shape"] = {"sessions": SESSIONS, "txns": TXNS, "programs_per_app": PROGRAMS_PER_APP}
    data["source"] = "dfs_baseline(program, 'CC'), filtered by SI / SER satisfies"
    for app in APPLICATIONS:
        for seed in range(PROGRAMS_PER_APP):
            program = client_program(app, SESSIONS, TXNS, seed)
            if program.name in counts:
                continue
            start = time.perf_counter()
            histories = dfs_baseline(program, "CC").histories
            counts[program.name] = {
                "CC": len(histories),
                "CC+SI": sum(1 for h in histories if get_level("SI").satisfies(h)),
                "CC+SER": sum(1 for h in histories if get_level("SER").satisfies(h)),
            }
            print(program.name, counts[program.name],
                  f"{time.perf_counter() - start:.1f}s", flush=True)
            ORACLE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
