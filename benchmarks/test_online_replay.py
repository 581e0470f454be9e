"""Online-vs-batch trace replay throughput (non-gating record).

Replays fuzzed traces of growing size through two pipelines that produce
identical per-prefix verdicts for the saturation levels (RC/RA/CC):

* **online** — one ``OnlineChecker`` fed event by event: the ``so ∪ wr``
  closure and the forced-edge saturation state grow incrementally
  (``add_node``/``add_edge`` + unfired-instance re-evaluation only);
* **batch-per-prefix** — what a consumer without the online checker must
  do to get the same verdict stream: after every event, replay the prefix
  into a fresh history and run ``satisfies_by_saturation`` from scratch
  (full matrix build + full quantifier expansion each time).

No timing assertion gates the suite (hardware noise); the record lands in
``BENCH_online.json`` + ``online_replay.txt`` in the results directory
(see ``conftest.py``) and the
verdict streams are asserted equal — the benchmark doubles as an
equivalence check at sizes the unit tests do not reach.
"""

import json
import time

from conftest import save_result
from repro.bench.reporting import format_table
from repro.checking.online import OnlineChecker
from repro.isolation import AXIOMS_BY_LEVEL, get_level
from repro.isolation.saturation import satisfies_by_saturation
from repro.trace import Trace, fuzz_history

LEVELS = ("RC", "RA", "CC")


def make_trace(sessions, txns_per_session, seed=2026):
    history = fuzz_history(
        seed,
        sessions=sessions,
        txns_per_session=txns_per_session,
        max_ops=4,
        variables=("x", "y", "z"),
        abort_rate=0.05,
    )
    return Trace.from_history(history, name=f"bench-{sessions}x{txns_per_session}")


def replay_online(trace):
    checker = OnlineChecker.from_trace(trace, levels=LEVELS)
    verdicts = []
    start = time.perf_counter()
    for event in trace.events:
        step = checker.feed(event)
        verdicts.append(tuple(step.verdicts[name] for name in LEVELS))
    return time.perf_counter() - start, verdicts


def replay_batch_per_prefix(trace):
    verdicts = []
    start = time.perf_counter()
    for length in range(1, len(trace) + 1):
        history = trace.prefix(length).to_history(strict=False)
        verdicts.append(
            tuple(
                satisfies_by_saturation(history, AXIOMS_BY_LEVEL[name])
                for name in LEVELS
            )
        )
    return time.perf_counter() - start, verdicts


def test_online_replay_throughput(results_dir):
    rows = []
    record = {"levels": list(LEVELS), "runs": []}
    for sessions, txns in ((4, 3), (8, 4), (12, 5)):
        trace = make_trace(sessions, txns)
        online_s, online_verdicts = replay_online(trace)
        batch_s, batch_verdicts = replay_batch_per_prefix(trace)
        assert online_verdicts == batch_verdicts, (
            "online and batch-per-prefix verdict streams must be identical"
        )
        events = len(trace)
        txn_count = sessions * txns
        rows.append(
            (
                f"{txn_count} txns / {events} events",
                f"{events / online_s:,.0f}",
                f"{events / batch_s:,.0f}",
                f"{batch_s / online_s:.1f}x",
            )
        )
        record["runs"].append(
            {
                "transactions": txn_count,
                "events": events,
                "online_seconds": round(online_s, 6),
                "batch_per_prefix_seconds": round(batch_s, 6),
                "online_events_per_second": round(events / online_s, 1),
                "batch_events_per_second": round(events / batch_s, 1),
                "speedup": round(batch_s / online_s, 2),
            }
        )
    text = format_table(
        ["trace", "online (events/s)", "batch-per-prefix (events/s)", "speedup"], rows
    )
    save_result(results_dir, "online_replay", text)
    (results_dir / "BENCH_online.json").write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + text)


def test_final_verdict_consistency_at_size(results_dir):
    """At benchmark sizes, the online final verdict still equals the plain
    batch checker on the completed history — for all five levels on a
    moderate trace (SI/SER searches are exponential-ish, so moderate)."""
    trace = make_trace(3, 2, seed=7)
    checker = OnlineChecker.from_trace(trace)
    checker.replay(trace)
    history = trace.to_history(strict=False)
    assert checker.verdicts == {
        name: get_level(name).satisfies(history)
        for name in ("RC", "RA", "CC", "SI", "SER")
    }
