"""Streaming-monitor soak: bounded memory and sustained throughput.

Feeds a seeded million-event fuzzed stream (default scaled down for the
ordinary test run; CI's soak step dials ``REPRO_BENCH_MONITOR_EVENTS`` up
to the full million) through a GC'ing :class:`repro.monitor.Monitor` in
``assume-fresh`` mode and records:

* **throughput** — events/second over the full stream, two-pass
  (untimed warm-up pass on a short prefix, then the timed pass), and
* **memory** — the live transaction window sampled at checkpoints, the
  monitor's ``peak_live`` high-water mark, and the ``tracemalloc`` peak.

The *memory* claim gates: the live window and peak must stay flat (far
below the number of transactions that streamed through), which is the
monitor's whole point.  The *throughput* floor is environment-tunable
(``REPRO_BENCH_MONITOR_MIN_EVS``, default 5000 — a deliberately low bar
so hardware noise cannot fail the suite; the single-core reference box
sustains ~28k ev/s, multi-core machines considerably more).

A short unbounded :class:`OnlineChecker` pass over the same prefix
records the memory the monitor *avoids*: its live count grows linearly
with the stream while the monitor's stays flat.  The record lands in
``BENCH_monitor.json`` in the results directory (see ``conftest.py``;
baseline committed under ``benchmarks/baseline/``) for ``repro bench diff``.
"""

import time
import tracemalloc

from conftest import env_float, env_int, save_bench_json
from repro.checking.online import OnlineChecker
from repro.monitor import Monitor, MonitorConfig
from repro.trace import fuzz_stream

#: Full-stream length for the timed soak (CI soak step: 1_000_000).
EVENTS = env_int("REPRO_BENCH_MONITOR_EVENTS", 80_000)
#: Prefix length for the unbounded-checker comparison (quadratic-ish).
UNBOUNDED_EVENTS = env_int("REPRO_BENCH_MONITOR_UNBOUNDED_EVENTS", 4_000)
#: Gating throughput floor, events/second.
MIN_EVS = env_float("REPRO_BENCH_MONITOR_MIN_EVS", 5_000.0)
#: Live-window ceiling: peak live transactions, independent of EVENTS.
MAX_PEAK_LIVE = env_int("REPRO_BENCH_MONITOR_MAX_PEAK_LIVE", 200)

SEED = 2026
STREAM_SHAPE = dict(sessions=6, staleness=3, abort_rate=0.1)
#: The sweep-tuned cadence (see docs/architecture.md).
CONFIG = dict(isolation="RC", window=4, gc_every=16, evict_batch=8,
              mode="assume-fresh")


def _stream(events):
    header, it = fuzz_stream(seed=SEED, events=events, **STREAM_SHAPE)
    return header, it


def _run_monitor(events, checkpoints=8):
    """One monitored pass; returns (seconds, report, live_samples)."""
    header, it = _stream(events)
    monitor = Monitor(header, MonitorConfig(**CONFIG))
    every = max(1, events // checkpoints)
    samples = []
    count = 0
    start = time.perf_counter()
    for event in it:
        monitor.feed(event)
        count += 1
        if count % every == 0:
            samples.append(monitor.stats().live)
    seconds = time.perf_counter() - start
    return seconds, monitor.report(), samples


def test_monitor_soak(results_dir):
    # Pass 1 (untimed): warm caches, and take the tracemalloc allocation
    # peak here — tracing slows the interpreter several-fold, so it must
    # never overlap the timed pass.
    tracemalloc.start()
    _run_monitor(min(EVENTS, 10_000))
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Pass 2 (timed), untraced.
    seconds, report, live_samples = _run_monitor(EVENTS)

    assert report.ok, "the seeded soak stream must be RC-consistent"
    assert report.stats.events == EVENTS
    evs = EVENTS / seconds

    # Unbounded comparison on a short prefix: the checker that never
    # evicts holds every transaction live, linear in the stream.
    header, it = _stream(UNBOUNDED_EVENTS)
    unbounded = OnlineChecker(
        header.variables, initial=header.initial,
        levels=("RC",), record_steps=False,
    )
    for event in it:
        unbounded.feed(event)
    unbounded_live = unbounded.live_transaction_count

    cases = [
        {"name": f"monitor-soak-{EVENTS}", "seconds": round(seconds, 4),
         "events": EVENTS, "events_per_second": round(evs, 1)},
    ]
    save_bench_json(
        results_dir, "monitor", cases,
        extra={
            "config": dict(CONFIG),
            "peak_live": report.peak_live,
            "live_samples": live_samples,
            "evicted": report.stats.evicted,
            "collections": report.stats.collections,
            "tracemalloc_peak_bytes": traced_peak,
            "unbounded_events": UNBOUNDED_EVENTS,
            "unbounded_live": unbounded_live,
        },
    )

    # -- memory gates (the monitor's raison d'être) -------------------------
    # The live window never scales with the stream ...
    assert report.peak_live <= MAX_PEAK_LIVE, (
        f"peak live window {report.peak_live} > {MAX_PEAK_LIVE}: GC is not "
        f"keeping up"
    )
    assert max(live_samples) <= MAX_PEAK_LIVE
    # ... and nearly everything that completed was collected.
    assert report.stats.evicted > 0.9 * (EVENTS / 10), (
        "almost no transactions were evicted — the soak is not exercising GC"
    )
    # The unbounded checker on a 20x shorter prefix already holds more
    # transactions live than the monitor's peak over the whole stream.
    assert unbounded_live > report.peak_live, (
        f"unbounded checker live={unbounded_live} vs monitor peak="
        f"{report.peak_live}: the comparison stream is too small to witness "
        f"the bounded-memory claim"
    )

    # -- throughput floor (deliberately low; see module docstring) ----------
    assert evs >= MIN_EVS, (
        f"{evs:.0f} ev/s under the {MIN_EVS:.0f} ev/s floor "
        f"(REPRO_BENCH_MONITOR_MIN_EVS to tune)"
    )
