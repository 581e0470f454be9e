"""GC-equivalence property tests for the streaming monitor.

The claim the monitor stands on: a :class:`repro.monitor.Monitor` with the
*tightest possible* GC cadence (``window=1, gc_every=1, evict_batch=1``)
produces, on **every prefix** of a stream, exactly the verdict the
unbounded :class:`repro.checking.online.OnlineChecker` produces — and
identifies the same first violating event.  The corpus deliberately mixes
clean fuzzed traces, high-abort traces (exercising fired-edge retraction
after compaction), application workloads, and the per-level gadget
anomalies (exercising the violated-monitor path), and one engine run whose
SI/SER violation a later abort retracts (exercising a verdict that flips
back to consistent).

``assume-fresh`` mode has a weaker contract — equivalence *while the
freshness assumption holds*, fail-stop (:class:`MonitorStaleReadError`)
the moment it does not — tested separately on generator streams.
"""

import socket
import threading

import pytest

from helpers import evicting_stream
from repro.apps.workloads import record_workload_trace
from repro.checking.online import OnlineChecker
from repro.engine.harness import run_program, workload_program
from repro.engine.mvcc import get_engine_config
from repro.monitor import Monitor, MonitorConfig, MonitorStaleReadError, serve
from repro.trace import (
    Trace,
    TraceEvent,
    TraceFormatError,
    fuzz_history,
    fuzz_stream,
    gadget_traces,
)
from repro.trace.format import EvictedTransactionError

LEVELS = ("RC", "RA", "CC", "SI", "SER")

#: Tightest cadence: collect after every event, evict every evictable
#: transaction immediately, shield only the single most recent completer.
TIGHT = dict(window=1, gc_every=1, evict_batch=1)


def _corpus():
    for seed in range(8):
        yield f"fuzz{seed}", Trace.from_history(fuzz_history(seed))
    for seed in range(6):
        yield f"aborty{seed}", Trace.from_history(
            fuzz_history(100 + seed, abort_rate=0.5)
        )
    for name, trace in gadget_traces().items():
        yield name, trace
    # SI and SER are violated at event 21 and consistent again from event
    # 24, when the writer that closed the cycle aborts.
    yield "si_engine_abort", run_program(
        workload_program("hotkeys", 2, 5, 0),
        get_engine_config("snapshot-isolation"),
        seed=0,
    ).trace


CORPUS = list(_corpus())


def assert_monitor_equals_unbounded(trace, level, mode="keep", window=1):
    """Feed both checkers event by event and compare every prefix."""
    unbounded = OnlineChecker.from_trace(trace, levels=(level,))
    monitor = Monitor(
        trace.header,
        MonitorConfig(
            isolation=level,
            window=window,
            gc_every=1,
            evict_batch=1,
            mode=mode,
        ),
    )
    for i, event in enumerate(trace.events):
        expected = unbounded.feed(event)
        got = monitor.feed(event)
        assert got.verdicts[level] == expected.verdicts[level], (
            f"{trace.header.name}/{level}: prefix {i} verdict diverged "
            f"({got.verdicts} != {expected.verdicts}) on {event}"
        )
        assert got.newly_violated == expected.newly_violated, (
            f"{trace.header.name}/{level}: prefix {i} newly_violated diverged"
        )
    first = unbounded.first_violation(level)
    got_first = monitor.first_violation()
    if first is None:
        assert got_first is None
    else:
        assert got_first is not None
        assert got_first.index == first.index, (
            f"{trace.header.name}/{level}: first violation at "
            f"#{got_first.index}, unbounded says #{first.index}"
        )
        assert got_first.event == first.event
    assert monitor.ok == all(v for v in unbounded.verdicts.values())
    return monitor


class TestKeepModeEquivalence:
    """Exact mode: every prefix, every level, first-violation identity."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", [name for name, _ in CORPUS])
    def test_every_prefix_matches(self, name, level):
        trace = dict(CORPUS)[name]
        assert_monitor_equals_unbounded(trace, level)

    @pytest.mark.parametrize("app", ["twitter", "shoppingCart"])
    @pytest.mark.parametrize("level", ("RC", "CC", "SER"))
    def test_app_workloads(self, app, level):
        trace = record_workload_trace(app, sessions=2, txns_per_session=2, seed=1)
        assert_monitor_equals_unbounded(trace, level)

    def test_gc_actually_evicts(self):
        """The equivalence above is vacuous if nothing is ever evicted."""
        evicted = 0
        for name, trace in CORPUS:
            for level in LEVELS:
                monitor = assert_monitor_equals_unbounded(trace, level)
                evicted += monitor.checker.evicted_count
        assert evicted > 0, "tight-cadence keep mode never evicted anything"


class TestAssumeFreshEquivalence:
    """Bounded mode: equal verdicts while the assumption holds; fail-stop after."""

    def test_clean_streams_match_with_heavy_aborts(self):
        evicted = 0
        for seed in range(4):
            header, events = fuzz_stream(
                seed=seed, events=2000, sessions=6, staleness=3, abort_rate=0.25
            )
            unbounded = OnlineChecker(
                header.variables, initial=header.initial,
                levels=("RC",), record_steps=False,
            )
            monitor = Monitor(
                header, MonitorConfig(isolation="RC", mode="assume-fresh", **TIGHT)
            )
            for event in events:
                expected = unbounded.feed(event)
                got = monitor.feed(event)
                assert got.verdicts["RC"] == expected.verdicts["RC"]
                assert got.newly_violated == expected.newly_violated
            evicted += monitor.checker.evicted_count
        assert evicted > 0, "assume-fresh never evicted on a clean stream"

    def test_live_window_is_bounded(self):
        header, events = fuzz_stream(seed=9, events=5000, sessions=6, staleness=3)
        monitor = Monitor(
            header,
            MonitorConfig(
                isolation="RC", window=8, gc_every=16, evict_batch=8,
                mode="assume-fresh",
            ),
        )
        for event in events:
            monitor.feed(event)
        assert monitor.ok
        # The window must not scale with the stream: thousands of committed
        # transactions went through, only a constant-ish set stays live.
        assert monitor.peak_live < 100

    def test_stale_read_fails_stop(self):
        """A read naming a writer older than the window raises, never lies."""
        with pytest.raises(MonitorStaleReadError):
            for attempt in range(20):
                header, events = fuzz_stream(
                    seed=attempt, events=5000, sessions=6,
                    staleness=40, stale_read_rate=0.3,
                )
                monitor = Monitor(
                    header,
                    MonitorConfig(
                        isolation="RC", window=2, gc_every=4, evict_batch=1,
                        mode="assume-fresh",
                    ),
                )
                for event in events:
                    monitor.feed(event)

    def test_keep_mode_does_not_blame_the_window(self):
        """In keep mode only a malformed event names an evicted transaction
        (here: a second commit of one): the trace error comes through as
        is, and an index that never began is no evicted transaction."""
        trace = evicting_stream(0)
        monitor = Monitor(
            trace.header, MonitorConfig(isolation="SER", window=1, gc_every=1, evict_batch=1)
        )
        monitor.run(trace.events)
        replayer = monitor.checker.replayer
        gone = next(
            event.tid for event in trace.events
            if event.op == "begin" and replayer.was_forgotten(event.tid)
        )
        with pytest.raises(EvictedTransactionError) as exc:
            monitor.feed(TraceEvent("commit", gone.session, gone.index))
        assert not isinstance(exc.value, MonitorStaleReadError)
        never = TraceEvent("commit", gone.session, -1)
        assert not replayer.was_forgotten(never.tid)
        with pytest.raises(TraceFormatError, match="missing begin"):
            monitor.feed(never)

    def test_assume_fresh_rejected_for_non_static_levels(self):
        for level in ("RA", "CC", "SI", "SER"):
            with pytest.raises(ValueError):
                MonitorConfig(isolation=level, mode="assume-fresh")


class TestMonitorReport:
    def test_report_on_violating_gadget(self):
        trace = dict(CORPUS)["rc_violation"]
        monitor = Monitor(trace.header, MonitorConfig(isolation="RC", **TIGHT))
        report = monitor.run(trace.events)
        assert not report.ok
        assert report.exit_code == 1
        assert report.first_violation is not None
        assert report.stats.violated

    def test_report_after_abort_retracts_violation(self):
        trace = dict(CORPUS)["si_engine_abort"]
        monitor = Monitor(trace.header, MonitorConfig(isolation="SI"))
        report = monitor.run(trace.events)
        assert monitor.checker.first_violation("SI") is not None
        assert report.ok
        assert report.exit_code == 0
        assert report.first_violation is None
        assert not report.stats.violated

    def test_report_on_clean_stream(self):
        header, events = fuzz_stream(seed=3, events=500, sessions=4)
        monitor = Monitor(
            header, MonitorConfig(isolation="RC", mode="assume-fresh", **TIGHT)
        )
        report = monitor.run(events)
        assert report.ok
        assert report.exit_code == 0
        assert report.first_violation is None
        assert report.stats.events == 500


class TestServe:
    def test_socket_round_trip(self):
        """serve() binds, reads one connection's JSONL stream, verdicts."""
        trace = gadget_traces()["rc_violation"]
        payload = trace.dumps()
        box = {}
        ready = threading.Event()

        def _capture(port):
            box["port"] = port
            ready.set()

        def _run():
            box["report"] = serve(
                0,
                MonitorConfig(isolation="RC", **TIGHT),
                ready=_capture,
            )

        server = threading.Thread(target=_run, daemon=True)
        server.start()
        assert ready.wait(timeout=10)
        with socket.create_connection(("127.0.0.1", box["port"]), timeout=10) as conn:
            conn.sendall(payload.encode("utf-8"))
        server.join(timeout=10)
        assert not server.is_alive()
        report = box["report"]
        assert not report.ok
        assert report.exit_code == 1
        assert report.first_violation is not None
