"""The benchmark's four workloads: inputs from a seed, cases, and oracles.

A workload's :meth:`setup` turns the seed into a list of :class:`Case`
objects.  Each case has a ``run`` callable, which the benchmark times, and a
``check`` callable, which compares the result with an independent reference
outside the timed region and returns an :class:`Outcome`.

* ``explore-apps`` — the Fig. 14 suite at the paper's 3 sessions x 3
  transactions: 5 applications x 5 client programs, each explored by
  explore-ce(CC), explore-ce*(CC, SI) and explore-ce*(CC, SER).  The
  programs are the paper's fixed suite; the seed shuffles the case order.
  Oracle: history counts from the DFS enumerator (``make_oracle.py``).
* ``stream-search`` — engine-recorded streams of the ``serializable``
  config (hotkeys and tpcc programs), decided by a keep-mode ``Monitor``
  at SI and at SER.  Oracle: batch ``satisfies`` on the full history, and
  the config's claimed level.
* ``stream-gc`` — one long ``fuzz_stream`` fed to an RC ``Monitor`` in
  ``assume-fresh`` mode.  Oracle: batch RC ``satisfies`` on the full
  history, and the generator's read-latest guarantee (RC).
* ``difftest`` — ``run_difftest`` over every engine config x (hotkeys +
  the config's bug demo) x seeded schedules, one run per case.  Oracle:
  batch verdicts at the five levels equal the online ones, and honest
  configs keep their claimed level.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import calibration
from repro.apps.workloads import APPLICATIONS, client_program
from repro.checking.online import DEFAULT_LEVELS
from repro.dpor.algorithms import explore_ce, explore_ce_star
from repro.engine.harness import run_difftest, run_program, workload_program
from repro.engine.mvcc import engine_configs, get_engine_config
from repro.isolation import get_level
from repro.monitor import Monitor, MonitorConfig
from repro.trace import fuzz_stream
from repro.trace.format import Trace

HERE = Path(__file__).resolve().parent
EXPLORE_ORACLE = HERE / "oracle_explore_apps.json"

#: Fig. 14 algorithm label -> (exploration level, Valid level or None).
EXPLORE_ALGORITHMS = {"CC": ("CC", None), "CC+SI": ("CC", "SI"), "CC+SER": ("CC", "SER")}
EXPLORE_SHAPE = (3, 3)  # sessions, transactions per session (the paper's)
PROGRAMS_PER_APP = 5
#: Per-case budget: a case that runs out of it is a failure.
EXPLORE_TIMEOUT_S = 60.0

#: (workload, transactions per session) of the stream-search programs; two
#: sessions each, every shape recorded under several seeds.  Each stream is
#: cut to its first SEARCH_EVENTS events, so that the per-event search cost
#: (which grows with the prefix) is alike from seed to seed.
SEARCH_STREAMS = (("hotkeys", 60), ("tpcc", 50))
SEARCH_SEEDS_PER_SHAPE = 24
SEARCH_EVENTS = 300
SEARCH_CONFIG = "serializable"
SEARCH_LEVELS = ("SI", "SER")

GC_EVENTS = 8_000
GC_SHAPE = dict(sessions=6, staleness=3, abort_rate=0.1)
GC_CLAIMED = "RC"

DIFFTEST_SEEDS = 100
DIFFTEST_SHAPE = (2, 3)


@dataclass
class Outcome:
    """What one case produced, as judged by its oracle."""

    ok: bool
    #: Units of work done: histories, events or runs.
    work: int
    #: Live-state high-water mark of the case (events or transactions), or
    #: 0 where the workload reports none.
    peak_live: int
    #: Deterministic work counters; a re-run of the case must repeat them.
    counters: Dict[str, int]
    #: Per-event ``Monitor.feed`` latencies in reference nanoseconds, for
    #: the stream workloads; their sum is the case's time.
    latencies_ns: Optional[array] = None
    error: str = ""


@dataclass
class Case:
    key: str
    #: The timed call; takes the active tracer (or None).
    run: Callable[[object], object]
    #: Oracle: (result, global counter deltas) -> Outcome.
    check: Callable[[object, Dict[str, int]], Outcome] = field(repr=False, default=None)
    #: (trace, level) whose batch verdict ``check`` compares with; filled
    #: into ``expected`` by :func:`prepare_oracles`.
    oracle_job: Optional[Tuple[Trace, str]] = field(repr=False, default=None)
    expected: Optional[bool] = None


@dataclass
class Workload:
    name: str
    #: What one unit of ``throughput_per_s`` is.
    work_unit: str
    #: "case" (time to verdict per case) or "event" (Monitor.feed latency).
    latency_of: str
    #: The per-layer metric that reports the cases' live-state peak, if any.
    live_gauge: Optional[str]
    setup: Callable[[int], List[Case]] = field(repr=False)
    #: Cases run long enough to need calibration inside them.
    sliced: bool = False


# -- explore-apps ------------------------------------------------------------------


def _explore_setup(seed: int) -> List[Case]:
    expected = json.loads(EXPLORE_ORACLE.read_text())["counts"]
    sessions, txns = EXPLORE_SHAPE
    cases = [
        _explore_case(client_program(app, sessions, txns, index), label, expected)
        for app in APPLICATIONS
        for index in range(PROGRAMS_PER_APP)
        for label in EXPLORE_ALGORITHMS
    ]
    random.Random(seed).shuffle(cases)
    return cases


def _explore_case(program, label: str, expected: Dict[str, Dict[str, int]]) -> Case:
    level, valid = EXPLORE_ALGORITHMS[label]
    want = expected[program.name][label]

    def run(_tracer):
        if valid is None:
            return explore_ce(program, level, collect_histories=False, timeout=EXPLORE_TIMEOUT_S)
        return explore_ce_star(
            program, level, valid, collect_histories=False, timeout=EXPLORE_TIMEOUT_S
        )

    def check(result, base: Dict[str, int]) -> Outcome:
        stats = result.stats
        counters = dict(base)
        for name in ("explore_calls", "end_states", "outputs", "blocked",
                     "swap_candidates", "swaps_applied"):
            counters[name] = getattr(stats, name)
        error = ""
        if stats.timed_out:
            error = f"timed out after {EXPLORE_TIMEOUT_S}s"
        elif stats.outputs != want:
            error = f"{stats.outputs} histories, DFS oracle says {want}"
        return Outcome(not error, stats.outputs, stats.peak_live_events, counters, error=error)

    return Case(f"{program.name}/{label}", run, check)


# -- stream workloads ----------------------------------------------------------------


def batch_verdicts(jobs: List[Tuple[Trace, str]]) -> List[bool]:
    """Batch ``satisfies`` of each (trace, level) on the trace's full history."""
    return [get_level(level).satisfies(trace.to_history(strict=False)) for trace, level in jobs]


def prepare_oracles(cases: List[Case]) -> None:
    """Compute the batch verdicts the stream cases are checked against.

    They run in a child process (this file run as a script), so that the
    batch check's memory does not count toward the benchmark's peak RSS.
    """
    pending = [case for case in cases if case.oracle_job is not None]
    if not pending:
        return
    jobs = [[trace.dumps(), level] for trace, level in (case.oracle_job for case in pending)]
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps(jobs), capture_output=True, text=True, check=True, timeout=150,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
    )
    for case, verdict in zip(pending, json.loads(child.stdout), strict=True):
        case.expected = verdict


def _stream_case(key: str, trace: Trace, config: MonitorConfig, claimed: str) -> Case:
    """Monitor ``trace`` under ``config``."""
    events = list(trace.events)

    def run(tracer):
        """Feed every event; returns the report and the per-event feed
        latencies in reference nanoseconds (see ``calibration.py``)."""
        monitor = Monitor(trace.header, config)
        feed = monitor.feed
        latencies = array("d", bytes(8 * len(events)))
        clock = time.perf_counter_ns
        chunk, kernel_ns = 0, calibration.sample()
        chunk_end = clock() + calibration.SLICE_NS
        for i, event in enumerate(events):
            if tracer is not None:
                tracer.event = i
            start = clock()
            feed(event)
            stop = clock()
            latencies[i] = stop - start
            if stop >= chunk_end or i == len(events) - 1:
                after = calibration.sample()
                factor = calibration.scale(kernel_ns, after)
                for j in range(chunk, i + 1):
                    latencies[j] *= factor
                chunk, kernel_ns = i + 1, after
                chunk_end = clock() + calibration.SLICE_NS
        if tracer is not None:
            tracer.event = -1
        return monitor.report(), latencies

    def check(result, base: Dict[str, int]) -> Outcome:
        report, latencies = result
        level = get_level(config.isolation)
        claim_covers = level.name == claimed or level.is_weaker_than(get_level(claimed))
        error = ""
        if case.expected is None:
            error = "no batch verdict to compare with"
        elif claim_covers and not case.expected:
            error = f"stream violates {level.name}, which its source claims"
        elif report.ok != case.expected:
            error = f"Monitor says ok={report.ok}, batch {level.name} says {case.expected}"
        stats = report.stats
        counters = dict(base, events=stats.events, collections=stats.collections,
                        evicted=stats.evicted, pruned=stats.pruned)
        return Outcome(not error, stats.events, report.peak_live, counters, latencies, error)

    case = Case(key, run, check, oracle_job=(trace, config.isolation))
    return case


def _search_setup(seed: int) -> List[Case]:
    rng = random.Random(seed)
    config = get_engine_config(SEARCH_CONFIG)
    sessions = 2
    cases = []
    for workload, txns in SEARCH_STREAMS:
        for _ in range(SEARCH_SEEDS_PER_SHAPE):
            stream_seed = rng.randrange(1 << 30)
            program = workload_program(workload, sessions, txns, stream_seed)
            trace = run_program(program, config, seed=stream_seed).trace.prefix(SEARCH_EVENTS)
            for level in SEARCH_LEVELS:
                key = f"{workload}-{sessions}x{txns}[:{len(trace)}]#s{stream_seed}@{level}"
                cases.append(_stream_case(key, trace, MonitorConfig(isolation=level),
                                          config.claimed))
    return cases


def _gc_setup(seed: int) -> List[Case]:
    header, events = fuzz_stream(seed=seed, events=GC_EVENTS, **GC_SHAPE)
    trace = Trace(header, events)
    config = MonitorConfig(isolation="RC", mode="assume-fresh")
    return [_stream_case(f"fuzz-stream-{GC_EVENTS}#s{seed}", trace, config, GC_CLAIMED)]


# -- difftest ----------------------------------------------------------------------------


def _difftest_setup(seed: int) -> List[Case]:
    rng = random.Random(seed)
    seeds = rng.sample(range(1 << 20), DIFFTEST_SEEDS)
    cases = []
    for name, config in engine_configs().items():
        workloads = ["hotkeys"] + ([f"demo:{config.bug}"] if config.bug else [])
        for workload in workloads:
            for run_seed in seeds:
                cases.append(_difftest_case(name, config, workload, run_seed))
    return cases


def _difftest_case(name: str, config, workload: str, run_seed: int) -> Case:
    sessions, txns = DIFFTEST_SHAPE

    def run(_tracer):
        report = run_difftest(configs=[name], workloads=[workload], seeds=[run_seed],
                              sessions=sessions, txns_per_session=txns)
        return report.configs[name].results[0]

    def check(verdict, base: Dict[str, int]) -> Outcome:
        trace = verdict.run.trace
        history = trace.to_history(strict=False)
        batch = {level: get_level(level).satisfies(history) for level in DEFAULT_LEVELS}
        error = ""
        if batch != verdict.verdicts:
            error = f"online verdicts {verdict.verdicts} != batch {batch}"
        elif config.bug is None and not verdict.claim_holds:
            error = f"honest config violates its claimed {config.claimed}"
        stats = verdict.run.stats
        aborts = stats.user_aborts + stats.deadlock_aborts + stats.fcw_aborts
        counters = dict(base, events=len(trace), commits=stats.commits, aborts=aborts,
                        lock_waits=stats.lock_waits)
        return Outcome(not error, 1, 0, counters, error=error)

    return Case(f"{workload}@{name}#s{run_seed}", run, check)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("explore-apps", "histories", "case", "dpor.peak_live_events",
                 _explore_setup, sliced=True),
        Workload("stream-search", "events", "event", "monitor.peak_live_txns", _search_setup),
        Workload("stream-gc", "events", "event", "monitor.peak_live_txns", _gc_setup),
        Workload("difftest", "runs", "case", None, _difftest_setup),
    )
}


if __name__ == "__main__":
    # The oracle child of prepare_oracles: JSON jobs on stdin, verdicts out.
    jobs = [(Trace.loads(text), level) for text, level in json.load(sys.stdin)]
    json.dump(batch_verdicts(jobs), sys.stdout)
