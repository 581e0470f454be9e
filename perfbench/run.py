"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload explore-apps --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` measures the same cases untraced for half the time and traced
for the other half, and prints the per-layer metrics plus the tracing
overhead.  Each case's result is checked against an independent oracle
(see ``workloads.py``).  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it give provenance and the deterministic work counters.
A full record, and for traced runs the spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3
#: The package import is timed in this many fresh interpreters.
IMPORT_REPEATS = 5
#: Counters every run reports, traced or not, and that must repeat exactly.
GLOBAL_COUNTERS = ("saturation_ticks", "closure_word_ops", "executor_instructions")

#: Run by a fresh interpreter with the benchmark and ``src`` directories as
#: arguments: prints the import time of the package, in reference seconds.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
import calibration
before = calibration.steady_sample()
start = time.perf_counter()
import workloads
elapsed = time.perf_counter() - start
print(elapsed * calibration.scale(before, calibration.steady_sample()))
"""


def import_seconds() -> List[float]:
    """Import time of the package under test, once per fresh interpreter.

    The probes run after this process imported the package, so that they
    all find the same compiled byte code."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def global_counters() -> Dict[str, int]:
    from repro.core.bitrel import RelationMatrix
    from repro.isolation.saturation import IncrementalSaturation
    from repro.semantics import executor

    return {
        "saturation_ticks": IncrementalSaturation.premise_evals,
        "closure_word_ops": RelationMatrix.word_ops,
        "executor_instructions": executor.INSTRUCTIONS_EXECUTED,
    }


class Measurement:
    """Timed executions of a workload's cases, with their oracle outcomes."""

    def __init__(self, cases, sliced: bool = False) -> None:
        self.cases = cases
        #: Calibrate inside each case too (long cases; untraced runs only).
        self.sliced = sliced
        #: Reference-speed time of each execution, per case.
        self.times_ns: List[List[float]] = [[] for _ in cases]
        self.outcomes: List[Optional[object]] = [None] * len(cases)
        self.latencies: List[list] = [[] for _ in cases]
        self.attempted = 0
        #: Raw wall time of all executions (tracer shares are relative to it).
        self.wall_ns = 0
        self.failures: List[str] = []
        self.counter_mismatches: List[str] = []
        #: Tracer call/decision deltas of each case's first execution.
        self.trace_deltas: List[Optional[tuple]] = [None] * len(cases)

    def run(self, seconds: float, tracer=None) -> "Measurement":
        """Execute cases in order, cycling, until every case ran once and
        the timed calls add up to ``seconds`` of wall time.

        Each case's time is scaled to the reference speed by the
        calibration kernel runs around it (see ``calibration.py``).
        """
        gc.collect()
        timed_ns = 0
        budget_ns = int(seconds * 1e9)
        clock = time.perf_counter_ns
        i = 0
        count = len(self.cases)
        kernel_ns = calibration.sample()
        while i < count or timed_ns < budget_ns:
            index = i % count
            i += 1
            case = self.cases[index]
            self.attempted += 1
            if tracer is not None:
                tracer.case = index
                before = tracer.snapshot()
            counters0 = global_counters()
            slices = calibration.Sliced() if self.sliced and tracer is None else None
            start = clock()
            try:
                if slices is None:
                    result = case.run(tracer)
                else:
                    with slices:
                        result = case.run(tracer)
            except Exception:
                timed_ns += clock() - start
                self.failures.append(f"{case.key}: {traceback.format_exc(limit=3)}")
                continue
            elapsed = clock() - start
            timed_ns += elapsed
            self.wall_ns += elapsed
            after = calibration.sample()
            if slices is None:
                scaled = elapsed * calibration.scale(kernel_ns, after)
            else:
                scaled = slices.reference_ns()
            kernel_ns = after
            counters1 = global_counters()
            if tracer is not None and self.trace_deltas[index] is None:
                self.trace_deltas[index] = _delta(before, tracer.snapshot())
            base = {k: counters1[k] - counters0[k] for k in GLOBAL_COUNTERS}
            if tracer is not None:
                tracer.active = False
            try:
                outcome = case.check(result, base)
            except Exception:
                self.failures.append(f"{case.key}: oracle: {traceback.format_exc(limit=3)}")
                continue
            finally:
                if tracer is not None:
                    tracer.active = True
            if not outcome.ok:
                self.failures.append(f"{case.key}: {outcome.error}")
            if outcome.latencies_ns is not None:
                self.latencies[index].append(outcome.latencies_ns)
                scaled = sum(outcome.latencies_ns)
            self.times_ns[index].append(scaled)
            first = self.outcomes[index]
            if first is None:
                self.outcomes[index] = outcome
            elif first.counters != outcome.counters:
                self.counter_mismatches.append(
                    f"{case.key}: {first.counters} then {outcome.counters}"
                )
        if tracer is not None:
            tracer.case = -1
        return self

    # -- derived figures -----------------------------------------------------------

    def complete(self) -> bool:
        return all(o is not None for o in self.outcomes)

    def case_seconds(self) -> List[float]:
        """Median time of each case, in seconds."""
        return [statistics.median(t) / 1e9 for t in self.times_ns if t]

    def throughput(self) -> float:
        """Work of one pass over the cases / sum of their median times."""
        work = sum(o.work for o in self.outcomes if o is not None)
        return work / sum(self.case_seconds())

    def latency_samples_us(self, latency_of: str) -> List[float]:
        """Per-case (or per-event) median latency, in microseconds."""
        if latency_of == "case":
            return [s * 1e6 for s in self.case_seconds()]
        samples: List[float] = []
        for runs in self.latencies:
            if not runs:
                continue
            if len(runs) == 1:
                samples.extend(v / 1e3 for v in runs[0])
            else:
                samples.extend(statistics.median(column) / 1e3 for column in zip(*runs))
        return samples

    def counter_totals(self) -> Dict[str, int]:
        """Each counter summed over one execution of every case."""
        totals: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome is None:
                continue
            for key, value in outcome.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


def _delta(before: tuple, after: tuple) -> tuple:
    calls0, search0, dec0, changed0 = before
    calls1, search1, dec1, changed1 = after
    calls = tuple(b - a for a, b in zip(calls0, calls1))
    search = {op: n - search0.get(op, 0) for op, n in search1.items()}
    return calls, search, dec1 - dec0, changed1 - changed0


def tail_percentile(samples: List[float]):
    """(percentile, value): the highest percentile with >= 10 samples above
    it, but at most p99.

    With thousands of per-event samples the ten-beyond rule alone would
    pick a near-maximum, set by the few heaviest events of whichever
    streams the seed drew; p99 still has >= 10 samples beyond it.
    """
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 11, math.ceil(0.99 * len(ordered)) - 1))
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(workload, measurement: Measurement, setup_s: float) -> Dict[str, float]:
    samples = measurement.latency_samples_us(workload.latency_of)
    _, tail = tail_percentile(samples)
    failed = len(measurement.failures)
    return {
        "setup_s": setup_s,
        "throughput_per_s": measurement.throughput(),
        "latency_p50_us": statistics.median(samples),
        "latency_tail_us": tail,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (measurement.attempted - failed) / measurement.attempted,
    }


UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_us": "us",
    "latency_tail_us": "us", "peak_rss_mb": "MB", "ok_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, untraced: Measurement, traced: Measurement, tracer) -> Dict[str, tuple]:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    totals = traced.counter_totals()
    peak_live = max(o.peak_live for o in traced.outcomes if o is not None)
    wall_ns = traced.wall_ns
    self_s = tracer.self_seconds()
    calls: Dict[str, int] = {name: 0 for name in tracer.names}
    search: Dict[str, int] = {}
    decisions = changed = 0
    for delta in traced.trace_deltas:
        if delta is None:
            continue
        for name, n in zip(tracer.names, delta[0]):
            calls[name] += n
        for op, n in delta[1].items():
            search[op] = search.get(op, 0) + n
        decisions += delta[2]
        changed += delta[3]

    def pct(name: str) -> tuple:
        return 100.0 * self_s.get(name, 0.0) * 1e9 / wall_ns, "%"

    def count(value) -> tuple:
        return value, "count"

    metrics: Dict[str, tuple] = {
        "tracing_overhead": (sum(traced.case_seconds()) / sum(untraced.case_seconds()), "x"),
        "unattributed_pct": (100.0 - sum(pct(n)[0] for n in tracer.names), "%"),
        "latency_samples": count(len(traced.latency_samples_us(workload.latency_of))),
        "dpor.explore_calls": count(totals.get("explore_calls", 0)),
        "dpor.swap_candidates": count(totals.get("swap_candidates", 0)),
        "dpor.swaps_applied": count(totals.get("swaps_applied", 0)),
        "dpor.swap_yield": (_ratio(totals.get("swaps_applied", 0),
                                   totals.get("swap_candidates", 0)), "ratio"),
        "dpor.valid_yield": (_ratio(totals.get("outputs", 0), totals.get("end_states", 0)),
                             "ratio"),
        "dpor.blocked": count(totals.get("blocked", 0)),
        "dpor.step_self_pct": pct("dpor.step"),
        "dpor.peak_live_events": count(0),
    }
    for fn in ("optimality", "read_latest", "is_swapped", "swap", "compute_reorderings"):
        metrics[f"dpor.{fn}_self_pct"] = pct(f"dpor.{fn}")
        metrics[f"dpor.{fn}_calls"] = count(calls.get(f"dpor.{fn}", 0))
    for fn in ("next_action", "valid_writes", "extend_history"):
        metrics[f"semantics.{fn}_self_pct"] = pct(f"semantics.{fn}")
    metrics.update({
        "semantics.executor_instructions": count(totals.get("executor_instructions", 0)),
        "isolation.satisfies_self_pct": pct("isolation.satisfies"),
        "isolation.satisfies_calls": count(calls.get("isolation.satisfies", 0)),
        "isolation.saturation_ticks": count(totals.get("saturation_ticks", 0)),
        "isolation.saturation_rebuilds": count(calls.get("isolation.rebuild", 0)),
        "isolation.rebuild_self_pct": pct("isolation.rebuild"),
        "isolation.advance_self_pct": pct("isolation.advance"),
        "isolation.evictable_self_pct": pct("isolation.evictable"),
        "core.closure_word_ops": count(totals.get("closure_word_ops", 0)),
        "core.remove_events_self_pct": pct("core.remove_events"),
        "core.remove_events_calls": count(calls.get("core.remove_events", 0)),
        "core.remove_nodes_self_pct": pct("core.remove_nodes"),
        "checking.feed_self_pct": pct("checking.feed"),
        "checking.history_self_pct": pct("checking.history"),
        "checking.history_builds": count(calls.get("trace.history", 0)),
        "checking.prune_settled_self_pct": pct("checking.prune_settled"),
        "checking.evict_self_pct": pct("checking.evict"),
    })
    for op in ("begin", "read", "write", "commit", "abort"):
        metrics[f"checking.search_calls.{op}"] = count(search.get(op, 0))
    commits, aborts = totals.get("commits", 0), totals.get("aborts", 0)
    metrics.update({
        "checking.decision_yield": (_ratio(changed, decisions), "ratio"),
        "trace.apply_self_pct": pct("trace.apply"),
        "monitor.feed_self_pct": pct("monitor.feed"),
        "monitor.collect_self_pct": pct("monitor.collect"),
        "monitor.collections": count(totals.get("collections", 0)),
        "monitor.evicted": count(totals.get("evicted", 0)),
        "monitor.pruned": count(totals.get("pruned", 0)),
        "monitor.peak_live_txns": count(0),
        "engine.run_program_self_pct": pct("engine.run_program"),
        "engine.to_trace_self_pct": pct("engine.to_trace"),
        "engine.commits": count(commits),
        "engine.aborts": count(aborts),
        "engine.commit_yield": (_ratio(commits, commits + aborts), "ratio"),
        "engine.lock_waits": count(totals.get("lock_waits", 0)),
    })
    if workload.live_gauge is not None:
        metrics[workload.live_gauge] = count(peak_live)
    return metrics


def provenance(args) -> Dict[str, object]:
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": _git_commit(),
        "code_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return ref
    return ref


def check_counters_repeat(record_key: str, counters: Dict[str, int]) -> Optional[str]:
    """Compare with an earlier run of the same code, workload and seed."""
    path = OUT / f"counters-{record_key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            return f"work counters differ from an earlier run: {earlier} vs {counters}"
        return None
    path.write_text(json.dumps(counters, sort_keys=True) + "\n")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, prepare_oracles

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    import_times = import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cases = None
        gc.collect()
        before = calibration.steady_sample()
        start = time.perf_counter()
        cases = workload.setup(args.seed)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * calibration.scale(before, calibration.steady_sample()))
    import_s = statistics.median(import_times)
    setup_s = import_s + statistics.median(setup_times)
    prepare_oracles(cases)
    gc.collect()
    gc.freeze()
    reset_peak_rss()

    info = provenance(args)
    OUT.mkdir(exist_ok=True)
    record_key = f"{args.workload}-seed{args.seed}-{info['code_sha256']}"
    if args.trace:
        from tracing import Tracer

        untraced = Measurement(cases, workload.sliced).run(args.seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = Measurement(cases).run(args.seconds / 2, tracer)
        runs = [untraced, traced]
        metrics = per_layer(workload, untraced, traced, tracer)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}")
    else:
        measured = Measurement(cases, workload.sliced).run(args.seconds)
        runs = [measured]
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(workload, measured, setup_s).items()}

    failures = [f for m in runs for f in m.failures]
    mismatches = [f for m in runs for f in m.counter_mismatches]
    counters = runs[0].counter_totals()
    for m in runs[1:]:
        other = {k: v for k, v in m.counter_totals().items() if k in counters}
        if other != counters:
            mismatches.append(f"traced counters {other} != untraced {counters}")
    repeat_error = check_counters_repeat(record_key, counters)
    if repeat_error:
        mismatches.append(repeat_error)
    attempted = sum(m.attempted for m in runs)
    correct = not failures and not mismatches and all(m.complete() for m in runs)

    samples = runs[0].latency_samples_us(workload.latency_of)
    tail_pct, _ = tail_percentile(samples)
    info.update(
        import_repeats_s=import_times,
        setup_repeats_s=setup_times,
        cases=len(cases),
        work_unit=workload.work_unit,
        latency_of=workload.latency_of,
        latency_samples=len(samples),
        tail_percentile=tail_pct,
        executions=[m.attempted for m in runs],
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(provenance=info, counters=counters, failures=failures[:50],
                  counter_mismatches=mismatches[:50], result=result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("provenance " + json.dumps(info, sort_keys=True))
    print("counters " + json.dumps(counters, sort_keys=True))
    for line in (failures + mismatches)[:10]:
        print("failure " + line.replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
