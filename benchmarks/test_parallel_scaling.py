"""Serial vs. parallel exploration wall time on the application benchmarks.

Runs the table-F.1 application programs (at a scale where one exploration
takes a measurable fraction of a second) through
:class:`~repro.dpor.explore.SwappingExplorer`, in-process and on its
persistent worker pool at several worker counts, then

* asserts the parallel runs produce the **identical** canonical history
  set and identical outputs/filtered totals (always, on any machine),
* times :data:`SAMPLES` alternating serial and parallel runs per config
  and records the median wall-clock times, the speedups between medians,
  every sample, and pool telemetry (start method, tasks dispatched,
  crash/respawn counts) in machine-readable ``BENCH_parallel.json`` (plus
  a rendered table in ``parallel_scaling.txt``) in the results directory
  (see ``conftest.py``), and
* gates two targets on those medians: **>= 1.8x** best speedup at
  4 workers on a multi-core machine (skipped below 4 cores), and **no
  regression** at 2 workers wherever the suite runs — on a 1-core
  container the floor is relaxed to ``REPRO_BENCH_TWO_WORKER_FLOOR``
  (default 0.75; the pool cannot beat serial without a second core, but
  it must stay close).

Worker counts default to ``2,4`` and can be overridden::

    REPRO_BENCH_PARALLEL_WORKERS=2,4,8 pytest benchmarks/test_parallel_scaling.py

The speedup targets are env-overridable too (``REPRO_BENCH_SPEEDUP_TARGET``,
``REPRO_BENCH_TWO_WORKER_FLOOR``) so a known-slow runner can be tuned
without editing the suite.
"""

import json
import os
import platform
import statistics

import pytest

from conftest import TIMEOUT, save_result
from repro.apps import client_program
from repro.bench.reporting import format_table
from repro.dpor import SwappingExplorer
from repro.isolation import get_level

WORKER_COUNTS = tuple(
    int(w) for w in os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "2,4").split(",")
)

#: Best-speedup floor on a >= 4-core machine (ISSUE 9: pool must pay).
SPEEDUP_TARGET = float(os.environ.get("REPRO_BENCH_SPEEDUP_TARGET", "1.8"))

#: workers=2 floor on a single-core machine.  The pool cannot *win*
#: without a second core; this guards against the pre-pool pathology
#: (fork-per-fan-out was 0.5-0.7x serial) while absorbing timer noise.
ONE_CORE_TWO_WORKER_FLOOR = float(os.environ.get("REPRO_BENCH_TWO_WORKER_FLOOR", "0.75"))

#: Timed runs per config and worker count.  Serial and parallel samples
#: alternate, and the gates compare medians, so one run slowed by a
#: neighbour on a shared machine cannot decide a speedup.
SAMPLES = 5

#: (application, sessions, txns/session, program index, base, valid) —
#: table-F.1 rows heavy enough that one exploration dominates pool startup.
CONFIGS = (
    ("courseware", 3, 3, 3, "CC", "SER"),
    ("courseware", 3, 3, 3, "CC", None),
    ("shoppingCart", 3, 3, 1, "CC", "SER"),
)


def _explore(program, base, valid, workers, collect):
    """Run one exploration; returns (result, explorer)."""
    kwargs = dict(
        valid_level=get_level(valid) if valid else None,
        collect_histories=collect,
        timeout=TIMEOUT,
    )
    explorer = SwappingExplorer(program, get_level(base), workers=workers, **kwargs)
    return explorer.run(), explorer


def _pool_telemetry(explorer):
    """Persistent-pool counters from the last run (all zero/None when the
    seed phase finished the tree serially and the pool never started)."""
    pool = getattr(explorer, "pool", None)
    if pool is None:
        return {}
    return {
        "start_method": pool.start_method,
        "tasks_dispatched": pool.tasks_dispatched,
        "crashes": pool.crashes,
        "respawns": pool.respawns,
    }


def _run_record(program, label, workers, timed):
    """One measurements row from ``timed``, a config's (result, explorer)
    samples at one worker count: the median time and the counters."""
    seconds = [result.stats.seconds for result, _ in timed]
    stats = timed[-1][0].stats
    return {
        "program": program.name,
        "algorithm": label,
        "workers": workers,
        "seconds": statistics.median(seconds),
        "samples_s": seconds,
        "outputs": stats.outputs,
        "filtered": stats.filtered,
        "end_states": stats.end_states,
        "timed_out": any(result.stats.timed_out for result, _ in timed),
    }


@pytest.fixture(scope="module")
def measurements():
    runs = []
    for app, sessions, txns, index, base, valid in CONFIGS:
        program = client_program(app, sessions, txns, index)
        label = f"{base}+{valid}" if valid else base
        serial, _ = _explore(program, base, valid, 1, collect=True)
        serial_keys = sorted(serial.histories.keys())
        collected = {
            workers: _explore(program, base, valid, workers, collect=True)[0]
            for workers in WORKER_COUNTS
        }
        timed = {workers: [] for workers in (1, *WORKER_COUNTS)}
        for _ in range(SAMPLES):
            for workers, samples in timed.items():
                samples.append(_explore(program, base, valid, workers, collect=False))
        serial_run = _run_record(program, label, 1, timed[1])
        serial_run.update(speedup_vs_serial=1.0, identical_histories=True)
        runs.append(serial_run)
        for workers in WORKER_COUNTS:
            run = _run_record(program, label, workers, timed[workers])
            run.update(
                speedup_vs_serial=(
                    serial_run["seconds"] / run["seconds"] if run["seconds"] else 0.0
                ),
                identical_histories=sorted(collected[workers].histories.keys()) == serial_keys,
                worker_processes=len([p for p in collected[workers].worker_stats if p != 0]),
                pool=_pool_telemetry(timed[workers][-1][1]),
            )
            runs.append(run)
    return runs


def test_parallel_matches_serial_exactly(measurements):
    """Identity of output sets and counter totals — on any machine."""
    by_config = {}
    for run in measurements:
        by_config.setdefault((run["program"], run["algorithm"]), []).append(run)
    for (program, algorithm), runs in by_config.items():
        serial = next(r for r in runs if r["workers"] == 1)
        for run in runs:
            assert run["identical_histories"], (program, algorithm, run["workers"])
            for counter in ("outputs", "filtered", "end_states"):
                assert run[counter] == serial[counter], (program, algorithm, counter)


def _best_speedup(measurements, workers=None):
    eligible = [
        r
        for r in measurements
        if r["workers"] > 1 and (workers is None or r["workers"] == workers)
    ]
    if not eligible:
        return None
    return max(eligible, key=lambda r: r["speedup_vs_serial"])


def test_record_bench_parallel_json(measurements, results_dir):
    cpu_count = os.cpu_count()
    best = _best_speedup(measurements)
    best_two = _best_speedup(measurements, workers=2)
    payload = {
        "machine": {
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workers_tested": [1, *WORKER_COUNTS],
        "samples_per_run": SAMPLES,
        "runs": measurements,
        "best_speedup": {
            "program": best["program"],
            "algorithm": best["algorithm"],
            "workers": best["workers"],
            "speedup_vs_serial": best["speedup_vs_serial"],
        },
        "speedup_target": SPEEDUP_TARGET,
        "speedup_target_met": best["speedup_vs_serial"] >= SPEEDUP_TARGET,
    }
    if best_two is not None:
        two = best_two["speedup_vs_serial"]
        payload["two_workers"] = {
            "best_speedup": two,
            "target": 1.0,
            "target_met": two >= 1.0,
        }
        if (cpu_count or 1) == 1:
            # The ISSUE's "no regression on 1 core" claim, with the measured
            # ratio recorded so a CI artifact from a 1-core container shows
            # exactly how close the pool came.
            payload["one_core_ratio"] = two
            payload["one_core_target"] = 1.0
            payload["one_core_target_met"] = two >= 1.0
    (results_dir / "BENCH_parallel.json").write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        (
            r["program"],
            r["algorithm"],
            r["workers"],
            f"{r['seconds']:.3f}",
            f"{min(r['samples_s']):.3f}-{max(r['samples_s']):.3f}",
            f"{r['speedup_vs_serial']:.2f}x",
            r["outputs"],
            r.get("pool", {}).get("tasks_dispatched", "-"),
        )
        for r in measurements
    ]
    text = format_table(
        ["program", "algorithm", "workers", "median (s)", "range (s)", "speedup", "histories", "tasks"],
        rows,
    )
    save_result(results_dir, "parallel_scaling", text)
    print("\n" + text)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"the >={SPEEDUP_TARGET}x speedup target needs at least 4 cores",
)
def test_speedup_target_on_multicore(measurements):
    """On a >= 4-core machine at least one config must reach the target
    (median serial time over median parallel time)."""
    best = _best_speedup(measurements)
    assert best["speedup_vs_serial"] >= SPEEDUP_TARGET, (
        f"best parallel speedup only {best['speedup_vs_serial']:.2f}x "
        f"(target {SPEEDUP_TARGET}x, cpu_count={os.cpu_count()})"
    )


@pytest.mark.skipif(2 not in WORKER_COUNTS, reason="workers=2 not in the tested set")
def test_two_workers_never_regress(measurements):
    """workers=2 must not lose to serial — the pool's overhead story.

    Compared on medians of :data:`SAMPLES` alternating runs.  With >= 2
    real cores the floor is 1.0 (parallelism must pay for its
    own freight).  On a 1-core machine parallel cannot win, so the floor
    relaxes to :data:`ONE_CORE_TWO_WORKER_FLOOR`: still tight enough to
    catch a return of the fork-per-fan-out overhead pathology.
    """
    best_two = _best_speedup(measurements, workers=2)["speedup_vs_serial"]
    floor = 1.0 if (os.cpu_count() or 1) >= 2 else ONE_CORE_TWO_WORKER_FLOOR
    assert best_two >= floor, (
        f"workers=2 best speedup {best_two:.2f}x below floor {floor} "
        f"(cpu_count={os.cpu_count()})"
    )
