"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``levels``
    List every registered isolation level (the classical five plus prefix
    consistency, session guarantees, PSI and bounded staleness) with its
    axioms, monitor eviction rule and position in the lattice.

``check FILE``
    Parse a program in the paper's concrete syntax and enumerate its
    histories under one isolation level (any name ``repro levels``
    prints), printing each history (or just the count) and exploration
    statistics.

``compare FILE``
    Run the program up the RC → RA → CC → SI → SER ladder and report
    history counts per level (the anomaly-visibility profile).

``bench``
    Run a small Fig. 14-style comparison of all seven algorithm
    configurations on the built-in application suite.

``bench diff BASELINE CURRENT``
    Compare two ``BENCH_*.json`` benchmark result files (or two result
    directories, matched by filename): per-case speedup, geometric mean,
    and a non-zero exit when any case regresses below the threshold.

``record [FILE | --app NAME]``
    Model-check a program (from a file, a built-in application workload,
    a generator preset like ``gen-hotspot``, or an inline
    ``gen:knob=value,...`` workload spec) and dump one of its histories
    as a portable JSONL trace (see ``docs/trace_format.md``).

``replay TRACE``
    Load a recorded trace and decide which isolation levels it satisfies,
    either in batch or — with ``--online`` — event by event with the
    incremental checker, reporting where each level is first violated.

``monitor (--stdin | --port PORT)``
    Long-running bounded-memory monitor: ingest JSONL trace events from
    stdin or one TCP connection, decide a single isolation level
    continuously with garbage-collected checker state
    (:mod:`repro.monitor`), print periodic stats lines, and exit 1 when
    the stream violated the level.  With ``--port`` it first prints
    ``[monitor] listening on 127.0.0.1:PORT`` to stderr; ``--port 0``
    binds a free port.

``difftest``
    Run workloads on the in-process MVCC engine (:mod:`repro.engine`)
    across scheduler seeds, record each commit log
    as a trace, replay it through the online checker, and report each
    engine configuration's *claimed* vs. *detected* isolation level.
    Exits 1 when any config fails to uphold its claim (which is the
    expected outcome for the seeded-bug configs).

Examples::

    python -m repro levels --verbose
    python -m repro check program.txn --isolation CC --show-histories
    python -m repro check program.txn --isolation PSI
    python -m repro bench --apps gen:keys=4,skew=2.0 --programs 2
    python -m repro record --app gen-hotspot --isolation CC
    python -m repro compare program.txn
    python -m repro bench --sessions 2 --txns 2 --programs 2
    python -m repro bench diff benchmarks/baseline benchmarks/results
    python -m repro record program.txn --isolation CC --out run.trace.jsonl
    python -m repro replay run.trace.jsonl --online
    python -m repro record --app twitter | python -m repro monitor --stdin --isolation RC
    python -m repro monitor --port 7007 --isolation RC --stale assume-fresh --stats-every 100000
    python -m repro difftest --config serializable --app tpcc --seeds 20
    python -m repro difftest --config no_read_locks --out traces/
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from .bench.experiments import fig14
from .bench.reporting import render_fig14
from .checking.checker import ModelChecker
from .core.canonical import format_history
from .core.dot import history_to_dot
from .lang.parser import ParseError, parse_program


def _int_at_least(minimum: int, maximum: Optional[int] = None) -> Callable[[str], int]:
    """An argparse ``type`` for an integer flag with a lower (and upper) bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _read_program(path: str):
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as err:
        raise SystemExit(f"error: cannot read {path}: {err}")
    try:
        return parse_program(text, name=path)
    except ParseError as err:
        raise SystemExit(f"error: {path}: {err}")


def _require_level(name: str) -> None:
    """Exit with the registry's message when ``name`` names no isolation level."""
    from .isolation.base import get_level

    try:
        get_level(name)
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}")


def _cmd_check(args: argparse.Namespace) -> int:
    from .dpor.pool import PoolUnavailableError

    _require_level(args.isolation)
    program = _read_program(args.file)
    checker = ModelChecker(
        program, isolation=args.isolation, method=args.method, workers=args.workers
    )
    shown = 0
    try:
        result = checker.run(
            timeout=args.timeout, keep_outcomes=bool(args.show_histories or args.dot)
        )
    except PoolUnavailableError as err:
        # --workers > 1 on a platform with no usable pool: fail loudly with
        # the documented fallback instead of hanging or silently serialising.
        raise SystemExit(f"error: {err}")
    print(result.summary())
    stats = result.stats
    print(
        f"  explore calls: {stats.explore_calls}, end states: {stats.end_states}, "
        f"swaps: {stats.swaps_applied}/{stats.swap_candidates}, "
        f"peak work-stack: {stats.peak_stack}"
    )
    if result.outcomes:
        for index, outcome in enumerate(result.outcomes):
            if args.show_histories:
                print(f"\nhistory #{index}:")
                print(format_history(outcome.history, indent="  "))
            if args.dot:
                path = f"{args.dot}-{index}.dot"
                with open(path, "w") as handle:
                    handle.write(history_to_dot(outcome.history, title=f"history {index}"))
                shown += 1
        if args.dot:
            print(f"\nwrote {shown} DOT files to {args.dot}-*.dot")
    return 1 if result.timed_out else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    program = _read_program(args.file)
    from .checking.report import compare_levels

    comparison = compare_levels(program, assertions=[], timeout=args.timeout)
    rows = comparison.verdict_table()
    from .bench.reporting import format_table

    print(f"{program.name}: histories per isolation level")
    print(format_table(["isolation", "histories", "verdict", "time (s)"], rows))
    counts = [r.history_count for r in comparison.results.values()]
    if counts and counts[0] > counts[-1]:
        print(
            f"\n{counts[0] - counts[-1]} behaviour(s) of the weakest level are "
            f"anomalies w.r.t. the strongest."
        )
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .trace.format import Trace

    if (args.file is None) == (args.app is None):
        raise SystemExit("error: record needs exactly one of FILE or --app NAME")
    if args.app is not None:
        from .apps.workloads import record_workload_trace

        try:
            trace = record_workload_trace(
                args.app,
                sessions=args.sessions,
                txns_per_session=args.txns,
                seed=args.seed,
                isolation=args.isolation,
                index=args.index,
                timeout=args.timeout,
            )
        except KeyError as err:
            raise SystemExit(f"error: {err.args[0]}")
        except ValueError as err:
            raise SystemExit(f"error: {err}")
    else:
        _require_level(args.isolation)
        program = _read_program(args.file)
        result = ModelChecker(program, isolation=args.isolation).run(
            timeout=args.timeout, keep_outcomes=args.index + 1
        )
        outcomes = result.outcomes or []
        if args.index >= len(outcomes):
            raise SystemExit(
                f"error: {program.name} has only {len(outcomes)} histories under "
                f"{args.isolation}; cannot record index {args.index}"
            )
        trace = Trace.from_history(
            outcomes[args.index].history,
            name=f"{program.name}-{args.isolation}-{args.index}",
            meta={"program": program.name, "isolation": args.isolation, "history_index": args.index},
        )
    if args.out == "-":
        sys.stdout.write(trace.dumps())
    else:
        trace.dump(args.out)
        print(f"wrote {len(trace)} events to {args.out} ({trace.header.name})")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .checking.online import DEFAULT_LEVELS, OnlineChecker
    from .isolation.base import get_level
    from .trace.format import Trace, TraceFormatError

    try:
        if args.trace == "-":
            trace = Trace.load(sys.stdin)
        else:
            trace = Trace.load(args.trace)
    except OSError as err:
        raise SystemExit(f"error: cannot read {args.trace}: {err}")
    except TraceFormatError as err:
        raise SystemExit(f"error: {args.trace}: {err}")

    levels = list(DEFAULT_LEVELS) if args.isolation.lower() == "all" else [args.isolation]
    try:
        levels = [get_level(name).name for name in levels]
    except KeyError as err:
        raise SystemExit(f"error: {err.args[0]}")

    print(f"{trace.header.name}: {len(trace)} events, variables {list(trace.header.variables)}")
    try:
        if args.online:
            try:
                checker = OnlineChecker.from_trace(trace, levels=levels)
            except ValueError as err:
                raise SystemExit(f"error: {err}")
            checker.replay(trace)
            verdicts = checker.verdicts
            for name in levels:
                if verdicts[name]:
                    print(f"  {name:4s}: consistent")
                else:
                    step = checker.first_violation(name)
                    where = f"event #{step.index} ({_describe_trace_event(step.event)})"
                    print(f"  {name:4s}: VIOLATION first observed at {where}")
        else:
            history = trace.to_history(strict=False)
            verdicts = {name: get_level(name).satisfies(history) for name in levels}
            for name in levels:
                verdict = "consistent" if verdicts[name] else "VIOLATION"
                print(f"  {name:4s}: {verdict}")
    except TraceFormatError as err:
        raise SystemExit(f"error: {args.trace}: {err}")
    return 0 if all(verdicts.values()) else 1


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .monitor import MonitorConfig, MonitorStaleReadError, monitor_stream, serve
    from .trace.format import TraceFormatError

    if (args.port is None) == (not args.stdin):
        raise SystemExit("error: monitor needs exactly one of --stdin or --port PORT")
    try:
        config = MonitorConfig(
            isolation=args.isolation,
            window=args.window,
            gc_every=args.gc_every,
            evict_batch=args.evict_batch,
            mode=args.stale,
        )
    except ValueError as err:
        raise SystemExit(f"error: {err}")
    try:
        if args.stdin:
            report = monitor_stream(sys.stdin, config, stats_every=args.stats_every)
        else:
            report = serve(
                args.port, config, stats_every=args.stats_every, ready=_announce_port
            )
    except MonitorStaleReadError as err:
        raise SystemExit(f"error: {err}")
    except TraceFormatError as err:
        raise SystemExit(f"error: {err}")
    stats = report.stats
    print(
        f"{config.isolation}: {'consistent' if report.ok else 'VIOLATION'} "
        f"after {stats.events} events "
        f"(live window {stats.live}, peak {report.peak_live}, "
        f"{stats.evicted} evicted over {stats.collections} collections)"
    )
    if report.first_violation is not None:
        step = report.first_violation
        print(
            f"  first violated at event #{step.index} "
            f"({_describe_trace_event(step.event)})"
        )
    return report.exit_code


def _announce_port(port: int) -> None:
    """Say where ``repro monitor --port`` listens (``--port 0`` picks one)."""
    print(f"[monitor] listening on 127.0.0.1:{port}", file=sys.stderr, flush=True)


def _describe_trace_event(event) -> str:
    core = f"{event.op} {event.session}/{event.txn}"
    if event.var is not None:
        core += f" {event.var}"
    if event.source is not None:
        core += f" <- {event.source[0]}/{event.source[1]}"
    return core


def _cmd_difftest(args: argparse.Namespace) -> int:
    import os

    from .engine.harness import run_difftest
    from .engine.locks import EngineError

    on_run = None
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)

        def on_run(result):
            run = result.run
            safe = run.trace.header.name.replace("/", "_").replace(":", "_")
            path = os.path.join(args.out, f"{safe}.trace.jsonl")
            run.trace.dump(path)
            status = "ok" if result.claim_holds else "VIOLATES CLAIM"
            print(f"wrote {path} ({len(run.trace)} events, {status})")

    configs = args.config or None
    workloads = args.app or None
    seeds = [args.seed] if args.seed is not None else range(args.seeds)
    try:
        report = run_difftest(
            configs=configs,
            workloads=workloads,
            seeds=seeds,
            sessions=args.threads,
            txns_per_session=args.txns,
            on_run=on_run,
        )
    except (EngineError, KeyError) as err:
        raise SystemExit(f"error: {err.args[0] if err.args else err}")
    print(report.render())
    if report.liars:
        print(f"\n{len(report.liars)} config(s) failed to uphold their claimed level.")
        return 1
    print("\nall configs upheld their claimed isolation levels.")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.apps:
        from .apps.workloads import resolve_workload

        try:
            for app in args.apps:
                resolve_workload(app)  # fail fast with the full choice list
        except KeyError as err:
            raise SystemExit(f"error: {err.args[0]}")
    result = fig14(
        sessions=args.sessions,
        txns_per_session=args.txns,
        programs_per_app=args.programs,
        timeout=args.timeout,
        workers=args.workers,
        apps=args.apps or None,
    )
    print(render_fig14(result))
    return 0


def _cmd_levels(args: argparse.Namespace) -> int:
    from .bench.reporting import format_table
    from .isolation import lattice_edges, level_specs

    specs = level_specs()
    rows = []
    for spec in specs:
        axioms = ", ".join(axiom.name for axiom in spec.axioms) or "-"
        if spec.search is not None:
            axioms += " (+search)"
        rows.append(
            (
                spec.strength,
                spec.name,
                axioms,
                spec.eviction,
                ", ".join(spec.stronger_than) or "-",
            )
        )
    print(f"{len(specs)} registered isolation levels (weakest first):\n")
    print(format_table(["#", "level", "axioms", "eviction", "directly above"], rows))
    print("\nlattice edges (weaker -> stronger):")
    for weaker, stronger in lattice_edges():
        print(f"  {weaker} < {stronger}")
    if args.verbose:
        print()
        for spec in specs:
            print(f"{spec.name}: {spec.description}")
            if spec.aliases:
                print(f"  aliases: {', '.join(spec.aliases)}")
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from .bench.diff import BenchFormatError, diff_paths, render_diff

    try:
        diffs = diff_paths(args.baseline, args.current)
    except BenchFormatError as err:
        raise SystemExit(f"error: {err}")
    print(render_diff(diffs, threshold=args.threshold))
    regressed = sum(len(d.regressions(args.threshold)) for d in diffs)
    if regressed:
        print(f"\n{regressed} case(s) regressed below {args.threshold:.2f}x baseline speed.")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stateless model checking of transactional programs "
        "against weak isolation levels (PLDI 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    levels = sub.add_parser(
        "levels", help="list every registered isolation level and the lattice"
    )
    levels.add_argument(
        "--verbose", action="store_true", help="include descriptions and aliases"
    )
    levels.set_defaults(fn=_cmd_levels)

    check = sub.add_parser("check", help="enumerate histories of a program")
    check.add_argument("file", help="program in the paper's concrete syntax")
    check.add_argument(
        "--isolation",
        default="SER",
        help="any registered level — see 'repro levels' (default SER)",
    )
    check.add_argument("--method", default="dpor", choices=("dpor", "dfs"))
    check.add_argument("--timeout", type=float, default=None, help="seconds")
    check.add_argument(
        "--workers",
        type=_int_at_least(0),
        default=1,
        help="exploration worker processes (default 1 = in-process, 0 = one per CPU)",
    )
    check.add_argument("--show-histories", action="store_true", help="print each history")
    check.add_argument("--dot", metavar="PREFIX", help="write Graphviz files PREFIX-<i>.dot")
    check.set_defaults(fn=_cmd_check)

    compare = sub.add_parser("compare", help="history counts up the isolation ladder")
    compare.add_argument("file")
    compare.add_argument("--timeout", type=float, default=None)
    compare.set_defaults(fn=_cmd_compare)

    record = sub.add_parser("record", help="model-check a program and dump one history as a JSONL trace")
    record.add_argument("file", nargs="?", default=None, help="program in the paper's concrete syntax")
    record.add_argument(
        "--app",
        default=None,
        help="record a workload instead of FILE: an application name, a "
        "generator preset (gen-hotspot, ...) or a gen:knob=value,... spec",
    )
    record.add_argument("--isolation", default="SER", help="exploration level (default SER)")
    record.add_argument("--index", type=_int_at_least(0), default=0, help="which enumerated history to record (default 0)")
    record.add_argument("--sessions", type=_int_at_least(1), default=2, help="app workload sessions (with --app)")
    record.add_argument("--txns", type=_int_at_least(1), default=2, help="app workload transactions per session (with --app)")
    record.add_argument("--seed", type=int, default=0, help="app workload seed (with --app)")
    record.add_argument("--timeout", type=float, default=None, help="seconds")
    record.add_argument("--out", default="-", help="output path ('-' = stdout, default)")
    record.set_defaults(fn=_cmd_record)

    monitor = sub.add_parser(
        "monitor",
        help="bounded-memory streaming isolation monitor (stdin or TCP)",
    )
    monitor.add_argument(
        "--isolation",
        default="RC",
        help="any registered level — see 'repro levels' (default RC)",
    )
    monitor.add_argument("--stdin", action="store_true", help="read JSONL trace events from stdin")
    monitor.add_argument("--port", type=_int_at_least(0, 65535), default=None, help="listen on TCP PORT (0 = a free one, printed on stderr) for one connection instead")
    monitor.add_argument("--stats-every", type=_int_at_least(0), default=0, help="print a stats line every N events (0 = never)")
    monitor.add_argument("--window", type=_int_at_least(1), default=64, help="retention / freshness window (default 64)")
    monitor.add_argument("--gc-every", type=_int_at_least(1), default=128, help="events between collections (default 128)")
    monitor.add_argument("--evict-batch", type=_int_at_least(1), default=16, help="victims batched per compaction (default 16)")
    monitor.add_argument(
        "--stale",
        default="keep",
        choices=("keep", "assume-fresh"),
        help="retention mode: keep = exact, assume-fresh = bounded memory, fail-stop on stale reads",
    )
    monitor.set_defaults(fn=_cmd_monitor)

    replay = sub.add_parser("replay", help="check a recorded JSONL trace against isolation levels")
    replay.add_argument("trace", help="trace file ('-' = stdin)")
    replay.add_argument(
        "--isolation",
        default="all",
        help="any registered level, or 'all' for the classical five "
        "(default all) — see 'repro levels'",
    )
    replay.add_argument(
        "--online",
        action="store_true",
        help="check event-by-event with the incremental online checker "
        "and report where each level is first violated",
    )
    replay.set_defaults(fn=_cmd_replay)

    difftest = sub.add_parser(
        "difftest",
        help="differential-test the MVCC engine against the online checker",
    )
    difftest.add_argument(
        "--config",
        action="append",
        metavar="NAME",
        help="engine config (honest name, base+bug, or bare bug name); "
        "repeatable; default: all honest and bugged configs",
    )
    difftest.add_argument(
        "--app",
        action="append",
        metavar="WORKLOAD",
        help="workload: hotkeys, increments, demo:<bug>, an application "
        "name (tpcc, twitter, ...), a generator preset (gen-hotspot, ...) "
        "or a gen:knob=value,... spec; repeatable; default: hotkeys plus "
        "the config's bug demo",
    )
    difftest.add_argument("--seeds", type=_int_at_least(1), default=8, help="sweep scheduler seeds 0..N-1 (default 8)")
    difftest.add_argument("--seed", type=int, default=None, help="run exactly one scheduler seed")
    difftest.add_argument("--threads", type=_int_at_least(1), default=2, help="sessions per workload (default 2)")
    difftest.add_argument("--txns", type=_int_at_least(1), default=2, help="transactions per session (default 2)")
    difftest.add_argument("--out", metavar="DIR", default=None, help="write every recorded trace to DIR")
    difftest.set_defaults(fn=_cmd_difftest)

    bench = sub.add_parser("bench", help="small Fig. 14-style algorithm comparison")
    bench.add_argument("--sessions", type=_int_at_least(1), default=2)
    bench.add_argument("--txns", type=_int_at_least(1), default=2)
    bench.add_argument("--programs", type=_int_at_least(1), default=2)
    bench.add_argument(
        "--apps",
        action="append",
        metavar="WORKLOAD",
        help="override the suite's workloads: application names, generator "
        "presets or gen:knob=value,... specs; repeatable; default: the "
        "five paper applications",
    )
    bench.add_argument("--timeout", type=float, default=30.0)
    bench.add_argument(
        "--workers",
        type=_int_at_least(0),
        default=1,
        help="exploration worker processes per run (default 1, 0 = one per CPU)",
    )
    bench.set_defaults(fn=_cmd_bench)
    # Optional sub-subcommand: plain ``repro bench`` (above) keeps working.
    bench_sub = bench.add_subparsers(dest="bench_command")
    bench_diff = bench_sub.add_parser(
        "diff", help="compare two BENCH_*.json result files or directories"
    )
    bench_diff.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    bench_diff.add_argument("current", help="current BENCH_*.json file or directory")
    bench_diff.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="speedup below which a case counts as a regression (default 0.8)",
    )
    bench_diff.add_argument(
        "--tolerance",
        dest="threshold",
        type=float,
        default=argparse.SUPPRESS,
        help="alias for --threshold",
    )
    bench_diff.set_defaults(fn=_cmd_bench_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
