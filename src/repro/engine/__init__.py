"""A real (if small) MVCC engine for differential isolation testing.

This package is the *system under test* side of the repo: everything else
checks histories and traces; :mod:`repro.engine` produces them from an
actual storage engine with locks, snapshots, and seeded bugs, whose
concurrent client sessions a seeded driver interleaves one engine
operation at a time.  See ``docs/engine.md`` for the concurrency-control details and the
claimed-level table, and ``repro difftest --help`` for the CLI entry
point.
"""

from .harness import (
    BUG_DEMOS,
    ConfigReport,
    DifftestReport,
    EngineRun,
    RunVerdict,
    SchedulerStuck,
    detected_level,
    hotkey_program,
    increment_program,
    run_difftest,
    run_program,
    workload_program,
)
from .locks import (
    EXCLUSIVE,
    SHARED,
    EngineError,
    LockManager,
    TransactionAborted,
    WouldBlock,
)
from .mvcc import (
    HONEST_CONFIGS,
    SEEDED_BUGS,
    EngineConfig,
    MVCCEngine,
    SeededBug,
    engine_configs,
    get_engine_config,
)

__all__ = [
    "BUG_DEMOS",
    "ConfigReport",
    "DifftestReport",
    "EngineConfig",
    "EngineError",
    "EngineRun",
    "EXCLUSIVE",
    "HONEST_CONFIGS",
    "LockManager",
    "MVCCEngine",
    "RunVerdict",
    "SEEDED_BUGS",
    "SHARED",
    "SchedulerStuck",
    "SeededBug",
    "TransactionAborted",
    "WouldBlock",
    "detected_level",
    "engine_configs",
    "get_engine_config",
    "hotkey_program",
    "increment_program",
    "run_difftest",
    "run_program",
    "workload_program",
]
