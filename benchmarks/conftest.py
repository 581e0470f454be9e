"""Shared configuration for the benchmark targets.

Every figure/table of the paper's evaluation has one file here.  Sizes are
environment-configurable so the paper's exact shape (3 sessions × 3
transactions, 5 programs per application, 30-minute timeout) can be dialed
in when time allows:

    REPRO_BENCH_SESSIONS=3 REPRO_BENCH_TXNS=3 REPRO_BENCH_PROGRAMS=5 \
    REPRO_BENCH_TIMEOUT=1800 pytest benchmarks/ --benchmark-only

The defaults below are scaled for the pure-Python substrate (the paper's
implementation is JPF/Java on an M1); the *shape* assertions are identical
at either size.  Rendered result tables and ``BENCH_*.json`` records are
written to ``results/`` under pytest's temporary directory, so a test run
never rewrites the committed records in ``benchmarks/results/``.  Pass
``--basetemp DIR`` to find them in ``DIR/results/``; refreshing the
committed records is copying them from there:

    PYTHONPATH=src pytest benchmarks/ --basetemp /tmp/bench
    cp /tmp/bench/results/* benchmarks/results/
"""

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


#: Suite shape (paper: sessions=3, txns=3, programs=5, timeout=1800).
SESSIONS = env_int("REPRO_BENCH_SESSIONS", 3)
TXNS = env_int("REPRO_BENCH_TXNS", 2)
PROGRAMS_PER_APP = env_int("REPRO_BENCH_PROGRAMS", 5)
TIMEOUT = env_float("REPRO_BENCH_TIMEOUT", 30.0)

#: Scalability sweeps (paper: up to 5 sessions / 5 txns per session).
MAX_SESSIONS = env_int("REPRO_BENCH_MAX_SESSIONS", 4)
MAX_TXNS = env_int("REPRO_BENCH_MAX_TXNS", 4)
SCALING_PROGRAMS = env_int("REPRO_BENCH_SCALING_PROGRAMS", 2)


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("results", numbered=False)


def save_result(results_dir: Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")


def _commit_hash() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def save_bench_json(results_dir: Path, name: str, cases, extra=None) -> Path:
    """Write ``BENCH_<name>.json`` in the machine-readable record format.

    ``cases`` is a sequence of dicts, each with at least ``name`` and
    ``seconds`` — the shape ``repro bench diff`` consumes.  Every record is
    stamped with the commit hash and python version so two records can be
    attributed when diffed.
    """
    payload = {
        "schema": "repro-bench-v1",
        "benchmark": name,
        "commit": _commit_hash(),
        "python": platform.python_version(),
        "cases": [dict(case) for case in cases],
    }
    if extra:
        payload.update(extra)
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
