"""Swapping-based DPOR model checking (paper §4-§6)."""

from .algorithms import dfs_baseline, explore_ce, explore_ce_star
from .explore import ExplorationResult, StepEngine, SwappingExplorer
from .optimality import is_swapped, optimality, read_latest
from .parallel import ParallelExplorer, resolve_workers
from .pool import PersistentPool, PoolUnavailableError
from .stats import ExplorationStats
from .swaps import compute_reorderings, swap

__all__ = [
    "dfs_baseline",
    "explore_ce",
    "explore_ce_star",
    "ExplorationResult",
    "ParallelExplorer",
    "PersistentPool",
    "PoolUnavailableError",
    "resolve_workers",
    "StepEngine",
    "SwappingExplorer",
    "is_swapped",
    "optimality",
    "read_latest",
    "ExplorationStats",
    "compute_reorderings",
    "swap",
]
