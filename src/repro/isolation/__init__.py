"""Axiomatic isolation levels and consistency checkers (paper §2.2, §3)."""

from .base import IsolationLevel, get_level, registered_levels
from .levels import BS3, CC, MR, MW, PC, PSI, RA, RC, RYW, SER, SESSION, SI, TRUE, WFR
from .reference import satisfies_reference, witness_commit_order
from .axioms import AXIOMS_BY_LEVEL, ORDER_PREDICATES
from .liveness import EvictionPolicy, eviction_policy, evictable_transactions
from .registry import (
    LevelSpec,
    lattice_edges,
    level_spec,
    level_specs,
    register_spec,
)
from .saturation import IncrementalSaturation, satisfies_by_saturation
from .search import satisfies_bounded_staleness, satisfies_psi
from .serializability import satisfies_ser, ser_witness
from .snapshot import pc_witness, satisfies_pc, satisfies_si, schedule_commit_order, si_witness

__all__ = [
    "IsolationLevel",
    "LevelSpec",
    "get_level",
    "registered_levels",
    "register_spec",
    "level_spec",
    "level_specs",
    "lattice_edges",
    "TRUE",
    "RC",
    "RA",
    "CC",
    "SI",
    "SER",
    "RYW",
    "MR",
    "MW",
    "WFR",
    "SESSION",
    "PSI",
    "PC",
    "BS3",
    "satisfies_reference",
    "witness_commit_order",
    "AXIOMS_BY_LEVEL",
    "ORDER_PREDICATES",
    "EvictionPolicy",
    "eviction_policy",
    "evictable_transactions",
    "IncrementalSaturation",
    "satisfies_by_saturation",
    "satisfies_ser",
    "satisfies_si",
    "satisfies_pc",
    "ser_witness",
    "si_witness",
    "pc_witness",
    "schedule_commit_order",
    "satisfies_psi",
    "satisfies_bounded_staleness",
]
