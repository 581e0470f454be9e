"""The registered isolation-level lattice.

Every level — the paper's five plus the registry extensions — is declared
here as a :class:`~repro.isolation.registry.LevelSpec` and registered
weakest-first, so each spec's ``stronger_than`` neighbours already exist.
Properties asserted here (prefix closure, causal extensibility, lattice
position) are the statements of Theorems 3.2 and 3.4 of the paper,
generalized to the new levels; the test suite re-verifies them empirically
on generated histories and separates every adjacent lattice pair with a
committed fuzzer gadget (``tests/test_isolation_registry.py``).

The lattice (weaker below, 20 edges)::

                          SER
                         /   \\
                       SI     \\
                      /  \\     \\
                   PSI    PC    |
                      \\  /      |
                       CC       |
                      /  \\      |
                    RA   SESSION|
                   /  \\  /|  |\\ |
                  /    \\/ |  | \\|
                 |     /\\ |  | /\\
                 RC  RYW MR MW WFR     BS-3 sits between RC and SER
                  \\___\\___|__|__/___________/
                           TRUE
"""

from __future__ import annotations

from .axioms import AXIOMS_BY_LEVEL, ORDER_PREDICATES
from .registry import LevelSpec, register_spec
from .search import bounded_staleness_search, psi_search
from .serializability import place_ser, ser_search
from .snapshot import pc_search, place_pc, place_si, si_search

TRUE = register_spec(
    LevelSpec(
        name="TRUE",
        strength=0,
        axioms=AXIOMS_BY_LEVEL["TRUE"],
        causally_extensible=True,
        aliases=("trivial",),
        description="the trivial level: every well-formed history is consistent",
        eviction="writers",
    )
)

RYW = register_spec(
    LevelSpec(
        name="RYW",
        strength=1,
        axioms=AXIOMS_BY_LEVEL["RYW"],
        stronger_than=("TRUE",),
        aliases=("read your writes", "read-your-writes"),
        description="session guarantee: reads see the session's own earlier writes",
        eviction="writers",
    )
)

MR = register_spec(
    LevelSpec(
        name="MR",
        strength=2,
        axioms=AXIOMS_BY_LEVEL["MR"],
        stronger_than=("TRUE",),
        aliases=("monotonic reads", "monotonic-reads"),
        description="session guarantee: a session's view of other writers never regresses",
        eviction="inert",
    )
)

MW = register_spec(
    LevelSpec(
        name="MW",
        strength=3,
        axioms=AXIOMS_BY_LEVEL["MW"],
        stronger_than=("TRUE",),
        aliases=("monotonic writes", "monotonic-writes"),
        description="session guarantee: a session's writes become visible in order",
        eviction="writers",
    )
)

WFR = register_spec(
    LevelSpec(
        name="WFR",
        strength=4,
        axioms=AXIOMS_BY_LEVEL["WFR"],
        stronger_than=("TRUE",),
        aliases=("writes follow reads", "writes-follow-reads"),
        description="session guarantee: writes are ordered after the writes they observed",
        eviction="inert",
    )
)

SESSION = register_spec(
    LevelSpec(
        name="SESSION",
        strength=5,
        axioms=AXIOMS_BY_LEVEL["SESSION"],
        stronger_than=("RYW", "MR", "MW", "WFR"),
        aliases=("session guarantees", "sessions"),
        description="all four session guarantees combined (still weaker than CC)",
        eviction="inert",
    )
)

RC = register_spec(
    LevelSpec(
        name="RC",
        strength=6,
        axioms=AXIOMS_BY_LEVEL["RC"],
        stronger_than=("TRUE",),
        aliases=("read committed", "read-committed"),
        description="Read Committed (Fig. A.1(a)): reads observe committed values",
        eviction="fresh",
    )
)

BS3 = register_spec(
    LevelSpec(
        name="BS-3",
        strength=7,
        axioms=AXIOMS_BY_LEVEL["BS-3"],
        search=lambda summaries: bounded_staleness_search(summaries, 3),
        order_predicate=ORDER_PREDICATES["BS-3"],
        causally_extensible=False,
        stronger_than=("RC",),
        aliases=("bounded staleness", "bounded-staleness", "bs3"),
        description="bounded staleness: RC plus at most 2 newer versions skipped per read",
        eviction="inert",
    )
)

RA = register_spec(
    LevelSpec(
        name="RA",
        strength=8,
        axioms=AXIOMS_BY_LEVEL["RA"],
        stronger_than=("RC", "RYW"),
        aliases=("read atomic", "read-atomic", "repeatable read"),
        description="Read Atomic / Repeatable Read (Fig. A.1(b)): atomic visibility",
        eviction="writers",
    )
)

CC = register_spec(
    LevelSpec(
        name="CC",
        strength=9,
        axioms=AXIOMS_BY_LEVEL["CC"],
        stronger_than=("RA", "SESSION"),
        aliases=("causal", "causal consistency"),
        description="Causal Consistency (Fig. 2(a)): reads respect (so ∪ wr)+",
        eviction="writers",
    )
)

PSI = register_spec(
    LevelSpec(
        name="PSI",
        strength=10,
        axioms=AXIOMS_BY_LEVEL["PSI"],
        search=psi_search,
        causally_extensible=False,
        stronger_than=("CC",),
        aliases=("parallel snapshot isolation", "parallel si", "parallel-si"),
        description="Parallel SI: Causal + Conflict — long forks allowed, lost updates not",
        eviction="inert",
    )
)

PC = register_spec(
    LevelSpec(
        name="PC",
        strength=11,
        axioms=AXIOMS_BY_LEVEL["PC"],
        search=pc_search,
        place=place_pc,
        causally_extensible=False,
        stronger_than=("CC",),
        aliases=("prefix", "prefix consistency", "prefix-consistency"),
        description="Prefix Consistency: snapshots are commit-order prefixes (SI minus Conflict)",
        eviction="inert",
    )
)

SI = register_spec(
    LevelSpec(
        name="SI",
        strength=12,
        axioms=AXIOMS_BY_LEVEL["SI"],
        search=si_search,
        place=place_si,
        causally_extensible=False,
        stronger_than=("PSI", "PC"),
        aliases=("snapshot", "snapshot isolation"),
        description="Snapshot Isolation = Prefix + Conflict (Fig. 2(b,c))",
        eviction="inert",
    )
)

SER = register_spec(
    LevelSpec(
        name="SER",
        strength=13,
        axioms=AXIOMS_BY_LEVEL["SER"],
        search=ser_search,
        place=place_ser,
        causally_extensible=False,
        stronger_than=("SI", "BS-3"),
        aliases=("serializability", "serializable"),
        description="Serializability (Fig. 2(d)): one global order explains every read",
        eviction="inert",
    )
)
