"""The isolation-level registry: lattice shape, separations, new checkers.

Three families of guarantees:

1. **Registry invariants** — every level is reachable through
   :func:`level_spec`, carries a valid eviction rule, resolves its
   aliases, and the recorded lattice is a partial order that embeds the
   paper's classical chain.
2. **Separation matrix** — every edge of the lattice is witnessed by a
   committed fuzzer gadget: accepted at the weaker level, rejected at the
   stronger one, with both verdicts cross-validated against the
   brute-force axiomatic reference.  This is what keeps the lattice
   honest: an edge nobody can separate is not an edge.
3. **Pipeline reach** — every registered level works end-to-end through
   the online checker (online ≡ batch on every prefix) and the streaming
   monitor.
"""

import io

import pytest

from repro.checking.online import OnlineChecker
from repro.isolation import (
    get_level,
    lattice_edges,
    level_spec,
    level_specs,
    registered_levels,
    satisfies_bounded_staleness,
    satisfies_pc,
    satisfies_psi,
    satisfies_reference,
    satisfies_ser,
    satisfies_si,
    witness_commit_order,
)
from repro.isolation.axioms import AXIOMS_BY_LEVEL, ORDER_PREDICATES, bounded_staleness_predicate
from repro.isolation.registry import EVICTION_RULES, LevelSpec, register_spec
from repro.isolation.liveness import eviction_policy
from repro.isolation.search import psi_search
from repro.isolation.serializability import place_ser
from repro.monitor import MonitorConfig, monitor_stream
from repro.trace import (
    SEPARATIONS,
    Trace,
    fuzz_history,
    gadget_histories,
    gadget_traces,
)

ALL_LEVELS = [level.name for level in registered_levels()]
NEW_LEVELS = ["RYW", "MR", "MW", "WFR", "SESSION", "BS-3", "PSI", "PC"]


class TestRegistry:
    def test_every_level_has_a_spec(self):
        for name in ALL_LEVELS:
            spec = level_spec(name)
            assert spec.name == name
            assert spec.eviction in EVICTION_RULES

    def test_specs_sorted_by_strength(self):
        strengths = [spec.strength for spec in level_specs()]
        assert strengths == sorted(strengths)
        assert len(set(strengths)) == len(strengths), "strength ranks are unique"

    def test_lattice_edges_use_registered_names(self):
        for weaker, stronger in lattice_edges():
            assert get_level(weaker).is_weaker_than(get_level(stronger))
            assert not get_level(stronger).is_weaker_than(get_level(weaker))

    def test_lattice_embeds_the_classical_chain(self):
        chain = ("RC", "RA", "CC", "SI", "SER")
        for weaker, stronger in zip(chain, chain[1:]):
            assert get_level(weaker).is_weaker_than(get_level(stronger))

    @pytest.mark.parametrize(
        "fields",
        [
            dict(axioms=AXIOMS_BY_LEVEL["SER"]),
            dict(axioms=AXIOMS_BY_LEVEL["RC"], order_predicate=ORDER_PREDICATES["BS-3"]),
            dict(axioms=AXIOMS_BY_LEVEL["PSI"], search=psi_search, place=place_ser),
        ],
        ids=["co-dependent", "order-predicate", "placed-with-forced-edges"],
    )
    def test_register_spec_rejects_what_nothing_decides(self, fields):
        """A level saturation cannot decide must name a search, and a placed
        witness is re-checked on so ∪ wr alone, so its search may respect no
        forced edges.  Nothing is registered."""
        with pytest.raises(ValueError):
            register_spec(LevelSpec(name="UNDECIDED", strength=99, **fields))
        with pytest.raises(KeyError):
            get_level("UNDECIDED")

    def test_register_spec_refuses_an_unrecorded_weaker_level(self):
        """``is_weaker_than`` reads every registered level's recorded
        lattice closure, so a spec stronger than an unknown level raises
        and registers nothing."""
        with pytest.raises(KeyError, match="unrecorded"):
            register_spec(LevelSpec(name="ORPHAN", strength=98, stronger_than=("NOPE",)))
        with pytest.raises(KeyError):
            get_level("ORPHAN")

    def test_incomparable_pairs(self):
        for a, b in (("PSI", "PC"), ("BS-3", "SI"), ("SESSION", "RC")):
            assert not get_level(a).is_weaker_than(get_level(b)), (a, b)
            assert not get_level(b).is_weaker_than(get_level(a)), (a, b)

    def test_new_level_aliases(self):
        assert get_level("prefix consistency") is get_level("PC")
        assert get_level("parallel snapshot isolation") is get_level("PSI")
        assert get_level("bounded staleness") is get_level("BS-3")
        assert get_level("session guarantees") is get_level("SESSION")
        assert get_level("read your writes") is get_level("RYW")

    def test_eviction_policy_resolves_for_every_level(self):
        for name in ALL_LEVELS:
            policy = eviction_policy(name)
            assert hasattr(policy, "supports_fresh_eviction")
            assert policy.supports_fresh_eviction == (name == "RC")

    def test_spec_lookup_is_alias_aware(self):
        assert level_spec("serializable").name == "SER"


class TestSeparationMatrix:
    def test_separations_cover_the_lattice_exactly(self):
        assert set(SEPARATIONS) == set(lattice_edges())

    @pytest.mark.parametrize(
        "weaker,stronger", sorted(SEPARATIONS), ids=lambda p: str(p)
    )
    def test_edge_is_separated_by_its_gadget(self, weaker, stronger):
        history = gadget_histories()[SEPARATIONS[(weaker, stronger)]]
        for name, want in ((weaker, True), (stronger, False)):
            fast = get_level(name).satisfies(history)
            ref = satisfies_reference(history, name)
            assert fast == ref, f"{name}: fast={fast} reference={ref}"
            assert fast == want, f"{name}: got {fast}, want {want}"

    def test_separating_gadgets_are_committed(self):
        for gadget in set(SEPARATIONS.values()):
            history = gadget_histories()[gadget]
            assert all(t.is_committed for t in history.txns.values()), gadget


class TestNewCheckersAgainstReference:
    @pytest.mark.parametrize("level", NEW_LEVELS)
    def test_gadget_corpus(self, level):
        for name, history in gadget_histories().items():
            fast = get_level(level).satisfies(history)
            ref = satisfies_reference(history, level)
            assert fast == ref, f"{name} at {level}: fast={fast} reference={ref}"

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzzed_histories(self, seed):
        history = fuzz_history(seed, sessions=3, txns_per_session=2, abort_rate=0.2)
        for level in NEW_LEVELS:
            fast = get_level(level).satisfies(history)
            ref = satisfies_reference(history, level)
            assert fast == ref, f"seed {seed} at {level}: fast={fast} reference={ref}"

    def test_public_checkers_decide_their_levels(self):
        checkers = {
            "PSI": satisfies_psi,
            "PC": satisfies_pc,
            "SI": satisfies_si,
            "SER": satisfies_ser,
            "BS-3": satisfies_bounded_staleness,
        }
        for name, history in gadget_histories().items():
            for level, satisfies in checkers.items():
                assert satisfies(history) == satisfies_reference(history, level), (name, level)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_staleness_bound_other_than_three(self, k):
        """BS-k searches with BS-3's forced edges and its own bound."""
        predicate = bounded_staleness_predicate(k)
        for seed in range(25):
            history = fuzz_history(seed, sessions=3, txns_per_session=2, abort_rate=0.2)
            ref = witness_commit_order(history, AXIOMS_BY_LEVEL["BS-3"], predicate) is not None
            assert satisfies_bounded_staleness(history, k) == ref, f"seed {seed} at BS-{k}"


#: Gadget traces, plus fuzzed traces with aborts, local reads and repeat
#: writes, which the gadgets never contain.
PIPELINE_TRACES = {
    **gadget_traces(),
    **{
        f"fuzz{seed}": Trace.from_history(
            fuzz_history(seed, abort_rate=0.25), name=f"fuzz{seed}"
        )
        for seed in range(12)
    },
}


class TestOnlinePipeline:
    @pytest.mark.parametrize("name", sorted(PIPELINE_TRACES))
    def test_online_equals_batch_on_all_levels(self, name):
        trace = PIPELINE_TRACES[name]
        checker = OnlineChecker.from_trace(trace, levels=ALL_LEVELS)
        for index, event in enumerate(trace.events):
            step = checker.feed(event)
            prefix = trace.prefix(index + 1).to_history(strict=False)
            expected = {
                level: get_level(level).satisfies(prefix) for level in ALL_LEVELS
            }
            assert step.verdicts == expected, f"{name}: prefix {index + 1}"

    def test_violation_localised_to_its_level(self):
        trace = gadget_traces()["psi_violation"]
        checker = OnlineChecker.from_trace(trace, levels=ALL_LEVELS)
        checker.replay(trace)
        assert checker.verdicts["CC"] is True
        assert checker.verdicts["PSI"] is False
        assert checker.verdicts["SI"] is False


class TestMonitorPipeline:
    @pytest.mark.parametrize("level", NEW_LEVELS)
    def test_monitor_detects_each_levels_gadget(self, level):
        from repro.trace.fuzz import gadget_name

        trace = gadget_traces()[gadget_name(level)]
        report = monitor_stream(
            io.StringIO(trace.dumps()), MonitorConfig(isolation=level, gc_every=1)
        )
        assert not report.ok, level
        assert report.first_violation is not None

    @pytest.mark.parametrize("level", NEW_LEVELS)
    def test_monitor_passes_a_serializable_stream(self, level):
        trace = gadget_traces()["ser_violation"]
        if not get_level(level).satisfies(trace.to_history(strict=False)):
            pytest.skip(f"write skew is already a {level} violation")
        report = monitor_stream(
            io.StringIO(trace.dumps()), MonitorConfig(isolation=level, gc_every=1)
        )
        assert report.ok, level
