"""Differential isolation testing: the engine's seeded bugs vs. the checker.

Acceptance for the engine subsystem:

* every seeded engine bug is detected by :class:`OnlineChecker` at exactly
  the demoted level its knob implies, on a deterministic scheduler seed,
  and the reported first violation names a transaction that actually
  conflicted (and, where the anomaly requires it, temporally raced);
* every honest engine configuration upholds its claimed level across the
  full workload matrix and ≥20 scheduler seeds.

When ``REPRO_DIFFTEST_ARTIFACTS`` is set (the CI difftest job does), any
failing assertion first dumps the offending traces there so regressions
ship a reproducible witness.
"""

import os
from contextlib import contextmanager

import pytest

from repro.checking.online import DEFAULT_LEVELS
from repro.core.events import INIT_SESSION, TxnId
from repro.engine import SEEDED_BUGS, HONEST_CONFIGS, run_difftest, run_program
from repro.engine.harness import BUG_DEMOS, workload_program

LADDER = DEFAULT_LEVELS  # ("RC", "RA", "CC", "SI", "SER")

#: Per-bug expectations: the exact verdict vector of the signature anomaly
#: (True = level holds), the sweep-wide detected floor, and whether the
#: anomaly requires the involved transactions to overlap in time.
EXPECTED = {
    "no_read_locks": {
        "pattern": (True, True, True, True, False),
        "detected": "SI",
        "overlap": True,
    },
    "first_committer_loses": {
        "pattern": (True, True, True, False, False),
        "detected": "CC",
        "overlap": True,
    },
    "stale_snapshot": {
        "pattern": (True, False, False, False, False),
        "detected": "RC",
        "overlap": False,  # a visibility bug: the race is with the commit counter
    },
    "early_release": {
        "pattern": (False, False, False, False, False),
        "detected": None,
        "overlap": True,
    },
    "lagging_replica": {
        "pattern": (False, False, False, False, False),
        "detected": None,
        "overlap": False,  # the race is with replication, not another client
    },
}

SWEEP_SEEDS = range(30)


@contextmanager
def artifacts_on_failure(runs):
    """Dump the given runs' traces to $REPRO_DIFFTEST_ARTIFACTS on failure."""
    try:
        yield
    except BaseException:
        outdir = os.environ.get("REPRO_DIFFTEST_ARTIFACTS")
        if outdir:
            os.makedirs(outdir, exist_ok=True)
            for run in runs:
                safe = run.trace.header.name.replace("/", "_").replace(":", "_")
                run.trace.dump(os.path.join(outdir, f"{safe}.trace.jsonl"))
        raise


def _verdict_vector(verdicts):
    return tuple(verdicts[name] for name in LADDER)


def _accesses(trace):
    """Per-transaction (session, txn) → (vars read or written, vars written)."""
    touched, wrote = {}, {}
    for event in trace.events:
        tid = (event.session, event.txn)
        if event.var is not None:
            touched.setdefault(tid, set()).add(event.var)
            if event.op == "write":
                wrote.setdefault(tid, set()).add(event.var)
    return touched, wrote


def _sweep(bug_name):
    """Run the bug's demo workload across the seed sweep; returns RunVerdicts."""
    config = SEEDED_BUGS[bug_name].config()
    program = BUG_DEMOS[bug_name]()
    results = []
    for seed in SWEEP_SEEDS:
        run = run_program(program, config, seed=seed,
                          name=f"demo:{bug_name}#s{seed}")
        results.append(run.check())
    return results


class TestSeededBugRegressions:
    """One deterministic regression scenario per planted engine defect."""

    @pytest.mark.parametrize("bug_name", sorted(SEEDED_BUGS))
    def test_bug_is_detected_at_exactly_the_demoted_level(self, bug_name):
        expected = EXPECTED[bug_name]
        bug = SEEDED_BUGS[bug_name]
        results = _sweep(bug_name)
        with artifacts_on_failure([r.run for r in results]):
            # The lie must be caught: some seed exhibits the claimed-level
            # violation, and it exhibits the bug's *signature* verdict
            # vector — not something weaker and not something stronger.
            violating = [r for r in results if not r.claim_holds]
            assert violating, f"{bug_name}: no seed in {SWEEP_SEEDS} caught the lie"
            signature = [
                r for r in violating if _verdict_vector(r.verdicts) == expected["pattern"]
            ]
            assert signature, (
                f"{bug_name}: no violating run matches the signature "
                f"{expected['pattern']}; saw "
                f"{sorted({_verdict_vector(r.verdicts) for r in violating})}"
            )
            # Across the whole sweep the detection floor is exactly the
            # documented demotion — seeds may produce consistent runs or
            # the signature anomaly, but never anything below the floor.
            floors = {r.detected for r in results if not r.claim_holds}
            assert min(
                (LADDER.index(f) if f else -1) for f in floors
            ) == (LADDER.index(expected["detected"]) if expected["detected"] else -1), (
                f"{bug_name}: sweep floor {floors} != documented {expected['detected']}"
            )
            assert bug.detected == expected["detected"], "SEEDED_BUGS metadata drifted"
            assert _verdict_vector(
                {lv: LADDER.index(lv) < LADDER.index(bug.breaks) for lv in LADDER}
            ) == expected["pattern"], "breaks/pattern metadata drifted"

    @pytest.mark.parametrize("bug_name", sorted(SEEDED_BUGS))
    def test_first_violation_names_a_transaction_that_raced(self, bug_name):
        expected = EXPECTED[bug_name]
        breaks = SEEDED_BUGS[bug_name].breaks
        results = _sweep(bug_name)
        signature = [
            r
            for r in results
            if not r.claim_holds and _verdict_vector(r.verdicts) == expected["pattern"]
        ]
        with artifacts_on_failure([r.run for r in signature]):
            assert signature
            for result in signature:
                step = result.first_violations[breaks]
                assert step is not None
                culprit = (step.event.session, step.event.txn)
                assert culprit[0] != INIT_SESSION
                touched, wrote = _accesses(result.run.trace)
                # The named transaction conflicts for real: some *other*
                # transaction wrote a variable it touched.
                rivals = [
                    tid
                    for tid, vars_written in wrote.items()
                    if tid != culprit and vars_written & touched.get(culprit, set())
                ]
                assert rivals, (
                    f"{bug_name}: flagged {culprit} has no conflicting rival "
                    f"(touched {touched.get(culprit)})"
                )
                if expected["overlap"]:
                    # The anomaly needs a genuine race: the culprit's engine
                    # operation span overlapped a conflicting rival's.
                    assert any(
                        result.run.concurrent(TxnId(*culprit), TxnId(*r)) for r in rivals
                    ), f"{bug_name}: flagged {culprit} never overlapped a rival"

    def test_run_difftest_reports_every_liar_and_no_honest_config(self):
        report = run_difftest(seeds=range(10))
        bugged = {SEEDED_BUGS[b].config().name for b in SEEDED_BUGS}
        assert set(report.liars) == bugged
        for name, config_report in report.configs.items():
            assert config_report.honest == (name not in bugged)
        rendered = report.render()
        assert "LYING" in rendered and "ok" in rendered


HONEST_WORKLOADS = (
    "hotkeys",
    "increments",
    "courseware",
    "shoppingCart",
    "tpcc",
    "twitter",
    "wikipedia",
)


class TestHonestConfigs:
    """The other half of differential testing: no false accusations."""

    @pytest.mark.slow
    @pytest.mark.parametrize("config_name", sorted(HONEST_CONFIGS))
    def test_honest_config_upholds_claim_across_the_matrix(self, config_name):
        config = HONEST_CONFIGS[config_name]
        for workload in HONEST_WORKLOADS:
            for seed in range(20):
                program = workload_program(workload, sessions=2, txns_per_session=2, seed=seed)
                run = run_program(program, config, seed=seed,
                                  name=f"{workload}@{config_name}#s{seed}")
                result = run.check()
                with artifacts_on_failure([run]):
                    assert result.claim_holds, (
                        f"{config_name} violated its claimed {config.claimed} on "
                        f"{workload} seed {seed}: {result.verdicts}"
                    )

    @pytest.mark.parametrize("config_name", sorted(HONEST_CONFIGS))
    def test_honest_config_quick_matrix(self, config_name):
        """Reduced matrix (used by the CI difftest step via -m 'not slow')."""
        config = HONEST_CONFIGS[config_name]
        for workload in ("hotkeys", "tpcc", "twitter"):
            for seed in range(5):
                program = workload_program(workload, sessions=2, txns_per_session=2, seed=seed)
                run = run_program(program, config, seed=seed,
                                  name=f"{workload}@{config_name}#s{seed}")
                result = run.check()
                with artifacts_on_failure([run]):
                    assert result.claim_holds, (
                        f"{config_name} violated {config.claimed} on "
                        f"{workload} seed {seed}: {result.verdicts}"
                    )


class TestSerializableStress:
    """Hot-key increment stress: seeded lock contention, zero anomalies."""

    @pytest.mark.slow
    def test_hot_key_increments_pass_all_levels_across_20_seeds(self):
        program = workload_program("increments", sessions=3, txns_per_session=4)
        config = HONEST_CONFIGS["serializable"]
        # Upgrade deadlocks make the requester the victim, so under hot-key
        # contention a session can lose many rounds in a row; the property
        # under test is consistency, not retry efficiency.
        for seed in range(20):
            run = run_program(program, config, seed=seed, max_retries=40,
                              name=f"stress-increments#s{seed}")
            result = run.check()
            with artifacts_on_failure([run]):
                assert all(result.verdicts.values()), (
                    f"seed {seed}: {result.verdicts}"
                )
                assert not run.gave_up, f"seed {seed}: retries exhausted {run.gave_up}"
                assert run.stats.commits == 12
                # The schedule actually contended: S2PL on a hot key must
                # produce lock waits somewhere in 12 colliding increments.
                assert run.stats.lock_waits > 0

    def test_hot_key_increments_quick(self):
        program = workload_program("increments", sessions=3, txns_per_session=2)
        config = HONEST_CONFIGS["serializable"]
        for seed in range(5):
            run = run_program(program, config, seed=seed, max_retries=12)
            result = run.check()
            with artifacts_on_failure([run]):
                assert all(result.verdicts.values())
                assert run.stats.commits == 6
