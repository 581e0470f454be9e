"""The public API surface: everything advertised in README/__all__ works."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Run in a fresh interpreter: import every ``repro`` module and print the
#: newly loaded modules that come from the interpreter's site-packages.
_THIRD_PARTY_PROBE = """
import importlib, json, os, pkgutil, sys, sysconfig
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
roots = tuple(
    os.path.realpath(sysconfig.get_paths()[key]) + os.sep
    for key in ("purelib", "platlib")
)
loaded = []
for name in sorted(set(sys.modules) - before):
    path = getattr(sys.modules[name], "__file__", None)
    ours = name == "repro" or name.startswith("repro.")
    if path and not ours and os.path.realpath(path).startswith(roots):
        loaded.append(name)
print(json.dumps(loaded))
"""


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_readme_quickstart_runs(self):
        p = repro.ProgramBuilder("lost-update")
        for who in ("alice", "bob"):
            t = p.session(who).transaction("increment")
            t.read("a", "counter")
            t.write("counter", repro.L("a") + 1)
        program = p.build()

        @repro.assertion("someone observed the other's increment")
        def no_lost_update(outcome):
            return outcome.value("alice", "a") == 1 or outcome.value("bob", "a") == 1

        verdicts = {}
        for isolation in ("CC", "SI", "SER"):
            result = repro.ModelChecker(program, isolation=isolation).run(
                assertions=[no_lost_update]
            )
            verdicts[isolation] = result.ok
        assert verdicts == {"CC": False, "SI": True, "SER": True}

    def test_readme_history_checking_runs(self):
        b = repro.HistoryBuilder(["x"])
        t = b.txn("s")
        t.write("x", 1)
        t.commit()
        assert repro.get_level("SER").satisfies(b.build())

    def test_registered_levels_exposed(self):
        names = [level.name for level in repro.registered_levels()]
        assert names == [
            "TRUE", "RYW", "MR", "MW", "WFR", "SESSION",
            "RC", "BS-3", "RA", "CC", "PSI", "PC", "SI", "SER",
        ]

    def test_algorithm_helpers_exposed(self):
        p = repro.ProgramBuilder("tiny")
        p.session("s").transaction().write("x", 1)
        program = p.build()
        assert repro.explore_ce(program, "CC").stats.outputs == 1
        assert repro.explore_ce_star(program, "CC", "SER").stats.outputs == 1
        assert len(repro.dfs_baseline(program, "CC").histories) == 1
        assert len(repro.enumerate_histories(program, repro.get_level("CC")).histories) == 1


class TestRuntimeDependencies:
    def test_importing_every_module_loads_no_third_party_package(self):
        """README's "zero third-party runtime dependencies", enforced."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        probe = subprocess.run(
            [sys.executable, "-c", _THIRD_PARTY_PROBE],
            capture_output=True, text=True, check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert json.loads(probe.stdout) == []
