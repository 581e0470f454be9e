"""Property test: sibling-shared saturation ≡ from-scratch checking.

The explorer derives each child node's :class:`IncrementalSaturation`
state from its parent's by diffing (``derive_extension_states``) instead of
rebuilding per node.  These tests sweep every node of the exploration tree
and assert the derived verdict — and, on consistent nodes, the full
``so ∪ wr ∪ forced`` closure and the fired edges — matches what
``satisfies_by_saturation`` computes on a cache-cold copy of the same
history, for RC, RA and CC.

The sweep itself lives in ``scripts/check_saturation_shared.py`` so it can
also run standalone on the auxiliary interpreters (3.9/3.12 have no
pytest); this module imports it from there rather than duplicating it.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from helpers import PAPER_PROGRAMS, random_program

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_saturation_shared.py"
_spec = importlib.util.spec_from_file_location("check_saturation_shared", _SCRIPT)
check_saturation_shared = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_saturation_shared", check_saturation_shared)
_spec.loader.exec_module(check_saturation_shared)

sweep_program = check_saturation_shared.sweep_program
abort_stream_program = check_saturation_shared.abort_stream_program


class TestSharedSaturationProperty:
    @pytest.mark.parametrize("make", PAPER_PROGRAMS, ids=lambda fn: fn.__name__)
    def test_paper_programs(self, make):
        stats = sweep_program(make(), max_nodes=5000)
        assert stats.mismatches == []
        assert stats.nodes > 1 and not stats.truncated

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs(self, seed):
        program = random_program(random.Random(seed), f"rand{seed}")
        stats = sweep_program(program, max_nodes=5000)
        assert stats.mismatches == []

    def test_abort_stream_derives_writer_aborts(self):
        """Write-then-abort children are derived by retraction, not
        rebuilt: only the root cold-starts, and every node still agrees."""
        stats = sweep_program(abort_stream_program(), max_nodes=5000)
        assert stats.mismatches == []
        assert stats.writer_aborts > 0
        assert stats.rebuilds == 1

    def test_sweep_covers_inconsistent_nodes(self):
        """The walk checks ValidWrites-rejected candidates too, so
        inconsistent states are derived and checked, not just consistent
        extensions."""
        totals = 0
        for make in PAPER_PROGRAMS:
            totals += sweep_program(make(), max_nodes=5000).inconsistent
        assert totals > 0


def test_script_main_is_green(capsys):
    """The standalone entry point (the py3.9/py3.12 harness) exits 0."""
    rc = check_saturation_shared.main(["--seeds", "2", "--max-nodes", "2000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 mismatch(es)" in out
