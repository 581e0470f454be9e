"""Unit tests for programs, the DSL and the oracle order (repro.lang)."""

from repro.core.events import INIT_TXN, TxnId
from repro.lang import (
    L,
    Program,
    ProgramBuilder,
    Transaction,
    abort,
    assign,
    if_,
    read,
    write,
)
from repro.lang.expr import concat
from repro.lang.program import static_variables


class TestAstConstructors:
    def test_read_write_assign(self):
        r = read("a", "x")
        w = write("x", L("a") + 1)
        s = assign("b", 3)
        assert r.target == "a" and r.var == "x"
        assert w.var == "x"
        assert s.target == "b" and s.expr.evaluate({}) == 3

    def test_if_builds_tuples(self):
        instr = if_(L("a") == 0, then=[abort()], orelse=[assign("b", 1)])
        assert isinstance(instr.then, tuple) and isinstance(instr.orelse, tuple)


class TestVariableInference:
    def test_static_variables_sees_through_ifs(self):
        body = (read("a", "x"), if_(L("a") == 0, then=[write("y", 1)], orelse=[write("z", 2)]))
        assert static_variables(body) == {"x", "y", "z"}

    def test_dynamic_variable_detection(self):
        body = (read("a", concat("row_", L("k"))),)
        assert static_variables(body) == set()

    def test_program_collects_variables(self):
        p = Program(
            {"s": [Transaction("t", (read("a", "x"), write("y", 1)))]},
            extra_variables=["row_1"],
        )
        assert set(p.variables) == {"x", "y", "row_1"}


class TestOracleOrder:
    def build(self):
        p = ProgramBuilder("oracle")
        p.session("s0").transaction("a").write("x", 1)
        s1 = p.session("s1")
        s1.transaction("b").write("x", 2)
        s1.transaction("c").write("x", 3)
        return p.build()

    def test_sessions_then_indexes(self):
        p = self.build()
        a, b, c = TxnId("s0", 0), TxnId("s1", 0), TxnId("s1", 1)
        assert p.oracle_before(a, b) and p.oracle_before(b, c)
        assert not p.oracle_before(c, b)

    def test_init_precedes_everything(self):
        p = self.build()
        assert p.oracle_before(INIT_TXN, TxnId("s0", 0))

    def test_transaction_lookup(self):
        p = self.build()
        assert p.transaction(TxnId("s1", 1)).name == "c"
        assert p.transaction_count() == 3
        assert list(p.all_transaction_ids()) == [
            TxnId("s0", 0),
            TxnId("s1", 0),
            TxnId("s1", 1),
        ]


class TestProgramBuilder:
    def test_fluent_chaining(self):
        p = ProgramBuilder("chain")
        p.session("s").transaction("t").read("a", "x").assign("b", L("a") + 1).write("x", L("b"))
        prog = p.build()
        assert prog.transaction(TxnId("s", 0)).body[0].target == "a"
        assert len(prog.transaction(TxnId("s", 0)).body) == 3

    def test_session_reuse_by_name(self):
        p = ProgramBuilder("reuse")
        p.session("s").transaction("t0")
        p.session("s").transaction("t1")
        prog = p.build()
        assert prog.session_length("s") == 2

    def test_initial_values_forwarded(self):
        p = ProgramBuilder("init", extra_variables=["cart"], initial_values={"cart": frozenset()})
        p.session("s").transaction("t").read("a", "cart")
        prog = p.build()
        h = prog.initial_history()
        assert h.visible_write_value(INIT_TXN, "cart") == frozenset()

    def test_initial_history_covers_all_variables(self):
        p = ProgramBuilder("vars")
        p.session("s").transaction("t").read("a", "x").write("y", 1)
        h = p.build().initial_history()
        assert set(h.txns[INIT_TXN].writes()) == {"x", "y"}
