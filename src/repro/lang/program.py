"""Programs, sessions and transactions (paper Fig. 1, §2.3).

A :class:`Program` is a partial function from session identifiers to
sequences of transactions; the *oracle order* of the DPOR scheduler (§5.1)
is derived from the declaration order of sessions, then transaction order
within each session.

Programs must declare (or be able to infer) the universe of global variables
they may touch: the distinguished ``init`` transaction writes an initial
value to each of them (Def. 2.1).  Static variable names are inferred from
the instruction tree; dynamically computed names (``VarRef`` expressions)
must be covered by ``extra_variables`` — ``Next`` raises ``ValueError`` on
one that is not, since no writer of it exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.events import TxnId
from .ast import Abort, Assign, Body, If, Instr, Read, Write


@dataclass(frozen=True)
class Transaction:
    """A named transaction body (begin/commit are implicit)."""

    name: str
    body: Body

    def __repr__(self) -> str:
        return f"Transaction({self.name!r}, {len(self.body)} instrs)"

    # The executor caches its compiled instruction form on the instance
    # (``_compiled``, a tree of closures).  Closures don't pickle, and the
    # receiver recompiles lazily anyway, so pickling ships only the AST —
    # this is what lets the worker pool's spawn path move a program whose
    # *source* is picklable even after it has been executed locally.
    def __getstate__(self):
        return {"name": self.name, "body": self.body}

    def __setstate__(self, state):
        object.__setattr__(self, "name", state["name"])
        object.__setattr__(self, "body", state["body"])


def static_variables(body: Iterable[Instr]) -> Set[str]:
    """Global-variable names appearing literally in a body."""
    found: Set[str] = set()
    stack: List[Instr] = list(body)
    while stack:
        instr = stack.pop()
        if isinstance(instr, (Read, Write)) and isinstance(instr.var, str):
            found.add(instr.var)
        elif isinstance(instr, If):
            stack.extend(instr.then)
            stack.extend(instr.orelse)
    return found


class Program:
    """A bounded transactional program: sessions of transactions.

    Parameters
    ----------
    sessions:
        Mapping session id → list of transactions; iteration order defines
        the oracle order between sessions.
    name:
        Human-readable program name (used in benchmark reports).
    extra_variables:
        Global variables not literally present in any instruction (e.g. row
        variables addressed through computed names).
    initial_value:
        The default value the ``init`` transaction writes to every variable.
    initial_values:
        Per-variable overrides of the initial value.
    """

    def __init__(
        self,
        sessions: Dict[str, List[Transaction]],
        name: str = "program",
        extra_variables: Iterable[str] = (),
        initial_value: Hashable = 0,
        initial_values: Optional[Dict[str, Hashable]] = None,
    ):
        self.name = name
        self.sessions: Dict[str, Tuple[Transaction, ...]] = {
            sid: tuple(txns) for sid, txns in sessions.items()
        }
        self.initial_value = initial_value
        self.initial_values: Dict[str, Hashable] = dict(initial_values or {})
        self._session_rank = {sid: i for i, sid in enumerate(self.sessions)}
        variables = set(extra_variables)
        for txns in self.sessions.values():
            for txn in txns:
                variables |= static_variables(txn.body)
        self.variables: Tuple[str, ...] = tuple(sorted(variables))

    def initial_history(self):
        """The initial history for this program (init writes every variable)."""
        from ..core.history import History

        return History.initial(self.variables, self.initial_value, self.initial_values)

    # -- lookup -----------------------------------------------------------------

    def transaction(self, tid: TxnId) -> Transaction:
        """The program text of the transaction with id ``tid``."""
        return self.sessions[tid.session][tid.index]

    def session_length(self, session: str) -> int:
        return len(self.sessions[session])

    def transaction_count(self) -> int:
        return sum(len(t) for t in self.sessions.values())

    def all_transaction_ids(self) -> Iterator[TxnId]:
        for sid, txns in self.sessions.items():
            for index in range(len(txns)):
                yield TxnId(sid, index)

    # -- oracle order (§5.1) ------------------------------------------------------

    def oracle_key(self, tid: TxnId) -> Tuple[int, int]:
        """Position of a transaction in the oracle order ``<or``.

        Sessions are ordered by declaration, transactions within a session
        by session order — the concrete oracle instantiation suggested by
        the paper.  The ``init`` transaction precedes everything.
        """
        if tid.is_init:
            return (-1, -1)
        return (self._session_rank[tid.session], tid.index)

    def oracle_before(self, a: TxnId, b: TxnId) -> bool:
        """``a <or b``."""
        return self.oracle_key(a) < self.oracle_key(b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = {sid: len(txns) for sid, txns in self.sessions.items()}
        return f"Program({self.name!r}, sessions={sizes})"


class ProgramBuilder:
    """Fluent construction of programs::

        p = ProgramBuilder("transfer")
        s = p.session("alice")
        t = s.transaction("deposit")
        t.read("a", "acct")
        t.write("acct", L("a") + 100)
        program = p.build()
    """

    class _SessionBuilder:
        def __init__(self, owner: "ProgramBuilder", sid: str):
            self._owner = owner
            self.sid = sid
            self.transactions: List[Transaction] = []

        def transaction(self, name: Optional[str] = None) -> "ProgramBuilder._TxnBuilder":
            return ProgramBuilder._TxnBuilder(self, name or f"txn{len(self.transactions)}")

        def add(self, transaction: Transaction) -> "ProgramBuilder._SessionBuilder":
            self.transactions.append(transaction)
            return self

    class _TxnBuilder:
        def __init__(self, session: "ProgramBuilder._SessionBuilder", name: str):
            self._session = session
            self._name = name
            self._instrs: List[Instr] = []
            session.transactions.append(Transaction(name, ()))
            self._slot = len(session.transactions) - 1

        def _emit(self, instr: Instr) -> "ProgramBuilder._TxnBuilder":
            self._instrs.append(instr)
            self._session.transactions[self._slot] = Transaction(self._name, tuple(self._instrs))
            return self

        def read(self, target: str, var) -> "ProgramBuilder._TxnBuilder":
            from .ast import read as _read

            return self._emit(_read(target, var))

        def write(self, var, value) -> "ProgramBuilder._TxnBuilder":
            from .ast import write as _write

            return self._emit(_write(var, value))

        def assign(self, target: str, value) -> "ProgramBuilder._TxnBuilder":
            from .ast import assign as _assign

            return self._emit(_assign(target, value))

        def if_(self, cond, then, orelse=()) -> "ProgramBuilder._TxnBuilder":
            from .ast import if_ as _if

            return self._emit(_if(cond, then, orelse))

        def abort(self) -> "ProgramBuilder._TxnBuilder":
            from .ast import abort as _abort

            return self._emit(_abort())

    def __init__(
        self,
        name: str = "program",
        extra_variables: Iterable[str] = (),
        initial_value: Hashable = 0,
        initial_values: Optional[Dict[str, Hashable]] = None,
    ):
        self.name = name
        self.extra_variables = tuple(extra_variables)
        self.initial_value = initial_value
        self.initial_values = dict(initial_values or {})
        self._sessions: "Dict[str, ProgramBuilder._SessionBuilder]" = {}

    def session(self, sid: Optional[str] = None) -> "_SessionBuilder":
        sid = sid or f"s{len(self._sessions)}"
        if sid not in self._sessions:
            self._sessions[sid] = ProgramBuilder._SessionBuilder(self, sid)
        return self._sessions[sid]

    def build(self) -> Program:
        return Program(
            {sid: sb.transactions for sid, sb in self._sessions.items()},
            name=self.name,
            extra_variables=self.extra_variables,
            initial_value=self.initial_value,
            initial_values=self.initial_values,
        )
