"""Transaction bodies: one interpreter, resumed by replay.

A transaction body has one meaning (§2.3, Appendix B), and :func:`execute`
is its only interpreter.  It is a generator over the body's compiled code:
it yields each database operation — a :class:`ReadOp`, resumed with the
value read, or a :class:`WriteOp`, resumed with ``None`` — and yields
:class:`CommitOp` or :class:`AbortOp` last.  The silent rules (if-true,
if-false, local) run inside it between yields.  Every client drives it:

* :func:`next_operation` answers ``Next`` (§5.1): the next operation of a
  pending transaction, plus its locals valuation at that point.  The
  paper threads a ``locals`` map through the exploration for this; we
  instead *replay* the log's READ/WRITE events through the generator,
  which is equivalent because the language is deterministic given read
  values.
* :func:`final_env` is the same replay over a complete log: the locals
  valuation user assertions inspect.
* The engine harness (:mod:`repro.engine.harness`) resumes the generator
  with the values its MVCC engine returns, so difftest judges the engine
  on the very semantics the model checker explores.

Replay validates.  Each recorded READ must match the variable of the
operation the generator yields, and each recorded WRITE its variable and
value; any mismatch raises :class:`ReplayMismatch`.  That includes a
record longer than the body, whose terminal operation then meets a
READ/WRITE event.

Replay is the hottest loop of the exploration (one replay per ``Next``
query), so bodies are compiled into a flat tuple of instruction triples —
expressions become argument-capturing closures, ``if`` blocks become
conditional jumps — cached on each
:class:`~repro.lang.program.Transaction` object.  There is no second
interpreter over the raw AST: two interpreters are two semantics to keep
equal, and the engine would be judged on one the explorer never runs.
The AST semantics lives on as a test-local reference that
``tests/test_executor.py`` checks this interpreter against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Hashable, List, Tuple, Union

from ..core.events import EventType
from ..core.history import TransactionLog
from ..lang.ast import Abort, Assign, Body, If, Read, Write
from ..lang.expr import BinOp, Const, Env, Expr, Fn, Local, UnOp
from ..lang.program import Transaction

#: Compiled instructions dispatched by :func:`execute` since interpreter
#: start: the explorer's replays and the engine's transactions alike.  The
#: per-node cost profile of the exploration reports deltas of this counter.
#: The ``+=`` is not atomic.  Under the engine's ``SeededScheduler`` only
#: one session thread interprets at a time, so the count is exact there;
#: free-running session threads can lose increments.
INSTRUCTIONS_EXECUTED = 0


@dataclass(frozen=True)
class ReadOp:
    """The transaction's next instruction reads global ``var``."""

    var: str


@dataclass(frozen=True)
class WriteOp:
    """The transaction's next instruction writes ``value`` to ``var``."""

    var: str
    value: Hashable


@dataclass(frozen=True)
class CommitOp:
    """The body is exhausted: the next event is COMMIT."""


@dataclass(frozen=True)
class AbortOp:
    """An ``abort`` instruction was reached: the next event is ABORT."""


Operation = Union[ReadOp, WriteOp, CommitOp, AbortOp]


class ReplayMismatch(AssertionError):
    """A recorded event does not match the operation the body produces.

    This always indicates a bug in history maintenance (e.g. a Swap that
    kept events invalidated by a changed read), so it is an assertion-style
    error rather than a user-facing one.
    """


# -- the body compiler ---------------------------------------------------------

#: Opcodes of the compiled form.  A compiled body is a tuple of
#: ``(opcode, a, b)`` triples; jump targets are absolute indices.
_OP_ASSIGN, _OP_READ, _OP_WRITE, _OP_JUMP, _OP_JUMP_IF_FALSE, _OP_ABORT = range(6)

#: An evaluated operand: a closure over the (compiled) expression, applied
#: to the locals valuation.
_Thunk = Callable[[Env], Hashable]


def _compile_expr(expr: Expr) -> _Thunk:
    """Compile an expression tree into a nest of argument-capturing closures.

    Each node's children and function are captured in cell variables, so
    evaluation performs no attribute lookups — only calls.  Unknown
    :class:`Expr` subclasses fall back to their own ``evaluate`` method.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Local):
        return expr.evaluate  # bound method; already a minimal closure
    if isinstance(expr, BinOp):
        fn = expr.fn
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)
        return lambda env: fn(left(env), right(env))
    if isinstance(expr, UnOp):
        fn = expr.fn
        operand = _compile_expr(expr.operand)
        return lambda env: fn(operand(env))
    if isinstance(expr, Fn):
        fn = expr.fn
        args = tuple(_compile_expr(a) for a in expr.args)
        return lambda env: fn(*(thunk(env) for thunk in args))
    return expr.evaluate


def _compile_var(ref) -> Union[str, _Thunk]:
    """A literal name stays a ``str``; a computed reference compiles to a
    thunk that rejects a non-string result with :class:`TypeError`."""
    if isinstance(ref, str):
        return ref
    thunk = _compile_expr(ref)

    def resolver(env: Env) -> str:
        name = thunk(env)
        if not isinstance(name, str):
            raise TypeError(f"variable reference {ref!r} evaluated to non-string {name!r}")
        return name

    return resolver


def _compile_body(body: Body, code: List[Tuple]) -> None:
    for instr in body:
        if isinstance(instr, Assign):
            code.append((_OP_ASSIGN, instr.target, _compile_expr(instr.expr)))
        elif isinstance(instr, Read):
            code.append((_OP_READ, instr.target, _compile_var(instr.var)))
        elif isinstance(instr, Write):
            code.append((_OP_WRITE, _compile_var(instr.var), _compile_expr(instr.expr)))
        elif isinstance(instr, If):
            cond = _compile_expr(instr.cond)
            branch_at = len(code)
            code.append(None)  # patched below
            _compile_body(instr.then, code)
            if instr.orelse:
                jump_at = len(code)
                code.append(None)
                code[branch_at] = (_OP_JUMP_IF_FALSE, cond, len(code))
                _compile_body(instr.orelse, code)
                code[jump_at] = (_OP_JUMP, len(code), None)
            else:
                code[branch_at] = (_OP_JUMP_IF_FALSE, cond, len(code))
        elif isinstance(instr, Abort):
            code.append((_OP_ABORT, None, None))
        else:  # pragma: no cover - unreachable with the public DSL
            raise TypeError(f"unknown instruction {instr!r}")


def compiled_code(txn: Transaction) -> Tuple[Tuple, ...]:
    """The compiled form of ``txn.body``, cached on the transaction object.

    :class:`~repro.lang.program.Transaction` is a frozen dataclass, so the
    cache is planted with ``object.__setattr__``; tying it to the object
    (rather than an external table) makes staleness impossible — builders
    produce a fresh ``Transaction`` whenever a body changes.
    """
    try:
        return txn._compiled  # type: ignore[attr-defined]
    except AttributeError:
        pass
    code: List[Tuple] = []
    _compile_body(txn.body, code)
    compiled = tuple(code)
    object.__setattr__(txn, "_compiled", compiled)
    return compiled


# -- the interpreter -----------------------------------------------------------


def execute(txn: Transaction, env: Env) -> Generator[Operation, Hashable, None]:
    """Run ``txn``'s body over the locals ``env``, one operation at a time.

    Yields each :class:`ReadOp` (send the value read) and :class:`WriteOp`
    (send ``None``), then :class:`CommitOp` or :class:`AbortOp` last.
    """
    global INSTRUCTIONS_EXECUTED
    code = compiled_code(txn)
    size = len(code)
    pc = 0
    steps = 0  # dispatched since the last yield; flushed to the counter there
    while pc < size:
        op, a, b = code[pc]
        pc += 1
        steps += 1
        if op == _OP_ASSIGN:
            env[a] = b(env)
        elif op == _OP_READ:
            INSTRUCTIONS_EXECUTED += steps
            steps = 0
            env[a] = yield ReadOp(b if type(b) is str else b(env))
        elif op == _OP_WRITE:
            INSTRUCTIONS_EXECUTED += steps
            steps = 0
            yield WriteOp(a if type(a) is str else a(env), b(env))
        elif op == _OP_JUMP_IF_FALSE:
            if not a(env):
                pc = b
        elif op == _OP_JUMP:
            pc = a
        else:  # _OP_ABORT
            INSTRUCTIONS_EXECUTED += steps
            yield AbortOp()
            return
    INSTRUCTIONS_EXECUTED += steps
    yield CommitOp()


# -- replay --------------------------------------------------------------------


def _replay(txn: Transaction, log: TransactionLog) -> Tuple[Operation, Env]:
    """Drive :func:`execute` through ``log``'s READ/WRITE events, checking
    each against the operation yielded; return the first operation past
    them and the locals valuation at that point."""
    env: Env = {}
    run = execute(txn, env)
    op = next(run)
    for event in log.events:
        kind = event.type
        if kind is EventType.READ:
            if type(op) is not ReadOp or op.var != event.var:
                raise ReplayMismatch(f"{log.tid!r}: expected {op!r}, recorded {event!r}")
            op = run.send(event.value)
        elif kind is EventType.WRITE:
            if type(op) is not WriteOp or op.var != event.var or op.value != event.value:
                raise ReplayMismatch(f"{log.tid!r}: expected {op!r}, recorded {event!r}")
            op = run.send(None)
    return op, env


def next_operation(txn: Transaction, log: TransactionLog) -> Tuple[Operation, Env]:
    """The next operation of ``txn`` after the events recorded in ``log``.

    ``log`` must be pending; its READ/WRITE events are replayed in program
    order, then the next pending operation and the locals valuation are
    returned.
    """
    if log.is_complete:
        raise ValueError(f"transaction {log.tid!r} is complete")
    return _replay(txn, log)


def final_env(txn: Transaction, log: TransactionLog) -> Env:
    """Local-variable valuation of a *complete* transaction log.

    Used for user assertions over final states.  The replay validates the
    log like :func:`next_operation` does, so a log its body cannot produce
    raises :class:`ReplayMismatch`.
    """
    return _replay(txn, log)[1]
