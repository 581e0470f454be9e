"""Instruction AST of the transactional language (paper Fig. 1).

A program is a parallel composition of *sessions*; a session is a sequence
of *transactions*; a transaction body is a sequence of instructions::

    Instr   ::= a := read(x) | write(x, a) | abort | a := e | if(φ(ā)){ Instr* } [else { Instr* }]

Extensions over the paper's minimal grammar (all strictly sugar, they do not
enlarge the state space):

* ``if`` may carry an ``else`` branch and guards a block, not a single
  instruction;
* database variable names may be *computed* from locals (needed to model SQL
  row access where the row id was read from a table's id-set variable).

Programs must be bounded (no loops), as usual for stateless model checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from .expr import Expr, ExprLike, to_expr

#: A database variable reference: a literal name or an expression computing one.
VarRef = Union[str, Expr]


class Instr:
    """Base class of instructions."""

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Instr):
    """``a := e`` — local assignment."""

    target: str
    expr: Expr

    def __repr__(self) -> str:
        return f"{self.target} := {self.expr!r}"


@dataclass(frozen=True)
class Read(Instr):
    """``a := read(x)`` — read global ``x`` into local ``a``."""

    target: str
    var: VarRef

    def __repr__(self) -> str:
        return f"{self.target} := read({self.var!r})"


@dataclass(frozen=True)
class Write(Instr):
    """``write(x, e)`` — write the value of ``e`` to global ``x``."""

    var: VarRef
    expr: Expr

    def __repr__(self) -> str:
        return f"write({self.var!r}, {self.expr!r})"


@dataclass(frozen=True)
class If(Instr):
    """``if(φ){...} else {...}`` — conditional block."""

    cond: Expr
    then: Tuple[Instr, ...]
    orelse: Tuple[Instr, ...] = ()

    def __repr__(self) -> str:
        text = f"if({self.cond!r}){{{'; '.join(map(repr, self.then))}}}"
        if self.orelse:
            text += f" else {{{'; '.join(map(repr, self.orelse))}}}"
        return text


@dataclass(frozen=True)
class Abort(Instr):
    """``abort`` — end the enclosing transaction, discarding its writes."""

    def __repr__(self) -> str:
        return "abort"


# -- convenience constructors (the public DSL surface) -------------------------


def read(target: str, var: VarRef) -> Read:
    """``target := read(var)``."""
    return Read(target, var)


def write(var: VarRef, value: ExprLike) -> Write:
    """``write(var, value)``."""
    return Write(var, to_expr(value))


def assign(target: str, value: ExprLike) -> Assign:
    """``target := value``."""
    return Assign(target, to_expr(value))


def if_(cond: ExprLike, then, orelse=()) -> If:
    """``if (cond) { then } else { orelse }``."""
    return If(to_expr(cond), tuple(then), tuple(orelse))


def abort() -> Abort:
    """``abort``."""
    return Abort()


Body = Tuple[Instr, ...]
