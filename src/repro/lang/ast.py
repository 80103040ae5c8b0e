"""Abstract syntax tree for ECL programs.

The tree mirrors the language the paper defines: plain C declarations,
expressions and statements, plus the eight reactive constructs of Section
"ECL Statements" (``emit``/``emit_v``, ``await``, ``halt``, ``present``,
``abort``, ``weak_abort``, ``suspend``, ``par``) and the ``module``/
``signal`` declaration forms.

All nodes are frozen :class:`~repro.nodes.Frozen` records so they can be
hashed and shared; every node carries a :class:`~repro.lang.source.Span`,
which equality, hashing and ``repr`` ignore.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..nodes import Frozen, field
from .source import SYNTHETIC, Span


class Node(Frozen):
    """Common base: every AST node has a source span."""

    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


# ======================================================================
# Expressions


class Expr(Node):
    pass


class IntLit(Expr):
    value: int = 0


class StrLit(Expr):
    value: str = ""


class Name(Expr):
    """An identifier: variable, signal value, enum constant or function."""

    id: str = ""


class Unary(Expr):
    """Prefix operator: one of ``- + ! ~ &``."""

    op: str = ""
    operand: Expr = None


class IncDec(Expr):
    """``++``/``--``, prefix or postfix."""

    op: str = "++"
    target: Expr = None
    postfix: bool = True


class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


class Assign(Expr):
    """Assignment, possibly compound (``op`` is ``=``, ``+=``, ...)."""

    op: str = "="
    target: Expr = None
    value: Expr = None


class Cond(Expr):
    """The ternary ``c ? t : f``."""

    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


class Call(Expr):
    """A function call; module instantiation shares this syntax (paper,
    ECL statement 9) and is resolved during translation."""

    func: str = ""
    args: Tuple[Expr, ...] = ()


class Index(Expr):
    base: Expr = None
    index: Expr = None


class Member(Expr):
    base: Expr = None
    name: str = ""
    arrow: bool = False


class Cast(Expr):
    """``(type) expr``; ``type_name`` is resolved against the TypeTable."""

    type: object = None
    operand: Expr = None


class SizeofType(Expr):
    type: object = None


class SizeofExpr(Expr):
    operand: Expr = None


# ======================================================================
# Signal (presence) expressions — the restricted Boolean algebra allowed
# in await / present / abort / suspend conditions (paper, statement 2).


class SigExpr(Node):
    def signal_names(self):
        """All signal names mentioned in this presence expression."""
        raise NotImplementedError


class SigRef(SigExpr):
    name: str = ""

    def signal_names(self):
        return {self.name}


class SigNot(SigExpr):
    operand: SigExpr = None

    def signal_names(self):
        return self.operand.signal_names()


class SigAnd(SigExpr):
    left: SigExpr = None
    right: SigExpr = None

    def signal_names(self):
        return self.left.signal_names() | self.right.signal_names()


class SigOr(SigExpr):
    left: SigExpr = None
    right: SigExpr = None

    def signal_names(self):
        return self.left.signal_names() | self.right.signal_names()


# ======================================================================
# Statements


class Stmt(Node):
    pass


class ExprStmt(Stmt):
    expr: Expr = None


class VarDecl(Stmt):
    """A local variable declaration (one declarator; the parser splits
    comma-separated declarator lists into several VarDecls)."""

    name: str = ""
    type: object = None
    init: Optional[Expr] = None


class SignalDecl(Stmt):
    """A local signal declaration inside a module body:
    ``signal pure kill_check;`` or ``signal packet_t packet;``."""

    name: str = ""
    type: object = None  # PURE for pure signals


class Block(Stmt):
    body: Tuple[Stmt, ...] = ()


class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


class While(Stmt):
    cond: Expr = None
    body: Stmt = None


class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


class For(Stmt):
    init: Optional[Stmt] = None  # ExprStmt or VarDecl or None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


class Break(Stmt):
    pass


class Continue(Stmt):
    pass


class Return(Stmt):
    value: Optional[Expr] = None


# ----------------------------------------------------------------------
# Reactive statements (paper, Section "ECL Statements")


class Emit(Stmt):
    """``emit(sig)`` or ``emit_v(sig, value)``."""

    signal: str = ""
    value: Optional[Expr] = None


class Await(Stmt):
    """``await(sig_expr)``; ``await()`` — the delta-cycle form — has
    ``cond is None``."""

    cond: Optional[SigExpr] = None


class Halt(Stmt):
    """``halt()``: stop until pre-empted."""


class Present(Stmt):
    cond: SigExpr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


class Abort(Stmt):
    """``do body abort(cond) [handle handler]``; ``weak`` selects
    ``weak_abort``."""

    body: Stmt = None
    cond: SigExpr = None
    handler: Optional[Stmt] = None
    weak: bool = False


class Suspend(Stmt):
    """``do body suspend(cond)``."""

    body: Stmt = None
    cond: SigExpr = None


class Par(Stmt):
    """``par { s1; s2; ... }`` — synchronous parallel branches."""

    branches: Tuple[Stmt, ...] = ()


# ======================================================================
# Top-level declarations


class SignalParam(Node):
    """One module signal parameter: direction, type (PURE if pure), name."""

    direction: str = "input"  # "input" | "output"
    name: str = ""
    type: object = None


class FuncParam(Node):
    name: str = ""
    type: object = None


class ModuleDecl(Node):
    """An ECL module: 'like a subroutine, but may take special parameters
    called signals' (paper, ECL Overview)."""

    name: str = ""
    signals: Tuple[SignalParam, ...] = ()
    body: Block = None


class FuncDef(Node):
    """A plain C function definition (data-only; checked by the splitter)."""

    name: str = ""
    return_type: object = None
    params: Tuple[FuncParam, ...] = ()
    body: Block = None


class TypedefDecl(Node):
    name: str = ""
    type: object = None


class TagDecl(Node):
    """A struct/union definition appearing at file scope."""

    tag: str = ""
    type: object = None


class Program(Node):
    """A parsed ECL translation unit."""

    items: Tuple[Node, ...] = ()

    def modules(self):
        return [item for item in self.items if isinstance(item, ModuleDecl)]

    def functions(self):
        return [item for item in self.items if isinstance(item, FuncDef)]

    def module_named(self, name):
        for module in self.modules():
            if module.name == name:
                return module
        raise KeyError("no module named %r" % name)


# ======================================================================
# Traversal helpers


def children(node):
    """The direct AST-node children of ``node`` (exprs and stmts), in
    field order."""
    found = []
    if node is None:
        return found
    for name in node._fields[1:]:  # all but the span
        value = getattr(node, name)
        if isinstance(value, Node):
            found.append(value)
        elif isinstance(value, tuple):
            found.extend([item for item in value if isinstance(item, Node)])
    return found


def walk(node):
    """Depth-first pre-order traversal of the subtree rooted at ``node``."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        yield current
        found = children(current)
        found.reverse()
        stack.extend(found)


def contains_reactive(node):
    """True if the subtree uses any reactive construct.

    This is the predicate the splitter's heuristics are built on: a loop
    with no reactive statement in it is a *data loop* (paper, Section 4).
    """
    reactive_types = (Emit, Await, Halt, Present, Abort, Suspend, Par,
                      SignalDecl)
    return any(isinstance(n, reactive_types) for n in walk(node))


def names_read(expr):
    """All identifier names appearing in an expression subtree."""
    return {n.id for n in walk(expr) if isinstance(n, Name)}
