"""Structural operational semantics of the Esterel kernel.

:func:`react` runs one statement for one instant against a
:class:`ReactContext` and returns ``(completion_code, residue)``.  The same
function drives both execution engines:

* the concrete interpreter (:mod:`repro.esterel.interp`) supplies a
  context that executes data actions against real memory and resolves
  presence via the per-instant fixed point;
* the EFSM builder (:mod:`repro.efsm.build`) supplies a context that
  *records* actions and decides undetermined tests from a decision
  prefix, taking ``True`` (and queueing the ``False`` alternative) past
  its end, so one call of :func:`react` walks one path of the instant.

Each kernel statement type has one rule, and :func:`react` dispatches
on the statement's exact type through a ``{type: rule}`` table; the
rules recurse through :func:`react` for sub-statements.  Rules build
residues with the canonicalising constructors of
:mod:`repro.esterel.kernel`, so equal control states are equal terms.

Completion codes: 0 terminate, 1 pause, k+2 exit of trap ``k`` levels up.
"""

from __future__ import annotations

from ..errors import InstantaneousLoopError
from ..lang import ast
from . import kernel as k


class ReactContext:
    """What the semantics needs from an execution engine."""

    def signal_status(self, name):
        """Presence of ``name`` in the current instant."""
        raise NotImplementedError

    def data_test(self, expr):
        """Truth of a C condition in the current micro-state."""
        raise NotImplementedError

    def emit(self, name, value_expr):
        """Perform/record an emission."""
        raise NotImplementedError

    def action(self, stmt):
        """Perform/record an atomic data statement."""
        raise NotImplementedError

    def delta_pause(self):
        """Note that a ``Pause(delta=True)`` was reached (paper fn. 3)."""


def eval_sig_expr(ctx, sig_expr):
    """Evaluate a presence expression through the context."""
    rule = _SIG_RULES.get(type(sig_expr))
    if rule is None:
        raise TypeError("unknown signal expression %r" % (sig_expr,))
    return rule(ctx, sig_expr)


def _sig_and(ctx, sig_expr):
    # No short-circuit: both sides are resolved so that symbolic
    # exploration enumerates the same decisions on every path.
    left = eval_sig_expr(ctx, sig_expr.left)
    right = eval_sig_expr(ctx, sig_expr.right)
    return left and right


def _sig_or(ctx, sig_expr):
    left = eval_sig_expr(ctx, sig_expr.left)
    right = eval_sig_expr(ctx, sig_expr.right)
    return left or right


_SIG_RULES = {
    ast.SigRef: lambda ctx, sig_expr: ctx.signal_status(sig_expr.name),
    ast.SigNot: lambda ctx, sig_expr: not eval_sig_expr(ctx, sig_expr.operand),
    ast.SigAnd: _sig_and,
    ast.SigOr: _sig_or,
}


def react(stmt, ctx):
    """Run ``stmt`` for one instant; return ``(code, residue)``.

    The residue is only meaningful when ``code == 1``; by convention it is
    :data:`~repro.esterel.kernel.NOTHING` otherwise.
    """
    rule = _RULES.get(type(stmt))
    if rule is None:
        raise TypeError("unknown kernel statement %r" % (stmt,))
    return rule(stmt, ctx)


# ----------------------------------------------------------------------
# One rule per kernel statement type


def _pause(stmt, ctx):
    if stmt.delta:
        ctx.delta_pause()
    return 1, k.NOTHING


def _emit(stmt, ctx):
    ctx.emit(stmt.signal, stmt.value)
    return 0, k.NOTHING


def _action(stmt, ctx):
    ctx.action(stmt.stmt)
    return 0, k.NOTHING


def _if_data(stmt, ctx):
    branch = stmt.then if ctx.data_test(stmt.cond) else stmt.otherwise
    return react(branch, ctx)


def _present(stmt, ctx):
    branch = stmt.then if eval_sig_expr(ctx, stmt.cond) else stmt.otherwise
    return react(branch, ctx)


def _seq(stmt, ctx):
    stmts = stmt.stmts
    for index, child in enumerate(stmts):
        code, residue = react(child, ctx)
        if code == 0:
            continue
        if code == 1:
            return 1, k.seq(residue, *stmts[index + 1:])
        return code, k.NOTHING
    return 0, k.NOTHING


def _loop(loop, ctx):
    """Run a loop body, restarting it when it terminates.  A body that
    terminates twice without consuming an instant is an instantaneous
    loop."""
    restarted = False
    while True:
        code, residue = react(loop.body, ctx)
        if code == 1:
            return 1, k.seq(residue, loop)
        if code != 0:
            return code, k.NOTHING
        if restarted:
            raise InstantaneousLoopError(
                "loop body terminates without passing an instant boundary; "
                "the Esterel compiler rejects such loops (extract the loop "
                "as a data function or add await())")
        restarted = True


def _await_active(stmt, ctx):
    if eval_sig_expr(ctx, stmt.cond):
        return 0, k.NOTHING
    return 1, stmt


def _par(stmt, ctx):
    """Run parallel branches left to right; combine with max-code.
    A ``None`` branch of a ``ParActive`` terminated in an earlier
    instant."""
    top = 0
    residues = []
    for branch in stmt.branches:
        if branch is None:
            residues.append(None)
            continue
        code, residue = react(branch, ctx)
        if code > top:
            top = code
        residues.append(residue if code == 1 else None)
    if top == 1:
        return 1, k.ParActive(tuple(residues))
    # 0: all done; >=2: an exit kills every sibling at the instant's end.
    return top, k.NOTHING


def _trap(stmt, ctx):
    code, residue = react(stmt.body, ctx)
    if code == 1:
        return 1, k.Trap(residue)
    if code == 0 or code == 2:
        return 0, k.NOTHING
    return code - 1, k.NOTHING


def _abort(stmt, ctx):
    # First instant: the body runs unconditionally.
    return _arm_abort(react(stmt.body, ctx), stmt)


def _abort_active(stmt, ctx):
    if not stmt.weak and eval_sig_expr(ctx, stmt.cond):
        # Strong abort: the body does not run this instant; the
        # handler (if any) runs immediately.
        return _run_handler(stmt, ctx)
    code, residue = react(stmt.body, ctx)
    if stmt.weak and eval_sig_expr(ctx, stmt.cond):
        # Weak abort: the body ran for the last time this instant.
        if code == 1:
            return _run_handler(stmt, ctx)
        return code, k.NOTHING
    return _arm_abort((code, residue), stmt)


def _run_handler(stmt, ctx):
    handler = stmt.handler if stmt.handler is not None else k.NOTHING
    return react(handler, ctx)


def _arm_abort(result, stmt):
    code, residue = result
    if code == 1:
        return 1, k.AbortActive(residue, stmt.cond, stmt.handler, stmt.weak)
    return code, k.NOTHING


def _suspend(stmt, ctx):
    code, residue = react(stmt.body, ctx)
    if code == 1:
        return 1, k.SuspendActive(residue, stmt.cond)
    return code, k.NOTHING


def _suspend_active(stmt, ctx):
    if eval_sig_expr(ctx, stmt.cond):
        return 1, stmt  # frozen this instant
    return _suspend(stmt, ctx)


_RULES = {
    k.Nothing: lambda stmt, ctx: (0, k.NOTHING),
    k.Pause: _pause,
    k.Halt: lambda stmt, ctx: (1, stmt),
    k.Emit: _emit,
    k.Action: _action,
    k.Exit: lambda stmt, ctx: (stmt.depth + 2, k.NOTHING),
    k.IfData: _if_data,
    k.Present: _present,
    k.Seq: _seq,
    k.Loop: _loop,
    # Non-immediate: the first instant always pauses.
    k.Await: lambda stmt, ctx: (1, k.AwaitActive(stmt.cond)),
    k.AwaitActive: _await_active,
    k.Par: _par,
    k.ParActive: _par,
    k.Trap: _trap,
    k.Abort: _abort,
    k.AbortActive: _abort_active,
    k.Suspend: _suspend,
    k.SuspendActive: _suspend_active,
}
