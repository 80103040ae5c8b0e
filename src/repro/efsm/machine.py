"""Extended finite state machine produced by the Esterel compilation.

A control state is one reachable kernel residue.  Its *reaction* is a
decision tree — exactly the shape the Esterel v3/v5 automaton compilers
generated as C: presence tests on input signals and C-condition tests at
the nodes, data actions and emissions along the edges, and a next-state
at each leaf.  Data variables live outside the automaton (that is the
"extended" in EFSM); guards may consult them, actions may update them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..lang import ast
from ..lang.printer import Printer
from ..nodes import Frozen, Record, field, slotted

#: Leaf marker for "module terminated".
TERMINATED = -1

# Reaction-tree nodes are allocated in bulk (hundreds per machine) and
# walked on every simulated instant, so they are ``slotted``: no
# per-node dict, smaller machines, faster attribute reads in the
# reactors' hot loops.  The optimiser interns them on shallow keys
# (:mod:`repro.efsm.optimize`), so their hashes need no cache.


@slotted
class Leaf(Frozen):
    """End of a reaction: go to ``target`` (or TERMINATED)."""

    target: int = TERMINATED
    delta: bool = False  # an await() pause requests a re-trigger


@slotted
class TestSignal(Frozen):
    """Branch on presence of one *input* signal."""

    signal: str = ""
    then: object = None
    otherwise: object = None


@slotted
class TestData(Frozen):
    """Branch on a C condition over variables / signal values."""

    cond: ast.Expr = None
    then: object = None
    otherwise: object = None


@slotted
class DoAction(Frozen):
    """Execute an atomic data statement, then continue."""

    stmt: ast.Stmt = None
    next: object = None


@slotted
class DoEmit(Frozen):
    """Emit a signal (with optional value expression), then continue."""

    signal: str = ""
    value: Optional[ast.Expr] = None
    next: object = None


class State(Record):
    """One EFSM control state."""

    index: int
    reaction: object = None     # the decision tree
    residue: object = None      # the kernel residue (debugging / tests)
    label: str = ""


class Efsm(Record):
    """The automaton for one module.

    The whole-machine walks (:meth:`transition_count`,
    :meth:`emitted_signals`, :meth:`tested_inputs`) are cached after the
    first call: the optimizer passes return *new* machines, so every
    published Efsm is effectively immutable and the caches never go
    stale.  Builders that mutate ``states`` in place must do so before
    the first query.
    """

    name: str
    states: List[State] = field(default_factory=list)
    initial: int = 0
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    locals: Tuple[str, ...] = ()
    module: object = None        # the source KernelModule
    _transition_count: Optional[int] = field(
        default=None, init=False, repr=False, compare=False)
    _emitted_signals: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False)
    _tested_inputs: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False)
    _leaf_counts: Optional[dict] = field(
        default=None, init=False, repr=False, compare=False)
    _state_leaf_base: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)
    _transition_table: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def state(self, index):
        return self.states[index]

    @property
    def state_count(self):
        return len(self.states)

    def transition_count(self):
        """Number of reaction leaves across all states (EFSM 'edges')."""
        count = self._transition_count
        if count is None:
            count = sum(count_leaves(s.reaction) for s in self.states)
            self._transition_count = count
        return count

    def emitted_signals(self):
        names = self._emitted_signals
        if names is None:
            names = frozenset(
                node.signal
                for state in self.states
                for node in walk_reaction(state.reaction)
                if isinstance(node, DoEmit))
            self._emitted_signals = names
        return names

    def tested_inputs(self):
        names = self._tested_inputs
        if names is None:
            names = frozenset(
                node.signal
                for state in self.states
                for node in walk_reaction(state.reaction)
                if isinstance(node, TestSignal))
            self._tested_inputs = names
        return names

    def __getstate__(self):
        # The leaf-count cache is keyed by object identity; after an
        # unpickle those keys would point at dead objects (and could
        # collide with new ids), so it never crosses a pickle boundary.
        state = self.__dict__.copy()
        state["_leaf_counts"] = None
        return state

    def transition_table(self):
        """``(source_state, target_state, delta)`` per transition id.

        A *transition id* numbers every reaction-leaf **occurrence**
        machine-wide, dense and deterministic: states in index order,
        leaves in the left-to-right order of
        :func:`iter_reaction_leaves` — the same order the native
        lowerer visits them and the same arithmetic the tree walker
        uses (:meth:`leaf_counts` / :meth:`state_leaf_base`), so every
        engine marks the same coverage bit for the same edge.  Leaf
        objects shared between tree positions (the optimizer dedupes
        them) get one id per *occurrence*; the table length always
        equals :meth:`transition_count`.
        """
        if self._transition_table is None:
            table = []
            for state in self.states:
                for leaf in iter_reaction_leaves(state.reaction):
                    table.append((state.index, leaf.target, leaf.delta))
            self._transition_table = tuple(table)
        return self._transition_table

    def state_leaf_base(self):
        """Per-state first transition id (prefix sums of leaf counts)."""
        if self._state_leaf_base is None:
            base = []
            total = 0
            for state in self.states:
                base.append(total)
                total += count_leaves(state.reaction)
            self._state_leaf_base = tuple(base)
        return self._state_leaf_base

    def leaf_counts(self):
        """``id(node) -> leaves in that subtree`` for every reaction
        node (cached; shared subtrees agree by construction).  The tree
        walker adds ``leaf_counts[id(then)]`` whenever it takes an
        ``otherwise`` branch, which yields the leaf's occurrence-based
        transition id without any per-leaf identity."""
        if self._leaf_counts is None:
            counts = {}
            for state in self.states:
                _count_into(state.reaction, counts)
            self._leaf_counts = counts
        return self._leaf_counts

    def describe(self):
        lines = ["efsm %s: %d states, %d reaction leaves"
                 % (self.name, self.state_count, self.transition_count())]
        printer = Printer()
        for state in self.states:
            lines.append("state %d:%s" % (
                state.index, " (initial)" if state.index == self.initial
                else ""))
            lines.extend(_describe_node(state.reaction, 1, printer))
        return "\n".join(lines)


def walk_reaction(node):
    """Iterate every node of a reaction tree."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        yield current
        if isinstance(current, (TestSignal, TestData)):
            stack.append(current.then)
            stack.append(current.otherwise)
        elif isinstance(current, (DoAction, DoEmit)):
            stack.append(current.next)


def count_leaves(node):
    return sum(1 for n in walk_reaction(node) if isinstance(n, Leaf))


def iter_reaction_leaves(node):
    """Every leaf of one reaction tree, in deterministic left-to-right
    order (``then`` before ``otherwise``, action/emit chains followed).
    A shared leaf object is yielded once per occurrence."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        if isinstance(current, Leaf):
            yield current
        elif isinstance(current, (TestSignal, TestData)):
            stack.append(current.otherwise)
            stack.append(current.then)
        elif isinstance(current, (DoAction, DoEmit)):
            stack.append(current.next)


def _count_into(node, counts):
    """Memoized (by identity) leaf count of every subtree of ``node``."""
    cached = counts.get(id(node))
    if cached is not None:
        return cached
    if isinstance(node, Leaf):
        count = 1
    elif isinstance(node, (TestSignal, TestData)):
        count = _count_into(node.then, counts) \
            + _count_into(node.otherwise, counts)
    elif isinstance(node, (DoAction, DoEmit)):
        count = _count_into(node.next, counts)
    else:
        count = 0
    counts[id(node)] = count
    return count


def _describe_node(node, indent, printer):
    pad = "  " * indent
    if isinstance(node, Leaf):
        target = "END" if node.target == TERMINATED else str(node.target)
        suffix = " (delta)" if node.delta else ""
        return [pad + "-> " + target + suffix]
    if isinstance(node, TestSignal):
        lines = [pad + "if present(%s):" % node.signal]
        lines.extend(_describe_node(node.then, indent + 1, printer))
        lines.append(pad + "else:")
        lines.extend(_describe_node(node.otherwise, indent + 1, printer))
        return lines
    if isinstance(node, TestData):
        lines = [pad + "if (%s):" % printer.expr(node.cond)]
        lines.extend(_describe_node(node.then, indent + 1, printer))
        lines.append(pad + "else:")
        lines.extend(_describe_node(node.otherwise, indent + 1, printer))
        return lines
    if isinstance(node, DoAction):
        text = " ".join(line.strip() for line in printer.stmt(node.stmt))
        return [pad + text] + _describe_node(node.next, indent, printer)
    if isinstance(node, DoEmit):
        if node.value is None:
            text = "emit %s" % node.signal
        else:
            text = "emit %s(%s)" % (node.signal, printer.expr(node.value))
        return [pad + text] + _describe_node(node.next, indent, printer)
    return [pad + repr(node)]
