"""The reactive/data splitter — phase 1 of the ECL compiler.

The paper (Section 4) distinguishes two kinds of loops:

1. *Reactive loops* contain at least one halting statement on each path
   and compile to Esterel loops.
2. *Data loops* contain none, "appear to be instantaneous", and "are
   compiled into separate C (inlined) functions called by the Esterel
   code".

This module classifies every statement of a module body and records which
subtrees become extracted C data functions.  The translator consults the
classification; the C back-end and the cost model use the extraction
records to emit and account the data functions separately — preserving
"the form of the incoming code", as the paper requires for the
software-oriented compilation style.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import SplitError
from ..lang import ast
from ..nodes import Record, field


class DataBlock(Record):
    """One extracted data computation (a data loop, per the paper)."""

    name: str            # generated C function name
    stmt: ast.Stmt       # the original subtree (kept verbatim)
    free_names: Tuple[str, ...]  # identifiers read from the module scope
    kind: str = "loop"   # "loop" | "block"

    def c_comment(self):
        return "extracted %s (%d free names)" % (self.kind,
                                                 len(self.free_names))


class SplitReport(Record):
    """Outcome of splitting one module."""

    module_name: str
    data_blocks: List[DataBlock] = field(default_factory=list)
    reactive_statements: int = 0
    data_statements: int = 0

    @property
    def extracted_count(self):
        return len(self.data_blocks)

    def block_for(self, stmt):
        """The DataBlock wrapping ``stmt``, if it was extracted."""
        for block in self.data_blocks:
            if block.stmt is stmt:
                return block
        return None

    def summary(self):
        return (
            "module %s: %d reactive statements, %d data statements, "
            "%d extracted data functions"
            % (self.module_name, self.reactive_statements,
               self.data_statements, self.extracted_count)
        )


_LOOP_TYPES = (ast.While, ast.DoWhile, ast.For)

_REACTIVE_TYPES = (ast.Emit, ast.Await, ast.Halt, ast.Present, ast.Abort,
                   ast.Suspend, ast.Par, ast.SignalDecl)


def is_reactive(stmt, module_names=frozenset()):
    """Does ``stmt`` contain any reactive construct (or instantiate a
    module, which is reactive by definition)?"""
    for node in ast.walk(stmt):
        if isinstance(node, _REACTIVE_TYPES):
            return True
        if isinstance(node, ast.Call) and node.func in module_names:
            return True
    return False


class Splitter:
    """Classifies one module's body.

    ``module_names`` lets the splitter treat calls to other modules as
    reactive (module instantiation is inlined by the translator, never
    extracted into a data function).
    """

    def __init__(self, module, module_names=frozenset(),
                 extract_data_loops=True):
        self.module = module
        self.module_names = frozenset(module_names)
        self.extract_data_loops = extract_data_loops
        self._counter = 0

    def split(self):
        """Walk the body and produce a :class:`SplitReport`."""
        report = SplitReport(self.module.name)
        self._visit(self.module.body, report)
        return report

    # ------------------------------------------------------------------

    def _visit(self, stmt, report):
        if stmt is None:
            return
        if isinstance(stmt, _LOOP_TYPES):
            if is_reactive(stmt, self.module_names):
                report.reactive_statements += 1
                self._descend(stmt, report)
            else:
                report.data_statements += 1
                if self.extract_data_loops:
                    report.data_blocks.append(self._extract(stmt))
            return
        if isinstance(stmt, _REACTIVE_TYPES):
            report.reactive_statements += 1
            self._descend(stmt, report)
            return
        if isinstance(stmt, ast.Block):
            for child in stmt.body:
                self._visit(child, report)
            return
        if isinstance(stmt, ast.If):
            if is_reactive(stmt, self.module_names):
                report.reactive_statements += 1
            else:
                report.data_statements += 1
            self._visit(stmt.then, report)
            self._visit(stmt.otherwise, report)
            return
        if isinstance(stmt, (ast.ExprStmt, ast.VarDecl, ast.Break,
                             ast.Continue, ast.Return)):
            if isinstance(stmt, ast.ExprStmt) and \
                    isinstance(stmt.expr, ast.Call) and \
                    stmt.expr.func in self.module_names:
                report.reactive_statements += 1
            else:
                report.data_statements += 1
            return
        raise SplitError(
            "cannot classify statement %s" % type(stmt).__name__, stmt.span)

    def _descend(self, stmt, report):
        for attr in ("body", "then", "otherwise", "handler"):
            child = getattr(stmt, attr, None)
            if isinstance(child, ast.Stmt):
                self._visit(child, report)
        for branch in getattr(stmt, "branches", ()):
            self._visit(branch, report)

    def _extract(self, stmt):
        self._counter += 1
        name = "ecl_%s_data_%d" % (self.module.name, self._counter)
        local = {n for n in _declared_in(stmt)}
        free = sorted(
            n for n in _names_read(stmt)
            if n not in local
        )
        return DataBlock(name=name, stmt=stmt, free_names=tuple(free))


def _declared_in(stmt):
    for node in ast.walk(stmt):
        if isinstance(node, ast.VarDecl):
            yield node.name


def _names_read(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Call):
            names.add(node.func)
    return names


def split_module(module, module_names=frozenset(), extract_data_loops=True):
    """Convenience wrapper: classify ``module`` and return the report."""
    return Splitter(module, module_names, extract_data_loops).split()
