"""A small C preprocessor: object-like and function-like ``#define``.

The paper's examples rely on ``#define`` constants (``HDRSIZE`` etc.) and on
macro arithmetic (``PKTSIZE HDRSIZE+DATASIZE+CRCSIZE``).  This module
implements the subset needed for ECL sources:

* ``#define NAME replacement`` (object-like),
* ``#define NAME(a, b) replacement`` (function-like, no variadics),
* ``#undef NAME``,
* ``#ifdef`` / ``#ifndef`` / ``#else`` / ``#endif`` conditional blocks,
* ``#include "file"`` resolved against an include-path list.

Expansion is textual and token-aware enough not to replace names inside
string literals, character literals, or comments.  Recursive macros expand
up to a fixed depth and then raise.
"""

from __future__ import annotations

import os
import re

from ..errors import PreprocessorError
from ..nodes import Record
from .source import SourceBuffer

_DIRECTIVE_RE = re.compile(r"^\s*#\s*(\w+)\s*(.*)$")
_DEFINE_RE = re.compile(r"^(\w+)(\(([^)]*)\))?\s*(.*)$", re.S)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_MAX_EXPANSION_DEPTH = 64


class Macro(Record):
    """A preprocessor macro definition."""

    name: str
    params: object  # None for object-like, list of names otherwise
    body: str

    @property
    def is_function_like(self):
        return self.params is not None


class Preprocessor:
    """Expands directives and macros in ECL source text.

    ``include_paths`` lists directories searched by ``#include "..."``;
    ``predefined`` seeds the macro table (name -> body text).
    """

    def __init__(self, include_paths=(), predefined=None):
        self.include_paths = list(include_paths)
        self.macros = {}
        # True while scanning the inside of a /* ... */ that started on an
        # earlier line; macro expansion and directives are disabled there.
        self._in_comment = False
        for name, body in (predefined or {}).items():
            self.macros[name] = Macro(name, None, str(body))

    def process(self, text, filename="<string>"):
        """Return the preprocessed text.

        Line structure is preserved for non-directive lines so that spans in
        later phases still point at the original line numbers; directive
        lines are replaced by empty lines.
        """
        buffer = SourceBuffer(text, filename)
        output_lines = []
        # Stack of booleans: is the current conditional region active?
        active_stack = []
        # Tracks whether an #else was already seen at each level.
        else_seen = []
        lines = text.split("\n")
        index = 0
        while index < len(lines):
            line = lines[index]
            lineno = index + 1
            # Continuation lines for directives.
            while line.rstrip().endswith("\\") and index + 1 < len(lines):
                line = line.rstrip()[:-1] + " " + lines[index + 1]
                output_lines.append("")
                index += 1
            match = None if self._in_comment else _DIRECTIVE_RE.match(line)
            active = all(active_stack)
            if match:
                name, rest = match.group(1), match.group(2).strip()
                # Comments are not part of directive arguments.
                rest = re.sub(r"/\*.*?\*/", " ", rest)
                rest = re.sub(r"//.*", "", rest).strip()
                self._directive(
                    name, rest, active, active_stack, else_seen,
                    output_lines, buffer, filename, lineno,
                )
            elif active:
                output_lines.append(self._expand_line(line, filename, lineno))
            else:
                output_lines.append("")
            index += 1
        if active_stack:
            raise PreprocessorError(
                "unterminated #ifdef/#ifndef", buffer.span(len(text), len(text))
            )
        return "\n".join(output_lines)

    # ------------------------------------------------------------------
    # Directive handling

    def _directive(
        self, name, rest, active, active_stack, else_seen,
        output_lines, buffer, filename, lineno,
    ):
        span = None  # spans are line-based here
        if name == "ifdef":
            active_stack.append(rest.split()[0] in self.macros if rest else False)
            else_seen.append(False)
            output_lines.append("")
        elif name == "ifndef":
            active_stack.append(rest.split()[0] not in self.macros if rest else True)
            else_seen.append(False)
            output_lines.append("")
        elif name == "else":
            if not active_stack or else_seen[-1]:
                raise PreprocessorError("#else without matching #ifdef", span)
            active_stack[-1] = not active_stack[-1]
            else_seen[-1] = True
            output_lines.append("")
        elif name == "endif":
            if not active_stack:
                raise PreprocessorError("#endif without matching #ifdef", span)
            active_stack.pop()
            else_seen.pop()
            output_lines.append("")
        elif not active:
            output_lines.append("")
        elif name == "define":
            self._define(rest)
            output_lines.append("")
        elif name == "undef":
            self.macros.pop(rest.split()[0], None) if rest else None
            output_lines.append("")
        elif name == "include":
            included = self._include(rest, filename)
            output_lines.extend(included.split("\n"))
        elif name == "pragma":
            output_lines.append("")
        else:
            raise PreprocessorError("unsupported directive #%s" % name, span)

    def _define(self, rest):
        match = _DEFINE_RE.match(rest)
        if not match:
            raise PreprocessorError("malformed #define: %r" % rest)
        name = match.group(1)
        params = None
        if match.group(2) is not None:
            params_text = match.group(3).strip()
            params = (
                [p.strip() for p in params_text.split(",")] if params_text else []
            )
            for param in params:
                if not _IDENT_RE.fullmatch(param):
                    raise PreprocessorError(
                        "bad macro parameter %r in #define %s" % (param, name)
                    )
        self.macros[name] = Macro(name, params, match.group(4).strip())

    def _include(self, rest, filename):
        rest = rest.strip()
        if len(rest) >= 2 and rest[0] == '"' and rest[-1] == '"':
            target = rest[1:-1]
        elif len(rest) >= 2 and rest[0] == "<" and rest[-1] == ">":
            target = rest[1:-1]
        else:
            raise PreprocessorError("malformed #include: %r" % rest)
        search = list(self.include_paths)
        base = os.path.dirname(filename)
        if base:
            search.insert(0, base)
        search.append(".")
        for directory in search:
            path = os.path.join(directory, target)
            if os.path.isfile(path):
                with open(path) as handle:
                    return self.process(handle.read(), path)
        raise PreprocessorError("cannot find include file %r" % target)

    # ------------------------------------------------------------------
    # Macro expansion

    def _expand_line(self, line, filename, lineno):
        """Expand macros on one line, comment- and literal-aware."""
        entry_state = self._in_comment
        for _round in range(_MAX_EXPANSION_DEPTH):
            self._in_comment = entry_state
            expanded, changed = self._expand_once(line, filename, lineno)
            if not changed:
                return expanded
            line = expanded
        raise PreprocessorError(
            "macro expansion too deep (recursive macro?) at %s:%d"
            % (filename, lineno)
        )

    def _expand_once(self, line, filename, lineno):
        out = []
        index = 0
        changed = False
        while index < len(line):
            if self._in_comment:
                end = line.find("*/", index)
                if end < 0:
                    out.append(line[index:])
                    index = len(line)
                    continue
                out.append(line[index:end + 2])
                index = end + 2
                self._in_comment = False
                continue
            char = line[index]
            if char == "/" and line[index + 1:index + 2] == "/":
                out.append(line[index:])
                break
            if char == "/" and line[index + 1:index + 2] == "*":
                self._in_comment = True
                out.append("/*")
                index += 2
                continue
            if char in "\"'":
                end = self._skip_literal(line, index, filename, lineno)
                out.append(line[index:end])
                index = end
                continue
            match = _IDENT_RE.match(line, index)
            if not match:
                out.append(char)
                index += 1
                continue
            word = match.group(0)
            index = match.end()
            macro = self.macros.get(word)
            if macro is None:
                out.append(word)
                continue
            if macro.is_function_like:
                args, index, found = self._read_macro_args(
                    line, index, filename, lineno
                )
                if not found:
                    out.append(word)
                    continue
                if len(args) != len(macro.params):
                    raise PreprocessorError(
                        "macro %s expects %d arguments, got %d at %s:%d"
                        % (word, len(macro.params), len(args), filename, lineno)
                    )
                body = self._substitute_params(macro, args)
            else:
                body = macro.body
            out.append("(%s)" % body if _needs_parens(body) else body)
            changed = True
        return "".join(out), changed

    @staticmethod
    def _skip_literal(line, index, filename, lineno):
        quote = line[index]
        end = index + 1
        while end < len(line):
            if line[end] == "\\":
                end += 2
                continue
            if line[end] == quote:
                return end + 1
            end += 1
        raise PreprocessorError(
            "unterminated literal at %s:%d" % (filename, lineno)
        )

    @staticmethod
    def _read_macro_args(line, index, filename, lineno):
        """Parse ``(a, b, ...)`` after a function-like macro name."""
        probe = index
        while probe < len(line) and line[probe] in " \t":
            probe += 1
        if probe >= len(line) or line[probe] != "(":
            return [], index, False
        probe += 1
        args, current, depth = [], [], 0
        while probe < len(line):
            char = line[probe]
            if char in "\"'":
                end = Preprocessor._skip_literal(line, probe, filename, lineno)
                current.append(line[probe:end])
                probe = end
                continue
            if char == "(":
                depth += 1
            elif char == ")":
                if depth == 0:
                    args.append("".join(current).strip())
                    if args == [""]:
                        args = []
                    return args, probe + 1, True
                depth -= 1
            elif char == "," and depth == 0:
                args.append("".join(current).strip())
                current = []
                probe += 1
                continue
            current.append(char)
            probe += 1
        raise PreprocessorError(
            "unterminated macro argument list at %s:%d" % (filename, lineno)
        )

    @staticmethod
    def _substitute_params(macro, args):
        """Replace parameter names in the macro body by argument text."""
        mapping = dict(zip(macro.params, args))
        out = []
        index = 0
        body = macro.body
        while index < len(body):
            match = _IDENT_RE.match(body, index)
            if match:
                word = match.group(0)
                out.append(mapping.get(word, word))
                index = match.end()
            else:
                out.append(body[index])
                index += 1
        return "".join(out)


def _needs_parens(body):
    """Parenthesize multi-token arithmetic bodies to keep precedence."""
    stripped = body.strip()
    if not stripped:
        return False
    if _IDENT_RE.fullmatch(stripped) or stripped.isdigit():
        return False
    return any(op in stripped for op in "+-*/%<>|&^?")


def preprocess(text, filename="<string>", include_paths=(), predefined=None):
    """Convenience wrapper around :class:`Preprocessor`."""
    return Preprocessor(include_paths, predefined).process(text, filename)
