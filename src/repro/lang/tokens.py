"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

from enum import Enum, auto

from ..nodes import Frozen
from .source import Span


class TokenKind(Enum):
    """Lexical category of a token."""

    IDENT = auto()
    KEYWORD = auto()
    INT_LITERAL = auto()
    CHAR_LITERAL = auto()
    STRING_LITERAL = auto()
    PUNCT = auto()
    EOF = auto()


#: C keywords recognized by the ECL front end (the supported C subset).
C_KEYWORDS = frozenset(
    [
        "break",
        "case",
        "char",
        "const",
        "continue",
        "default",
        "do",
        "double",
        "else",
        "enum",
        "float",
        "for",
        "if",
        "int",
        "long",
        "return",
        "short",
        "signed",
        "sizeof",
        "static",
        "struct",
        "switch",
        "typedef",
        "union",
        "unsigned",
        "void",
        "while",
    ]
)

#: Keywords added by ECL on top of C (Section "ECL Statements" of the paper).
ECL_KEYWORDS = frozenset(
    [
        "abort",
        "await",
        "bool",
        "emit",
        "emit_v",
        "halt",
        "handle",
        "input",
        "module",
        "output",
        "par",
        "present",
        "pure",
        "signal",
        "suspend",
        "weak_abort",
    ]
)

KEYWORDS = C_KEYWORDS | ECL_KEYWORDS

#: Multi-character punctuators, longest first so the lexer can greedy-match.
PUNCTUATORS = [
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]


class Token(Frozen):
    """One lexical token.

    ``value`` is the raw spelling for identifiers/keywords/punctuators and
    the decoded value for literals (an ``int`` for integer and character
    literals, a ``str`` for string literals).
    """

    kind: TokenKind
    value: object
    span: Span
    text: str = ""

    def is_punct(self, spelling):
        return self.kind is TokenKind.PUNCT and self.value == spelling

    def is_keyword(self, word):
        return self.kind is TokenKind.KEYWORD and self.value == word

    def is_ident(self, name=None):
        if self.kind is not TokenKind.IDENT:
            return False
        return name is None or self.value == name

    def __str__(self):
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return str(self.text or self.value)
