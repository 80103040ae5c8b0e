"""The C type system used by ECL.

ECL keeps "the full power of ANSI C and its facility for constructing and
manipulating complex data types" (paper, Section 1).  This module models the
subset the examples need — integer types, ``bool`` (an ECL builtin), arrays,
``struct``, ``union``, pointers (for glue-code signatures), typedefs — with
real storage layout: every type knows its size and alignment, and struct
members get byte offsets.  The byte-accurate layout is what makes the
paper's ``union`` of two packet views (Figure 1) behave correctly in the
simulator.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import TypeError_
from ..nodes import Frozen, field

#: Machine word size of the modelled target (MIPS R3000: 32-bit).
WORD_SIZE = 4


class Type(Frozen):
    """Base class for all C types.  Instances are immutable and hashable.

    Every type has a ``size`` and an ``align``ment in bytes, as a field
    or as a property.
    """

    def is_scalar(self):
        return False

    def is_aggregate(self):
        return False

    def __str__(self):  # pragma: no cover - overridden everywhere
        return self.__class__.__name__


class IntType(Type):
    """A (possibly unsigned) integer type of a given byte width."""

    name: str
    size: int
    signed: bool

    @property
    def align(self):
        return min(self.size, WORD_SIZE)

    def is_scalar(self):
        return True

    @property
    def min_value(self):
        if not self.signed:
            return 0
        return -(1 << (8 * self.size - 1))

    @property
    def max_value(self):
        if self.signed:
            return (1 << (8 * self.size - 1)) - 1
        return (1 << (8 * self.size)) - 1

    def wrap(self, value):
        """Reduce a Python int to this type's representable range,
        with C modular (two's-complement) semantics."""
        mask = (1 << (8 * self.size)) - 1
        value &= mask
        if self.signed and value > self.max_value:
            value -= 1 << (8 * self.size)
        return value

    def __str__(self):
        return self.name


class BoolType(Type):
    """ECL's ``bool``: one byte, values normalized to 0/1.

    The paper's Figure 3 applies ``~`` to a ``bool`` signal value meaning
    logical negation; the evaluator special-cases that, which is why bool is
    a distinct type rather than an alias of ``char``.
    """

    size: int = 1

    @property
    def align(self):
        return 1

    def is_scalar(self):
        return True

    def wrap(self, value):
        return 1 if value else 0

    def __str__(self):
        return "bool"


class VoidType(Type):
    size: int = 0

    @property
    def align(self):
        return 1

    def __str__(self):
        return "void"


class PureType(Type):
    """The 'type' of a pure signal: presence only, no value (paper,
    Section "ECL Overview").  Zero storage."""

    size: int = 0

    @property
    def align(self):
        return 1

    def __str__(self):
        return "pure"


class PointerType(Type):
    """Pointers appear only in generated glue-code signatures."""

    target: Type

    @property
    def size(self):
        return WORD_SIZE

    @property
    def align(self):
        return WORD_SIZE

    def is_scalar(self):
        return True

    def __str__(self):
        return "%s *" % self.target


class ArrayType(Type):
    element: Type
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise TypeError_("array length must be non-negative")

    @property
    def size(self):
        return self.element.size * self.length

    @property
    def align(self):
        return self.element.align

    def is_aggregate(self):
        return True

    def __str__(self):
        return "%s[%d]" % (self.element, self.length)


class Field(Frozen):
    """A named member of a struct or union, with its byte offset."""

    name: str
    type: Type
    offset: int


def _align_up(value, alignment):
    remainder = value % alignment
    return value if remainder == 0 else value + alignment - remainder


class StructType(Type):
    """A C struct with computed member offsets and tail padding."""

    tag: str
    fields: Tuple[Field, ...]
    size: int = field(init=False, default=0)
    align: int = field(init=False, default=1)

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise TypeError_("duplicate field name in struct %s" % self.tag)
        align = max((f.type.align for f in self.fields), default=1)
        end = max((f.offset + f.type.size for f in self.fields), default=0)
        object.__setattr__(self, "align", align)
        object.__setattr__(self, "size", _align_up(end, align))

    @staticmethod
    def build(tag, members):
        """Lay out ``members`` (name, type pairs) with natural alignment."""
        fields = []
        offset = 0
        for name, member_type in members:
            offset = _align_up(offset, member_type.align)
            fields.append(Field(name, member_type, offset))
            offset += member_type.size
        return StructType(tag, tuple(fields))

    def is_aggregate(self):
        return True

    def field_named(self, name):
        for member in self.fields:
            if member.name == name:
                return member
        raise TypeError_("struct %s has no field %r" % (self.tag, name))

    def __str__(self):
        return "struct %s" % self.tag


class UnionType(Type):
    """A C union: all members at offset 0, size = max member size."""

    tag: str
    fields: Tuple[Field, ...]
    size: int = field(init=False, default=0)
    align: int = field(init=False, default=1)

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise TypeError_("duplicate field name in union %s" % self.tag)
        align = max((f.type.align for f in self.fields), default=1)
        end = max((f.type.size for f in self.fields), default=0)
        object.__setattr__(self, "align", align)
        object.__setattr__(self, "size", _align_up(end, align))

    @staticmethod
    def build(tag, members):
        fields = tuple(Field(name, t, 0) for name, t in members)
        return UnionType(tag, fields)

    def is_aggregate(self):
        return True

    def field_named(self, name):
        for member in self.fields:
            if member.name == name:
                return member
        raise TypeError_("union %s has no field %r" % (self.tag, name))

    def __str__(self):
        return "union %s" % self.tag


# ----------------------------------------------------------------------
# Builtin type singletons

VOID = VoidType()
PURE = PureType()
BOOL = BoolType()
CHAR = IntType("char", 1, signed=True)
UCHAR = IntType("unsigned char", 1, signed=False)
SHORT = IntType("short", 2, signed=True)
USHORT = IntType("unsigned short", 2, signed=False)
INT = IntType("int", 4, signed=True)
UINT = IntType("unsigned int", 4, signed=False)
LONG = IntType("long", 4, signed=True)
ULONG = IntType("unsigned long", 4, signed=False)

_BUILTINS = {
    "void": VOID,
    "bool": BOOL,
    "char": CHAR,
    "unsigned char": UCHAR,
    "signed char": CHAR,
    "short": SHORT,
    "short int": SHORT,
    "unsigned short": USHORT,
    "unsigned short int": USHORT,
    "int": INT,
    "signed": INT,
    "signed int": INT,
    "unsigned": UINT,
    "unsigned int": UINT,
    "long": LONG,
    "long int": LONG,
    "signed long": LONG,
    "unsigned long": ULONG,
    "unsigned long int": ULONG,
}


class TypeTable:
    """Name resolution for types: builtins, typedefs, struct/union tags."""

    def __init__(self):
        self.typedefs = {}
        self.tags = {}

    def is_type_name(self, name):
        return name in _BUILTINS or name in self.typedefs

    def define_typedef(self, name, target, span=None):
        if name in self.typedefs:
            raise TypeError_("typedef %r redefined" % name, span)
        self.typedefs[name] = target

    def define_tag(self, tag, struct_or_union, span=None):
        if tag in self.tags:
            raise TypeError_("struct/union tag %r redefined" % tag, span)
        self.tags[tag] = struct_or_union

    def lookup(self, name, span=None):
        if name in _BUILTINS:
            return _BUILTINS[name]
        if name in self.typedefs:
            return self.typedefs[name]
        raise TypeError_("unknown type name %r" % name, span)

    def lookup_tag(self, tag, span=None):
        if tag in self.tags:
            return self.tags[tag]
        raise TypeError_("unknown struct/union tag %r" % tag, span)


def common_type(left, right):
    """C-ish usual arithmetic conversion for two scalar types."""
    for operand in (left, right):
        if not operand.is_scalar():
            raise TypeError_("arithmetic on non-scalar type %s" % operand)
    if isinstance(left, PointerType):
        return left
    if isinstance(right, PointerType):
        return right
    if isinstance(left, BoolType) and isinstance(right, BoolType):
        return INT
    left_int = INT if isinstance(left, BoolType) else left
    right_int = INT if isinstance(right, BoolType) else right
    # Promote to at least int, then pick the wider / unsigned-preferring.
    candidates = [left_int, right_int, INT]
    width = max(c.size for c in candidates)
    widest = [c for c in (left_int, right_int) if c.size == width]
    if width <= INT.size:
        unsigned = any(c.size == width and not c.signed for c in widest)
        return UINT if (width == INT.size and unsigned) else INT
    unsigned = any(not c.signed for c in widest)
    return IntType("long" if not unsigned else "unsigned long", width, not unsigned)
