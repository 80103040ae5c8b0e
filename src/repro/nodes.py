"""Shared base of the compiler's node classes.

The syntax tree (:mod:`repro.lang.ast`), the C types
(:mod:`repro.lang.types`), the Esterel kernel terms
(:mod:`repro.esterel.kernel`) and the automata (:mod:`repro.efsm.machine`)
declare their fields as annotated class attributes, the way dataclasses
do::

    class Binary(Expr):
        op: str = ""
        left: Expr = None
        right: Expr = None

Equality, hashing, ``repr``, freezing and pickling are methods of the
bases here, shared by every class, and read the per-class field tuples
recorded when the class is created (``__init_subclass__``).  The only
method generated per class is ``__init__``: construction is the hot
path (an audio-buffer build makes ~55k kernel terms), and a generated
``__init__`` with named parameters is as fast as a dataclass's.  The
behaviour is a frozen dataclass's, byte for byte where it shows:

* ``__eq__`` compares the fields with ``compare=True`` as a tuple, and
  only between instances of the same class; ``__hash__`` is the hash of
  that tuple, so dicts and sets keyed by nodes keep their order;
* ``__repr__`` is ``Class(field=value, ...)`` over the ``repr=True``
  fields;
* assignment and deletion raise ``dataclasses.FrozenInstanceError``;
* pickles hold the same state: the instance ``__dict__`` in field order
  (``None`` when empty), or for :func:`slotted` classes the list of
  field values.

Frozen nodes with a ``__dict__`` compute their hash once and keep it in
the instance ``__dict__`` under ``_hash``.  ``str`` hashes are salted
per process, so the cached value never crosses a pickle: ``__getstate__``
leaves it out.  :func:`slotted` classes have nowhere to keep it and
hash their fields on every call.
"""

from __future__ import annotations

from operator import attrgetter
from types import FunctionType

_set = object.__setattr__


#: Marks "no default" in :func:`field`.
MISSING = object()


class Field:
    """Options of one field, as given to :func:`field`."""

    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=MISSING, default_factory=MISSING, init=True,
                 repr=True, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(**options):
    """Field options, like :func:`dataclasses.field`."""
    return Field(**options)


def _tuple_getter(names):
    """``node -> tuple of the named attributes``."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return lambda node: ()


#: Compiled ``__init__`` bodies by source text: classes whose fields
#: have the same names and options share one code object.
_INIT_CODE = {}


def _init_code(source):
    code = _INIT_CODE.get(source)
    if code is None:
        namespace = {}
        exec(compile(source, "<node __init__>", "exec"), namespace)
        code = _INIT_CODE[source] = namespace["__init__"].__code__
    return code


def _make_init(cls, specs, frozen, slots):
    """The class's ``__init__``: one parameter per ``init`` field.  It
    stores the fields in declaration order, as a dataclass does, so the
    instance ``__dict__`` has the same keys in the same order."""
    params, defaults, lines = [], [], []
    namespace = {"_set": _set, "_MISSING": MISSING}
    for name, spec in specs.items():
        if spec.init:
            params.append(name)
            if spec.default_factory is not MISSING:
                defaults.append(MISSING)
                namespace["_f_" + name] = spec.default_factory
                value = "_f_%s() if %s is _MISSING else %s" % (name, name,
                                                               name)
            else:
                if spec.default is not MISSING:
                    defaults.append(spec.default)
                elif defaults:
                    raise TypeError("non-default field %r follows a "
                                    "default field in %s"
                                    % (name, cls.__qualname__))
                value = name
        elif spec.default_factory is not MISSING:
            namespace["_f_" + name] = spec.default_factory
            value = "_f_%s()" % name
        elif slots and spec.default is not MISSING:
            namespace["_d_" + name] = spec.default
            value = "_d_" + name
        else:
            continue  # read through to the class attribute
        if frozen:
            lines.append(" _set(self, %r, %s)" % (name, value))
        else:
            lines.append(" self.%s = %s" % (name, value))
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    source = "def __init__(%s):\n%s\n" % (
        ", ".join(["self"] + params), "\n".join(lines) or " pass")
    init = FunctionType(_init_code(source), namespace, "__init__",
                        tuple(defaults) or None)
    init.__qualname__ = cls.__qualname__ + ".__init__"
    init.__module__ = cls.__module__
    return init


def _register(cls):
    """Record ``cls``'s fields and give it its ``__init__``.

    Fields are the class's own annotations after those of its bases, as
    in dataclasses; a class made by :func:`slotted` brings its fields
    along instead.
    """
    own = cls.__dict__
    slots = "_field_specs" in own
    if slots:
        specs = own["_field_specs"]
    else:
        specs = {}
        for base in reversed(cls.__bases__):
            specs.update(getattr(base, "_field_specs", {}))
        for name in own.get("__annotations__", {}):
            value = own.get(name, MISSING)
            if isinstance(value, Field):
                spec = value
                if spec.default is MISSING:
                    delattr(cls, name)
                else:
                    setattr(cls, name, spec.default)
            else:
                spec = Field(value)
            specs[name] = spec
        cls._field_specs = specs
    cls._fields = tuple(specs)
    cls._init_fields = tuple(n for n, s in specs.items() if s.init)
    cls._repr_fields = tuple(n for n, s in specs.items() if s.repr)
    compared = [n for n, s in specs.items() if s.compare]
    key = _tuple_getter(compared)
    cls._key = staticmethod(key)
    # One compared field is compared bare, not as a 1-tuple: a node
    # child's own __eq__ has the identity shortcut the tuple gave.
    cls._eq_key = staticmethod(
        attrgetter(compared[0]) if len(compared) == 1 else key)
    if slots:
        cls.__getstate__ = _slots_getstate
        cls.__setstate__ = _slots_setstate
        cls.__hash__ = _uncached_hash
    cls.__init__ = _make_init(cls, specs, cls._frozen, slots)


def slotted(cls):
    """Class decorator: recreate ``cls`` with its fields in
    ``__slots__`` and no instance ``__dict__``, as
    ``dataclass(slots=True)`` does.  Its pickles hold the list of field
    values, and its hash is not cached."""
    namespace = dict(cls.__dict__)
    for name in cls._fields:
        namespace.pop(name, None)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = cls._fields
    namespace["_field_specs"] = cls._field_specs
    slotted_cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted_cls.__qualname__ = cls.__qualname__
    return slotted_cls


class Record:
    """Base of mutable field records: shared ``__eq__`` and ``__repr__``;
    unhashable, like a non-frozen dataclass.  Subclassing registers the
    fields (no metaclass: ``isinstance`` against node classes keeps the
    interpreter's fast path)."""

    __slots__ = ()
    _frozen = False
    _field_specs = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _register(cls)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        key = type(self)._eq_key
        return key(self) == key(other)

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name))
             for name in self._repr_fields]))


def _frozen_error(message):
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Frozen(Record):
    """Base of immutable, hashable nodes."""

    __slots__ = ()
    _frozen = True

    #: Class-level stand-in until an instance caches its hash.
    _hash = None

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(self._key(self))
            _set(self, "_hash", value)
        return value

    def __setattr__(self, name, value):
        raise _frozen_error("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise _frozen_error("cannot delete field %r" % name)

    def __getstate__(self):
        # The cached hash is salted per process: never pickle it.  An
        # empty state pickles as None, as for any plain object.
        state = self.__dict__
        if "_hash" in state:
            state = state.copy()
            del state["_hash"]
        return state or None


def _uncached_hash(self):
    return hash(self._key(self))


def _slots_getstate(self):
    return [getattr(self, name) for name in self._fields]


def _slots_setstate(self, state):
    for name, value in zip(self._fields, state):
        _set(self, name, value)


def replace(node, **changes):
    """A copy of ``node`` with some ``init`` fields changed, like
    :func:`dataclasses.replace`."""
    values = {name: getattr(node, name) for name in node._init_fields}
    values.update(changes)
    return node.__class__(**values)

