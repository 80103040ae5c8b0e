"""Pluggable back-end registry (entry-point style).

Back-ends are *emitters*: given an :class:`EmitInput` snapshot of one
compiled module they return a ``{filename: text}`` mapping.  They
register themselves with the :func:`backend` decorator::

    from repro.pipeline.registry import backend

    @backend("c", requires=("efsm", "types"),
             description="C software synthesis")
    def emit_c(build):
        bundle = generate_c(build.efsm, build.types)
        return {build.name + ".c": bundle.source, ...}

The built-in entry points are a static ``{name: module}`` table
(:data:`ENTRY_POINTS`): :meth:`BackendRegistry.names` answers from it
without importing anything, and :meth:`BackendRegistry.get` imports only
the module of the backend asked for, so ``eclc build --emit c,native``
loads the C and native emitters and no other.  Third-party emitters can
register before or after the built-ins.  ``eclc compile --emit`` choices
are derived from :meth:`BackendRegistry.names`, never hardcoded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import threading
from typing import Callable, Dict, Tuple

from ..errors import CompileError
from ..nodes import Frozen, Record

#: Built-in emitter entry points: backend name -> the module that
#: registers it (via the :func:`backend` decorator) when imported.
ENTRY_POINTS = {
    "c": "repro.codegen.c_backend",
    "py": "repro.codegen.py_backend",
    "native": "repro.codegen.native_backend",
    "vhdl": "repro.codegen.vhdl_backend",
    "verilog": "repro.codegen.verilog_backend",
    "esterel": "repro.codegen.esterel_backend",
    "dot": "repro.codegen.dot_backend",
}

#: Artifact kinds an emitter may request in ``requires``.
EMIT_INPUTS = ("source", "types", "kernel", "efsm")


class EmitInput(Record):
    """Snapshot of one module's compilation products handed to an
    emitter.  Only the fields named in the backend's ``requires`` are
    populated; the rest stay None."""

    name: str                    # module name
    source: str = ""             # full translation-unit text
    types: object = None         # the design's TypeTable
    kernel: object = None        # phase-1 KernelModule
    efsm: object = None          # phase-2 automaton (per-options variant)


class Backend(Frozen):
    """One registered emitter."""

    name: str
    emit: Callable[[EmitInput], Dict[str, str]]
    requires: Tuple[str, ...] = ("efsm",)
    description: str = ""
    extensions: Tuple[str, ...] = ()
    #: Hardware back-ends only apply when the module's data part is
    #: empty; batch builds report their refusals as skips, not failures.
    hardware: bool = False
    #: Module that defined the emitter (set by the decorator) — lets a
    #: custom registry inherit exactly its entry points' backends.
    module: str = ""

    @functools.cached_property
    def fingerprint(self):
        """Hex digest identifying this emitter's behaviour: its
        metadata plus (best effort) the emit function's source.  Folded
        into emit-stage cache keys so replacing a backend under the
        same name invalidates its persisted artifacts."""
        import inspect

        try:
            body = inspect.getsource(self.emit)
        except (OSError, TypeError):
            body = "%s.%s" % (getattr(self.emit, "__module__", ""),
                              getattr(self.emit, "__qualname__",
                                      repr(self.emit)))
        text = "\x1f".join((self.name, self.module, repr(self.requires),
                            repr(self.extensions), repr(self.hardware),
                            body))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class BackendRegistry:
    """Name → :class:`Backend` mapping with lazy entry-point loading.

    ``entry_points`` is a ``{name: module}`` table; a module is imported
    when its backend is first asked for.
    """

    def __init__(self, entry_points=None):
        self._pending = dict(entry_points or {})
        self._backends: Dict[str, Backend] = {}
        self._lock = threading.Lock()
        # Separate from _lock: held across the entry-point imports,
        # during which the imported modules re-enter register().
        self._load_lock = threading.Lock()

    def register(self, backend: Backend):
        """Register (or replace) a backend; returns it for chaining."""
        for requirement in backend.requires:
            if requirement not in EMIT_INPUTS:
                raise CompileError(
                    "backend %r requires unknown input %r (choose from %s)"
                    % (backend.name, requirement, ", ".join(EMIT_INPUTS)))
        with self._lock:
            self._backends[backend.name] = backend
        return backend

    def backend(self, name, requires=("efsm",), description="",
                extensions=(), hardware=False):
        """Decorator form of :meth:`register`."""
        def wrap(func):
            self.register(Backend(
                name=name, emit=func, requires=tuple(requires),
                description=description, extensions=tuple(extensions),
                hardware=hardware,
                module=getattr(func, "__module__", "") or ""))
            return func
        return wrap

    def get(self, name) -> Backend:
        module = self._pending.get(name)
        if module is not None and name not in self._backends:
            self._load((module,))
        try:
            return self._backends[name]
        except KeyError:
            raise CompileError(
                "unknown backend %r (available: %s)"
                % (name, ", ".join(self.names()) or "none")) from None

    def __contains__(self, name):
        return name in self._backends or name in self._pending

    def names(self):
        """Sorted backend names (drives ``eclc --emit`` choices); a
        static entry-point table answers without importing."""
        return sorted(set(self._backends) | set(self._pending))

    def backends(self):
        """Every backend, importing all entry-point modules."""
        self._load(tuple(self._pending.values()))
        return [self._backends[name] for name in self.names()]

    def _load(self, modules):
        """Import entry-point ``modules``.

        Concurrent first queries block until the imports finish, so no
        caller ever observes a partially-populated registry; a failed
        import is retried next query.
        """
        with self._load_lock:
            for module_name in modules:
                importlib.import_module(module_name)
            # Decorator registrations land in DEFAULT_REGISTRY; a
            # custom registry inherits the backends its entry-point
            # modules defined (its own registrations take precedence).
            if self is not DEFAULT_REGISTRY:
                wanted = set(modules)
                with DEFAULT_REGISTRY._lock:
                    inherited = [b for b in
                                 DEFAULT_REGISTRY._backends.values()
                                 if b.module in wanted]
                with self._lock:
                    for entry in inherited:
                        self._backends.setdefault(entry.name, entry)
            with self._lock:
                self._pending = {name: module for name, module
                                 in self._pending.items()
                                 if module not in modules}


#: The process-wide registry the decorator and the CLI use.
DEFAULT_REGISTRY = BackendRegistry(entry_points=ENTRY_POINTS)


def backend(name, requires=("efsm",), description="", extensions=(),
            hardware=False):
    """Register an emitter into the default registry (decorator)."""
    return DEFAULT_REGISTRY.backend(
        name, requires=requires, description=description,
        extensions=extensions, hardware=hardware)
