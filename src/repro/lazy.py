"""Package attributes imported on first use (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import all of them on ``import package``, whatever the caller needs.
:func:`lazy_exports` gives the package a module ``__getattr__`` that
imports the defining submodule only when a name is first read, so
``from repro.efsm import build_efsm`` loads ``repro.efsm.build`` and
not the product or dot exporters::

    __getattr__ = lazy_exports(__name__, {
        "build_efsm": ".build",
        "to_dot": ".dot",
    })
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package, exports):
    """The module ``__getattr__`` of ``package``.

    ``exports`` maps each public name to the (relative) submodule that
    defines it.
    """

    def __getattr__(name):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
