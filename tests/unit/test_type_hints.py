"""Every annotation in ``repro`` resolves.

Modules use ``from __future__ import annotations``, so an annotation
naming something never imported (``List`` without ``from typing import
List``) costs nothing at import time and only fails when a caller asks
for the hints.  This test imports every ``repro.*`` module and resolves
the annotations of each module-level function and of each method of
each module-level class with :func:`typing.get_type_hints`.  Modules
that need numpy are skipped without it.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import repro


def _modules():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
        names.append(info.name)
    return sorted(names)


def _functions(module):
    """``(qualified name, function)`` for everything ``module`` defines."""
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield "%s.%s" % (name, attr), member


@pytest.mark.parametrize("module_name", _modules())
def test_annotations_resolve(module_name):
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        if error.name != "numpy":
            raise
        pytest.skip("%s needs numpy" % module_name)
    unresolved = []
    for name, function in _functions(module):
        try:
            typing.get_type_hints(function)
        except NameError as error:
            unresolved.append("%s: %s" % (name, error))
    assert unresolved == []
