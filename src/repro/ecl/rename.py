"""Generic identifier substitution over the ECL AST.

Module instantiation ("syntactically equivalent to C procedure call",
paper statement 9) is implemented by inlining: the submodule body is
rewritten with formal signals mapped to actual signal names and every
locally declared identifier prefixed with a unique instance tag.  This
module provides the capture-free rewriting.
"""

from __future__ import annotations

from ..lang import ast
from ..nodes import replace


def rename_identifiers(node, mapping):
    """Return ``node`` with every identifier occurrence renamed.

    ``mapping`` maps old name -> new name.  Renamed sites:

    * ``Name.id`` (variables and signal-value reads),
    * ``SigRef.name`` (presence tests),
    * ``Emit.signal``,
    * ``VarDecl.name`` / ``SignalDecl.name`` (declarations),
    * ``Call.args`` recursively; ``Call.func`` is *not* renamed (functions
      and modules are file-scope names).
    """
    if node is None:
        return None
    if isinstance(node, tuple):
        return tuple(rename_identifiers(item, mapping) for item in node)
    if not isinstance(node, ast.Node):
        return node

    if isinstance(node, ast.Name):
        if node.id in mapping:
            return replace(node, id=mapping[node.id])
        return node
    if isinstance(node, ast.SigRef):
        if node.name in mapping:
            return replace(node, name=mapping[node.name])
        return node
    if isinstance(node, ast.Emit):
        updates = {}
        if node.signal in mapping:
            updates["signal"] = mapping[node.signal]
        if node.value is not None:
            updates["value"] = rename_identifiers(node.value, mapping)
        return replace(node, **updates) if updates else node
    if isinstance(node, (ast.VarDecl, ast.SignalDecl)):
        updates = {}
        if node.name in mapping:
            updates["name"] = mapping[node.name]
        if isinstance(node, ast.VarDecl) and node.init is not None:
            updates["init"] = rename_identifiers(node.init, mapping)
        return replace(node, **updates) if updates else node

    # Generic traversal: rebuild any node whose children changed.
    updates = {}
    for name in node._fields[1:]:  # all but the span
        value = getattr(node, name)
        if isinstance(value, (ast.Node, tuple)):
            new_value = rename_identifiers(value, mapping)
            if new_value is not value:
                updates[name] = new_value
    return replace(node, **updates) if updates else node


def rewrite_name_reads(node, rewrite):
    """Replace identifier *uses* by arbitrary expressions.

    ``rewrite(name)`` returns a replacement :class:`~repro.lang.ast.Expr`
    or ``None`` to keep the name.  Declarations are left untouched; this
    is how the C back-end redirects module variables to ``ctx->name``.
    """
    if node is None:
        return None
    if isinstance(node, tuple):
        return tuple(rewrite_name_reads(item, rewrite) for item in node)
    if not isinstance(node, ast.Node):
        return node
    if isinstance(node, ast.Name):
        replacement = rewrite(node.id)
        return replacement if replacement is not None else node
    updates = {}
    for name in node._fields[1:]:  # all but the span
        value = getattr(node, name)
        if isinstance(value, (ast.Node, tuple)):
            new_value = rewrite_name_reads(value, rewrite)
            if new_value is not value:
                updates[name] = new_value
    return replace(node, **updates) if updates else node


def declared_names(node):
    """All identifiers declared anywhere inside ``node`` (variables and
    local signals)."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.VarDecl, ast.SignalDecl)):
            names.add(child.name)
    return names
