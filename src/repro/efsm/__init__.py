"""EFSM construction, optimization and composition (paper phases 2-3).

* :mod:`repro.efsm.machine` — the automaton data structure;
* :mod:`repro.efsm.build` — symbolic compilation from the kernel;
* :mod:`repro.efsm.optimize` — reachability pruning and tree
  simplification (the paper's "logic optimization" hook);
* :mod:`repro.efsm.product` — synchronous product of module EFSMs;
* :mod:`repro.efsm.dot` — Graphviz export.
"""

from ..lazy import lazy_exports
# Imported eagerly: ``optimize`` shares its name with its submodule,
# and importing the submodule would otherwise bind the package
# attribute to the module.
from .optimize import optimize

_EXPORTS = {
    "EfsmBuilder": ".build",
    "build_efsm": ".build",
    "to_dot": ".dot",
    "merge_equivalent_states": ".optimize",
    "prune_unreachable": ".optimize",
    "reachable_states": ".optimize",
    "simplify_reactions": ".optimize",
    "Connection": ".product",
    "ProductInfo": ".product",
    "product_reachable_size": ".product",
    "DoAction": ".machine",
    "DoEmit": ".machine",
    "Efsm": ".machine",
    "Leaf": ".machine",
    "State": ".machine",
    "TERMINATED": ".machine",
    "TestData": ".machine",
    "TestSignal": ".machine",
    "count_leaves": ".machine",
    "walk_reaction": ".machine",
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = ["optimize", *_EXPORTS]
