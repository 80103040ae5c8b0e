"""The Esterel substrate: kernel IR, semantics, interpreter, printer.

This package stands in for the CMA Esterel compiler the paper builds on:
the ECL translator emits kernel terms, the interpreter executes them with
the synchronous fixed-point semantics, and :mod:`repro.efsm` compiles
them to extended finite state machines.
"""

from ..lazy import lazy_exports
from . import kernel
# Imported eagerly: ``react`` shares its name with its submodule, and
# importing the submodule would otherwise bind the package attribute to
# the module.
from .react import ReactContext, eval_sig_expr, react

_EXPORTS = {
    "KernelRunner": ".interp",
    "ReactionResult": ".interp",
    "run_instant": ".interp",
    "EsterelPrinter": ".printer",
    "to_esterel": ".printer",
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = ["kernel", "ReactContext", "eval_sig_expr", "react", *_EXPORTS]
