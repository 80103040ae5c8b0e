"""Back-ends (the paper's phase 3): software and hardware synthesis.

* :mod:`repro.codegen.py_backend` — executable automaton (simulation)
  and a standalone-Python-module emitter;
* :mod:`repro.codegen.c_backend` — C software synthesis;
* :mod:`repro.codegen.vhdl_backend` / :mod:`repro.codegen.verilog_backend`
  — RTL, available only when "the data-dominated C part is empty"
  (paper, ECL Overview);
* :mod:`repro.codegen.esterel_backend` / :mod:`repro.codegen.dot_backend`
  — phase-1 Esterel glue and Graphviz, as registered emitters.

Every module here registers an emitter into
:data:`repro.pipeline.registry.DEFAULT_REGISTRY` under its ``--emit``
name (``c``, ``py``, ``vhdl``, ``verilog``, ``esterel``, ``dot``).
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "CBackend": ".c_backend",
    "CModule": ".c_backend",
    "generate_c": ".c_backend",
    "EfsmReactor": ".py_backend",
    "generate_python": ".py_backend",
    "VerilogBackend": ".verilog_backend",
    "generate_verilog": ".verilog_backend",
    "VhdlBackend": ".vhdl_backend",
    "generate_vhdl": ".vhdl_backend",
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS]
