"""Execution substrate: C data model, evaluator, signals, reactors.

* :mod:`repro.runtime.memory` — byte-backed storage (unions alias!)
* :mod:`repro.runtime.ceval` — the C expression/statement interpreter
* :mod:`repro.runtime.signals` — presence+value signal slots
* :mod:`repro.runtime.reactor` — synchronous execution of compiled modules
* :mod:`repro.runtime.network` — lock-step synchronous composition
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "AddressSpace": ".memory",
    "BuiltinFunction": ".ceval",
    "Env": ".ceval",
    "Evaluator": ".ceval",
    "LValue": ".memory",
    "SignalSlot": ".signals",
    "SignalTable": ".signals",
    "Variable": ".memory",
    "VcdRecorder": ".vcd",
    "record_run": ".vcd",
    "call_function": ".ceval",
    "decode_scalar": ".memory",
    "encode_scalar": ".memory",
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS]
