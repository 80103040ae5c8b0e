"""The translator's output: a kernel-level module description."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..lang import ast
from ..lang.types import PureType
from ..nodes import Record, field


class KernelModule(Record):
    """A fully lowered ECL module, ready for interpretation or EFSM
    construction.

    * ``params`` — the module's signal interface (inputs/outputs);
    * ``local_signals`` — hoisted, alpha-renamed local signals
      (including those of inlined submodule instances);
    * ``variables`` — hoisted C variables, allocated once per instance;
    * ``body`` — the Esterel kernel term;
    * ``data_blocks`` — extracted data loops (paper, Section 4), kept for
      the C back-end and the cost model;
    * ``functions`` — plain C functions callable from data code.
    """

    name: str
    params: Tuple[ast.SignalParam, ...]
    local_signals: List[Tuple[str, object]] = field(default_factory=list)
    variables: List[Tuple[str, object]] = field(default_factory=list)
    body: object = None
    data_blocks: List[object] = field(default_factory=list)
    functions: Dict[str, ast.FuncDef] = field(default_factory=dict)
    types: object = None
    source: ast.ModuleDecl = None
    inlined_instances: List[str] = field(default_factory=list)

    @property
    def input_params(self):
        return [p for p in self.params if p.direction == "input"]

    @property
    def output_params(self):
        return [p for p in self.params if p.direction == "output"]

    def signal_directions(self):
        """name -> 'input' | 'output' | 'local' for every signal."""
        table = {p.name: p.direction for p in self.params}
        for name, _type in self.local_signals:
            table[name] = "local"
        return table

    def signal_types(self):
        table = {p.name: p.type for p in self.params}
        for name, sig_type in self.local_signals:
            table[name] = sig_type
        return table

    def data_memory_bytes(self):
        """Bytes of variable + valued-signal storage (cost model input)."""
        total = sum(t.size for _n, t in self.variables)
        for _name, sig_type in self.local_signals:
            if not isinstance(sig_type, PureType):
                total += sig_type.size
        for param in self.params:
            if not isinstance(param.type, PureType):
                total += param.type.size
        return total
