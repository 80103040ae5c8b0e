"""Executable back-end: run an EFSM directly in Python.

This is the software implementation the paper's phase 3 generates, minus
the C detour: each instant walks the current state's decision tree once —
no fixed-point iteration, no re-execution — which is exactly why the
paper claims compiled reactions are faster than hand-written event code
(and why :mod:`benchmarks.bench_reaction_speed` can measure it).
"""

from __future__ import annotations


from ..errors import EvalError
from ..efsm.machine import (
    DoAction,
    DoEmit,
    Leaf,
    TERMINATED,
    TestData,
    TestSignal,
)
from ..runtime.ceval import Env, Evaluator
from ..runtime.memory import AddressSpace
from ..runtime.reactor import ReactorOutput
from ..runtime.signals import SignalSlot, SignalTable


class EfsmReactor:
    """Drop-in alternative to :class:`repro.runtime.reactor.Reactor` that
    executes the compiled automaton instead of interpreting the kernel."""

    def __init__(self, efsm, counter=None, builtins=None):
        self.efsm = efsm
        module = efsm.module
        self.module = module
        self.space = AddressSpace(module.name)
        functions = dict(module.functions)
        if builtins:
            functions.update(builtins)
        self.signals = SignalTable()
        self.env = Env(space=self.space, functions=functions,
                       signal_resolver=self.signals.get, counter=counter)
        for param in module.params:
            self.signals.add(SignalSlot(param.name, param.type, self.space,
                                        param.direction))
        for name, sig_type in module.local_signals:
            self.signals.add(SignalSlot(name, sig_type, self.space, "local"))
        for name, var_type in module.variables:
            self.env.declare(name, var_type)
        self._evaluator = Evaluator(self.env)
        self.coverage = None
        self._cov_counts = None
        self._cov_base = None
        self.state = efsm.initial
        self.terminated = False
        self.instants = 0

    # ------------------------------------------------------------------

    def enable_coverage(self, coverage):
        """Attach a :class:`repro.verify.coverage.CoverageMap`: every
        instant marks the entry state, the taken reaction leaf and the
        emitted signals.  The leaf's occurrence-based transition id is
        computed during the walk: start from the state's base id and
        add the skipped ``then`` subtree's leaf count whenever an
        ``otherwise`` branch is taken."""
        self.coverage = coverage
        self._cov_counts = self.efsm.leaf_counts()
        self._cov_base = self.efsm.state_leaf_base()

    def react(self, inputs=None, values=None):
        """Run one instant through the decision tree."""
        if self.terminated:
            return ReactorOutput(terminated=True)
        present = set(inputs or ())
        values = dict(values or {})
        present.update(values)
        self.signals.new_instant()
        for name in present:
            value = values.get(name)
            slot = self.signals.require_input(name, self.module.name,
                                              value=value)
            slot.set_input(value)
        emitted = set()
        delta = False
        self.env.count("react")
        entry = self.state
        cov = self.coverage
        node = self.efsm.state(entry).reaction
        tid = self._cov_base[entry] if cov is not None else 0
        while not isinstance(node, Leaf):
            if isinstance(node, TestSignal):
                slot = self.signals[node.signal]
                if slot.present:
                    node = node.then
                else:
                    if cov is not None:
                        tid += self._cov_counts[id(node.then)]
                    node = node.otherwise
            elif isinstance(node, TestData):
                if self._evaluator.eval_bool(node.cond):
                    node = node.then
                else:
                    if cov is not None:
                        tid += self._cov_counts[id(node.then)]
                    node = node.otherwise
            elif isinstance(node, DoAction):
                self._evaluator.exec_stmt(node.stmt)
                node = node.next
            elif isinstance(node, DoEmit):
                value = None
                if node.value is not None:
                    value = self._evaluator.eval(node.value)
                self.signals[node.signal].emit(value)
                emitted.add(node.signal)
                node = node.next
            else:
                raise EvalError("corrupt reaction tree node %r" % (node,))
        delta = node.delta
        if cov is not None:
            cov.states[entry] = 1
            cov.transitions[tid] = 1
            for name in emitted:
                cov.mark_emit(name)
        if node.target == TERMINATED:
            self.terminated = True
        else:
            self.state = node.target
        self.instants += 1
        visible = {
            name for name in emitted
            if self.signals[name].direction == "output"
        }
        out_values = {}
        for name in visible:
            slot = self.signals[name]
            if not slot.is_pure:
                out_values[name] = slot.load()
        return ReactorOutput(
            emitted=visible,
            values=out_values,
            terminated=self.terminated,
            delta_requested=delta,
            rounds=1,
        )

    # Same convenience surface as the interpreter-backed Reactor.

    def input_signals(self):
        """Names of the module's declared input signals (sorted)."""
        return sorted(slot.name for slot in self.signals.inputs())

    def signal_value(self, name):
        return self.signals[name].load()

    def variable(self, name):
        var = self.env.lookup(name)
        if var is None:
            raise EvalError("module %s has no variable %r"
                            % (self.module.name, name))
        return var.load()

    def data_bytes(self):
        return self.space.allocated_bytes

    def reset(self):
        self.state = self.efsm.initial
        self.terminated = False
        self.instants = 0


# ----------------------------------------------------------------------
# Standalone-module emitter.

_PY_TEMPLATE = '''\
"""Auto-generated Python reactor for ECL module ``%(name)s``.

Produced by the ``py`` backend of the repro-ecl pipeline.  The compiled
EFSM is embedded below (pickled, base64); loading it requires the
``repro`` package on the import path.

    from %(name)s import reactor
    r = reactor()
    out = r.react(inputs=["some_signal"])
"""

import base64
import pickle

_EFSM_PICKLE = (
%(blob)s
)


def load_efsm():
    """The embedded :class:`repro.efsm.machine.Efsm`."""
    return pickle.loads(base64.b64decode(_EFSM_PICKLE))


def reactor(counter=None, builtins=None):
    """A fresh runnable :class:`repro.codegen.py_backend.EfsmReactor`."""
    from repro.codegen.py_backend import EfsmReactor
    return EfsmReactor(load_efsm(), counter=counter, builtins=builtins)
'''


def generate_python(efsm):
    """Render the EFSM as a standalone importable Python module.

    The embedded pickle holds a copy of ``efsm`` without its lazily
    filled caches (transition table, leaf counts, ...), so the module's
    bytes do not depend on what earlier stages asked of the automaton.
    """
    import base64
    import pickle

    from ..nodes import replace

    encoded = base64.b64encode(pickle.dumps(replace(efsm))).decode("ascii")
    chunks = [encoded[i:i + 64] for i in range(0, len(encoded), 64)]
    blob = "\n".join('    "%s"' % chunk for chunk in chunks)
    return _PY_TEMPLATE % {"name": efsm.name, "blob": blob}


from ..pipeline.registry import backend as _backend  # noqa: E402


@_backend("py", requires=("efsm",), extensions=(".py",),
          description="standalone Python reactor module (simulation)")
def _emit_py(build):
    return {build.name + ".py": generate_python(build.efsm)}
