"""The paper's primary contribution, end to end.

:class:`EclCompiler` drives parse → split → Esterel kernel → EFSM →
back-ends (as a compatibility shim over :mod:`repro.pipeline`, which
adds artifact caching, pluggable emitters and batched parallel builds);
:func:`run_partition` reproduces the synchronous/asynchronous
implementation trade-off of Section 4.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "CompiledDesign": ".compiler",
    "CompiledModule": ".compiler",
    "CompileOptions": ".compiler",
    "EclCompiler": ".compiler",
    "PartitionResult": ".partition",
    "PartitionSpec": ".partition",
    "TaskSpec": ".partition",
    "explore_partitions": ".partition",
    "run_partition": ".partition",
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS]
