"""Staged compilation pipeline with pluggable back-ends and caching.

The driver layer of the reproduction, redesigned around three ideas:

* **Stages and artifacts** — parse, check, split, translate, EFSM
  build, optimize and each emitter are named stages producing typed,
  content-addressed artifacts (:mod:`repro.pipeline.stages`,
  :mod:`repro.pipeline.artifacts`);
* **Pluggable back-ends** — emitters register into a
  :class:`BackendRegistry` via the :func:`backend` decorator
  (:mod:`repro.pipeline.registry`), so ``eclc --emit`` choices are
  derived, never hardcoded;
* **Artifact caching and batching** — a persistent
  :class:`ArtifactCache` keyed on (source digest, options digest,
  stage, module) makes warm recompiles near-free, and
  :meth:`Pipeline.compile_design` compiles whole designs concurrently,
  returning a structured :class:`BuildReport`.

The legacy :class:`repro.core.EclCompiler` API is a compatibility shim
over this package.
"""

from ..lazy import lazy_exports

_EXPORTS = {
    "Artifact": ".artifacts",
    "ArtifactKey": ".artifacts",
    "SCHEMA_VERSION": ".artifacts",
    "digest_design_inputs": ".artifacts",
    "digest_options": ".artifacts",
    "digest_text": ".artifacts",
    "ArtifactCache": ".cache",
    "CacheStats": ".cache",
    "default_cache_root": ".cache",
    "Backend": ".registry",
    "BackendRegistry": ".registry",
    "DEFAULT_REGISTRY": ".registry",
    "EmitInput": ".registry",
    "backend": ".registry",
    "BuildReport": ".report",
    "ModuleBuild": ".report",
    "StageTiming": ".report",
    "CompileOptions": ".stages",
    "STAGES": ".stages",
    "Stage": ".stages",
    "stage_named": ".stages",
    "DesignBuild": ".pipeline",
    "ModuleHandle": ".pipeline",
    "Pipeline": ".pipeline",
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [*_EXPORTS]
