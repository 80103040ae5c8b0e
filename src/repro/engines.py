"""repro.engines — every execution engine behind one registry.

One ECL module runs on five engines whose observable behaviour must
agree: ``interp`` (the reference kernel interpreter), ``efsm`` (the
compiled automaton), ``native`` (closure-compiled reactions), ``vector``
(many instances in numpy matrices) and ``rtos`` (the module, or a
multi-task partition of its design, under the simulated priority
kernel).  ``equivalence`` is a farm job mode, not an engine: the worker
runs interp in lockstep with efsm and native.  One table maps each name
to its capability tags and its job adapter, and this is the surface::

    from repro.engines import get_engine

    engine = get_engine("vector")
    engine.capabilities()                 # frozenset({"vector_sweep", ...})
    engine.build(handles, job)            # one farm job's adapter
    engine.run_trace(handle, instants)    # one instance, explicit trace
    engine.run_spec(handle, spec, n_instances=256)   # a whole sweep

``handle`` is a pipeline :class:`~repro.pipeline.pipeline.ModuleHandle`,
the compiled-module currency every engine binds its reactors from
(:meth:`~repro.pipeline.pipeline.ModuleHandle.reactor`).  ``run_spec``
is the unified sweep surface: the vector engine executes all
``n_instances`` in one numpy sweep, every scalar engine loops
instance-by-instance with the *same* derived per-instance seeds
(:func:`derive_spec_seed`), so outcomes are comparable lane for lane
across engines.

A job adapter (:class:`Adapter`) turns one engine into the farm's
per-instant protocol: ``step(instant)`` takes the instant's input dict
(``name -> value-or-None``) and returns a plain-data record (the
:func:`repro.farm.engines.make_record` format the trace ledger, the
monitors and the equivalence check consume), ``terminated`` tells
whether the module finished.  The farm worker, the verify campaign and
the serving layer all run jobs through these adapters.

The farm package imports this module at load, so this module imports
the farm lazily.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import EclError


def derive_spec_seed(spec, index):
    """Deterministic per-instance seed for a standalone spec sweep —
    the recipe :meth:`Engine.run_spec` (every engine) and
    :func:`repro.runtime.vector.derive_seed` share, so instance ``i``
    is reproducible from the spec alone on any engine."""
    text = "vector\x1fstimulus=%r\x1findex=%d" % (spec, index)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


#: The farm's trace-record constructor, bound by :func:`_bind_records`
#: on the first :meth:`Engine.build` (see the module docstring).
make_record = None


def _bind_records():
    global make_record
    if make_record is None:
        from .farm.engines import make_record


# ----------------------------------------------------------------------
# Job adapters


class Adapter:
    """One job's engine instance: ``step``/``terminated`` plus defaults.

    Subclasses bind their reactors in ``__init__(handles, job)`` and
    define ``step``, ``terminated`` and ``input_alphabet``.
    """

    name = None
    #: the :meth:`ModuleHandle.reactor` engine this adapter binds —
    #: what :meth:`Engine.run_spec` binds once to surface compile errors.
    binds = None

    def enable_coverage(self, coverage):
        """Attach a :class:`~repro.verify.coverage.CoverageMap` to the
        reactors when they mark state/transition bitmaps.  Returns True
        when they do — their per-instant probe then also marks emits."""
        return False

    def kernel_stats(self):
        """RTOS kernel counters for the result row (None: no kernel)."""
        return None

    def stimulus(self, spec, seed, total):
        """``total`` instants of ``spec`` drawn with ``seed`` over this
        adapter's input alphabet, padded with empty instants."""
        instants = spec.materialize(self.input_alphabet(), seed)
        instants.extend({} for _ in range(total - len(instants)))
        return instants[:total]

    def run(self, instants):
        """Step ``instants`` in order until the module terminates; one
        record per executed instant."""
        records = []
        step = self.step
        for instant in instants:
            records.append(step(instant))
            if self.terminated:
                break
        return records

    def run_spec(self, job):
        """The records of one whole job: its stimulus drawn with the
        job's seed, padded to ``job.instant_budget``."""
        return self.run(
            self.stimulus(job.stimulus, job.seed, job.instant_budget))

    def run_covered(self, coverage, run, *args):
        """``run(*args)``'s records with ``coverage`` (None, one map or
        a ``{module: map}`` dict) filled in: through the reactors where
        :meth:`enable_coverage` attaches, otherwise by marking each
        record's emits."""
        if coverage is None:
            return run(*args)
        attached = self.enable_coverage(coverage)
        records = run(*args)
        if not attached:
            maps = coverage.values() if isinstance(coverage, dict) else (
                coverage,)
            for record in records:
                for cov in maps:
                    cov.mark_emits(record["emitted"])
        return records


class ReactorAdapter(Adapter):
    """One module on one reactor from :meth:`ModuleHandle.reactor`."""

    def __init__(self, handles, job):
        self.handle = handles(job.module)
        self.reactor = self.handle.reactor(engine=self.binds)

    @property
    def terminated(self):
        return self.reactor.terminated

    def input_alphabet(self):
        """``(name, is_pure)`` pairs for stimulus generation.

        Aggregate-valued inputs (structs, unions, arrays) are excluded:
        a random int is not a valid sample of those, so the generator
        only drives pure and scalar-valued signals.
        """
        return [
            (slot.name, slot.is_pure)
            for slot in self.reactor.signals.inputs()
            if slot.is_pure or slot.type.is_scalar()
        ]

    def step(self, instant):
        pure = [name for name, value in instant.items() if value is None]
        valued = {name: value for name, value in instant.items()
                  if value is not None}
        output = self.reactor.react(inputs=pure, values=valued)
        return make_record(instant, output.emitted, output.values)


class InterpAdapter(ReactorAdapter):
    """Reference semantics: the kernel-term interpreter.  It has no
    EFSM states, so coverage falls back to record-level emit marks."""

    name = binds = "interp"


class EfsmAdapter(ReactorAdapter):
    """Compiled automaton: one decision-tree walk per instant."""

    name = binds = "efsm"

    def enable_coverage(self, coverage):
        self.reactor.enable_coverage(coverage)
        return True


class NativeAdapter(EfsmAdapter):
    """Closure-compiled reactions: straight-line Python per state.

    The lowered code bundle comes from the pipeline's ``native`` stage,
    so every reactor of one design binds the same cached
    :class:`~repro.runtime.native.NativeCode` — no per-job codegen.
    """

    name = binds = "native"

    def step_many(self, instants):
        """Run a whole stimulus through the reactor's batched-instant
        loop; returns one record per executed instant (the loop stops
        early when the module terminates)."""
        outputs = self.reactor.react_many(instants)
        return [
            make_record(instant, output.emitted, output.values)
            for instant, output in zip(instants, outputs)
        ]

    def run_spec(self, job):
        """A random stimulus runs through a compiled whole-trace driver
        loop (pipeline stage ``trace-driver``, one per (design,
        stimulus-spec) pair), with no per-instant dict handling; an
        explicit one replays through :meth:`step_many`."""
        spec = job.stimulus
        if spec.kind != "random":
            return self.step_many(
                self.stimulus(spec, job.seed, job.instant_budget))
        driver = self.handle.trace_driver(
            spec.length,
            spec.present_prob,
            tuple(spec.value_range),
            budget=job.instant_budget,
        )
        return self.reactor.run_trace(driver, job.seed)


class VectorAdapter(NativeAdapter):
    """One vector job alone (requires numpy).

    Per-job semantics are scalar-exact: one vector job replayed alone
    produces the native engine's records, coverage and status for the
    same seed.  The farm worker fuses jobs that share a sweep key into
    one :meth:`~repro.runtime.vector.VectorReactor.run_specs` call
    (:meth:`repro.farm.worker.WorkerState.run_sweep`); this adapter
    serves the single-job paths (explicit stimuli, task lists, local
    campaign replays, minimization) with the native reactor.
    """

    name = "vector"

    def __init__(self, handles, job):
        from .runtime.vector import require_numpy

        require_numpy("vector")
        super().__init__(handles, job)
        # Warm the content-addressed bundle so pooled workers compile
        # the vector twin once per design, not once per sweep.
        self.handle.vector_code()


class RtosAdapter(Adapter):
    """The design under the simulated RTOS.

    With ``job.tasks`` empty, one task wraps ``job.module``; otherwise
    each ``(task_name, module_name, priority[, bindings])`` entry
    becomes one task and signals route between tasks by (bound) name,
    exactly as :func:`repro.core.partition.run_partition` wires
    Table 1's asynchronous rows.  Each step posts the instant's events
    and runs the dispatch cascade to quiescence, so one record may
    cover several task reactions.

    ``job.task_engine`` selects what runs inside each task:

    * ``"efsm"`` (default) — the compiled-automaton tree walker, the
      reference for cross-task-engine equivalence;
    * ``"native"`` — closure-compiled reactors bound from one
      content-addressed partition bundle
      (:meth:`~repro.pipeline.pipeline.DesignBuild.partition_bundle`),
      dispatched through the task's slot-indexed fast path;
    * ``"interp"`` — the kernel-term interpreter (slowest, for
      three-way checks).
    """

    name = "rtos"
    binds = "efsm"

    def __init__(self, handles, job):
        from .rtos.kernel import RtosKernel
        from .rtos.tasks import RtosTask

        task_engine = job.task_engine or self.binds
        self.kernel = RtosKernel(name=job.label())
        specs = job.tasks or ((job.module, job.module, 1),)
        if task_engine == "native":
            # All task reactors bind from one content-addressed bundle.
            from .runtime.native import NativeReactor

            bundle = handles(specs[0][1]).design.partition_bundle(specs)
            tasks = [
                (entry.name, NativeReactor(entry.efsm, code=entry.code),
                 entry.priority, dict(entry.bindings))
                for entry in bundle.tasks
            ]
        else:
            tasks = [
                (spec[0], handles(spec[1]).reactor(engine=task_engine),
                 spec[2], dict(spec[3]) if len(spec) > 3 else None)
                for spec in specs
            ]
        for name, reactor, priority, bindings in tasks:
            self.kernel.add_task(
                RtosTask(name, reactor, priority=priority, bindings=bindings)
            )
        self.kernel.start()
        self._alphabet = None

    def kernel_stats(self):
        """The kernel's raw counters plus the network lost-event total
        (what :class:`~repro.farm.jobs.SimResult` carries back)."""
        return self.kernel.stats_dict()

    def enable_coverage(self, coverage):
        """Attach coverage to every task reactor that supports it.

        ``coverage`` is one :class:`~repro.verify.coverage.CoverageMap`
        (single-module job) or a dict mapping partition-member module
        names to maps (partitioned job) — tasks wrapping the same
        module share one map, so their marks merge per module.  Returns
        True only when *every* task reactor was instrumented (interp
        task reactors cannot be; emits are then marked from records).
        """
        maps = coverage if isinstance(coverage, dict) else None
        attached = bool(self.kernel.tasks)
        for task in self.kernel.tasks:
            if maps is None:
                target = coverage
            else:
                target = maps.get(task.reactor.module.name)
            hook = getattr(task.reactor, "enable_coverage", None)
            if hook is None or target is None:
                attached = False
                continue
            hook(target)
        return attached

    @property
    def terminated(self):
        return all(task.reactor.terminated for task in self.kernel.tasks)

    def input_alphabet(self):
        """Environment-facing signals only: consumed by some task and
        produced by none (internal channels are not driveable)."""
        if self._alphabet is None:
            produced = set()
            for task in self.kernel.tasks:
                produced.update(task.produced_signals())
            alphabet = {}
            for task in self.kernel.tasks:
                for name, is_pure in task.input_alphabet():
                    if name not in produced:
                        alphabet.setdefault(name, is_pure)
            self._alphabet = sorted(alphabet.items())
        return self._alphabet

    def step(self, instant):
        emitted = {}
        for name, value in sorted(instant.items()):
            self.kernel.post_input(name, value)
        emitted.update(self.kernel.run_until_idle())
        values = {name: value for name, value in emitted.items()
                  if value is not None}
        return make_record(instant, set(emitted), values)


#: name -> (capability tags, job adapter or None).  "adapter" marks
#: engines a SimJob/campaign may name; "step" marks a per-instant
#: reactor surface; "coverage" marks reactors that mark state/transition
#: bitmaps natively; "vector_sweep" marks the fused multi-instance path.
_REGISTRY = {
    "interp": (("adapter", "step", "reference"), InterpAdapter),
    "efsm": (("adapter", "step", "coverage"), EfsmAdapter),
    "native": (("adapter", "step", "step_many", "trace_driver", "coverage",
                "compiled"), NativeAdapter),
    "vector": (("adapter", "step", "step_many", "trace_driver", "coverage",
                "compiled", "vector_sweep", "requires_numpy"),
               VectorAdapter),
    "rtos": (("adapter", "step", "kernel_stats", "tasks"), RtosAdapter),
    # A farm job *mode*, not an adapter: the worker runs interp in
    # lockstep with both compiled engines.
    "equivalence": (("lockstep",), None),
}


def engine_names():
    """Every name :func:`get_engine` accepts, sorted."""
    return tuple(sorted(_REGISTRY))


def adapter_names():
    """Engines a job or campaign may name (a job adapter exists)."""
    return tuple(name for name in engine_names() if _REGISTRY[name][1])


# ----------------------------------------------------------------------
# The engine surface


@dataclass
class SpecOutcome:
    """Per-instance results of one scalar :meth:`Engine.run_spec` loop
    (field-compatible with the vector engine's
    :class:`~repro.runtime.vector.SweepOutcome`, so consumers treat
    both uniformly)."""

    instants: List[int] = field(default_factory=list)
    terminated: List[bool] = field(default_factory=list)
    emitted_events: List[int] = field(default_factory=list)
    errors: List[Optional[str]] = field(default_factory=list)
    records: Optional[list] = None
    coverage: Optional[list] = None
    raw_coverage: Optional[tuple] = None

    def __len__(self):
        return len(self.instants)


class Engine:
    """One named engine's uniform surface (get via :func:`get_engine`).

    Thin and stateless: binding happens per call from the module
    handle, so one Engine object serves any design.
    """

    def __init__(self, name):
        self.name = name
        self.tags, self.adapter = _REGISTRY[name]

    def __repr__(self):
        return "<Engine %s>" % self.name

    # -- introspection -------------------------------------------------

    def capabilities(self):
        """Frozen capability tags (see :data:`_REGISTRY`)."""
        return frozenset(self.tags)

    def available(self):
        """False when a missing optional dependency blocks this engine
        in the current environment (vector without numpy)."""
        if "requires_numpy" in self.tags:
            from .runtime.vector import NUMPY_AVAILABLE

            return NUMPY_AVAILABLE
        return True

    def require(self):
        """Raise :class:`~repro.errors.EngineUnavailable` unless this
        engine can run here; no-op otherwise."""
        if "requires_numpy" in self.tags:
            from .runtime.vector import require_numpy

            require_numpy(self.name)

    # -- binding -------------------------------------------------------

    def build(self, handles, job):
        """This engine's :class:`Adapter` for one job.

        ``handles(module_name)`` must return the pipeline
        :class:`~repro.pipeline.pipeline.ModuleHandle` of a module of the
        job's design (workers pass their per-process cached provider).
        """
        adapter = self._adapter_type()
        _bind_records()
        return adapter(handles, job)

    def _adapter_type(self):
        if self.adapter is None:
            raise EclError(
                "engine %r has no job adapter (it is a farm job mode)"
                % self.name
            )
        return self.adapter

    # -- execution -----------------------------------------------------

    def _adapter(self, handle, stimulus=None, budget=0):
        from .farm.jobs import SimJob, StimulusSpec

        job = SimJob(
            design="<local>",
            module=handle.name,
            engine=self.name,
            stimulus=stimulus if stimulus is not None else StimulusSpec.random(),
            horizon=budget,
        )
        return self.build(handle.design.module, job)

    def run_trace(self, handle, instants):
        """Step one fresh instance through explicit instant dicts;
        returns the farm-format record list (stops on termination)."""
        self.require()
        return self._adapter(handle).run(instants)

    def run_spec(self, handle, spec, n_instances=1, seeds=None, budget=0,
                 coverage=False, records=True):
        """Sweep one stimulus spec across ``n_instances`` instances.

        The vector engine runs a fused numpy sweep
        (:meth:`~repro.runtime.vector.VectorReactor.run_specs`); every
        other engine loops scalar instances over the identical derived
        seeds — which is exactly the contract the cross-engine
        equivalence suite checks.  A design that does not compile
        raises on every engine; a runtime fault errors only its lane.
        Returns a :class:`SpecOutcome` (or the field-compatible vector
        ``SweepOutcome``).
        """
        self.require()
        if seeds is None:
            seeds = [derive_spec_seed(spec, i) for i in range(n_instances)]
        seeds = list(seeds)
        if self.name == "vector":
            reactor = handle.reactor(engine="vector")
            return reactor.run_specs(
                spec, seeds=seeds, budget=budget,
                coverage=coverage, records=records,
            )
        # Bind once, outside the per-lane error capture: lanes only
        # rebuild reactors from the artifacts compiled here.
        handle.reactor(engine=self._adapter_type().binds)
        outcome = SpecOutcome(
            records=[] if records else None,
            coverage=[] if coverage else None,
        )
        total = budget if budget and budget > 0 else spec.length
        for seed in seeds:
            self._run_lane(handle, spec, seed, budget, total, outcome)
        return outcome

    def _run_lane(self, handle, spec, seed, budget, total, outcome):
        """One scalar lane of :meth:`run_spec` (errors stay per-lane,
        mirroring the vector sweep's error semantics)."""
        cov = None
        try:
            adapter = self._adapter(handle, stimulus=spec, budget=budget)
            if outcome.coverage is not None:
                from .verify.coverage import CoverageMap

                cov = CoverageMap.for_efsm(handle.efsm())
            rows = adapter.run_covered(
                cov, adapter.run, adapter.stimulus(spec, seed, total))
        except EclError as error:
            outcome.instants.append(0)
            outcome.terminated.append(False)
            outcome.emitted_events.append(0)
            outcome.errors.append(str(error))
            if outcome.records is not None:
                outcome.records.append(None)
            if outcome.coverage is not None:
                outcome.coverage.append(None)
            return
        outcome.instants.append(len(rows))
        outcome.terminated.append(bool(adapter.terminated))
        outcome.emitted_events.append(
            sum(len(record["emitted"]) for record in rows))
        outcome.errors.append(None)
        if outcome.records is not None:
            outcome.records.append(rows)
        if outcome.coverage is not None:
            outcome.coverage.append(cov)


_ENGINES = {}


def get_engine(name) -> Engine:
    """The :class:`Engine` registered under ``name`` (cached)."""
    engine = _ENGINES.get(name)
    if engine is None:
        if name not in _REGISTRY:
            raise EclError(
                "unknown engine %r (available: %s)"
                % (name, ", ".join(engine_names()))
            )
        engine = _ENGINES[name] = Engine(name)
    return engine
