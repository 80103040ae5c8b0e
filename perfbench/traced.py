"""The traced run (``--trace 1``): where each workload's time goes.

The workload's own operation is made through the program's public
functions, with a span around each call into a layer: for
``cold_compile`` one fresh-process stand-in for ``eclc build`` per
corpus design, for ``warm_sweep`` a stand-in for its ``eclc farm run``
(``child.py``).  It is made twice, first with span recording off, then
on, under one root span; the difference of the two walls is the tracing
overhead.  Each layer's self time under that root (its spans minus the
part their child spans cover) plus ``untracked`` adds up to the traced
wall.  A ``farm.run`` span's self time is split further with figures
the program reports itself: the jobs' engine-busy seconds divided by
the worker count go to ``engines`` (the workers run in processes the
benchmark does not trace), the parent's pipeline stage seconds (cache
reads before the pool starts, from the program's telemetry) go to
``pipeline``, and the rest stays with ``farm``.

Probes then measure the layers the operation leaves out, on the
workload's own inputs, under a second root that the self-time
breakdown does not include:

* compile: fresh-process builds (``warm_sweep``: its designs, cold, and
  again against the sweep's warm cache);
* engines: ``Engine.run_spec`` per engine, and the rtos adapter on the
  paper's 3-task partition of the stack, inline;
* farm: the process pool's start-up (``cold_compile`` also: one pooled
  run);
* serve: a booted ``eclc serve`` driven batch by batch, its telemetry
  read through ``/v1/metrics.json`` and ``/v1/status``.

The per-layer figures (``ecl.parse_s``, ``engine.native.busy_s``, ...)
come from the operation and the probes together.  Spans are kept in
memory and written to ``.perfbench_work/spans/`` at the end.  Nothing in
the program is instrumented for this.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import common
import layers
from common import BenchError, fresh_dir, write_json
from spans import LAYERS, UNTRACKED, Tracer, attribute


def _designs(paths):
    texts = {}
    for name, path in paths:
        with open(path) as handle:
            texts[name] = handle.read()
    return texts


def _engine_and_farm(ctx, tracer, texts, built, vector_targets,
                     farm=True):
    """Engine probe over every module of ``texts`` (native) and over
    ``vector_targets`` (vector), the rtos partition on the stack, and
    the farm probes on the stack."""
    from repro.farm import expand_jobs
    from repro.pipeline import ArtifactCache, Pipeline

    # in-process builds over the caches the compile processes filled
    builds = {name: Pipeline(cache=ArtifactCache.persistent(
        built[name]["cache"])).compile_text(texts[name], filename=name)
        for name in texts}
    targets = [(builds[name], module, "native", layers.ENGINE_INSTANCES)
               for name in sorted(builds)
               for module in builds[name].module_names]
    targets += [(builds[name], module, "vector", lanes)
                for name, module, lanes in vector_targets]
    figures = layers.engine_probe(
        tracer, targets, rtos=(builds["stack"], common.STACK_TASKS),
        seed=ctx.seed)
    stack = {"stack": texts["stack"]}
    cache = built["stack"]["cache"]
    figures["farm.pool_start_s"] = layers.pool_start_probe(tracer, stack,
                                                           cache)
    if farm:
        jobs = expand_jobs([("stack", "toplevel")], engines=["native"],
                           traces=16, length=layers.ENGINE_LENGTH,
                           salt=ctx.seed)
        farm_figures, reactions = layers.farm_probe(tracer, stack, jobs,
                                                    cache)
        figures.update(farm_figures)
        ctx.counts["farm_probe.reactions"] = reactions
    ctx.counts["engine_probe.reactions"] = figures.pop("_reactions")
    return figures


def _serve(ctx, tracer, texts, built):
    modules = {name: built[name]["stats"]["modules"][-1] for name in texts}
    return layers.serve_probe(ctx, tracer,
                              layers.serve_batches(texts, modules), "probe")


# ----------------------------------------------------------------------
# cold_compile


def cold_compile_operation(ctx, tracer, corpus, tag):
    """One traced build per corpus design, one after the other."""
    paths = [(entry.name, path) for entry, path in corpus]
    built = layers.compile_probe(ctx, tracer, paths, tag)
    figures = layers.compile_counts(built)
    ctx.counts.update({key: figures[key] for key in (
        "efsm.states", "efsm.transitions", "lower.native_bytes",
        "codegen.c_bytes", "pipeline.cache_misses")})
    state = {"paths": paths, "built": built, "figures": figures}
    return state, len(paths), 0


def cold_compile_probes(ctx, tracer, corpus, state):
    built = state["built"]
    texts = _designs(state["paths"])
    figures = dict(state["figures"])
    vector = [(name, built[name]["stats"]["modules"][-1], 8)
              for name in ("stack", "audio")]
    figures.update(_engine_and_farm(ctx, tracer, texts, built, vector))
    serve, sent, failed = _serve(ctx, tracer, texts, built)
    figures.update(serve)
    return figures, sent, failed


# ----------------------------------------------------------------------
# warm_sweep


def warm_sweep_operation(ctx, tracer, prepared, tag):
    """The traced stand-in for the sweep's ``eclc farm run``."""
    spec, cache = prepared
    result = os.path.join(ctx.work, "farm-%s.json" % tag)
    with tracer.span("farm run", "cli") as span:
        child = common.run_child(
            [sys.executable, common.bench_script("child.py"), "farm", spec,
             "--cache-dir", cache, "--result", result,
             "--trace", str(int(tracer.enabled)), "-j", str(common.JOBS)],
            ctx.env, ctx.logdir, "traced-farm-%s" % tag)
    if child.returncode != 0:
        raise BenchError("traced farm run failed: %s" % child.stderr()[-600:])
    with open(result) as handle:
        payload = json.load(handle)
    tracer.adopt(payload["spans"], span["id"] if span else None)
    stats = payload["stats"]
    busy = sum(row["elapsed"] for row in stats["rows"])
    figures = layers.farm_figures(
        stats["jobs_pickle_bytes"], stats["results_pickle_bytes"],
        stats["chunks"], busy, stats["elapsed"], stats["workers"])
    failed = sum(1 for row in stats["rows"] if row["status"] != "ok")
    ctx.counts["sweep.reactions"] = stats["reactions"]
    ctx.counts["sweep.kernel"] = stats["kernel"]
    state = {"figures": figures, "farm_shares": {
        "engines": busy / max(1, stats["workers"]),
        "pipeline": stats["pipeline_s"]}}
    return state, len(stats["rows"]), failed


def warm_sweep_probes(ctx, tracer, prepared, state):
    import warm_sweep as workload

    spec, cache = prepared
    folder = os.path.dirname(spec)
    paths = [(name, os.path.join(folder, name + ".ecl"))
             for name in ("stack", "audio")]
    # the sweep's designs cold (compile layers), then warm against the
    # sweep's cache (pipeline hits and misses)
    built = layers.compile_probe(ctx, tracer, paths, "cold",
                                 lower_all=workload.LENGTH)
    warm = layers.compile_probe(ctx, tracer, paths, "warm",
                                lower_all=workload.LENGTH,
                                caches={name: cache for name, _p in paths})
    figures = dict(state["figures"])
    figures.update(layers.compile_counts(built))
    warm_counts = layers.compile_counts(warm)
    for key in ("pipeline.cache_hits", "pipeline.cache_misses"):
        figures[key] = warm_counts[key]
    texts = _designs(paths)
    figures.update(_engine_and_farm(
        ctx, tracer, texts, built,
        [("stack", "toplevel", workload.VECTOR_LANES)], farm=False))
    for key in ("efsm.states", "efsm.transitions", "lower.native_bytes",
                "codegen.c_bytes", "pipeline.cache_misses"):
        ctx.counts[key] = figures[key]
    serve, sent, failed = _serve(ctx, tracer, texts, built)
    figures.update(serve)
    return figures, sent, failed


def prepare(ctx, module):
    """Set-up of the traced run (once; not part of either pass)."""
    if module.NAME == "cold_compile":
        return module.setup(ctx, 0)[0]
    spec, cold = module.write_inputs(ctx)
    cache = fresh_dir(ctx.work, "cache-traced")
    module.farm_run(ctx, cold, cache, "traced-setup")
    return spec, cache


SEQUENCES = {
    "cold_compile": (cold_compile_operation, cold_compile_probes),
    "warm_sweep": (warm_sweep_operation, warm_sweep_probes),
}


def run(ctx, module):
    operation, probes = SEQUENCES[module.NAME]
    prepared = prepare(ctx, module)
    started = perf_counter()
    operation(ctx, Tracer(enabled=False), prepared, "untraced")
    untraced_wall = perf_counter() - started
    counts_untraced = dict(ctx.counts)
    ctx.counts.clear()
    tracer = Tracer(enabled=True)
    with tracer.span(module.NAME, "root") as root:
        state, attempted, failed = operation(ctx, tracer, prepared,
                                             "traced")
    if ctx.counts != counts_untraced:
        raise BenchError("deterministic counts differ between the two "
                         "passes of the traced run: %r vs %r"
                         % (ctx.counts, counts_untraced))
    with tracer.span("probes", "root") as probe_root:
        figures, probed, probe_failed = probes(ctx, tracer, prepared, state)
    wall = root["end"] - root["start"]
    totals = attribute(tracer.spans, root["id"])
    for layer, seconds in state.get("farm_shares", {}).items():
        moved = min(seconds, totals["farm"])
        totals["farm"] -= moved
        totals[layer] += moved
    drift = abs(sum(totals.values()) - wall)
    if drift > 1e-6 * max(1.0, wall):
        raise BenchError("self times do not add up to the traced wall "
                         "(%.9f s apart)" % drift)
    metrics = {"self.%s_s" % layer: totals[layer] for layer in LAYERS}
    metrics["self.untracked_s"] = totals[UNTRACKED]
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics.update(layers.span_sums(tracer))
    hits = figures["pipeline.cache_hits"]
    misses = figures["pipeline.cache_misses"]
    figures["pipeline.cache_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    metrics.update(figures)
    for key in ("rtos.dispatches", "rtos.context_switches"):
        ctx.counts[key] = metrics[key]
    spans_dir = os.path.join(common.WORK_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    write_json(os.path.join(spans_dir, "%s-seed%d.json"
                            % (module.NAME, ctx.seed)), tracer.spans)
    ctx.info["self_time"] = totals
    ctx.info["probe_wall_s"] = probe_root["end"] - probe_root["start"]
    return metrics, attempted + probed, failed + probe_failed
