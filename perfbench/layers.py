"""The probes of the traced run: they measure the layers a workload's
own operation leaves out, on that workload's inputs, from outside, by
timing calls into each layer's public functions.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from common import (JOBS, BenchError, bench_script, bucket_quantile,
                    fresh_dir, median, quantile, run_child)
from serveclient import Server, counter, histogram, histogram_delta

#: Instants per trace and instances per sweep of the engine probe.
ENGINE_LENGTH = 500
ENGINE_INSTANCES = 8


# ----------------------------------------------------------------------
# compile: fresh-process stand-ins for ``eclc build`` (child.py)


def compile_probe(ctx, tracer, designs, tag, lower_all=0, caches=None):
    """Build each ``(name, path)`` in a fresh process under a span of
    the ``cli`` layer (interpreter start-up is the CLI's cost); the
    child's own spans nest inside.  ``caches`` maps names to existing
    (warm) cache directories; otherwise each build gets an empty one.
    Returns ``{name: {"cache": dir, "stats": {...}}}``."""
    out = {}
    for name, path in designs:
        folder = fresh_dir(ctx.work, "probe-%s-%s" % (tag, name))
        cache = (caches or {}).get(name) or os.path.join(folder, "cache")
        result = os.path.join(folder, "result.json")
        # named relative to its folder, as cold_compile builds it
        argv = [sys.executable, bench_script("child.py"), "build",
                os.path.basename(path),
                "--out", os.path.join(folder, "files"), "--cache-dir", cache,
                "--result", result, "--trace", str(int(tracer.enabled)),
                "--lower-all", str(lower_all)]
        with tracer.span("build", "cli", ref=name) as span:
            child = run_child(argv, ctx.env, ctx.logdir,
                              "probe-%s-%s" % (tag, name),
                              cwd=os.path.dirname(path))
        if child.returncode != 0:
            raise BenchError("traced build of %s failed: %s"
                             % (name, child.stderr()[-600:]))
        with open(result) as handle:
            payload = json.load(handle)
        tracer.adopt(payload["spans"], span["id"] if span else None)
        out[name] = {"cache": cache, "stats": payload["stats"]}
    return out


def compile_counts(results):
    totals = {"efsm.states": 0, "efsm.transitions": 0,
              "lower.native_bytes": 0, "codegen.c_bytes": 0,
              "pipeline.cache_hits": 0, "pipeline.cache_misses": 0}
    for entry in results.values():
        stats = entry["stats"]
        totals["efsm.states"] += stats["states"]
        totals["efsm.transitions"] += stats["transitions"]
        totals["lower.native_bytes"] += stats["native_bytes"]
        totals["codegen.c_bytes"] += stats["c_bytes"]
        totals["pipeline.cache_hits"] += stats["cache"]["hits"]
        totals["pipeline.cache_misses"] += stats["cache"]["misses"]
    return totals


# ----------------------------------------------------------------------
# engines: Engine.run_spec / the rtos adapter, inline


def engine_probe(tracer, targets, rtos=None, seed=0):
    """Time the engines inline on the workload's own designs.

    ``targets`` is a list of ``(design_build, module, engine, n)``;
    ``rtos`` is ``(design_build, tasks)`` for the paper's partition.
    Each target's lowerings (native code, and the vector code or a trace
    driver) are made first under the ``lower`` layer and one instance is
    run to bind the reactor; then the sweep is timed under ``engines``."""
    from repro.engines import get_engine
    from repro.errors import EclError
    from repro.farm.jobs import SimJob, StimulusSpec

    spec = StimulusSpec.random(length=ENGINE_LENGTH, salt=seed)
    busy = {"native": 0.0, "vector": 0.0, "rtos": 0.0}
    reactions = {"native": 0, "vector": 0, "rtos": 0}
    lanes = 0
    for build, module, engine, count in targets:
        handle = build.module(module)
        runner = get_engine(engine)
        try:
            with tracer.span("lower.native", "lower", ref=module):
                handle.native_code()
            if engine == "vector":
                with tracer.span("lower.vector", "lower", ref=module):
                    handle.vector_code()
            else:
                with tracer.span("lower.trace_driver", "lower", ref=module):
                    handle.trace_driver(ENGINE_LENGTH, 0.5, (0, 255))
            with tracer.span("engine.bind", "engines", ref=module):
                runner.run_spec(handle, spec, n_instances=1, records=False)
        except EclError:
            continue  # a module this engine cannot lower
        started = perf_counter()
        with tracer.span("engine.%s" % engine, "engines", ref=module):
            outcome = runner.run_spec(handle, spec, n_instances=count,
                                      records=False)
        busy[engine] += perf_counter() - started
        reactions[engine] += sum(outcome.instants)
        if engine == "vector":
            lanes = max(lanes, count)
    dispatches = switches = 0
    if rtos is not None:
        build, tasks = rtos
        job = SimJob(design="<probe>", module=tasks[0][1], engine="rtos",
                     stimulus=spec, tasks=tuple(
                         (t[0], t[1], t[2],
                          tuple(sorted(t[3].items()))) for t in tasks),
                     task_engine="native")
        with tracer.span("lower.partition", "lower"):
            adapter = get_engine("rtos").build(build.module, job)
            instants = spec.materialize(adapter.input_alphabet(), job.seed)
        started = perf_counter()
        with tracer.span("engine.rtos", "engines"):
            for instant in instants:
                adapter.step(instant)
        busy["rtos"] = perf_counter() - started
        reactions["rtos"] = len(instants)
        stats = adapter.kernel_stats()
        dispatches, switches = stats["dispatches"], stats["context_switches"]
    return {
        "engine.native.reactions_per_s": reactions["native"] / busy["native"],
        "engine.native.busy_s": busy["native"],
        "engine.vector.reactions_per_s": reactions["vector"] / busy["vector"],
        "engine.vector.lanes": lanes,
        "engine.vector.busy_s": busy["vector"],
        "engine.rtos.dispatches_per_s": dispatches / busy["rtos"],
        "engine.rtos.busy_s": busy["rtos"],
        "rtos.dispatches": dispatches,
        "rtos.context_switches": switches,
        "_reactions": reactions,
    }


# ----------------------------------------------------------------------
# farm: pool start-up and one pooled run


def pool_start_probe(tracer, designs, cache):
    """Seconds to bring up the farm's process pool: the pool with the
    farm's initializer, until every worker has run an empty chunk."""
    from repro.farm import worker

    started = perf_counter()
    with tracer.span("farm.pool_start", "farm"):
        with ProcessPoolExecutor(
                max_workers=JOBS, initializer=worker.initialize,
                initargs=(designs, None, None, cache)) as pool:
            for future in [pool.submit(worker.run_chunk, [])
                           for _ in range(JOBS)]:
                future.result()
    return perf_counter() - started


def farm_figures(jobs_pickle, results_pickle, chunks, busy, elapsed,
                 workers):
    return {
        "farm.chunks": chunks,
        "farm.chunk_pickle_bytes": jobs_pickle,
        "farm.result_pickle_bytes": results_pickle,
        "farm.parallel_efficiency": busy / (max(1, workers) * elapsed),
    }


def farm_probe(tracer, designs, jobs, cache):
    """One pooled ``SimulationFarm.run`` of ``jobs``."""
    from repro.farm import SimulationFarm

    farm = SimulationFarm(designs, workers=JOBS, cache_dir=cache)
    with tracer.span("farm.run", "farm"):
        report = farm.run(jobs)
    if not report.ok:
        raise BenchError("farm probe: %s" % report.status_counts())
    return farm_figures(len(pickle.dumps(jobs)),
                        len(pickle.dumps(report.results)), report.chunks,
                        sum(r.elapsed for r in report.results),
                        report.elapsed, report.workers), report.reactions


# ----------------------------------------------------------------------
# serve: a booted ``eclc serve``, one batch after the other

#: Instants of the one native trace each serve probe batch runs.
SERVE_LENGTH = 1024


def serve_batches(texts, modules):
    """One native batch per design (its first sight in the service, so
    a compile in a worker), then the same designs again, warm.
    ``modules`` maps each design name to the module the batch runs."""
    batches = []
    for kind in ("new", "warm"):
        for name in sorted(modules):
            batches.append((kind, {
                "spec_version": 2, "designs": {name: {"text": texts[name]}},
                "jobs": [{"design": name, "modules": [modules[name]],
                          "engine": "native", "traces": 1,
                          "length": SERVE_LENGTH, "seed": 1}]}))
    return batches


def serve_probe(ctx, tracer, batches, tag):
    """Boot a service, run ``batches`` one after the other, and read
    its telemetry through ``/v1/metrics.json`` and ``/v1/status``
    before and after.  Returns ``(figures, batches, failed batches)``;
    a batch fails when a row is not ``ok``."""
    root = fresh_dir(ctx.work, "probe-serve-%s" % tag)
    with tracer.span("serve.boot", "serve"):
        server = Server(ctx.env, ctx.logdir, "probe-serve-%s" % tag, root)
    records = []
    try:
        before = server.metrics()
        for index, (kind, spec) in enumerate(batches):
            sent = perf_counter()
            with tracer.span("serve.admit", "serve", ref=index):
                batch_id, status = server.submit("alice", spec)
            admitted = perf_counter()
            if batch_id is None:
                raise BenchError("serve probe: batch refused (%d)" % status)
            with tracer.span("serve.stream", "serve", ref=index):
                rows, first, last = server.stream(batch_id)
            records.append({
                "kind": kind, "admit_ms": (admitted - sent) * 1e3,
                "first_ms": (first - sent) * 1e3 if rows else None,
                "total_ms": (last - sent) * 1e3 if rows else None,
                "ok": bool(rows) and all(r["status"] == "ok" for r in rows)})
        after = server.metrics()
        status = server.status()
    finally:
        with tracer.span("serve.shutdown", "serve"):
            server.shutdown()
            server.kill()
    failed = sum(1 for record in records if not record["ok"])
    done = [record for record in records if record["total_ms"] is not None]

    def hist(name, q):
        delta = histogram_delta(histogram(after, name),
                                histogram(before, name))
        return 1e3 * bucket_quantile(delta["buckets"], delta["count"], q)

    fused = histogram_delta(histogram(after, "ecl_serve_fused_jobs"),
                            histogram(before, "ecl_serve_fused_jobs"))
    misses = "ecl_pipeline_cache_requests_total"
    admits = [r["admit_ms"] for r in records]
    return {
        "serve.admit_p50_ms": median(admits),
        "serve.admit_p95_ms": quantile(admits, 0.95),
        "serve.first_row_ms": median([r["first_ms"] for r in done]),
        "serve.new_design_ms": median([r["total_ms"] for r in done
                                       if r["kind"] == "new"]),
        "serve.queue_wait_p50_ms": hist("ecl_serve_queue_wait_seconds", 0.5),
        "serve.queue_wait_p95_ms": hist("ecl_serve_queue_wait_seconds",
                                        0.95),
        "serve.execute_p50_ms": hist("ecl_serve_execute_seconds", 0.5),
        "serve.execute_p95_ms": hist("ecl_serve_execute_seconds", 0.95),
        "serve.journal_append_p95_ms": hist(
            "ecl_serve_journal_append_seconds", 0.95),
        "serve.fused_per_dispatch": (fused["sum"] / fused["count"])
        if fused["count"] else 1.0,
        "serve.compile_misses": counter(after, misses, outcome="miss")
        - counter(before, misses, outcome="miss"),
        "serve.requeued": status["queue"]["requeued"],
        "serve.rejected": status["queue"]["rejected"]
        + status["queue"]["quota_rejected"],
    }, len(records), failed


# ----------------------------------------------------------------------
# aggregation


def span_sums(tracer):
    """Per-layer metrics that are sums or medians of span durations."""
    def total(*names):
        return sum(tracer.total(name) for name in names)

    imports = [s["end"] - s["start"] for s in tracer.named("cli.import")]
    return {
        "cli.import_s": median(imports) if imports else 0.0,
        "ecl.parse_s": total("ecl.parse"),
        "ecl.translate_s": total("ecl.translate"),
        "efsm.build_s": total("efsm.build"),
        "efsm.optimize_s": total("efsm.optimize"),
        "lower.native_s": total("lower.native"),
        "lower.vector_s": total("lower.vector"),
        "lower.trace_driver_s": total("lower.trace_driver"),
        "codegen.c_s": total("codegen.c"),
    }
