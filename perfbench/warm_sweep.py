"""Workload ``warm_sweep``: warm multi-process simulation sweeps.

``eclc farm run --spec sweep.json -j 2 --cache-dir <dir>`` runs long
random-stimulus traces on a cache that set-up warmed: the protocol
stack's ``toplevel`` and the ``audio_buffer`` on ``native``, ``toplevel``
on ``vector`` with a fixed lane count, and the paper's 3-task partition
of the stack on ``rtos`` with ``task_engine: native``.  The engines'
inner loops and the farm's dispatch (chunking, pickling, the process
pool) do almost all the work; compile does none and cache traffic is
reads only.  Runs repeat until ``--seconds`` have passed.

Set-up is the cold ``farm run`` that fills the cache (the same entries
with two traces each, so every cache key the sweep needs is written),
made three times on fresh caches; the median is ``setup_s``.

The output check, outside the timed region, makes one more ``farm run``
of the sweep with ``--ledger`` and compares its rows with the timed
run's; the traces it recorded for a seeded sample of jobs must equal
those of :mod:`repro.engines` on ``efsm`` and ``interp`` (rtos jobs:
``task_engine: efsm``, kernel counters included) on the same
instants.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
from time import perf_counter

from common import (JOBS, STACK_TASKS, BenchError, fresh_dir, median,
                    quantile, run_child, write_json)

NAME = "warm_sweep"

LENGTH = 4000
NATIVE_TRACES = 48
VECTOR_LANES = 32
RTOS_TRACES = 64
SETUP_TRACES = 2
SETUP_REPEATS = 3
#: Per-job latency limit (``heavy_goodput_bps``, rtos jobs).
LIMIT_MS = 250.0

def spec_document(seed, traces=None):
    def count(n):
        return n if traces is None else traces

    return {
        "spec_version": 2,
        "designs": {"stack": "stack.ecl", "audio": "audio.ecl"},
        "jobs": [
            {"design": "stack", "modules": ["toplevel"], "engine": "native",
             "traces": count(NATIVE_TRACES), "length": LENGTH,
             "seed": seed},
            {"design": "audio", "modules": ["audio_buffer"],
             "engine": "native", "traces": count(NATIVE_TRACES),
             "length": LENGTH, "seed": seed},
            {"design": "stack", "modules": ["toplevel"], "engine": "vector",
             "n_instances": count(VECTOR_LANES), "length": LENGTH,
             "seed": seed},
            {"design": "stack", "modules": ["toplevel"], "engine": "rtos",
             "traces": count(RTOS_TRACES), "length": LENGTH, "seed": seed,
             "task_engine": "native", "tasks": STACK_TASKS},
        ],
    }


def write_inputs(ctx):
    """The sweep spec and the setup spec, next to the two designs."""
    from corpus import paper_sources

    folder = fresh_dir(ctx.work, "sweep")
    papers = paper_sources()
    for label in ("stack", "audio"):
        with open(os.path.join(folder, label + ".ecl"), "w") as handle:
            handle.write(papers[label])
    spec = os.path.join(folder, "sweep.json")
    write_json(spec, spec_document(ctx.seed))
    cold = os.path.join(folder, "setup.json")
    write_json(cold, spec_document(ctx.seed, traces=SETUP_TRACES))
    return spec, cold


def farm_run(ctx, spec, cache, name, ledger=None):
    report = os.path.join(ctx.work, name + ".report.json")
    argv = [sys.executable, "-m", "repro.cli", "farm", "run", "--spec", spec,
            "-j", str(JOBS), "--cache-dir", cache, "--report", report]
    if ledger:
        argv += ["--ledger", ledger]
    child = run_child(argv, ctx.env, ctx.logdir, name)
    if child.returncode != 0:
        raise BenchError("farm run %s exited %d: %s"
                         % (name, child.returncode, child.stderr()[-600:]))
    with open(report) as handle:
        payload = json.load(handle)
    os.remove(report)
    return child, payload


def cache_files(cache):
    return sum(len(files) for _root, _dirs, files in os.walk(cache))


def setup(ctx, spec_cold):
    """Cold farm runs on fresh caches; returns the last cache and the
    median seconds."""
    times = []
    cache = None
    for attempt in range(SETUP_REPEATS):
        cache = fresh_dir(ctx.work, "cache-%d" % attempt)
        child, _report = farm_run(ctx, spec_cold, cache, "setup-%d" % attempt)
        times.append(child.seconds)
        ctx.fixed["setup.cache_writes"] = cache_files(cache)
    return cache, median(times)


def _canonical(records):
    """Records as the trace ledger stores them (JSON, sorted keys)."""
    return json.loads(json.dumps(records, sort_keys=True))


def check(ctx, spec, cache, rows):
    """One more ``farm run`` of the sweep, with a trace ledger, outside
    the timed region.  Each of its rows must equal the timed run's row
    (job, status, instants, emitted events, kernel counters).  The
    recorded trace of a seeded sample of jobs must equal, record for
    record, what the reference engines produce on the same instants:
    the EFSM engine and the interpreter for native and vector jobs, the
    same partition with ``task_engine: efsm`` for rtos jobs, whose
    kernel counters must equal the farm's too.  Returns the number of
    jobs that disagree and the number of jobs checked."""
    from repro.engines import get_engine
    from repro.farm import load_spec
    from repro.farm.ledger import TraceLedger
    from repro.farm.worker import WorkerState
    from repro.pipeline import Pipeline

    ledger = fresh_dir(ctx.work, "check-ledger")
    _child, report = farm_run(ctx, spec, cache, "check", ledger=ledger)
    recorded = {row["index"]: row for row in report["results"]}
    bad = 0
    for row in rows:
        again = recorded.get(row["index"], {})
        if any(again.get(key) != row[key] for key in (
                "job_id", "status", "instants", "emitted_events",
                "kernel_stats")):
            bad += 1
            ctx.note("warm_sweep: job %d differs between the timed run "
                     "and the ledger run" % row["index"])
    designs, jobs, _settings = load_spec(spec)
    rng = random.Random(ctx.seed * 31 + 7)
    by_engine = {}
    for job in jobs:
        by_engine.setdefault(job.engine, []).append(job)
    sample = [job for engine in sorted(by_engine)
              for job in rng.sample(by_engine[engine], 2)]
    builds = {label: Pipeline().compile_text(text, filename=label)
              for label, text in designs.items()}
    state = WorkerState(designs)
    traces = TraceLedger(ledger)
    for job in sample:
        row = recorded[job.index]
        _header, got = traces.load(row["trace_digest"])
        if job.engine == "rtos":
            # the job's own instants (its seed), efsm tasks
            adapter = get_engine("rtos").build(
                state.handles(job.design),
                dataclasses.replace(job, task_engine="efsm"))
            instants = job.stimulus.materialize(adapter.input_alphabet(),
                                                job.seed)
            instants += [{}] * (job.instant_budget - len(instants))
            want = [_canonical([adapter.step(instant) for instant in
                                instants])]
            same = adapter.kernel_stats() == row["kernel_stats"]
        else:
            handle = builds[job.design].module(job.module)
            adapter = get_engine("native").build(
                builds[job.design].module,
                dataclasses.replace(job, engine="native"))
            instants = job.stimulus.materialize(adapter.input_alphabet(),
                                                job.seed)
            instants += [{}] * (job.instant_budget - len(instants))
            want = [_canonical(get_engine(engine).run_trace(handle,
                                                            instants))
                    for engine in ("efsm", "interp")]
            same = True
        if not same or any(records != got for records in want):
            bad += 1
            ctx.note("warm_sweep: job %d (%s) disagrees with the reference"
                     % (job.index, job.engine))
    return bad, len(rows) + len(sample)


def measure(ctx):
    spec, spec_cold = write_inputs(ctx)
    cache, setup_s = setup(ctx, spec_cold)
    before = cache_files(cache)
    runs = []
    started = perf_counter()
    while not runs or perf_counter() - started < ctx.seconds:
        child, report = farm_run(ctx, spec, cache, "sweep-%d" % len(runs))
        runs.append((child, report))
    writes = cache_files(cache) - before
    bad, checked = check(ctx, spec, cache, runs[-1][1]["results"])
    reactions = {report["reactions"] for _child, report in runs}
    kernels = {json.dumps(report["kernel_stats"], sort_keys=True)
               for _child, report in runs}
    if len(reactions) != 1 or len(kernels) != 1:
        raise BenchError("warm_sweep: repeated runs of one spec disagree "
                         "on reactions or kernel counters")
    kernel = runs[0][1]["kernel_stats"]
    ctx.counts.update({
        "sweep.reactions": reactions.pop(),
        "rtos.dispatches": kernel["dispatches"],
        "rtos.context_switches": kernel["context_switches"],
        "rtos.posts": kernel["posts"],
    })
    ctx.fixed["sweep.cache_writes"] = writes
    rows = [row for _child, report in runs for row in report["results"]]
    failed = sum(1 for row in rows if row["status"] != "ok") + bad
    if writes:
        ctx.note("warm_sweep: the warm runs wrote %d cache file(s)" % writes)
    light = [row["elapsed"] * 1e3 for row in rows if row["engine"] == "native"]
    heavy = [row["elapsed"] * 1e3 for row in rows if row["engine"] == "rtos"]
    walls = [child.seconds for child, _report in runs]
    # engine-busy seconds of each (design, engine) entry of a run; the
    # median entry of each run, then the median run
    per_run = []
    for _child, report in runs:
        busy = {}
        for row in report["results"]:
            key = (row["design"], row["engine"])
            busy[key] = busy.get(key, 0.0) + row["elapsed"]
        per_run.append(median(list(busy.values())))
    ctx.info.update({
        "runs": len(runs), "jobs_per_run": len(runs[0][1]["results"]),
        "light_samples": len(light), "heavy_samples": len(heavy),
        "checked_jobs": checked, "limit_ms": LIMIT_MS,
    })
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "design_p50_s": median(per_run),
        "reactions_per_s": median([report["reactions"] / child.seconds
                                   for child, report in runs]),
        "peak_rss_mb": max(child.maxrss_kb for child, _r in runs) / 1024.0,
        "light_p50_ms": median(light),
        "light_p95_ms": quantile(light, 0.95),
        "heavy_p50_ms": median(heavy),
        "heavy_p95_ms": quantile(heavy, 0.95),
        "heavy_goodput_bps": sum(1 for v in heavy if v <= LIMIT_MS)
        / sum(walls),
    }
    return metrics, len(rows) + checked, failed
