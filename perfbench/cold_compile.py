"""Workload ``cold_compile``: what a designer pays per edit.

For each design of the seeded corpus (:mod:`corpus`), one after the
other, one fresh process runs ``eclc build <design> --emit c,native``
against an empty cache directory.  The frontend, phase 2 and lowering do
almost all the work, the engines none, and cache traffic is writes
only.  Rounds over the corpus repeat until ``--seconds`` have passed.

Set-up generates the corpus, writes it and runs it through the frontend
in a fresh process; it is made nine times in a run, before and between
the rounds, and the median is ``setup_s``.

The output check, outside the timed region: the C and native files each
build wrote must equal, byte for byte, what an in-process pipeline emits
for the same source, and each module's emitted native reactor (loaded
from the ``<module>_native.py`` the build wrote) must match the reference
interpreter on a seeded trace.

``reactions_per_s`` is the speed of the emitted native reactors of the
paper's three units on fixed longer traces, four times over in each of
two fresh processes after each round (at least fourteen processes in
all): the fastest of those repeats.  A repeat takes ~0.1 s, and on a
shared host the same process runs at ~0.36 or ~0.6 M reactions/s from
one repeat to the next, as other tenants come and go; the median of the
repeats falls on either mode as their mix shifts, and so swung by 0.18
of its median across runs.  The fastest repeat, as ``timeit`` reports
it, is the reactors' own speed.

``light_p95_ms`` is the 95th percentile across the light designs of
each design's median build over the rounds.  The light designs cost
about the same, so the tail of their pooled builds (a few samples of
~45) is whatever stalls the host had in that run; each design's median
leaves the slowest light design.  ``heavy_p95_ms`` stays the pooled
95th percentile: its tail is the audio buffer builds, real work ~30%
above the class median.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from time import perf_counter

from common import (BenchError, bench_script, fresh_dir, median, quantile,
                    run_child, write_json)

NAME = "cold_compile"

#: Per-design build latency limit (``heavy_goodput_bps``).
LIMIT_S = 3.0
#: Set-ups and native speed processes per run: after each round
#: (outside the round's wall) one set-up and ``SPEED_PER_ROUND`` speed
#: processes, set-up also once before the first round, the rest after
#: the last round.  Spread over the run like this, their medians see
#: the same host as the rounds: the speed of the shared host this was
#: tuned on drifts by 30% or more within seconds.
SETUP_REPEATS = 9
SPEED_PROCESSES = 14
SPEED_PER_ROUND = 2
#: Instants per module of the native-vs-interpreter check, and of the
#: native speed measurement (``SPEED_REPEATS`` times per process).
CHECK_LENGTH = 200
SPEED_LENGTH = 5000
SPEED_REPEATS = 4
#: ``reactions_per_s`` runs the paper's units on fixed traces, so every
#: seed measures the same work.
SPEED_DESIGNS = ("stack", "audio", "door")
SPEED_SEED = 1999


def setup(ctx, attempt):
    """Write the corpus and run it through the frontend in a fresh
    process (each attempt rewrites the same folder); returns
    ``([(entry, path)], seconds)``."""
    from corpus import build_corpus

    folder = os.path.join(ctx.work, "corpus")
    child = run_child([sys.executable, bench_script("child.py"), "corpus",
                       folder, "--seed", str(ctx.seed), "--result",
                       os.path.join(ctx.work, "corpus-result.json")],
                      ctx.env, ctx.logdir, "corpus-%d" % attempt)
    if child.returncode != 0:
        raise BenchError("writing the corpus failed: %s"
                         % child.stderr()[-600:])
    corpus = [(entry, os.path.join(folder, entry.name + ".ecl"))
              for entry in build_corpus(ctx.seed)]
    return corpus, child.seconds


def _count_files(folder):
    return sum(len(files) for _root, _dirs, files in os.walk(folder))


def build_round(ctx, corpus):
    """One fresh-process build per design, each against an empty
    cache directory.  The design is named relative to its folder: the
    emitted code embeds the name, and a path through the run's work
    directory would make its bytes differ from run to run."""
    records = []
    for entry, path in corpus:
        folder = fresh_dir(ctx.work, "builds", entry.name)
        cache = os.path.join(folder, "cache")
        files = os.path.join(folder, "files")
        child = run_child(
            [sys.executable, "-m", "repro.cli", "build",
             os.path.basename(path), "--emit", "c,native", "-o", files,
             "--cache-dir", cache],
            ctx.env, ctx.logdir, "build-" + entry.name,
            cwd=os.path.dirname(path))
        records.append({"name": entry.name, "class": entry.klass,
                        "seconds": child.seconds, "rc": child.returncode,
                        "rss_kb": child.maxrss_kb,
                        "cache_files": _count_files(cache),
                        "files": files})
        if child.returncode != 0:
            ctx.note("cold_compile: build of %s exited %d: %s"
                     % (entry.name, child.returncode, child.stderr()[-400:]))
    return records


def _load_emitted(path, tag):
    spec = importlib.util.spec_from_file_location(tag, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(alphabet, length, seed):
    from repro.farm.jobs import StimulusSpec

    return StimulusSpec.random(length=length).materialize(alphabet, seed)


def _alphabet(design, module):
    from repro.engines import get_engine
    from repro.farm.jobs import SimJob

    job = SimJob(design="<check>", module=module, engine="interp")
    return get_engine("interp").build(design.module, job).input_alphabet()


def _run_emitted(reactor, instants):
    from repro.farm.engines import make_record

    records = []
    for instant in instants:
        pure = [name for name, value in instant.items() if value is None]
        valued = {name: value for name, value in instant.items()
                  if value is not None}
        output = reactor.react(inputs=pure, values=valued)
        records.append(make_record(instant, output.emitted, output.values))
        if output.terminated:
            break
    return records


def speed_job(ctx, corpus):
    """The native speed job: the reactors each round writes for the
    paper's units, with fixed traces; returns the job file."""
    from repro.pipeline import Pipeline

    work = []
    for entry, path in corpus:
        if entry.name not in SPEED_DESIGNS:
            continue
        design = Pipeline().compile_text(entry.text,
                                         filename=os.path.basename(path))
        folder = os.path.join(ctx.work, "builds", entry.name, "files")
        for name in design.module_names:
            work.append({
                "path": os.path.join(folder, "%s_native.py" % name),
                "instants": _trace(_alphabet(design, name), SPEED_LENGTH,
                                   SPEED_SEED)})
    job = os.path.join(ctx.work, "speed.json")
    write_json(job, {"modules": work, "repeats": SPEED_REPEATS})
    return job


def native_speed(ctx, job, attempt):
    """``(reactions/s of each repeat, reactions)`` of the speed job in a
    fresh process (``child.py react``)."""
    import json

    result = os.path.join(ctx.work, "speed-result.json")
    child = run_child([sys.executable, bench_script("child.py"), "react",
                       job, "--result", result], ctx.env, ctx.logdir,
                      "native-speed-%d" % attempt)
    if child.returncode != 0:
        raise BenchError("native speed run failed: %s"
                         % child.stderr()[-600:])
    with open(result) as handle:
        stats = json.load(handle)["stats"]
    return stats["rates"], stats["reactions"]


def check(ctx, corpus, records):
    """Compare the last round's outputs with the in-process pipeline and
    the interpreter.  Returns ``(designs that differ, counts)``."""
    from repro.engines import get_engine
    from repro.pipeline import Pipeline

    files_of = {record["name"]: record["files"] for record in records}
    interp = get_engine("interp")
    rng = random.Random(ctx.seed)
    mismatched = 0
    counts = {}
    for entry, path in corpus:
        design = Pipeline().compile_text(entry.text,
                                         filename=os.path.basename(path))
        folder = files_of[entry.name]
        bad = []
        states = transitions = c_bytes = native_bytes = 0
        for name in design.module_names:
            handle = design.module(name)
            efsm = handle.efsm()
            states += efsm.state_count
            transitions += efsm.transition_count()
            expected = dict(handle.emit("c"))
            c_bytes += sum(len(body.encode()) for body in expected.values())
            native = handle.emit("native")
            native_bytes += sum(len(body.encode())
                                for body in native.values())
            expected.update(native)
            for filename, body in sorted(expected.items()):
                try:
                    with open(os.path.join(folder, filename)) as handle_:
                        written = handle_.read()
                except OSError:
                    written = None
                if written != body:
                    bad.append("%s differs" % filename)
            if bad:
                continue
            emitted = _load_emitted(
                os.path.join(folder, "%s_native.py" % name),
                "perfbench_built_%s_%s" % (entry.name, name))
            alphabet = _alphabet(design, name)
            instants = _trace(alphabet, CHECK_LENGTH, rng.randrange(1 << 30))
            got = _run_emitted(emitted.reactor(), instants)
            want = interp.run_trace(handle, instants)
            if [(r["emitted"], r["values"]) for r in got] != \
                    [(r["emitted"], r["values"]) for r in want]:
                bad.append("%s: native differs from interp" % name)
        if bad:
            mismatched += 1
            ctx.note("cold_compile: %s: %s" % (entry.name, "; ".join(bad)))
        counts["%s.states" % entry.name] = states
        counts["%s.transitions" % entry.name] = transitions
        counts["%s.c_bytes" % entry.name] = c_bytes
        counts["%s.native_bytes" % entry.name] = native_bytes
    return mismatched, counts


def measure(ctx):
    corpus, seconds = setup(ctx, 0)
    setups = [seconds]
    job = speed_job(ctx, corpus)
    speeds = []
    walls = []
    builds = []
    started = perf_counter()
    last = None
    while not walls or perf_counter() - started < ctx.seconds:
        round_started = perf_counter()
        last = build_round(ctx, corpus)
        walls.append(perf_counter() - round_started)
        builds.extend(last)
        if len(setups) < SETUP_REPEATS:
            setups.append(setup(ctx, len(setups))[1])
        for _ in range(SPEED_PER_ROUND):
            speeds.append(native_speed(ctx, job, len(speeds)))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup(ctx, len(setups))[1])
    while len(speeds) < SPEED_PROCESSES:
        speeds.append(native_speed(ctx, job, len(speeds)))
    mismatched, counts = check(ctx, corpus, last)
    reactions = {count for _rates, count in speeds}
    if len(reactions) != 1:
        raise BenchError("cold_compile: native speed runs disagree on "
                         "reactions: %s" % sorted(reactions))
    counts["check.reactions"] = reactions.pop()
    per_design = {}
    for record in builds:
        per_design.setdefault(record["name"], set()).add(
            record["cache_files"])
    for name, seen in sorted(per_design.items()):
        if len(seen) != 1:
            raise BenchError("cold_compile: %s wrote %s cache files in "
                             "different rounds" % (name, sorted(seen)))
        counts["%s.cache_writes" % name] = seen.pop()
    ctx.counts.update(counts)
    # the paper's units are in every corpus and the speed traces are
    # fixed: these counts bind any seed
    ctx.fixed.update({key: value for key, value in counts.items()
                      if key.split(".")[0] in SPEED_DESIGNS + ("check",)})
    failed = sum(1 for r in builds if r["rc"] != 0) + mismatched
    seconds = {klass: [r["seconds"] * 1e3 for r in builds
                       if r["class"] == klass] for klass in ("light", "heavy")}
    light_builds = {}
    for record in builds:
        if record["class"] == "light":
            light_builds.setdefault(record["name"], []).append(
                record["seconds"] * 1e3)
    heavy_ok = sum(1 for r in builds if r["class"] == "heavy"
                   and r["rc"] == 0 and r["seconds"] <= LIMIT_S)
    ctx.info.update({
        "rounds": len(walls), "builds": len(builds),
        "designs": [entry.name for entry, _path in corpus],
        "light_samples": len(seconds["light"]),
        "heavy_samples": len(seconds["heavy"]),
        "limit_s": LIMIT_S,
    })
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "design_p50_s": median([r["seconds"] for r in builds]),
        "reactions_per_s": max(rate for rates, _count in speeds
                               for rate in rates),
        "peak_rss_mb": max(r["rss_kb"] for r in builds) / 1024.0,
        "light_p50_ms": median(seconds["light"]),
        "light_p95_ms": quantile([median(times) for times
                                  in light_builds.values()], 0.95),
        "heavy_p50_ms": median(seconds["heavy"]),
        "heavy_p95_ms": quantile(seconds["heavy"], 0.95),
        "heavy_goodput_bps": heavy_ok / sum(walls),
    }
    return metrics, len(builds) + len(corpus), failed
