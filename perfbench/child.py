"""Program processes the benchmark starts itself (``PYTHONPATH=src``).

``build`` and ``farm`` are the traced runs' stand-ins for ``eclc build``
and ``eclc farm run``: each makes the calls the CLI command makes,
through the same public functions, with a span around each call into a
layer, and writes the spans plus the counts it saw as JSON.
``--trace 0`` makes the same calls with span recording off, which is how
the traced run measures its own overhead.

    python perfbench/child.py build design.ecl --out DIR --cache-dir DIR \
        --result out.json --trace 1 [--lower-all LENGTH]
    python perfbench/child.py farm spec.json --cache-dir DIR -j 2 \
        --result out.json --trace 1

``react`` runs emitted ``<module>_native.py`` reactors on given traces in
a fresh process and reports their reactions per second; ``corpus``
writes the seeded corpus of ``cold_compile`` into a folder and runs it
through the frontend (its set-up):

    python perfbench/child.py react work.json --result out.json
    python perfbench/child.py corpus DIR --seed 1 --result out.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from serveclient import histogram  # noqa: E402
from spans import Tracer  # noqa: E402


def build(args, tracer):
    with tracer.span("cli.import", "cli"):
        import repro.cli  # noqa: F401
    from repro.errors import EclError
    from repro.pipeline import ArtifactCache, Pipeline

    with tracer.span("pipeline.open", "pipeline"):
        pipeline = Pipeline(cache=ArtifactCache.persistent(args.cache_dir))
    with open(args.file) as handle:
        text = handle.read()
    with tracer.span("ecl.parse", "ecl"):
        design = pipeline.compile_text(text, filename=args.file)
        design.ensure_parsed()
        names = design.module_names
    stats = {"states": 0, "transitions": 0, "c_bytes": 0, "native_bytes": 0,
             "modules": names}
    os.makedirs(args.out, exist_ok=True)
    for name in names:
        handle = design.module(name)
        with tracer.span("ecl.translate", "ecl", ref=name):
            handle.check()
            handle.split_report()
            handle.kernel()
        with tracer.span("efsm.build", "efsm", ref=name):
            handle.raw_efsm()
        with tracer.span("efsm.optimize", "efsm", ref=name):
            efsm = handle.efsm()
        with tracer.span("codegen.c", "lower", ref=name):
            c_files = handle.emit("c")
        with tracer.span("lower.native", "lower", ref=name):
            native_files = handle.emit("native")
        if args.lower_all:
            # What a farm's cold start adds on top of a build: the
            # native stage, the numpy lowering and a trace driver.
            with tracer.span("lower.native", "lower", ref=name):
                handle.native_code()
            with tracer.span("lower.vector", "lower", ref=name):
                try:
                    handle.vector_code()
                except EclError:
                    pass  # a module the vector lowerer refuses
            with tracer.span("lower.trace_driver", "lower", ref=name):
                handle.trace_driver(args.lower_all, 0.5, (0, 255))
        with tracer.span("pipeline.write", "pipeline", ref=name):
            for files in (c_files, native_files):
                for filename, body in sorted(files.items()):
                    with open(os.path.join(args.out, filename), "w") as out:
                        out.write(body)
        stats["states"] += efsm.state_count
        stats["transitions"] += efsm.transition_count()
        stats["c_bytes"] += sum(len(body.encode()) for body in c_files.values())
        stats["native_bytes"] += sum(len(body.encode())
                                     for body in native_files.values())
    stats["cache"] = pipeline.cache.stats.as_dict()
    return stats


def farm(args, tracer):
    with tracer.span("cli.import", "cli"):
        import repro.cli  # noqa: F401
    from repro import telemetry
    from repro.farm import SimulationFarm, load_spec

    if tracer.enabled:
        # the program's own stage timings: how much of farm.run the
        # parent spends reading the warm cache
        telemetry.enable()
    with tracer.span("farm.load_spec", "farm"):
        designs, jobs, _settings = load_spec(args.file)
    simulation = SimulationFarm(designs, workers=args.workers,
                                cache_dir=args.cache_dir)
    with tracer.span("farm.run", "farm"):
        report = simulation.run(jobs)
    stages = histogram(telemetry.snapshot(), "ecl_pipeline_stage_seconds")
    return {
        "pipeline_s": stages["sum"],
        "elapsed": report.elapsed,
        "workers": report.workers,
        "chunks": report.chunks,
        "reactions": report.reactions,
        "kernel": report.kernel_stats(),
        "jobs_pickle_bytes": len(pickle.dumps(jobs)),
        "results_pickle_bytes": len(pickle.dumps(report.results)),
        "rows": [{"index": r.index, "engine": r.engine, "status": r.status,
                  "elapsed": r.elapsed, "instants": r.instants}
                 for r in report.results],
    }


def react(args):
    """Each repeat runs every listed module's emitted reactor, fresh,
    over its trace; returns the reactions and the rate of each repeat."""
    import importlib.util
    from time import perf_counter

    with open(args.file) as handle:
        work = json.load(handle)
    loaded = []
    for index, entry in enumerate(work["modules"]):
        spec = importlib.util.spec_from_file_location(
            "emitted_%d" % index, entry["path"])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        steps = [([name for name, value in instant.items() if value is None],
                  {name: value for name, value in instant.items()
                   if value is not None}) for instant in entry["instants"]]
        loaded.append((module, steps))
    rates = []
    reactions = 0
    for _ in range(work["repeats"]):
        reactions = 0
        busy = 0.0
        for module, steps in loaded:
            reactor = module.reactor()
            started = perf_counter()
            for pure, valued in steps:
                reactions += 1
                if reactor.react(inputs=pure, values=valued).terminated:
                    break
            busy += perf_counter() - started
        rates.append(reactions / busy)
    return {"reactions": reactions, "rates": rates}


def corpus(args):
    from corpus import write_corpus

    return {"designs": len(write_corpus(args.seed, args.file))}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("command",
                        choices=("build", "farm", "react", "corpus"))
    parser.add_argument("file")
    parser.add_argument("--out", default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, default=1)
    parser.add_argument("--lower-all", type=int, default=0,
                        help="also lower vector code and a trace driver "
                             "for traces of this length")
    parser.add_argument("-j", "--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    tracer = Tracer(enabled=bool(args.trace))
    if args.command == "react":
        stats = react(args)
    elif args.command == "corpus":
        stats = corpus(args)
    elif args.command == "build":
        stats = build(args, tracer)
    else:
        stats = farm(args, tracer)
    with open(args.result, "w") as handle:
        json.dump({"spans": tracer.spans, "stats": stats}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
