"""The repository's benchmark: one command, the workloads that
``BENCHMARK.json`` names.

    python3 perfbench/run.py --workload cold_compile --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout.  ``--trace 0`` measures the
workload's end-to-end metrics with no tracing; ``--trace 1`` makes the
separate traced run that attributes the workload's time to the
program's layers.  Both check the program's outputs outside the timed
region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; progress and
notes go to standard error.  Every file the run writes is under
``.perfbench_work/`` in the checkout, including ``results.md`` (the
rendered table) and the spans of traced runs.  See
``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import BenchError, log  # noqa: E402


class Context:
    """What one run knows: its arguments, its work directory, and the
    counts, notes and extra figures the workload records."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = common.fresh_dir(common.WORK_ROOT, "run-%s-%d"
                                     % (args.workload, os.getpid()))
        self.logdir = common.fresh_dir(self.work, "logs")
        self.env = common.child_env(self.work)
        # in-process calls into the program write under the work
        # directory too
        for key in ("TMPDIR", "XDG_CACHE_HOME", "ECL_CACHE_DIR"):
            os.environ[key] = self.env[key]
        os.environ.pop("ECL_CODE_CACHE_DIR", None)
        tempfile.tempdir = None
        #: deterministic counts, compared across runs of one commit with
        #: the same seed (``counts``) or with any seed (``fixed``)
        self.counts = {}
        self.fixed = {}
        #: figures that are not metrics but go into the results table
        self.info = {}
        self.notes = []

    def note(self, text):
        self.notes.append(text)
        log(text)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not common.program_present():
        log("perfbench: no program under %s (expected src/repro); run "
            "from the root of a source checkout" % common.SRC)
        return 2
    sys.path.insert(0, common.SRC)
    import report

    ctx = Context(args)
    host = common.host_block()
    log("perfbench: %s seed %d, %g s, trace %d; host %s"
        % (args.workload, args.seed, args.seconds, args.trace,
           json.dumps(host, sort_keys=True)))
    module = importlib.import_module(args.workload)
    try:
        common.compile_program()
        if ctx.trace:
            import traced
            metrics, attempted, failed = traced.run(ctx, module)
            units = dict(common.metric_units("per_layer"))
        else:
            metrics, attempted, failed = module.measure(ctx)
            units = dict(common.metric_units("end_to_end"))
        report.check_counts(ctx)
    except BenchError as error:
        log("perfbench: %s" % error)
        return 1
    except Exception:
        log(traceback.format_exc())
        return 1
    missing = sorted(set(units) - set(metrics))
    if missing:
        log("perfbench: workload did not produce %s" % ", ".join(missing))
        return 1
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    report.write(ctx, host, result)
    shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
