"""Results of the benchmark: the exact-repeat check of the
deterministic counts, and the rendered results table.

Every run merges its figures into ``.perfbench_work/results.json`` and
re-renders ``.perfbench_work/results.md``: one row per workload x
metric with the time it was last measured, its value and its unit, the
host block, and the traced per-layer self-time breakdown.  A row no run
has measured yet reads "Never".
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone

import common
from common import BenchError

def check_counts(ctx):
    """Compare this run's deterministic counts with those an earlier run
    of the same sources, workload, mode and length stored (seed-bound
    counts only against the same seed; ``ctx.fixed`` counts, which no
    seed changes, against every seed).  Any difference fails the run."""
    folder = os.path.join(common.WORK_ROOT, "counts")
    os.makedirs(folder, exist_ok=True)
    tail = "trace%d-%gs-%s.json" % (int(ctx.trace), ctx.seconds,
                                    common.source_digest()[:16])
    for scope, counts in (("seed%d" % ctx.seed, ctx.counts),
                          ("anyseed", ctx.fixed)):
        if not counts:
            continue
        path = os.path.join(folder, "%s-%s-%s" % (ctx.workload, scope, tail))
        counts = json.loads(json.dumps(counts, sort_keys=True))
        if not os.path.exists(path):
            common.write_json(path, counts)
            continue
        with open(path) as handle:
            stored = json.load(handle)
        differ = sorted(key for key in set(stored) | set(counts)
                        if stored.get(key) != counts.get(key))
        if differ:
            raise BenchError(
                "deterministic counts differ from an earlier run of the "
                "same sources: %s" % ", ".join(
                    "%s %r != %r" % (key, counts.get(key), stored.get(key))
                    for key in differ))


def write(ctx, host, result):
    store_path = os.path.join(common.WORK_ROOT, "results.json")
    try:
        with open(store_path) as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M:%S+00:00")
    entry = store.setdefault(ctx.workload, {})
    entry["host"] = host
    section = "per_layer" if ctx.trace else "end_to_end"
    for name, metric in result["metrics"].items():
        entry.setdefault(section, {})[name] = {
            "time": stamp, "value": metric["value"], "unit": metric["unit"]}
    entry["%s_run" % section] = {
        "time": stamp, "seed": ctx.seed, "seconds": ctx.seconds,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "counts": ctx.counts,
        "fixed_counts": ctx.fixed,
        "info": ctx.info, "notes": ctx.notes}
    common.write_json(store_path, store)
    with open(os.path.join(common.WORK_ROOT, "results.md"), "w") as handle:
        handle.write(render(store))


def _fmt(value):
    if value == int(value) and abs(value) < 1e15:
        return "%d" % value
    if abs(value) >= 100:
        return "%.1f" % value
    return "%.4g" % value


def _table(header, rows):
    lines = ["<table>", "<thead>",
             "<tr>%s</tr>" % "".join("<th>%s</th>" % h for h in header),
             "</thead>", "<tbody>"]
    for row in rows:
        lines.append("<tr>%s</tr>" % "".join(
            "<td>%s</td>" % cell for cell in row))
    lines += ["</tbody>", "</table>", ""]
    return "\n".join(lines)


def render(store):
    from spans import LAYERS, UNTRACKED

    out = ["# perfbench results", ""]
    for workload in common.workload_names():
        entry = store.get(workload, {})
        out.append("## Workload: %s" % workload)
        host = entry.get("host")
        if host:
            out.append("")
            out.append("Host: %d core(s), %s, Python %s, numpy %s, -j %d."
                       % (host["cores"], host["cpu"], host["python"],
                          host["numpy"], host["jobs"]))
            for item in host["not_measured"]:
                out.append("Not measured: %s." % item)
        out.append("")
        out.append("### End to end")
        measured = entry.get("end_to_end", {})
        rows = []
        for name, unit in common.metric_units("end_to_end"):
            metric = measured.get(name)
            if metric is None:
                rows.append(["Never", name, "-", unit])
            else:
                rows.append([metric["time"], name, _fmt(metric["value"]),
                             unit])
        out.append(_table(["Time (UTC)", "Metric", "Value", "Unit"], rows))
        layer = entry.get("per_layer", {})
        out.append("### Traced per-layer self time")
        rows = []
        for name in ["self.%s_s" % l for l in LAYERS] + \
                ["self.%s_s" % UNTRACKED, "trace.wall_s",
                 "trace.untraced_wall_s", "trace.overhead_s"]:
            metric = layer.get(name)
            rows.append([metric["time"], name, _fmt(metric["value"]), "s"]
                        if metric else ["Never", name, "-", "s"])
        out.append(_table(["Time (UTC)", "Span", "Self time", "Unit"], rows))
        out.append("### Per-layer metrics")
        rows = []
        for name, unit in common.metric_units("per_layer"):
            if name.startswith(("self.", "trace.")):
                continue
            metric = layer.get(name)
            rows.append([metric["time"], name, _fmt(metric["value"]), unit]
                        if metric else ["Never", name, "-", unit])
        out.append(_table(["Time (UTC)", "Metric", "Value", "Unit"], rows))
        for section in ("end_to_end_run", "per_layer_run"):
            run = entry.get(section)
            if run:
                out.append("%s: seed %d, %s s, attempted %d, failed %d, "
                           "counts %s" % (section.replace("_run", " run"),
                                          run["seed"], _fmt(run["seconds"]),
                                          run["attempted"], run["failed"],
                                          json.dumps(run["counts"],
                                                     sort_keys=True)))
                out.append("")
    return "\n".join(out)
