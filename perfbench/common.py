"""Shared plumbing of the benchmark: paths, child processes, statistics
and the host block.

The benchmark runs from the root of a source checkout.  The program is
the ``repro`` package under ``src/``; every file the benchmark writes
goes under ``.perfbench_work/`` in that root.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Worker count every workload asks of the program (``-j``).
JOBS = 2

#: The paper's three-task partition of the protocol stack, as a farm
#: spec's ``tasks`` list: (task, module, priority, connections).
STACK_TASKS = [["assemble", "assemble", 3, {"outpkt": "packet"}],
               ["prochdr", "prochdr", 2, {"inpkt": "packet"}],
               ["checkcrc", "checkcrc", 1, {"inpkt": "packet"}]]


def benchmark_spec():
    """``BENCHMARK.json`` next to this directory: the one list of the
    workloads and of the metrics with their units."""
    with open(os.path.join(os.path.dirname(BENCH_DIR),
                           "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names():
    return [item["name"] for item in benchmark_spec()["workloads"]]


def metric_units(section):
    """``[(name, unit)]`` of ``end_to_end`` or ``per_layer``."""
    return [(item["name"], item["unit"])
            for item in benchmark_spec()[section]]


class BenchError(Exception):
    """The benchmark cannot run or a check found a wrong output."""


def program_present():
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def compile_program():
    """Byte-compile the program once, as an installed package would be,
    so no measured process pays for compiling its sources."""
    import compileall

    if not compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1):
        raise BenchError("the program's sources do not compile")


def fresh_dir(*parts):
    path = os.path.join(*parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env(work):
    """Environment of every program process: ``src`` on the path, and
    every cache or temporary directory the program could default to
    pointed inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(work, "xdg-cache")
    env["ECL_CACHE_DIR"] = os.path.join(work, "ecl-cache")
    env.pop("ECL_CODE_CACHE_DIR", None)
    return env


#: Seconds between two reads of a child's resident-set high-water mark
#: (one read of a process and two pool workers costs ~0.15 ms of CPU).
RSS_POLL_S = 0.02


def _descendants(pid):
    """``pid`` and every process below it, while they run."""
    family = [pid]
    for parent in family:
        try:
            tasks = os.listdir("/proc/%d/task" % parent)
        except OSError:
            continue
        for task in tasks:
            try:
                with open("/proc/%d/task/%s/children"
                          % (parent, task)) as handle:
                    family.extend(int(child) for child in
                                  handle.read().split())
            except OSError:
                pass
    return family


def _high_water_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Child:
    """One program process.  Output goes to files in ``logdir``.  While
    it runs, a thread reads the resident-set high-water mark (``VmHWM``)
    of the process and of every process below it; ``maxrss_kb`` is the
    largest.  (``wait4``'s ``ru_maxrss`` would not do: when a process
    execs, the kernel folds the high-water mark of the memory it leaves,
    the spawning benchmark's own, into it.)"""

    def __init__(self, argv, env, logdir, name, cwd=None):
        self.out_path = os.path.join(logdir, name + ".out")
        self.err_path = os.path.join(logdir, name + ".err")
        self._out = open(self.out_path, "w")
        self._err = open(self.err_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=cwd or ROOT,
                                     stdout=self._out, stderr=self._err,
                                     stdin=subprocess.DEVNULL)
        self.ended = None
        self.returncode = None
        self.maxrss_kb = 0
        self._watcher = threading.Thread(target=self._watch, daemon=True)
        self._watcher.start()

    def _watch(self):
        while self.returncode is None:
            for pid in _descendants(self.proc.pid):
                self.maxrss_kb = max(self.maxrss_kb, _high_water_kb(pid))
            time.sleep(RSS_POLL_S)

    def wait(self, timeout):
        """Reap the process (killing it after ``timeout`` seconds);
        returns the exit code."""
        if self.returncode is not None:
            return self.returncode
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            self.proc.wait()
        finally:
            timer.cancel()
        self.ended = time.perf_counter()
        self.returncode = self.proc.returncode
        self._watcher.join()
        self._out.close()
        self._err.close()
        return self.returncode

    def kill(self):
        try:
            os.kill(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    @property
    def seconds(self):
        return self.ended - self.started

    def stdout(self):
        with open(self.out_path) as handle:
            return handle.read()

    def stderr(self):
        with open(self.err_path) as handle:
            return handle.read()


def run_child(argv, env, logdir, name, timeout=170, cwd=None):
    child = Child(argv, env, logdir, name, cwd=cwd)
    child.wait(timeout)
    return child


def bench_script(name):
    return os.path.join(BENCH_DIR, name)


# ----------------------------------------------------------------------
# statistics


def quantile(values, q):
    """Linear-interpolated quantile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("quantile of an empty sample")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return quantile(values, 0.5)


def bucket_quantile(buckets, count, q):
    """Quantile estimate from cumulative ``[[bound, count], ...]``
    histogram buckets (linear inside the bucket that holds it)."""
    if count <= 0:
        return 0.0
    rank = q * count
    lower_bound, lower_count = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            inside = cumulative - lower_count
            share = (rank - lower_count) / inside if inside else 0.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, cumulative
    return lower_bound


# ----------------------------------------------------------------------
# host


def host_block():
    """Cores, CPU model, Python and numpy versions and the ``-j`` the
    workloads use.  Measurements the host cannot make are listed under
    ``not_measured``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "not installed"
    block = {
        "cores": cores,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "jobs": JOBS,
        "not_measured": [],
    }
    if cores < JOBS:
        block["not_measured"].append(
            "parallel speed-up of -j %d (host has %d core(s)): "
            "farm.parallel_efficiency and the -j %d wall times measure "
            "time-slicing, not parallelism" % (JOBS, cores, JOBS))
    if numpy_version == "not installed":
        block["not_measured"].append("vector engine (numpy missing)")
    return block


def source_digest():
    """Digest of the program's sources: the identity under which the
    deterministic counts of a run are stored and compared."""
    import hashlib

    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(base):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def log(message):
    print(message, file=sys.stderr, flush=True)
