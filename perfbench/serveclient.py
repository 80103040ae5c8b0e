"""A stdlib HTTP client for one ``eclc serve`` process.

The benchmark boots the service with its shipped defaults (process
pool, telemetry on, fusion 16) plus ``-j 2``, ``--port 0`` and a
``--data-root`` in the work directory, and talks to it over
``/v1``.  Responses are HTTP/1.0, one connection per request.
"""

from __future__ import annotations

import http.client
import json
import sys
import time
from time import perf_counter

from common import JOBS, BenchError, Child


class Server:
    def __init__(self, env, logdir, name, data_root, boot_timeout=60):
        self.child = Child(
            [sys.executable, "-m", "repro.cli", "serve", "-j", str(JOBS),
             "--port", "0", "--data-root", data_root],
            env, logdir, name)
        self.port = None
        deadline = time.monotonic() + boot_timeout
        while self.port is None:
            if self.child.proc.poll() is not None:
                raise BenchError("eclc serve exited during boot: %s"
                                 % self._stderr_tail())
            if time.monotonic() > deadline:
                self.kill()
                raise BenchError("eclc serve did not announce a port")
            with open(self.child.out_path) as handle:
                for line in handle:
                    if "listening on" in line:
                        self.port = int(line.split("listening on", 1)[1]
                                        .split()[0].rsplit(":", 1)[1])
            if self.port is None:
                time.sleep(0.01)

    def _stderr_tail(self):
        try:
            with open(self.child.err_path) as handle:
                return handle.read()[-800:]
        except OSError:
            return ""

    def _connection(self, timeout=120):
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)

    def request(self, method, path, body=None):
        """``(status, payload)`` of one request."""
        connection = self._connection()
        try:
            blob = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if blob else {}
            connection.request(method, path, body=blob, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        return response.status, json.loads(data) if data else None

    def submit(self, tenant, spec):
        """POST one batch; returns ``(batch_id or None, status)``."""
        status, payload = self.request(
            "POST", "/v1/batches", {"tenant": tenant, "spec": spec})
        if status != 200:
            return None, status
        return payload["batch"], status

    def stream(self, batch_id):
        """Every result row of a batch as it streams, with the
        ``perf_counter`` instants of the first and the last row."""
        connection = self._connection()
        rows = []
        first = last = None
        try:
            connection.request(
                "GET", "/v1/batches/%s/results" % batch_id)
            response = connection.getresponse()
            if response.status != 200:
                raise BenchError("stream of %s: HTTP %d"
                                 % (batch_id, response.status))
            while True:
                line = response.readline()
                if not line:
                    break
                last = perf_counter()
                if first is None:
                    first = last
                rows.append(json.loads(line))
        finally:
            connection.close()
        return rows, first, last

    def metrics(self):
        return self.request("GET", "/v1/metrics.json")[1]

    def status(self):
        return self.request("GET", "/v1/status")[1]

    def shutdown(self, timeout=60):
        """Graceful drain; returns the exit code."""
        try:
            self.request("POST", "/v1/shutdown")
        except OSError:
            pass
        return self.child.wait(timeout)

    def kill(self):
        """Stop the server now, if it still runs, and reap it."""
        if self.child.returncode is None:
            self.child.kill()
            self.child.wait(10)


def histogram(snapshot, name, **labels):
    """Summed cumulative buckets and count of one histogram family in a
    ``/v1/metrics.json`` snapshot (children matching ``labels``)."""
    buckets = None
    count = 0
    total = 0.0
    for family in snapshot.get("metrics", ()):
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if any(sample["labels"].get(k) != v for k, v in labels.items()):
                continue
            count += sample["count"]
            total += sample["sum"]
            if buckets is None:
                buckets = [list(b) for b in sample["buckets"]]
            else:
                for mine, theirs in zip(buckets, sample["buckets"]):
                    mine[1] += theirs[1]
    return {"buckets": buckets or [], "count": count, "sum": total}


def histogram_delta(after, before):
    """``after`` minus ``before`` (both from :func:`histogram`)."""
    if not before["buckets"]:
        return after
    buckets = [[b, c - p] for (b, c), (_b, p)
               in zip(after["buckets"], before["buckets"])]
    return {"buckets": buckets, "count": after["count"] - before["count"],
            "sum": after["sum"] - before["sum"]}


def counter(snapshot, name, **labels):
    """Summed value of one counter family's children matching
    ``labels``."""
    return sum(sample["value"]
               for family in snapshot.get("metrics", ())
               if family["name"] == name
               for sample in family["samples"]
               if all(sample["labels"].get(k) == v
                      for k, v in labels.items()))
