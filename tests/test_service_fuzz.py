"""Fuzz the sweep service's wire protocol and store rows.

A live :class:`SweepService` runs on an event loop in a background
thread over a private store and cache.  Every malformed request line —
invalid UTF-8, non-JSON, JSON that is not an object, unknown ops,
missing or wrong-typed fields — must get an ``{"ok": false, "error":
...}`` reply, and malformed ``runs``/``jobs`` rows written straight into
the store must end ``failed`` with an error column (or answer ``fetch``
with an error) instead of wedging the claim worker.  Afterwards the
daemon must still answer ``status`` and finish a valid job.
"""

import asyncio
import json
import math
import socket
import threading
import time
import uuid

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import DiskCache, ExecutionEngine
from repro.sim.service import SweepService
from repro.sim.store import ExperimentStore

VALID = {"systems": ["FUSION"], "benchmarks": ["adpcm"], "size": "tiny"}

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class LiveService:
    """A SweepService on an asyncio loop in a background thread."""

    def __init__(self, tmp_path):
        self.store = ExperimentStore(str(tmp_path / "store.db"))
        engine = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "cache"))
        self.service = SweepService(self.store, engine=engine, poll_s=0.05)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self._call(self.service.start())

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine,
                                                self.loop).result(30)

    def send(self, line):
        """Send one raw request line; returns the decoded reply line."""
        with socket.create_connection(("127.0.0.1", self.service.port),
                                      timeout=30) as sock:
            sock.sendall(line + b"\n")
            reply = sock.makefile("rb").readline()
        assert reply, "service closed the connection without a reply"
        return json.loads(reply.decode("utf-8"))

    def request(self, **payload):
        return self.send(json.dumps(payload).encode("utf-8"))

    def wait_finished(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.request(op="status", job_id=job_id)
            if counts.get("finished_all"):
                return counts
            time.sleep(0.05)
        raise AssertionError("job {} never finished".format(job_id))

    def close(self):
        self._call(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        assert not self.thread.is_alive(), "event loop did not stop"
        self.loop.close()
        self.store.close()


@pytest.fixture
def live(tmp_path):
    service = LiveService(tmp_path)
    yield service
    service.close()


def _is_error(reply):
    return reply.get("ok") is False and isinstance(reply.get("error"), str)


def _not_a_number(text):
    try:
        return not math.isfinite(float(text))
    except (TypeError, ValueError):
        return True


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
#: Values no field of the protocol accepts as a number.
non_numbers = st.one_of(st.none(), st.lists(json_values, max_size=2),
                        st.dictionaries(st.text(max_size=4), json_values,
                                        max_size=2),
                        st.text().filter(_not_a_number))
known_ops = ("ping", "submit", "status", "watch", "fetch", "events",
             "counts", "shutdown")


def _dumps(value):
    return json.dumps(value).encode("utf-8")


malformed_lines = st.one_of(
    # invalid UTF-8
    st.binary().map(lambda raw: b"\xff" + raw.replace(b"\n", b"")),
    # not JSON at all
    st.text().map(lambda text: ("op=" + text).replace("\n", " ")
                  .encode("utf-8")),
    # JSON that is not an object
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
              st.lists(json_values)).map(_dumps),
    # unknown op
    st.builds(lambda extra, op: _dumps(dict(extra, op=op)),
              st.dictionaries(st.text(max_size=8), json_values),
              json_values.filter(lambda op: op not in known_ops)),
    # known op, missing or wrong-typed fields
    st.builds(lambda spec: _dumps({"op": "submit", "spec": spec}),
              json_values),
    st.sampled_from(("status", "watch", "fetch")).flatmap(
        lambda op: json_values.map(
            lambda job_id: _dumps({"op": op, "job_id": job_id}))),
    st.builds(lambda count: _dumps({"op": "events", "count": count}),
              non_numbers))


def test_wire_fuzz_gets_error_replies(live):
    # Finish a valid job first: its simulation imports modules on the
    # worker thread, which must not race hypothesis's own imports.
    job_id = live.request(op="submit", spec=VALID)["job_id"]
    assert live.wait_finished(job_id)["done"] == 1

    @given(line=malformed_lines)
    @example(line=b"[" * 100000)
    @example(line=b'{"op": "watch", "job_id": []}')
    @FUZZ
    def malformed(line):
        assert _is_error(live.send(line))

    @given(interval=non_numbers | st.sampled_from(
        (math.inf, -math.inf, math.nan)))
    @example(interval="soon")
    @FUZZ
    def bad_watch_interval(interval):
        assert _is_error(live.request(op="watch", job_id=job_id,
                                      interval=interval))

    malformed()
    bad_watch_interval()
    # The daemon still answers.
    status = live.request(op="status", job_id=job_id)
    assert status["ok"] and status["done"] == status["total"] == 1


def _parses(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


malformed_points = st.one_of(
    st.text().filter(lambda text: not _parses(text)),
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.lists(json_values)).map(json.dumps),
    st.dictionaries(st.sampled_from(("system", "benchmark", "size",
                                     "axes")), json_values).map(json.dumps))


def _insert_job(store, spec, points):
    """Write a job row and its run rows as raw text, bypassing submit's
    validation; returns the job id."""
    job_id, now = uuid.uuid4().hex[:12], time.time()
    with store._lock:
        store._conn.execute("INSERT INTO jobs (job_id, spec, client, "
                            "created) VALUES (?, ?, 'fuzz', ?)",
                            (job_id, spec, now))
        for position, point in enumerate(points):
            key = uuid.uuid4().hex
            store._conn.execute(
                "INSERT INTO runs (key, point, status, created, updated) "
                "VALUES (?, ?, 'pending', ?, ?)", (key, point, now, now))
            store._conn.execute(
                "INSERT INTO job_runs (job_id, position, run_key) "
                "VALUES (?, ?, ?)", (job_id, position, key))
    return job_id


@given(points=st.lists(malformed_points, min_size=1, max_size=4),
       spec=st.one_of(st.text(), json_values.map(json.dumps)))
@example(points=['{"system": "FUSION", "benchmark": "adpcm", '
                 '"size": "tiny", "axes": [["lease", "soon"]]}',
                 '{"system": ["FUSION"], "benchmark": "adpcm", '
                 '"size": "tiny", "axes": []}', "[1, 2]", "{"],
         spec='{"metrics": ["accel_cycles"]}')
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_store_rows_fail_with_an_error(live, points, spec):
    job_id = _insert_job(live.store, spec, points)
    counts = live.wait_finished(job_id)
    assert counts["failed"] == counts["total"] == len(points)
    for row in live.store.job_rows(job_id):
        assert row["status"] == "failed" and row["error"]
    reply = live.request(op="fetch", job_id=job_id)
    assert _is_error(reply) or all(
        row["status"] == "failed" for row in reply["rows"])
    # The claim worker is still alive: a valid job next to the bad rows
    # finishes.
    valid = live.request(op="submit", spec=VALID)["job_id"]
    assert live.wait_finished(valid)["done"] == 1
