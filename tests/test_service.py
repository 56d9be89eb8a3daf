"""The sweep-service daemon end to end (repro.sim.service).

These tests run the real daemon as a subprocess (``fusion-sim serve``)
against a private store and cache root, drive it with the line-protocol
client, and hold it to the acceptance bar: results bit-identical to a
direct ``engine.run_batch`` of the same grid, overlapping submissions
sharing rows, and a ``kill -9`` mid-grid resuming from the durable
store on restart.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.sim import export
from repro.sim import jobs as jobs_mod
from repro.sim.engine import DiskCache, ExecutionEngine
from repro.sim.service import ServiceClient
from repro.sim.store import ExperimentStore

SPEC = {"systems": ["FUSION", "SHARED"], "benchmarks": ["adpcm", "fft"],
        "size": "tiny", "axes": [{"kind": "lease",
                                  "values": [100, 500]}]}

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


class Daemon:
    """One ``fusion-sim serve`` subprocess over a private store/cache."""

    def __init__(self, tmp_path, batch=1, poll="0.05", extra_env=None):
        self.tmp_path = tmp_path
        self.store_path = str(tmp_path / "store.db")
        self.announce = str(tmp_path / "announce-{}.json".format(
            time.monotonic_ns()))
        env = dict(os.environ,
                   PYTHONPATH=SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   REPRO_JOBS="1")
        env.update(extra_env or {})
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store", self.store_path, "--batch", str(batch),
             "--poll", poll, "--announce", self.announce],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    def wait_ready(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(self.announce):
                with open(self.announce) as fileobj:
                    return json.load(fileobj)
            if self.process.poll() is not None:
                raise AssertionError(
                    "daemon died during startup:\n"
                    + self.process.stdout.read().decode())
            time.sleep(0.02)
        raise AssertionError("daemon never announced")

    def client(self):
        info = self.wait_ready()
        return ServiceClient(info["host"], info["port"])

    def kill9(self):
        self.process.kill()
        self.process.wait(timeout=10)

    def stop(self):
        if self.process.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
                self.process.wait(timeout=15)
            except Exception:
                self.process.terminate()
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=10)


def direct_results(spec, cache_root):
    """The same grid through a direct engine — the golden answer."""
    engine = ExecutionEngine(jobs=1, cache=DiskCache(cache_root))
    entries = list(jobs_mod.spec_points(spec))
    results = engine.run_batch([request for _k, _p, request in entries])
    return {key: result for (key, _p, _r), result
            in zip(entries, results)}


def exported(result):
    payload = export.result_to_dict(result)
    payload.pop("engine", None)
    return payload


def fetch_by_key(payload):
    out = {}
    for row in payload["rows"]:
        key = jobs_mod.run_key(row["point"])
        body = dict(row["result"] or {})
        body.pop("engine", None)
        out[key] = (row["status"], body)
    return out


#: Two processes, a FUSION tenant and a SCRATCH tenant, time-sharing
#: one tile: one more point the service runs like any other.
CORESIDENT_SPEC = {"systems": ["FUSION+SCRATCH"],
                   "benchmarks": ["adpcm+filter"], "size": "tiny"}


@pytest.mark.slow
def test_service_end_to_end_matches_direct_engine(tmp_path):
    specs = ((SPEC, 8), (CORESIDENT_SPEC, 1))
    daemon = Daemon(tmp_path, batch=2)
    try:
        with daemon.client() as client:
            assert client.ping()["ok"]
            payloads = []
            for spec, total in specs:
                job_id = client.submit(spec, client="pytest")
                counts = client.wait(job_id, timeout=300)
                assert counts["done"] == counts["total"] == total
                payloads.append(client.fetch(job_id))
    finally:
        daemon.stop()
    for (spec, _total), payload in zip(specs, payloads):
        golden = direct_results(spec, tmp_path / "direct-cache")
        rows = fetch_by_key(payload)
        assert set(rows) == set(golden)
        for key, result in golden.items():
            status, body = rows[key]
            assert status == "done"
            assert body == exported(result)
        # spec metrics came back for every row
        for row in payload["rows"]:
            assert set(row["metrics"]) == {"accel_cycles", "energy_uj"}


@pytest.mark.slow
def test_two_concurrent_clients_share_rows(tmp_path):
    """Overlapping sweeps from two clients: every duplicate row is
    executed once and both clients get identical, direct-equal data."""
    spec_a = SPEC
    spec_b = dict(SPEC, systems=["SHARED", "SCRATCH"])
    daemon = Daemon(tmp_path, batch=2)
    payloads = {}
    errors = []

    def submit_and_wait(name, spec):
        try:
            with daemon.client() as client:
                job_id = client.submit(spec, client=name)
                client.wait(job_id, timeout=300)
                payloads[name] = client.fetch(job_id)
        except Exception as exc:  # surfaced after join
            errors.append((name, exc))

    try:
        daemon.wait_ready()
        threads = [
            threading.Thread(target=submit_and_wait, args=("a", spec_a)),
            threading.Thread(target=submit_and_wait, args=("b", spec_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        daemon.stop()
    assert not errors, errors

    golden = direct_results(spec_a, tmp_path / "direct-cache")
    golden.update(direct_results(spec_b, tmp_path / "direct-cache"))
    store = ExperimentStore(daemon.store_path)
    try:
        counts = store.counts()
        # 3 systems x 2 benchmarks x 2 leases unique points — the
        # 4 overlapping (SHARED) rows were shared, not duplicated.
        assert sum(counts.values()) == 12
        assert counts["done"] == 12
    finally:
        store.close()
    for name, spec in (("a", spec_a), ("b", spec_b)):
        rows = fetch_by_key(payloads[name])
        for key, _point, _request in jobs_mod.spec_points(spec):
            status, body = rows[key]
            assert status == "done"
            assert body == exported(golden[key])


@pytest.mark.slow
def test_kill9_mid_grid_resumes_on_restart(tmp_path):
    """The acceptance drill: SIGKILL the daemon mid-grid; a restarted
    daemon resumes the half-finished grid from the durable store and
    the completed job matches the direct engine bit for bit."""
    golden = direct_results(SPEC, tmp_path / "direct-cache")
    first = Daemon(tmp_path, batch=1)
    job_id = None
    try:
        with first.client() as client:
            job_id = client.submit(SPEC, client="pytest-kill9")
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                counts = client.status(job_id)
                if 0 < counts["done"] < counts["total"]:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("grid finished too fast to kill")
    finally:
        first.kill9()

    # The store survived with a half-finished grid (possibly rows
    # still marked claimed by the dead daemon).
    store = ExperimentStore(first.store_path)
    try:
        before = store.counts()
    finally:
        store.close()
    assert 0 < before["done"] < 8
    assert before["pending"] + before["claimed"] > 0

    second = Daemon(tmp_path, batch=1)
    try:
        with second.client() as client:
            counts = client.wait(job_id, timeout=300)
            assert counts["done"] == counts["total"] == 8
            payload = client.fetch(job_id)
            events = client.events(count=50)
    finally:
        second.stop()
    rows = fetch_by_key(payload)
    for key, result in golden.items():
        status, body = rows[key]
        assert status == "done"
        assert body == exported(result)
    # The restart is visible in the durable event journal.
    assert sum(1 for e in events if e["event"] == "started") >= 2
