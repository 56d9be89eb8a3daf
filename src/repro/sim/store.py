"""Durable experiment store: one SQLite row per requested run.

The engine's disk cache answers "have we computed this exact point with
this exact code?"; the store answers the *operational* questions a
long-lived service needs: what was asked for, by whom, what state is it
in, who is working on it, what went wrong, and what produced the result
(py_experimenter-style keyfield/status/error columns).

Layout (``<cache root>/store.db`` by default):

* ``runs`` — one row per unique grid point (the :func:`jobs.run_key`
  content hash of its canonical point JSON).  ``status`` walks
  ``pending -> claimed -> done | failed``; ``owner``/``claim_expires``
  implement leases; ``code_fingerprint``/``config_fingerprint`` record
  provenance at completion; ``error``/``attempts`` are the error
  columns; ``result`` holds the pickled :class:`RunResult` (or
  :class:`FailedResult`) so a fetch never depends on the volatile
  result cache.
* ``jobs`` / ``job_runs`` — one submission (a serializable sweep spec)
  and its ordered mapping onto run rows.  Overlapping submissions
  *share* rows: a point another job already finished is served done.
* ``events`` — an append-only journal (service lifecycle plus engine
  recovery events bridged from :class:`EngineJournal.on_record`).

Claiming is compare-and-swap: ``UPDATE ... WHERE status='pending' OR
(claimed AND lease expired)`` under ``BEGIN IMMEDIATE``, so two workers
(threads, processes, or daemons on a shared filesystem) can never both
own a row inside one lease window.  A daemon killed ``-9`` leaves its
rows ``claimed``; they return to ``pending`` on lease expiry, or
immediately when a restarting daemon sweeps rows whose owner pid (on
this host) is dead — that is what makes a half-finished grid resume.
"""

import json
import os
import pickle
import socket
import sqlite3
import threading
import time
import uuid

from ..common.errors import ConfigError
from . import jobs as jobs_mod

#: Bump on incompatible schema changes; the store recreates itself.
STORE_SCHEMA_VERSION = 1

#: Default seconds a claim is honoured before other workers may steal it.
DEFAULT_LEASE_S = 60.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE IF NOT EXISTS runs (
    key TEXT PRIMARY KEY,
    point TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'claimed', 'done', 'failed')),
    owner TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    created REAL NOT NULL,
    updated REAL NOT NULL,
    claim_expires REAL,
    code_fingerprint TEXT,
    config_fingerprint TEXT,
    error TEXT,
    result BLOB);
CREATE INDEX IF NOT EXISTS runs_status ON runs (status);
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    client TEXT,
    created REAL NOT NULL);
CREATE TABLE IF NOT EXISTS job_runs (
    job_id TEXT NOT NULL,
    position INTEGER NOT NULL,
    run_key TEXT NOT NULL,
    PRIMARY KEY (job_id, position));
CREATE INDEX IF NOT EXISTS job_runs_key ON job_runs (run_key);
CREATE TABLE IF NOT EXISTS events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    t REAL NOT NULL,
    source TEXT NOT NULL,
    event TEXT NOT NULL,
    detail TEXT);
"""


def default_owner():
    """``host:pid:nonce`` — liveness-checkable on the owning host."""
    return "{}:{}:{}".format(socket.gethostname(), os.getpid(),
                             uuid.uuid4().hex[:8])


def owner_pid_alive(owner):
    """Best-effort liveness of an owner string *on this host*.

    Returns ``None`` (unknown) for owners from other hosts or
    unparseable strings, else True/False for the pid.
    """
    parts = (owner or "").split(":")
    if len(parts) < 3 or parts[0] != socket.gethostname():
        return None
    try:
        pid = int(parts[1])
    except ValueError:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return None
    return True


class ExperimentStore:
    """SQLite-backed durable run table (thread- and process-safe).

    All access is serialized through one connection per instance plus
    an in-process lock; cross-process writers are serialized by SQLite
    itself (WAL + busy timeout + ``BEGIN IMMEDIATE`` claims).
    """

    def __init__(self, path, timeout=30.0):
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False,
            isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(STORE_SCHEMA_VERSION)))

    def close(self):
        with self._lock:
            self._conn.close()

    # -- submissions -------------------------------------------------------

    def submit(self, spec, client=None):
        """Register one sweep spec; returns ``(job_id, new_rows)``.

        Expands the spec to grid points, inserts missing run rows as
        ``pending`` and maps the job onto the (possibly pre-existing)
        rows in grid order.  Overlap with earlier jobs is free: rows
        already ``done`` are not re-run, rows in flight are shared.
        """
        spec = jobs_mod.normalize_spec(spec)
        job_id = uuid.uuid4().hex[:12]
        now = time.time()
        entries = list(jobs_mod.spec_points(spec))
        if not entries:
            raise ConfigError("job spec expands to an empty grid")
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO jobs (job_id, spec, client, created) "
                    "VALUES (?, ?, ?, ?)",
                    (job_id, json.dumps(spec, sort_keys=True),
                     client, now))
                new_rows = 0
                for position, (key, point, _request) in \
                        enumerate(entries):
                    cursor = self._conn.execute(
                        "INSERT OR IGNORE INTO runs "
                        "(key, point, status, created, updated) "
                        "VALUES (?, ?, 'pending', ?, ?)",
                        (key, json.dumps(point, sort_keys=True),
                         now, now))
                    new_rows += cursor.rowcount
                    self._conn.execute(
                        "INSERT INTO job_runs (job_id, position, "
                        "run_key) VALUES (?, ?, ?)",
                        (job_id, position, key))
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        self.record_event("store", "job_submitted", job_id=job_id,
                          rows=len(entries), new_rows=new_rows,
                          client=client)
        return job_id, new_rows

    # -- worker protocol ---------------------------------------------------

    def claim(self, owner, limit=1, lease_s=DEFAULT_LEASE_S):
        """Atomically claim up to ``limit`` runnable rows for ``owner``.

        Compare-and-swap under ``BEGIN IMMEDIATE``: a row is runnable
        when ``pending``, or ``claimed`` with an expired lease (its
        worker died mid-run).  Returns the claimed rows as
        ``(key, point_dict)`` pairs; attempts are incremented here so
        abandoned claims are visible in the error columns.  A runnable
        row whose point is not a JSON object is marked ``failed`` with a
        ``malformed point`` error instead of being claimed.
        """
        now = time.time()
        claimed = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                rows = self._conn.execute(
                    "SELECT key, point FROM runs WHERE "
                    "status = 'pending' OR "
                    "(status = 'claimed' AND claim_expires < ?) "
                    "ORDER BY created LIMIT ?", (now, limit)).fetchall()
                for row in rows:
                    try:
                        point = json.loads(row["point"])
                        if not isinstance(point, dict):
                            raise ValueError("not an object")
                    except (ValueError, RecursionError) as exc:
                        self._conn.execute(
                            "UPDATE runs SET status = 'failed', "
                            "updated = ?, claim_expires = NULL, "
                            "error = ? WHERE key = ?",
                            (now, "malformed point: {!r}".format(exc),
                             row["key"]))
                        continue
                    cursor = self._conn.execute(
                        "UPDATE runs SET status = 'claimed', "
                        "owner = ?, attempts = attempts + 1, "
                        "updated = ?, claim_expires = ? "
                        "WHERE key = ? AND (status = 'pending' OR "
                        "(status = 'claimed' AND claim_expires < ?))",
                        (owner, now, now + lease_s, row["key"], now))
                    if cursor.rowcount:
                        claimed.append((row["key"], point))
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return claimed

    def renew(self, keys, owner, lease_s=DEFAULT_LEASE_S):
        """Extend the lease on rows ``owner`` still holds."""
        now = time.time()
        with self._lock:
            for key in keys:
                self._conn.execute(
                    "UPDATE runs SET claim_expires = ?, updated = ? "
                    "WHERE key = ? AND owner = ? AND status = 'claimed'",
                    (now + lease_s, now, key, owner))

    def complete(self, key, result, code_fingerprint=None,
                 config_fingerprint=None):
        """Mark one row ``done`` with its pickled result + provenance."""
        now = time.time()
        with self._lock:
            self._conn.execute(
                "UPDATE runs SET status = 'done', updated = ?, "
                "claim_expires = NULL, error = NULL, result = ?, "
                "code_fingerprint = ?, config_fingerprint = ? "
                "WHERE key = ?",
                (now, pickle.dumps(result, pickle.HIGHEST_PROTOCOL),
                 code_fingerprint, config_fingerprint, key))

    def fail(self, key, error, code_fingerprint=None):
        """Mark one row ``failed`` with its error column filled in."""
        now = time.time()
        with self._lock:
            self._conn.execute(
                "UPDATE runs SET status = 'failed', updated = ?, "
                "claim_expires = NULL, error = ?, "
                "code_fingerprint = ? WHERE key = ?",
                (now, str(error)[:2000], code_fingerprint, key))

    def release(self, keys, owner=None):
        """Return claimed rows to ``pending`` (crashed/abandoned work)."""
        now = time.time()
        with self._lock:
            for key in keys:
                if owner is None:
                    self._conn.execute(
                        "UPDATE runs SET status = 'pending', "
                        "owner = NULL, claim_expires = NULL, "
                        "updated = ? WHERE key = ? AND "
                        "status = 'claimed'", (now, key))
                else:
                    self._conn.execute(
                        "UPDATE runs SET status = 'pending', "
                        "owner = NULL, claim_expires = NULL, "
                        "updated = ? WHERE key = ? AND owner = ? AND "
                        "status = 'claimed'", (now, key, owner))

    def recover_dead_owners(self):
        """Startup sweep: re-queue rows whose owner is a dead local pid.

        Lease expiry alone would also recover them — this just skips
        the wait when the previous daemon on *this* host was killed.
        Returns the number of rows released.
        """
        released = 0
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, owner FROM runs WHERE status = 'claimed'"
            ).fetchall()
        for row in rows:
            if owner_pid_alive(row["owner"]) is False:
                self.release([row["key"]])
                released += 1
        if released:
            self.record_event("store", "dead_owner_recovery",
                              released=released)
        return released

    # -- queries -----------------------------------------------------------

    def job_spec(self, job_id):
        with self._lock:
            row = self._conn.execute(
                "SELECT spec FROM jobs WHERE job_id = ?",
                (job_id,)).fetchone()
        if row is None:
            raise KeyError("unknown job {!r}".format(job_id))
        return json.loads(row["spec"])

    def job_status(self, job_id):
        """``{status: count}`` plus totals for one job."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT r.status AS status, COUNT(*) AS n "
                "FROM job_runs j JOIN runs r ON r.key = j.run_key "
                "WHERE j.job_id = ? GROUP BY r.status",
                (job_id,)).fetchall()
        if not rows:
            raise KeyError("unknown job {!r}".format(job_id))
        counts = {status: 0 for status in
                  ("pending", "claimed", "done", "failed")}
        for row in rows:
            counts[row["status"]] = row["n"]
        total = sum(counts.values())
        counts["total"] = total
        counts["finished"] = counts["done"] + counts["failed"]
        return counts

    def job_rows(self, job_id):
        """Ordered full rows for one job (results still pickled)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT j.position AS position, r.* "
                "FROM job_runs j JOIN runs r ON r.key = j.run_key "
                "WHERE j.job_id = ? ORDER BY j.position",
                (job_id,)).fetchall()
        if not rows:
            raise KeyError("unknown job {!r}".format(job_id))
        return rows

    def job_results(self, job_id):
        """``[(position, point, status, result_or_None, error)]``."""
        out = []
        for row in self.job_rows(job_id):
            result = (pickle.loads(row["result"])
                      if row["result"] is not None else None)
            out.append((row["position"], json.loads(row["point"]),
                        row["status"], result, row["error"]))
        return out

    def counts(self):
        """Store-wide ``{status: count}``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM runs "
                "GROUP BY status").fetchall()
        counts = {status: 0 for status in
                  ("pending", "claimed", "done", "failed")}
        for row in rows:
            counts[row["status"]] = row["n"]
        return counts

    # -- events (journal bridge) -------------------------------------------

    def record_event(self, source, event, **detail):
        """Append one event row (engine-journal bridge + lifecycle)."""
        payload = json.dumps(detail, default=str) if detail else None
        with self._lock:
            self._conn.execute(
                "INSERT INTO events (t, source, event, detail) "
                "VALUES (?, ?, ?, ?)",
                (time.time(), source, event, payload))

    def events_tail(self, count=20):
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM events ORDER BY seq DESC LIMIT ?",
                (count,)).fetchall()
        return [dict(row) for row in reversed(rows)]


def default_store_path(cache_root=None):
    """``<cache root>/store.db`` (the engine cache's root by default)."""
    if cache_root is None:
        from .engine import get_engine
        cache_root = get_engine().cache.root
    return os.path.join(str(cache_root), "store.db")
