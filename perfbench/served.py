"""The served run: a real ``repro serve`` subprocess driven in a closed loop.

One client connection sends the workload's ops back to back, each
after the previous reply is fully decoded (every ``ServiceClient``
caller waits for its reply, so a closed loop is the faithful model).
serve-churn adds a second connection that holds one standing
subscription and is drained after every update.  Answer checks run
between ops with the clock stopped, so they never count as latency or
as measured time.  The first ``WARMUP_SECONDS`` of ops are sent and
checked but not timed: a fresh interpreter runs the first few seconds
of searches measurably slower, and that share would otherwise vary
with how many ops a run gets through.
"""

from __future__ import annotations

import math
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.graph.builder import GraphBuilder
from repro.graph.io import saves_graph
from repro.service.catalog import GraphCatalog
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)

from check import Checker
from inputs import Workload

#: Full set-up cycles per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Ops sent before the measured window opens (not part of ``--seconds``).
WARMUP_SECONDS = 2.0
SERVER_START_TIMEOUT = 60.0


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class ServerProcess:
    """``python -m repro serve`` over one catalog root, default flags."""

    def __init__(self, src: Path, catalog: Path, log_path: Path) -> None:
        self.src = src
        self.catalog = catalog
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--root", str(self.catalog), "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, env=env,
                cwd=str(self.catalog.parent),
            )
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("server did not report its port in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited before serving (see {self.log_path.name})"
                )
            line += chunk
        # "serving catalog <root> on <host>:<port>"
        return int(line.split(b"\n")[0].rsplit(b":", 1)[1])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self, client: Optional[ServiceClient] = None) -> None:
        if self.proc is None:
            return
        try:
            if client is not None and self.proc.poll() is None:
                try:
                    client.shutdown()
                except ServiceError:
                    pass
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15.0)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None


def _probe_query(wl: Workload) -> str:
    """A one-edge query on the workload's graph: forces the engine load."""
    u, v = next(iter(wl.graph.edges()))
    builder = GraphBuilder()
    builder.add_vertices([wl.graph.label(u), wl.graph.label(v)])
    builder.add_edge(0, 1)
    return saves_graph(builder.build())


@dataclass
class ServedRun:
    setup_seconds: List[float] = field(default_factory=list)
    #: per op sent: (kind, latency ms, measured seconds when it ended)
    timeline: List[Tuple[str, float, float]] = field(default_factory=list)
    #: per served query op index: (latency_s, server_s, queue_s, cache)
    queries: Dict[int, tuple] = field(default_factory=dict)
    measured_seconds: float = 0.0
    warmup_ops: int = 0
    ops_sent: int = 0
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    refusals: Dict[str, int] = field(default_factory=dict)
    subscriber_disconnects: int = 0
    qcache_hits: int = 0
    qcache_misses: int = 0
    server_hwm_kb: int = 0
    catalog_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def update_ms(self) -> List[float]:
        return [lat for kind, lat, _end in self.timeline if kind == "update"]

    def bump(self, kind: str, outcome: str) -> None:
        per = self.counts.setdefault(
            kind, {"attempted": 0, "served": 0, "refused": 0, "errored": 0}
        )
        per["attempted"] += 1
        per[outcome] += 1


def _setup(wl: Workload, src: Path, work: Path, run: ServedRun):
    """Catalog add + server start + first engine load, ``SETUP_REPEATS``
    times; returns the last (live) server and its client."""
    probe = _probe_query(wl)
    for k in range(SETUP_REPEATS):
        client = None
        catalog = work / f"catalog-{k}"
        shutil.rmtree(catalog, ignore_errors=True)
        started = time.perf_counter()
        GraphCatalog(catalog).add(wl.data_name, wl.graph)
        server = ServerProcess(src, catalog, work / "server.log")
        try:
            port = server.start()
            client = ServiceClient(port=port)
            client.query(probe, wl.data_name, limit=1, count_only=True,
                         cache=False)
        except BaseException:
            server.stop(client)
            raise
        run.setup_seconds.append(time.perf_counter() - started)
        if k < SETUP_REPEATS - 1:
            server.stop(client)
            client.close()
            shutil.rmtree(catalog, ignore_errors=True)
    return server, client, port


def serve(wl: Workload, seconds: float, src: Path, work: Path,
          checker: Checker) -> ServedRun:
    run = ServedRun()
    server, client, port = _setup(wl, src, work, run)
    sub_client = None
    try:
        if wl.subscription is not None:
            sub_client = ServiceClient(port=port)
            reply = sub_client.subscribe(wl.subscription, wl.data_name)
            checker.subscribed(reply)
        run.warmup_ops = _drive(wl, WARMUP_SECONDS, client, sub_client,
                                checker, run, timed=False)
        before = client.stats()
        run.ops_sent = _drive(wl, seconds, client, sub_client, checker, run,
                              start=run.warmup_ops)
        after = client.stats()
        run.qcache_hits = after["qcache"]["hits"] - before["qcache"]["hits"]
        run.qcache_misses = (
            after["qcache"]["misses"] - before["qcache"]["misses"]
        )
        run.catalog_counters = dict(after["catalog"])
        run.server_hwm_kb = _status_kb(server.pid, "VmHWM")
    finally:
        if sub_client is not None:
            sub_client.close()
        server.stop(client)
        client.close()
    return run


def _drive(wl: Workload, seconds: float, client: ServiceClient,
           sub_client: Optional[ServiceClient], checker: Checker,
           run: ServedRun, start: int = 0, timed: bool = True) -> int:
    """Send ops from index ``start`` until ``seconds`` of op time have
    passed; returns the index after the last op sent.  Untimed ops
    (the warm-up) are counted and checked but leave no timings."""
    limits = dict(limit=wl.limit, count_only=wl.count_only)
    cyclic = wl.cyclic
    measured = 0.0
    i = start
    while measured < seconds:
        if i == len(wl.ops) and not cyclic:
            raise RuntimeError(
                f"{wl.name}: the {len(wl.ops)}-op stream ran out before the "
                f"run ended; lengthen it"
            )
        op = wl.ops[i % len(wl.ops)]
        reply = None
        outcome = "served"
        started = time.perf_counter()
        try:
            if op.kind == "query":
                reply = client.query(op.text, wl.data_name, **limits)
            else:
                reply = client.update(wl.data_name, op.delta)
        except ServiceOverloaded as exc:
            outcome = "refused"
            reason = exc.reason or "unknown"
            run.refusals[reason] = run.refusals.get(reason, 0) + 1
        except ServiceUnavailable:
            raise  # the connection is gone: no later op can be served
        except ServiceError:
            outcome = "errored"
        finished = time.perf_counter()
        event = None
        if op.kind == "update" and reply is not None and sub_client is not None:
            try:
                event = sub_client.next_event(timeout=60.0)
            except (ServiceError, OSError):
                run.subscriber_disconnects += 1
                event = None
            if event is not None and event.get("event") != "delta":
                run.subscriber_disconnects += 1
        drained = time.perf_counter()
        measured += drained - started
        run.bump(op.kind, outcome)
        # A failed op misses every latency limit.
        latency = finished - started if reply is not None else math.inf
        if timed:
            run.timeline.append((op.kind, latency * 1e3, measured))
            if op.kind == "query" and reply is not None:
                run.queries[i] = (
                    latency, reply.server_seconds, reply.queue_seconds,
                    reply.cache,
                )
        # Checks run with the clock stopped.
        checker.observe(i, op, reply, event)
        i += 1
    if timed:
        run.measured_seconds = measured
    return i
