#!/usr/bin/env python3
"""Served GuP benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hits --seed 1 --seconds 30 --trace 0

Writes a fresh on-disk catalog, starts ``python -m repro serve`` with
default flags, drives the workload's seeded op stream from one client
in a closed loop for a short untimed warm-up and then ``--seconds`` of
measured time, and checks every answer.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
also replays the identical op stream in-process, timing each layer,
and prints the per-layer metrics.  The last stdout line is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a human
table goes to stderr.  Run records, Chrome traces and layer tables go
to ``.perfbench/runs/<workload>-seed<n>/``.  The exit code is 1 when
any answer was wrong, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def declared_metrics():
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


PROBE_ITERATIONS = 500_000
#: Queries per block.  Query latency and throughput are computed per
#: block of consecutive queries and reported as the median over blocks,
#: so a stall of the shared box during part of a run moves one block,
#: not the result.  400 keeps at least 20 samples beyond each block's
#: 95th percentile; a run with fewer than two blocks' worth is one block.
BLOCK_QUERIES = 400


def probe_loop() -> float:
    """Seconds for a fixed pure-Python loop: a box-speed diagnostic only."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile; failed ops carry ``inf`` latency."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def blocks(timeline, measured_seconds: float):
    """Split a run into blocks of ``BLOCK_QUERIES`` consecutive queries.

    Returns ``(query latencies ms, measured seconds)`` per block; the
    remainder joins the last block, and ops other than queries count
    toward the time of the block they fall in.
    """
    queries = sum(1 for kind, _lat, _end in timeline if kind == "query")
    count = max(1, queries // BLOCK_QUERIES)
    out = []
    latencies: list = []
    start = 0.0
    for kind, latency, end in timeline:
        if kind != "query":
            continue
        latencies.append(latency)
        if len(latencies) == BLOCK_QUERIES and len(out) < count - 1:
            out.append((latencies, end - start))
            latencies, start = [], end
    out.append((latencies, measured_seconds - start))
    return out


def _ms(value: float, fallback_ms: float) -> float:
    # A failed op misses every latency limit: where it decides the
    # percentile, report the whole measured window instead of infinity.
    return value if math.isfinite(value) else fallback_ms


def served_metrics(run, failed: int) -> dict:
    """Every metric read off the served run itself."""
    window_ms = run.measured_seconds * 1e3
    spans = blocks(run.timeline, run.measured_seconds)
    replies = run.queries.values()
    lookups = run.qcache_hits + run.qcache_misses
    return {
        "query_p50_ms": _ms(statistics.median(
            statistics.median(lat) for lat, _secs in spans
        ), window_ms),
        "query_p95_ms": _ms(statistics.median(
            percentile(lat, 95) for lat, _secs in spans
        ), window_ms),
        "throughput_qps": statistics.median(
            sum(map(math.isfinite, lat)) / secs for lat, secs in spans
        ),
        "setup_s": statistics.median(run.setup_seconds),
        "server_rss_mb": run.server_hwm_kb / 1024.0,
        "wire_ms": statistics.median(
            [(lat - server_s) * 1e3 for lat, server_s, _q, _c in replies]
            or [0.0]
        ),
        "server.exec_ms": statistics.median(
            [(server_s - queue_s) * 1e3 for _l, server_s, queue_s, _c
             in replies] or [0.0]
        ),
        "qcache.hit_ratio": run.qcache_hits / lookups if lookups else 0.0,
        "update_p50_ms": _ms(
            statistics.median(run.update_ms) if run.update_ms else 0.0,
            window_ms,
        ),
        "update_p95_ms": _ms(percentile(run.update_ms, 95), window_ms),
        "error_rate": failed / run.ops_sent,
    }


def input_record(wl, run) -> dict:
    """Digests, repeat share and working set of the served op stream."""
    queries = 0
    repeats = 0
    seen = set()
    for i in range(run.ops_sent):
        op = wl.ops[i % len(wl.ops)]
        if op.kind == "query":
            queries += 1
            repeats += op.base in seen
            seen.add(op.base)
    return {
        "stream_digest_generated": wl.stream_digest(),
        "stream_digest_served": wl.stream_digest(run.ops_sent),
        "ops_served": run.ops_sent,
        "distinct_queries_in_stream": len(wl.bases),
        "distinct_queries_served": len(seen),
        # Capped count-only results are never cached.
        "cacheable_working_set": (
            sum(1 for _count, status in wl.references if status == "complete")
            if wl.count_only else len(wl.bases)
        ),
        "repeat_share": repeats / max(1, queries),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test ({SRC / 'repro'}) is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from check import Checker
    from inputs import QCACHE_ENTRIES, WORKLOADS, make_workload
    from served import serve

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(f"[perfbench] {message}", file=sys.stderr, flush=True)

    run_name = f"{args.workload}-seed{args.seed}"
    work = OUT / "work" / f"{run_name}-{os.getpid()}"
    out_dir = OUT / "runs" / run_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = round(now - clock, 3)
        clock = now

    try:
        wl = make_workload(args.workload, args.seed, ROOT, OUT / "cache", log)
        checker = Checker(wl)
        phase("inputs")
        probe_before = probe_loop()
        run = serve(wl, args.seconds, SRC, work, checker)
        probe_after = probe_loop()
        phase("served")
        checker.finish(run.catalog_counters)
        phase("deferred_checks")
        replayed = None
        if args.trace:
            from replay import Tracer, replay, write_outputs

            tracer = Tracer()
            replayed = replay(wl, run, work, tracer)
            write_outputs(out_dir, tracer, replayed["table"], wl.name)
            phase("replay")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    refused = sum(c["refused"] for c in run.counts.values())
    errored = sum(c["errored"] for c in run.counts.values())
    failed = refused + errored + checker.wrong_total + run.subscriber_disconnects
    measured = served_metrics(run, failed)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "served": measured,
        "replay": replayed and {
            "metrics": replayed["metrics"],
            "diagnostics": replayed["diagnostics"],
        },
        "blocks": len(blocks(run.timeline, run.measured_seconds)),
        "probe_loop_seconds": {"before": probe_before, "after": probe_after},
        "phase_seconds": phases,
        "setup_seconds": run.setup_seconds,
        "measured_seconds": run.measured_seconds,
        "warmup_ops": run.warmup_ops,
        "ops": {
            "attempted": run.ops_sent,
            "per_kind": run.counts,
            "refused_by_reason": run.refusals,
            "wrong_answers": checker.wrong,
            "subscriber_disconnects": run.subscriber_disconnects,
            "failed": failed,
        },
        "problems": checker.problems,
        "inputs": dict(input_record(wl, run), qcache_entries=QCACHE_ENTRIES),
        "catalog_counters": run.catalog_counters,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.json").write_text(json.dumps(record, indent=1))

    end_to_end_units, per_layer_units = declared_metrics()
    metrics = dict(measured, **(replayed["metrics"] if replayed else {}))
    for name, unit in dict(end_to_end_units, **per_layer_units).items():
        if name in metrics:
            log(f"{name:28} {metrics[name]:12.4f} {unit}")
    units = per_layer_units if args.trace else end_to_end_units
    log(f"ops {run.ops_sent}: {json.dumps(run.counts)} refused "
        f"{json.dumps(run.refusals)} wrong {json.dumps(checker.wrong)} "
        f"subscriber disconnects {run.subscriber_disconnects}; error_rate "
        f"{measured['error_rate']:.4f}")
    log(f"probe loop {probe_before:.3f} s before, {probe_after:.3f} s after; "
        f"phases {json.dumps(phases)}")
    for problem in checker.problems:
        log(f"WRONG: {problem}")
    correct = checker.wrong_total == 0 and run.subscriber_disconnects == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.ops_sent,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
