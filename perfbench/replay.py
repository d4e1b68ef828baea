"""The traced replay: the served op stream again, in-process, layer by layer.

Each op is one request (trace id ``<workload>-<op index>``) with a
root span and one child span per call into a layer's public function,
timed here rather than inside the program.  The calls mirror the
server's query path (``MatchingServer._execute``) and update path
(``_op_update``): parse, cache lookup, engine resolve, GCS build,
guarded search, cache store; catalog update,
label invalidation, subscriber diff.  Spans stay in memory and are
written once, as Chrome trace-event JSON, when the replay ends.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.dynamic.continuous import embedding_diff
from repro.graph.io import loads_graph
from repro.obs.spans import build_chrome_trace
from repro.service.catalog import GraphCatalog
from repro.service.qcache import DEFAULT_LEAF_BUDGET, QueryCache

from inputs import QCACHE_ENTRIES, Workload
from served import ServedRun

#: Evenly spaced misses that also time a ``workers=2`` search, the
#: reading of the procpool layer.  No workload serves ``workers>1``
#: (see README), so this span is off the served path.
PROCPOOL_SAMPLES = 16

# Layer spans that run inside the server's ``server_seconds`` window.
SERVER_LAYERS = ("qcache.lookup", "catalog.engine_ex", "gcs.build",
                 "search", "qcache.store")


class Tracer:
    """In-memory span recorder (``repro trace`` record shape)."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, trace: str, parent: Optional[str] = None):
        span_id = f"{next(self._ids):x}"
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self.records.append({
                "name": name, "span": span_id, "parent": parent,
                "trace": trace, "t0": started,
                "dur": time.perf_counter() - started, "pid": self._pid,
            })


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def replay(wl: Workload, served: ServedRun, work: Path,
           tracer: Tracer) -> Dict[str, object]:
    catalog = GraphCatalog(work / "replay-catalog")
    catalog.add(wl.data_name, wl.graph)
    cache = QueryCache(
        max_entries=QCACHE_ENTRIES, leaf_budget=DEFAULT_LEAF_BUDGET,
        cap_serving=not catalog.config.break_symmetry,
    )
    limits = wl.limits()
    name = wl.data_name
    sub_matches = None
    if wl.subscription is not None:
        engine = catalog.engine(name)
        sub_matches = {
            tuple(e) for e in engine.match(wl.subscription).embeddings
        }
    served_misses = sum(1 for q in served.queries.values() if q[3] == "miss")
    sample_every = max(1, math.ceil(served_misses / PROCPOOL_SAMPLES))

    per_op: Dict[int, Dict[str, float]] = {}
    search_stats = []
    evicted: List[Tuple[int, int]] = []
    cache_disagreements = 0
    misses = 0
    for i in range(served.ops_sent):
        op = wl.ops[i % len(wl.ops)]
        trace = f"{wl.name}-{i}"
        first = len(tracer.records)
        with tracer.span(f"replay.{op.kind}", trace) as root:
            def span(layer):
                return tracer.span(layer, trace, root)
            if op.kind == "query":
                with span("graph_io.loads_graph"):
                    query = loads_graph(op.text)
                with span("qcache.lookup"):
                    cached, form = cache.lookup(query, limits)
                if cached is None:
                    with span("catalog.engine_ex"):
                        engine, _, _ = catalog.engine_ex(name)
                    with span("gcs.build"):
                        gcs = engine.build(query)
                    with span("search"):
                        result = engine.match(query, limits, gcs=gcs)
                    search_stats.append((i, result.stats))
                    if i in served.queries:  # a timed miss
                        if misses % sample_every == 0:
                            with span("procpool"):
                                engine.match(query, limits, gcs=gcs,
                                             workers=2)
                        misses += 1
                    with span("qcache.store"):
                        cache.store(form, limits, result)
                if i in served.queries and (
                    (served.queries[i][3] == "hit") != (cached is not None)
                ):
                    cache_disagreements += 1
            else:
                with span("catalog.update"):
                    _, summary = catalog.update(name, op.delta)
                with span("qcache.invalidate_labels"):
                    _, dropped = cache.invalidate_labels(
                        summary.touched_labels
                    )
                evicted.append((i, dropped))
                if sub_matches is not None:
                    with span("catalog.engine_ex"):
                        engine, _, _ = catalog.engine_ex(name)
                    with span("subscription.embedding_diff"):
                        diff = embedding_diff(
                            engine, wl.subscription, sub_matches, summary
                        )
                    sub_matches.difference_update(diff.removed)
                    sub_matches.update(diff.added)
        layers: Dict[str, float] = {}
        for record in tracer.records[first:]:
            if record["parent"] is not None:
                layers[record["name"]] = (
                    layers.get(record["name"], 0.0) + record["dur"]
                )
        per_op[i] = layers
    # The warm-up ops are replayed, so the cache sees the served
    # sequence, but only the timed ops are read, as in the served run.
    timed = range(served.warmup_ops, served.ops_sent)
    return _summarize(
        served, {i: per_op[i] for i in timed},
        [stats for i, stats in search_stats if i in timed],
        [dropped for i, dropped in evicted if i in timed],
        cache_disagreements,
    )


def _summarize(served, per_op, search_stats, evicted, cache_disagreements):
    def calls(layer: str) -> List[float]:
        return [layers[layer] for layers in per_op.values() if layer in layers]

    unattributed = []
    for i, (_lat, server_s, _queue, _cache) in served.queries.items():
        layers = per_op.get(i, {})
        explained = sum(layers.get(name, 0.0) for name in SERVER_LAYERS)
        unattributed.append(server_s - explained)
    pool_overhead = [
        layers["procpool"] - layers["search"]
        for layers in per_op.values() if "procpool" in layers
    ]
    recursions = sum(s.recursions for s in search_stats)
    futile = sum(s.futile_recursions for s in search_stats)

    def median_count(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    metrics = {
        "graph_io.parse_ms": _median_ms(calls("graph_io.loads_graph")),
        "qcache.lookup_ms": _median_ms(calls("qcache.lookup")),
        "qcache.store_ms": _median_ms(calls("qcache.store")),
        "qcache.invalidate_ms": _median_ms(calls("qcache.invalidate_labels")),
        "qcache.evicted_per_update": median_count(evicted),
        "catalog.resolve_ms": _median_ms(calls("catalog.engine_ex")),
        "catalog.update_ms": _median_ms(calls("catalog.update")),
        "subscription.diff_ms": _median_ms(
            calls("subscription.embedding_diff")
        ),
        "gcs.build_ms": _median_ms(calls("gcs.build")),
        "search.ms": _median_ms(calls("search")),
        "search.recursions": median_count(s.recursions for s in search_stats),
        "search.futile_ratio": futile / recursions if recursions else 0.0,
        "search.guard_prunes": median_count(
            s.pruned_reservation + s.pruned_nogood_vertex
            + s.pruned_nogood_edge for s in search_stats
        ),
        "search.backjumps": median_count(s.backjumps for s in search_stats),
        "procpool.ms": _median_ms(calls("procpool")),
        "procpool.overhead_ms": _median_ms(pool_overhead),
        "unattributed_ms": _median_ms(unattributed),
    }
    table = _layer_table(per_op, served, unattributed)
    diagnostics = {
        "replayed_ops": len(per_op),
        # Ops whose hit/miss differs from the served run's: the replay
        # then timed a different path than the server took.
        "cache_disagreements": cache_disagreements,
    }
    return {"metrics": metrics, "table": table, "diagnostics": diagnostics}


def _layer_table(per_op, served, unattributed) -> List[Dict[str, object]]:
    """Per layer: calls, median and total ms, share of all served latency."""
    served_total = (
        sum(q[0] for q in served.queries.values())
        + sum(served.update_ms) / 1e3
    )
    wire = [lat - server_s for lat, server_s, _q, _c in served.queries.values()]
    columns: Dict[str, List[float]] = {"wire (served)": wire}
    for layers in per_op.values():
        for layer, seconds in layers.items():
            columns.setdefault(layer, []).append(seconds)
    columns["unattributed"] = unattributed
    rows = []
    for layer, values in columns.items():
        total = sum(values)
        rows.append({
            "layer": layer,
            "calls": len(values),
            "median_ms": round(_median_ms(values), 4),
            "total_ms": round(total * 1e3, 2),
            "share_of_served_latency": (
                round(total / served_total, 4) if served_total else 0.0
            ),
        })
    return rows


def write_outputs(out_dir: Path, tracer: Tracer, table, workload: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.json").write_text(
        json.dumps(build_chrome_trace(tracer.records))
    )
    (out_dir / "layers.json").write_text(json.dumps(
        {"workload": workload, "layers": table}, indent=1
    ))
    lines = [f"{'layer':34} {'calls':>7} {'median_ms':>10} {'total_ms':>10} "
             f"{'share':>6}"]
    for row in table:
        lines.append(
            f"{row['layer']:34} {row['calls']:7d} {row['median_ms']:10.3f} "
            f"{row['total_ms']:10.1f} "
            f"{row['share_of_served_latency']:6.3f}"
        )
    (out_dir / "layers.txt").write_text("\n".join(lines) + "\n")
