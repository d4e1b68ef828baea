"""Seeded inputs for the served GuP benchmark.

Every workload is a fixed data graph (a stand-in from
``repro.workload.datasets`` at scale 1.0) plus an op stream that is a
pure function of the ``--seed`` argument.  The server only ever sees
the generated request payloads.

Mined hard queries are expensive to produce (each candidate is probed
with a budgeted baseline search), so one master pool is mined from a
fixed mining seed the first time any workload runs in a checkout and
cached under ``.perfbench/cache``.  Its cache key covers the pool
parameters and a digest of ``src/repro``, so a code change re-mines
and re-derives every cached reference.  cold-search uses the fixed
mined set, serve-hits and serve-churn fixed base sets; the seed sets
order, draws, relabelings and edits.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import GuPEngine
from repro.dynamic.delta import GraphDelta
from repro.graph.graph import Graph
from repro.graph.io import loads_graph, saves_graph
from repro.matching.limits import SearchLimits
from repro.service.qcache import canonical_form
from repro.workload.datasets import load_dataset
from repro.workload.hardness import mine_hard_queries
from repro.workload.querygen import generate_query

#: Embedding cap of the count-only workloads (``BenchmarkScale.max_embeddings``).
COUNT_CAP = 10_000
#: Collected-embedding cap of the served read workloads.
COLLECT_LIMIT = 1_000
#: Default query-cache slots per data graph (``repro serve --cache-entries``).
QCACHE_ENTRIES = 256

POOL_VERSION = 2
MINE_SEED = 2023
HARD_SIZES = (16, 24, 32)
HARD_PER_SIZE = 110

HITS_BASES = 32  # per density
HITS_OPS = 8_000
CHURN_BASES = 48
#: Long enough for the fastest run seen (about 9,000 ops in 32 s) with
#: room to spare: the churn stream cannot wrap (see ``Workload.cyclic``).
CHURN_OPS = 30_000
CHURN_UPDATE_EVERY = 10
ZIPF_EXPONENT = 0.5

WORKLOADS = ("serve-hits", "cold-search", "serve-churn")


@dataclass
class Op:
    """One request of a stream.

    ``base`` indexes the workload's base queries; a query is sent as
    ``bases[base].relabeled(perm)`` when ``perm`` is set, so sent vertex
    ``i`` is base vertex ``perm[i]``.
    """

    kind: str  # "query" | "update"
    base: int = -1
    text: str = ""
    perm: Optional[Tuple[int, ...]] = None
    delta: Optional[GraphDelta] = None


@dataclass
class Workload:
    name: str
    data_name: str
    graph: Graph
    bases: List[Graph]
    ops: List[Op]
    limit: Optional[int]
    count_only: bool
    #: ``(num_embeddings, status)`` per base on the initial graph, for
    #: workloads whose graph never changes; ``None`` for serve-churn.
    references: Optional[List[Tuple[int, str]]] = None
    subscription: Optional[Graph] = None

    def limits(self) -> SearchLimits:
        return SearchLimits(
            max_embeddings=self.limit, collect=not self.count_only
        )

    @property
    def cyclic(self) -> bool:
        """Whether a run may wrap around the stream: only when it holds
        queries alone, since a replayed edit no longer applies."""
        return all(op.kind == "query" for op in self.ops)

    def stream_digest(self, count: Optional[int] = None) -> str:
        """sha256 over the first ``count`` ops (all when ``None``)."""
        digest = hashlib.sha256()
        ops = self.ops if count is None else self.ops[:count]
        for op in ops:
            if op.kind == "query":
                digest.update(b"q\0" + op.text.encode() + b"\0")
            else:
                d = op.delta
                digest.update(
                    f"u\0{d.remove_edges}\0{d.add_edges}\0".encode()
                )
        return digest.hexdigest()


def _zipf_weights(count: int, rng: random.Random) -> List[float]:
    """Zipf weights over ``count`` items, ranks assigned by ``rng``."""
    ranks = list(range(count))
    rng.shuffle(ranks)
    return [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]


def _distinct_queries(
    data: Graph, size: int, density: str, count: int,
    rng: random.Random, seen: set,
) -> List[Graph]:
    out: List[Graph] = []
    while len(out) < count:
        query = generate_query(data, size, density, seed=rng)
        key = canonical_form(query).key
        if key not in seen:
            seen.add(key)
            out.append(query)
    return out


def _count_reference(engine: GuPEngine, query: Graph, limits: SearchLimits):
    result = engine.match(query, limits)
    return result.num_embeddings, result.status.value


# -- master pool ------------------------------------------------------------


def source_digest(root: Path) -> str:
    """sha256 over every ``src/repro`` Python file (path and bytes)."""
    digest = hashlib.sha256()
    base = root / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _mine_pool(log) -> Dict[str, object]:
    data = load_dataset("wordnet")
    engine = GuPEngine(data)
    limits = SearchLimits(max_embeddings=COUNT_CAP, collect=False)
    seen: set = set()
    pool: Dict[str, object] = {"hard": {}}
    for size in HARD_SIZES:
        started = time.perf_counter()
        mined = mine_hard_queries(
            data, HARD_PER_SIZE + 24, size=size, density="sparse",
            seed=MINE_SEED + size, candidate_factor=2,
        )
        entries = []
        duplicates = 0
        for query in mined:
            key = canonical_form(query).key
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            count, status = _count_reference(engine, query, limits)
            entries.append(
                {"graph": saves_graph(query), "count": count, "status": status}
            )
            if len(entries) == HARD_PER_SIZE:
                break
        pool["hard"][str(size)] = entries
        log(f"mined {len(entries)} hard {size}-vertex queries "
            f"({duplicates} isomorphic duplicates dropped) in "
            f"{time.perf_counter() - started:.1f} s")
    return pool


def master_pool(root: Path, cache_dir: Path, log) -> Dict[str, object]:
    """The mined wordnet pool with count-only references (cached)."""
    params = {
        "version": POOL_VERSION, "seed": MINE_SEED, "sizes": HARD_SIZES,
        "per_size": HARD_PER_SIZE, "cap": COUNT_CAP,
        "src": source_digest(root),
    }
    key = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:20]
    path = cache_dir / f"pool-{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    cache_dir.mkdir(parents=True, exist_ok=True)
    pool = _mine_pool(log)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(pool))
    os.replace(tmp, path)
    return pool


def _pool_queries(entries: Sequence[Dict]) -> Tuple[List[Graph], List[Tuple[int, str]]]:
    graphs = [loads_graph(e["graph"]) for e in entries]
    return graphs, [(e["count"], e["status"]) for e in entries]


# -- workloads --------------------------------------------------------------


def _full_reply_queries(
    engine: GuPEngine, density: str, count: int, rng: random.Random,
    seen: set,
) -> Tuple[List[Graph], List[Tuple[int, str]]]:
    """Distinct 8-vertex queries whose replies fill the collect limit."""
    limits = SearchLimits(max_embeddings=COLLECT_LIMIT)
    queries: List[Graph] = []
    refs: List[Tuple[int, str]] = []
    while len(queries) < count:
        query = _distinct_queries(engine.data, 8, density, 1, rng, seen)[0]
        ref = _count_reference(engine, query, limits)
        if ref[0] == COLLECT_LIMIT:
            queries.append(query)
            refs.append(ref)
    return queries, refs


def serve_hits(seed: int) -> Workload:
    """64 base queries reissued with Zipf skew, freshly relabeled each time.

    Every base fills the 1,000-embedding reply, so a hit carries ~36 KB.
    As in the other workloads, the bases and their Zipf ranks are fixed
    (drawn from the mining seed), so the spread between seeds is not an
    effect of which bases were picked; the seed sets the draws and the
    relabelings.
    """
    data = load_dataset("wordnet")
    engine = GuPEngine(data)
    fixed = random.Random(MINE_SEED)
    seen: set = set()
    bases, refs = _full_reply_queries(
        engine, "sparse", HITS_BASES, fixed, seen
    )
    dense, dense_refs = _full_reply_queries(
        engine, "dense", HITS_BASES, fixed, seen
    )
    bases += dense
    refs += dense_refs
    weights = _zipf_weights(len(bases), fixed)
    rng = random.Random(seed)
    picks = rng.choices(range(len(bases)), weights=weights, k=HITS_OPS)
    ops = []
    for b in picks:
        perm = list(range(bases[b].num_vertices))
        rng.shuffle(perm)
        ops.append(Op(
            "query", base=b, perm=tuple(perm),
            text=saves_graph(bases[b].relabeled(perm)),
        ))
    return Workload(
        "serve-hits", "wordnet", data, bases, ops, limit=COLLECT_LIMIT,
        count_only=False, references=refs,
    )


def _cycle(bases: List[Graph], length: int) -> List[Op]:
    texts = [saves_graph(q) for q in bases]
    return [
        Op("query", base=i % len(bases), text=texts[i % len(bases)])
        for i in range(length)
    ]


def cold_search(seed: int, pool: Dict) -> Workload:
    """The whole mined hard set cycled in a fixed, seeded order.

    Capped count-only results are not cacheable, so what must exceed the
    256-entry qcache is the number of *complete* results: with more of
    them than slots, LRU evicts every entry before the cycle returns to
    it and every request misses, however many passes a run makes.  Seeds
    differ in order only, so the spread between seeds is not a sampling
    effect of the pool.
    """
    rng = random.Random(seed)
    entries: List[Dict] = []
    for size in HARD_SIZES:
        entries += pool["hard"][str(size)]
    rng.shuffle(entries)
    bases, refs = _pool_queries(entries)
    return Workload(
        "cold-search", "wordnet", load_dataset("wordnet"), bases,
        _cycle(bases, 4 * len(bases)), limit=COUNT_CAP, count_only=True,
        references=refs,
    )


def _edge_edit(
    rng: random.Random, n: int, edges: List[Tuple[int, int]],
    edge_set: set,
) -> GraphDelta:
    """Remove one random edge and add one random non-edge (in place)."""
    i = rng.randrange(len(edges))
    removed = edges[i]
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        added = (min(u, v), max(u, v))
        if u != v and added not in edge_set:
            break
    edges[i] = added
    edge_set.discard(removed)
    edge_set.add(added)
    return GraphDelta(add_edges=(added,), remove_edges=(removed,))


def serve_churn(seed: int) -> Workload:
    """Zipf reads on patents; every 10th op edits one edge.

    The bases, their Zipf ranks and the subscription are fixed (drawn
    from the mining seed); the seed sets the draws and the edits.  Miss
    costs differ widely between bases, so a seed that picked them made
    the spread between seeds a property of that pick.
    """
    data = load_dataset("patents")
    fixed = random.Random(MINE_SEED)
    seen: set = set()
    bases = _distinct_queries(data, 8, "sparse", CHURN_BASES, fixed, seen)
    subscription = _distinct_queries(data, 5, "sparse", 1, fixed, seen)[0]
    weights = _zipf_weights(len(bases), fixed)
    rng = random.Random(seed)
    texts = [saves_graph(q) for q in bases]
    edges = list(data.edges())
    edge_set = set(edges)
    ops = []
    for i in range(CHURN_OPS):
        if i % CHURN_UPDATE_EVERY == CHURN_UPDATE_EVERY - 1:
            ops.append(Op("update", delta=_edge_edit(
                rng, data.num_vertices, edges, edge_set
            )))
        else:
            b = rng.choices(range(len(bases)), weights=weights)[0]
            ops.append(Op("query", base=b, text=texts[b]))
    return Workload(
        "serve-churn", "patents", data, bases, ops, limit=COLLECT_LIMIT,
        count_only=False, subscription=subscription,
    )


def make_workload(name: str, seed: int, root: Path, cache_dir: Path, log) -> Workload:
    # Every run makes sure the mined pool exists, so whichever run comes
    # first in a fresh checkout pays for mining, never a timed one later.
    pool = master_pool(root, cache_dir, log)
    if name == "serve-hits":
        return serve_hits(seed)
    if name == "cold-search":
        return cold_search(seed, pool)
    if name == "serve-churn":
        return serve_churn(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
