"""Answer checks for the served run.

Static workloads compare each reply with a direct ``GuPEngine.match``
reference of its base query and check every returned embedding with
``repro.matching.verify.is_embedding`` (translated back to the base
query's numbering, memoized per distinct embedding).  serve-churn
records its replies and checks them after the run against a reference
engine that follows the stream's graph epochs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.engine import GuPEngine
from repro.dynamic.delta import apply_delta
from repro.graph.graph import Graph
from repro.matching.limits import SearchLimits
from repro.matching.verify import is_embedding

from inputs import Op, Workload

MAX_PROBLEMS = 20


class Checker:
    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.wrong: Dict[str, int] = {}
        self.problems: List[str] = []
        self._valid: List[Dict[Tuple[int, ...], bool]] = [
            {} for _ in wl.bases
        ]
        # serve-churn: replies kept for the epoch-by-epoch check.
        self._queries: List[Tuple[int, Op, object]] = []
        self._updates: List[Tuple[int, Op, object, Optional[Dict]]] = []
        self._initial: Optional[Set[Tuple[int, ...]]] = None
        self._last_epoch: Optional[int] = None

    def fail(self, kind: str, message: str) -> None:
        self.wrong[kind] = self.wrong.get(kind, 0) + 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    @property
    def wrong_total(self) -> int:
        return sum(self.wrong.values())

    # -- served-run hooks ------------------------------------------------

    def subscribed(self, reply) -> None:
        self._initial = set(reply.embeddings)
        self._last_epoch = reply.epoch

    def observe(self, index: int, op: Op, reply, event: Optional[Dict]) -> None:
        if reply is None:
            return
        if op.kind == "update":
            epoch = reply.epoch
            if epoch is None or (
                self._last_epoch is not None and epoch <= self._last_epoch
            ):
                self.fail("update", f"op {index}: epoch {epoch} after "
                                    f"{self._last_epoch}")
            self._last_epoch = epoch
            self._updates.append((index, op, reply, event))
            return
        if self.wl.references is None:
            self._queries.append((index, op, reply))
            return
        count, status = self.wl.references[op.base]
        self._check_query(index, op, reply, count, status,
                          self.wl.bases[op.base], lambda: self.wl.graph,
                          self._valid[op.base])

    def _check_query(self, index, op, reply, count, status, base: Graph,
                     data: Callable[[], Graph], memo: Dict) -> None:
        if (reply.num_embeddings, reply.status) != (count, status):
            self.fail("query", f"op {index}: served "
                               f"{reply.num_embeddings}/{reply.status}, "
                               f"reference {count}/{status}")
            return
        embeddings = reply.embeddings
        if self.wl.count_only:
            if embeddings:
                self.fail("query", f"op {index}: count-only reply carried "
                                   "embeddings")
            return
        if len(embeddings) != count or len(set(embeddings)) != count:
            self.fail("query", f"op {index}: {len(embeddings)} embeddings "
                               f"for count {count}")
            return
        if op.perm is not None:
            # Sent vertex i is base vertex perm[i]: reorder to base numbering.
            inverse = [0] * len(op.perm)
            for i, b in enumerate(op.perm):
                inverse[b] = i
            to_base = itemgetter(*inverse)
            embeddings = [to_base(e) for e in embeddings]
        for embedding in embeddings:
            ok = memo.get(embedding)
            if ok is None:
                ok = memo[embedding] = is_embedding(base, data(), embedding)
            if not ok:
                self.fail("query", f"op {index}: {embedding} is not an "
                                   "embedding")
                return

    # -- deferred checks (serve-churn) ------------------------------------

    def finish(self, stats_counters: Dict[str, int]) -> None:
        for key in ("artifact_builds", "artifact_rebuilds"):
            if stats_counters.get(key, 0) != 0:
                self.fail("server", f"{key} = {stats_counters[key]} while "
                                    "serving")
        if self.wl.references is None:
            self._check_churn()

    def _check_churn(self) -> None:
        """Replay the served updates on a private reference engine.

        The reference engine follows the stream epoch by epoch: each
        delta goes through ``apply_delta`` and ``DataArtifacts.apply_delta``
        on this engine's own copy.  Every edited edge is checked in the
        new graph, and the final graph must equal one built from scratch
        from the edit list.  A query's embedding set can only change when
        an edited edge carries the label pair of one of the query's
        edges, so its reference is recomputed only then.
        """
        wl = self.wl
        engine = GuPEngine(wl.graph)
        adjacency = [set(wl.graph.neighbors(v)) for v in wl.graph.vertices()]
        labels = wl.graph.labels
        limits = SearchLimits(max_embeddings=wl.limit)
        pairs = [_edge_label_pairs(q) for q in wl.bases]
        sub_pairs = _edge_label_pairs(wl.subscription)
        updates = {index: (op, event) for index, op, _r, event in self._updates}
        queries = {index: (op, reply) for index, op, reply in self._queries}
        last = max(list(updates) + list(queries), default=-1)
        refs: Dict[int, Tuple[int, str]] = {}

        def subscription_matches() -> Set[Tuple[int, ...]]:
            return set(map(tuple, engine.match(wl.subscription).embeddings))

        matches = subscription_matches()
        if self._initial is not None and self._initial != matches:
            self.fail("subscribe", "initial subscription matches differ "
                                   "from a fresh match")
        for index in range(last + 1):
            if index in queries:
                op, reply = queries[index]
                if op.base not in refs:
                    result = engine.match(wl.bases[op.base], limits)
                    refs[op.base] = (result.num_embeddings,
                                     result.status.value)
                count, status = refs[op.base]
                self._check_query(index, op, reply, count, status,
                                  wl.bases[op.base], lambda: engine.data,
                                  self._valid[op.base])
            elif index in updates:
                op, event = updates[index]
                delta = op.delta
                graph, summary = apply_delta(engine.data, delta)
                engine = GuPEngine(
                    graph, artifacts=engine.artifacts.apply_delta(graph, summary)
                )
                for u, v in delta.remove_edges:
                    adjacency[u].discard(v)
                    adjacency[v].discard(u)
                for u, v in delta.add_edges:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
                if (any(graph.has_edge(u, v) for u, v in delta.remove_edges)
                        or not all(graph.has_edge(u, v)
                                   for u, v in delta.add_edges)):
                    self.fail("reference", f"op {index}: delta not applied")
                edited = delta.remove_edges + delta.add_edges
                touched = {frozenset((labels[u], labels[v])) for u, v in edited}
                for b, query_pairs in enumerate(pairs):
                    if query_pairs & touched:
                        refs.pop(b, None)
                        self._valid[b] = {}
                before = matches
                if sub_pairs & touched:
                    matches = subscription_matches()
                if event is None or event.get("event") != "delta":
                    continue  # counted as a subscriber disconnect
                if (set(event["added"]) != matches - before
                        or set(event["removed"]) != before - matches):
                    self.fail("subscription",
                              f"op {index}: subscriber diff differs from "
                              "fresh matches before/after the update")
        if engine.data != Graph(labels, [sorted(a) for a in adjacency]):
            self.fail("reference", "final graph differs from the edit list")


def _edge_label_pairs(graph: Graph) -> FrozenSet[FrozenSet[object]]:
    return frozenset(
        frozenset((graph.label(a), graph.label(b))) for a, b in graph.edges()
    )
