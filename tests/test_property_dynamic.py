"""Property tests (hypothesis) for the dynamic-graph subsystem.

Drives random *interleaved* edit sequences — edge inserts, edge
deletes, vertex additions, including empty deltas — against a random
base graph and asserts, after **every** step:

* the incrementally-maintained graph equals a from-scratch rebuild;
* ``DataArtifacts.apply_delta`` is byte-identical (serialized) to a
  cold ``DataArtifacts`` build on the new graph, with warm mask
  ladders answering exactly what a fresh instance computes;
* the continuous matcher's cumulative diff stream replays to exactly
  the full re-match embedding set;
* the spliced CSR arrays, label index and NLF rows equal the builder
  rebuild field by field, the incrementally patched ``.graph`` text
  equals a from-scratch serialization byte for byte, and a catalog
  ``update`` writes exactly the files a from-scratch serializer would.

The deterministic edge cases the ISSUE calls out — the empty delta and
a delta that deletes the last edge of the only vertex carrying a label
(emptying an NLF row and zeroing a bucket degree) — are pinned as
explicit examples below the fuzz.
"""

import hashlib
import io
import json
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.catalog as catalog_module
from repro.core.engine import GuPEngine
from repro.dynamic.continuous import ContinuousMatcher
from repro.dynamic.delta import GraphDelta, apply_delta
from repro.filtering.artifacts import DataArtifacts, dumps_artifacts
from repro.graph.builder import GraphBuilder, graph_from_adjacency
from repro.graph.generators import (
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    random_connected_graph,
)
from repro.graph.io import graph_checksum, saves_graph
from repro.service.catalog import (
    ARTIFACTS_FILE,
    GRAPH_FILE,
    JOURNAL_FILE,
    META_FILE,
    GraphCatalog,
)

LABELS = ("A", "B", "C")


def random_delta(rng, graph, allow_empty=True):
    """A valid random delta against ``graph`` (possibly empty)."""
    n = graph.num_vertices
    add_vertices = tuple(
        rng.choice(LABELS) for _ in range(rng.randint(0, 2))
    )
    n_new = n + len(add_vertices)
    edges = list(graph.edges())
    remove = tuple(rng.sample(edges, min(rng.randint(0, 2), len(edges))))
    removed = set(remove)
    add = []
    for _ in range(rng.randint(0, 3)):
        u = rng.randrange(n_new)
        v = rng.randrange(n_new)
        edge = (min(u, v), max(u, v))
        if (
            u != v
            and edge not in add
            and edge not in removed
            and not (edge[1] < n and graph.has_edge(*edge))
        ):
            add.append(edge)
    delta = GraphDelta(
        add_vertices=add_vertices,
        add_edges=tuple(add),
        remove_edges=remove,
    )
    if delta.is_empty() and not allow_empty:
        return random_delta(rng, graph, allow_empty=False) if n > 1 else delta
    return delta


def builder_rebuild(graph, delta):
    b = GraphBuilder()
    b.add_vertices(graph.labels)
    b.add_vertices(delta.add_vertices)
    removed = set(delta.remove_edges)
    for u, v in graph.edges():
        if (u, v) not in removed:
            b.add_edge(u, v)
    b.add_edges(delta.add_edges)
    return b.build()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=2, max_value=12),
    edge_factor=st.floats(min_value=0.0, max_value=2.0),
    steps=st.integers(min_value=1, max_value=4),
)
def test_artifact_patches_equal_cold_rebuild_along_edit_sequences(
    seed, nd, edge_factor, steps
):
    rng = random.Random(seed)
    graph = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=len(LABELS), seed=seed
    )
    artifacts = DataArtifacts(graph)
    probe = random_connected_graph(3, 3, num_labels=len(LABELS), seed=seed + 1)
    for _ in range(steps):
        artifacts.nlf_candidate_masks(probe)  # keep ladders warm
        delta = random_delta(rng, graph)
        new_graph, summary = apply_delta(graph, delta)
        assert new_graph == builder_rebuild(graph, delta)
        patched = artifacts.apply_delta(new_graph, summary)
        cold = DataArtifacts(new_graph)
        assert dumps_artifacts(patched) == dumps_artifacts(cold)
        for label, count in list(patched._nlf_count_masks):
            assert patched.nlf_count_mask(label, count) == cold.nlf_count_mask(
                label, count
            )
        assert patched.nlf_candidate_masks(probe) == cold.nlf_candidate_masks(
            probe
        )
        graph, artifacts = new_graph, patched


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=3, max_value=10),
    nq=st.integers(min_value=2, max_value=4),
    steps=st.integers(min_value=1, max_value=3),
)
def test_continuous_diffs_replay_to_full_rematch(seed, nd, nq, steps):
    rng = random.Random(seed)
    data = erdos_renyi_graph(nd, nd * 2, num_labels=len(LABELS), seed=seed)
    query = random_connected_graph(
        nq, nq - 1 + rng.randint(0, 2), num_labels=len(LABELS), seed=seed + 1
    )
    matcher = ContinuousMatcher(data)
    matcher.register("q", query)
    for _ in range(steps):
        delta = random_delta(rng, matcher.graph)
        matcher.apply(delta)
        full = {
            tuple(e) for e in GuPEngine(matcher.graph).match(query).embeddings
        }
        assert set(matcher.matches("q")) == full


def test_empty_delta_edge_case():
    graph = erdos_renyi_graph(6, 8, num_labels=2, seed=5)
    artifacts = DataArtifacts(graph)
    new_graph, summary = apply_delta(graph, GraphDelta())
    assert new_graph == graph
    patched = artifacts.apply_delta(new_graph, summary)
    assert dumps_artifacts(patched) == dumps_artifacts(DataArtifacts(new_graph))
    assert patched.reuse_report["vertices_touched"] == 0
    matcher = ContinuousMatcher(graph)
    query = random_connected_graph(2, 1, num_labels=2, seed=6)
    before = matcher.register("q", query)
    diffs = matcher.apply(GraphDelta())
    assert diffs["q"].is_empty()
    assert matcher.matches("q") == before


def test_delete_last_edges_of_a_labels_only_vertex():
    # Vertex 3 is the only C carrier; the delta removes its every edge,
    # emptying its NLF row and dropping its bucket degree to zero.  The
    # patched artifacts must match a cold rebuild exactly, and a query
    # needing a connected C loses all its matches.
    data = graph_from_adjacency(
        ["A", "B", "A", "C"], [(0, 1), (1, 2), (1, 3), (2, 3)]
    )
    query = graph_from_adjacency(["B", "C"], [(0, 1)])
    artifacts = DataArtifacts(data)
    artifacts.nlf_candidate_masks(query)
    matcher = ContinuousMatcher(data)
    assert matcher.register("bc", query) == [(1, 3)]

    delta = GraphDelta(remove_edges=((1, 3), (2, 3)))
    new_graph, summary = apply_delta(data, delta)
    assert new_graph.degree(3) == 0
    assert new_graph.neighbor_label_frequency(3) == {}
    patched = artifacts.apply_delta(new_graph, summary)
    assert dumps_artifacts(patched) == dumps_artifacts(DataArtifacts(new_graph))
    # The C bucket survives with a zero-degree member, and its LDF mask
    # for any positive degree bound is now empty.
    assert patched.label_buckets["C"] == ((3,), (0,))
    assert patched.ldf_mask("C", 1) == 0

    diffs = matcher.apply(delta)
    assert diffs["bc"].removed == [(1, 3)]
    assert diffs["bc"].added == []
    assert matcher.matches("bc") == []


# ----------------------------------------------------------------------
# Incremental CSR splice, graph text and catalog files
# ----------------------------------------------------------------------


def scratch_saves_graph(graph):
    """The from-scratch ``.graph`` serializer the incremental text must
    equal byte for byte (the format as first written: header, vertex
    lines in id order, then every edge ``u < v`` in ``(u, v)`` order)."""
    out = io.StringIO()
    out.write(f"t {graph.num_vertices} {graph.num_edges}\n")
    for v in graph.vertices():
        out.write(f"v {v} {graph.label(v)} {graph.degree(v)}\n")
    for u, v in graph.edges():
        out.write(f"e {u} {v}\n")
    return out.getvalue()


def scratch_encode_graph(graph):
    """``encode_graph`` built on :func:`scratch_saves_graph`, caching
    nothing on the graph (the catalog oracle below runs on it)."""
    blob = scratch_saves_graph(graph).encode("utf-8")
    return blob, hashlib.sha256(blob).hexdigest()


def strip_vertex_delta(rng, graph):
    """Remove every edge of one non-isolated vertex (its last edge
    included), and sometimes add a vertex wired to it."""
    busy = [v for v in graph.vertices() if graph.degree(v) > 0]
    if not busy:
        return GraphDelta()
    v = rng.choice(busy)
    remove = tuple((min(v, w), max(v, w)) for w in graph.neighbors(v))
    if rng.random() < 0.5:
        return GraphDelta(remove_edges=remove)
    new = graph.num_vertices
    return GraphDelta(
        add_vertices=(rng.choice(LABELS),),
        add_edges=((v, new),),
        remove_edges=remove,
    )


def assert_same_fields(graph, rebuilt):
    assert graph._labels == rebuilt._labels
    assert graph._offsets == rebuilt._offsets
    assert graph._neighbors_flat == rebuilt._neighbors_flat
    assert graph._neighbor_sets == rebuilt._neighbor_sets
    assert graph._label_index == rebuilt._label_index
    assert graph.num_edges == rebuilt.num_edges
    assert [graph.neighbor_label_frequency(v) for v in graph.vertices()] == [
        rebuilt.neighbor_label_frequency(v) for v in rebuilt.vertices()
    ]


EDIT_KINDS = st.lists(
    st.sampled_from(("random", "strip")), min_size=1, max_size=6
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    nd=st.integers(min_value=2, max_value=12),
    edge_factor=st.floats(min_value=0.0, max_value=2.0),
    kinds=EDIT_KINDS,
)
def test_spliced_graph_and_patched_text_equal_from_scratch(
    seed, nd, edge_factor, kinds
):
    rng = random.Random(seed)
    graph = erdos_renyi_graph(
        nd, int(nd * edge_factor), num_labels=len(LABELS), seed=seed
    )
    saves_graph(graph)  # materialize the text so every step patches it
    graph.neighbor_label_frequency(0)  # and the NLF cache
    with tempfile.TemporaryDirectory() as root:
        catalog = GraphCatalog(root)
        catalog.add("g", graph)
        for kind in kinds:
            if kind == "strip":
                delta = strip_vertex_delta(rng, graph)
            else:
                delta = random_delta(rng, graph)
            new_graph, _ = apply_delta(graph, delta)
            rebuilt = builder_rebuild(graph, delta)
            assert_same_fields(new_graph, rebuilt)
            assert new_graph._text is not None  # patched, not re-formatted
            assert saves_graph(new_graph) == scratch_saves_graph(rebuilt)

            catalog.update("g", delta)
            served = catalog.engine("g").data
            assert served == rebuilt
            meta = json.loads(
                (catalog.root / "g" / META_FILE).read_text(encoding="utf-8")
            )
            expected = scratch_encode_graph(rebuilt)[1]
            assert graph_checksum(served) == expected
            assert meta["graph_file_sha256"] == expected
            assert meta["graph_checksum"] == expected
            graph = new_graph


def entry_files(catalog):
    directory = catalog.root / "g"
    assert not (directory / JOURNAL_FILE).exists()
    return {
        name: (directory / name).read_bytes()
        for name in (GRAPH_FILE, ARTIFACTS_FILE, META_FILE)
    }


def test_catalog_files_identical_to_from_scratch_serializer(monkeypatch):
    # Two catalogs take the same edit sequence: one on the shipped code
    # (text patched per touched vertex, each file hashed once, staged
    # outside the lock), one whose graph encoding is the from-scratch
    # serializer.  Their three files must agree byte for byte each step.
    rng = random.Random(11)
    data = powerlaw_cluster_graph(60, 3, 0.3, num_labels=len(LABELS), seed=11)
    with tempfile.TemporaryDirectory() as new_root, \
            tempfile.TemporaryDirectory() as oracle_root:
        shipped = GraphCatalog(new_root)
        oracle = GraphCatalog(oracle_root)
        shipped.add("g", data)
        with monkeypatch.context() as patch:
            patch.setattr(catalog_module, "encode_graph", scratch_encode_graph)
            # Its own instance: ``data`` now carries the shipped text cache.
            oracle.add("g", builder_rebuild(data, GraphDelta()))
        assert entry_files(shipped) == entry_files(oracle)
        graph = data
        for step in range(12):
            if step % 3 == 2:
                delta = strip_vertex_delta(rng, graph)
            else:
                delta = random_delta(rng, graph, allow_empty=False)
            shipped.update("g", delta)
            with monkeypatch.context() as patch:
                patch.setattr(
                    catalog_module, "encode_graph", scratch_encode_graph
                )
                oracle.update("g", delta)
            assert oracle.engine("g").data._text is None  # truly from scratch
            files = entry_files(shipped)
            assert files == entry_files(oracle)
            graph = shipped.engine("g").data
            assert files[GRAPH_FILE].decode("utf-8") == scratch_saves_graph(
                graph
            )
            assert json.loads(files[META_FILE])["epoch"] == step + 2
