"""Persistent graph catalog: named data graphs + warm artifacts on disk.

Layout (one directory per registered graph under the catalog root)::

    <root>/<name>/graph.graph      the graph, portable ``.graph`` text
    <root>/<name>/artifacts.bin    serialized DataArtifacts payload
    <root>/<name>/meta.json        sidecar: format version + checksums
    <root>/<name>/journal.json     transient: an in-flight transaction
    <root>/<name>/*.tmp            transient: staged new file versions

The sidecar records the catalog format version, the SHA-256 of each
file's bytes, and the graph's semantic checksum
(:func:`repro.graph.io.graph_checksum`).  On load everything is
verified; **any** mismatch — truncated or bit-flipped artifacts, a
hand-edited graph file, a stale format version, a missing or corrupt
sidecar — causes the artifacts to be *rebuilt from the graph and
rewritten*, never trusted.  The graph file itself is the single source
of truth; if it does not parse, the entry is unusable and a
:class:`CatalogError` is raised.

Crash safety (DESIGN.md §10): every multi-file mutation (``add``,
``update``, ``remove``, and the rebuild-on-load) is a **journaled
transaction**.  New file versions are staged as fsynced ``*.tmp``
files, then a journal records the transaction's target state (epoch +
per-file SHA-256), then each file is atomically renamed into place,
then the journal is deleted (the commit point).  Recovery on the next
load rolls the transaction *forward* when the journal is durable (all
staged bytes are then durable too, by write ordering) and *discards*
it otherwise — a kill at **any** point leaves the entry either fully
at epoch N or fully at epoch N+1, never torn.  The named persistence
points (:func:`txn_points`) double as fault-injection hooks; the
crash-point sweep in ``tests/test_service_faults.py`` kills at every
one of them and proves the old-or-new invariant byte for byte.

In memory the catalog keeps an LRU of warm :class:`GuPEngine` instances
(graph + artifacts resident), so a long-running server reuses engines
across requests instead of re-reading the store.  All counters needed
by the service ``stats`` endpoint are kept on the catalog:
``artifact_builds`` (from-scratch builds, e.g. on ``add``),
``artifact_loads`` (clean loads from disk), ``artifact_rebuilds``
(corruption/staleness recoveries), ``engine_hits`` / ``engine_misses``
(LRU), ``engine_evictions``, and the transaction recovery counters
``txn_rollforwards`` / ``txn_rollbacks``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.config import GuPConfig
from repro.core.engine import GuPEngine
from repro.filtering.artifacts import (
    ARTIFACTS_FORMAT_VERSION,
    ArtifactsFormatError,
    DataArtifacts,
    dumps_artifacts,
    loads_artifacts,
)
from repro.graph.graph import Graph
from repro.graph.io import encode_graph, graph_checksum, load_graph, loads_graph
from repro.obs.explain import (
    ANALYZE_SIDECAR_MAX_RECORDS,
    ANALYZE_SIDECAR_VERSION,
)
from repro.obs.metrics import CounterGroup
from repro.service.faults import NO_FAULTS, FaultPlan

CATALOG_FORMAT_VERSION = 1

GRAPH_FILE = "graph.graph"
ARTIFACTS_FILE = "artifacts.bin"
META_FILE = "meta.json"
JOURNAL_FILE = "journal.json"
ANALYZE_FILE = "analyze.json"
TMP_SUFFIX = ".tmp"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

logger = logging.getLogger("repro.service.catalog")


class CatalogError(Exception):
    """A catalog operation failed (unknown name, unparseable graph, ...)."""


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _file_sha256(path: Path) -> Optional[str]:
    try:
        return _sha256(path.read_bytes())
    except OSError:
        return None


def _write_durable(path: Path, blob: bytes) -> None:
    """Write ``blob`` and fsync it: the bytes survive a crash after this."""
    with open(path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_dir(directory: Path) -> None:
    """Make renames/unlinks in ``directory`` durable (no-op where
    directory fsync is unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def txn_points(op: str) -> Tuple[str, ...]:
    """Every declared persistence point of one catalog operation, in
    execution order.  ``op`` is ``"add"``/``"update"`` (full three-file
    transaction), ``"rebuild"`` (artifacts + sidecar only), or
    ``"remove"``.  The fault-injection sweep enumerates these, so the
    list *is* the contract: add a hook, and the sweep covers it.
    """
    if op == "remove":
        return (
            "catalog.remove.begin",
            "catalog.remove.journal",
            f"catalog.remove.unlink.{GRAPH_FILE}",
            f"catalog.remove.unlink.{ARTIFACTS_FILE}",
            f"catalog.remove.unlink.{META_FILE}",
            "catalog.remove.commit",
        )
    if op in ("add", "update"):
        files: Tuple[str, ...] = (GRAPH_FILE, ARTIFACTS_FILE, META_FILE)
    elif op == "rebuild":
        files = (ARTIFACTS_FILE, META_FILE)
    else:
        raise ValueError(f"unknown catalog operation {op!r}")
    points = ["catalog.txn.begin"]
    points += [f"catalog.txn.tmp.{name}" for name in files]
    points += ["catalog.txn.journal"]
    points += [f"catalog.txn.rename.{name}" for name in files]
    points += ["catalog.txn.commit"]
    return tuple(points)


class _StagedEntry(NamedTuple):
    """One entry state rendered to bytes, each file hashed once: what a
    journaled transaction writes, prepared without holding any lock."""

    files: Dict[str, bytes]
    digests: Dict[str, str]
    meta: Dict[str, object]


class GraphCatalog:
    """Named data graphs with persisted artifacts and warm engines.

    Thread-safe: a single lock serializes store access and LRU updates
    (engine *searches* run outside the catalog and share freely).
    ``faults`` is the injection plan threaded through every persistence
    point; production leaves it at :data:`repro.service.faults.NO_FAULTS`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        config: Optional[GuPConfig] = None,
        max_resident: int = 4,
        faults: FaultPlan = NO_FAULTS,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = config or GuPConfig()
        self.max_resident = max_resident
        self.faults = faults
        self._resident: "OrderedDict[str, GuPEngine]" = OrderedDict()
        self._lock = threading.RLock()
        # Serializes update() calls against each other (epoch
        # read-modify-write) without holding the main lock across the
        # patch/serialization work, which must not stall engine() calls.
        self._update_mutex = threading.Lock()
        # A CounterGroup (dict-like, thread-safe) so a metrics registry
        # can attach it and render the very same storage the ``stats``
        # op snapshots (repro.obs.metrics).
        self.counters = CounterGroup({
            "artifact_builds": 0,
            "artifact_loads": 0,
            "artifact_rebuilds": 0,
            "artifact_patches": 0,
            "engine_hits": 0,
            "engine_misses": 0,
            "engine_evictions": 0,
            "updates": 0,
            "removes": 0,
            "reloads": 0,
            "txn_rollforwards": 0,
            "txn_rollbacks": 0,
        })
        # Last known epoch per entry, maintained on every persist/load,
        # so request logs can stamp graph+epoch without a disk read.
        self._epochs: Dict[str, int] = {}

    # -- registration --------------------------------------------------

    def add(
        self,
        name: str,
        graph: Union[Graph, str, Path],
        overwrite: bool = False,
    ) -> Dict[str, object]:
        """Register ``graph`` (a :class:`Graph` or a ``.graph`` path).

        Builds the artifacts, persists everything in one journaled
        transaction, and leaves a warm engine resident.  Re-adding an
        identical graph under the same name is a no-op; a different
        graph requires ``overwrite=True`` and **bumps the epoch** —
        epochs are monotonic per name across adds, updates, and
        rebuilds, so caches and subscriptions stamped with an epoch can
        always detect that an entry changed underneath them.  Returns
        the entry's info dict.
        """
        directory = self._entry_dir(name)
        if not isinstance(graph, Graph):
            graph = load_graph(graph)
        encoded = encode_graph(graph)
        checksum = encoded[1]
        epoch = 1
        with self._lock:
            self._recover(directory)
            if directory.exists() and (directory / GRAPH_FILE).exists():
                existing = self._read_meta(directory)
                if (
                    not overwrite
                    and existing is not None
                    and existing.get("graph_checksum") == checksum
                ):
                    return self.info(name)
                if not overwrite:
                    raise CatalogError(
                        f"catalog entry {name!r} already exists with a "
                        "different graph (use overwrite)"
                    )
                try:
                    epoch = max(1, int((existing or {}).get("epoch") or 1)) + 1
                except (TypeError, ValueError):
                    epoch = 2
                self._resident.pop(name, None)
        # Build and serialize outside the lock: artifacts construction
        # can take seconds on a large graph and must not stall concurrent
        # engine() calls.  (Two racing adds of the same name both build;
        # the later write wins — acceptable for a registration operation.)
        artifacts = DataArtifacts(graph)
        staged = self._stage_entry(
            directory.name, graph, artifacts, epoch, encoded=encoded
        )
        with self._lock:
            self.counters["artifact_builds"] += 1
            directory.mkdir(parents=True, exist_ok=True)
            self._commit_entry(directory, staged)
            self._install(name, GuPEngine(graph, self.config, artifacts=artifacts))
        return self.info(name)

    def names(self) -> List[str]:
        """Sorted names of all registered graphs.

        Directories whose names this catalog could not have created
        (failing the name rules) are ignored rather than poisoning
        listings; so are entries whose pending transaction is a
        removal (they are already logically gone)."""
        out = []
        for child in sorted(self.root.iterdir()) if self.root.exists() else []:
            if (
                child.is_dir()
                and _NAME_RE.match(child.name)
                and (child / GRAPH_FILE).exists()
                and not self._pending_remove(child)
            ):
                out.append(child.name)
        return out

    def info(self, name: str) -> Dict[str, object]:
        """The entry's sidecar metadata plus residency."""
        directory = self._entry_dir(name)
        with self._lock:
            self._recover(directory)
            if not (directory / GRAPH_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            meta = self._read_meta(directory) or {}
            resident = name in self._resident
        return {
            "name": name,
            "num_vertices": meta.get("num_vertices"),
            "num_edges": meta.get("num_edges"),
            "graph_checksum": meta.get("graph_checksum"),
            "format_version": meta.get("format_version"),
            "epoch": meta.get("epoch"),
            "resident": resident,
        }

    def update(self, name: str, delta) -> Tuple[Dict[str, object], object]:
        """Apply a :class:`repro.dynamic.delta.GraphDelta` to an entry.

        The entry's graph is replaced by the delta-applied graph, its
        on-disk artifacts by the **incrementally patched** ones
        (:meth:`DataArtifacts.apply_delta` — counted under
        ``artifact_patches``, never a rebuild), its sidecar epoch is
        bumped, and a fresh warm engine is installed that inherits the
        old engine's build-invariant cache (those entries never go
        stale).  The three files move to the new epoch in one journaled
        transaction: a crash at any point leaves the entry wholly at
        the old epoch or wholly at the new one.  Returns
        ``(info, summary)``.

        Updates serialize against each other on a dedicated mutex; the
        catalog lock is held only to fetch the engine and to commit and
        swap in the new state.  The delta apply, the artifact patch, the
        graph text (patched per touched vertex), the artifact pickle,
        the sidecar and every file's SHA-256 are all produced before
        the lock is taken, so they never stall concurrent ``engine()``
        calls (the same contract :meth:`add` keeps for its artifact
        build); the lock covers the staged writes, fsyncs and renames.
        Engines handed out earlier keep serving the pre-update graph
        snapshot.  As with two racing ``add`` calls, an
        ``add(overwrite=True)`` racing an update of the same name
        resolves by last-write-wins, under a fresh epoch.
        """
        from repro.dynamic.delta import apply_delta

        with self._update_mutex:
            directory = self._entry_dir(name)
            with self._lock:
                engine = self.engine(name)  # raises CatalogError when unknown
                epoch = self._next_epoch(directory)
            new_graph, summary = apply_delta(engine.data, delta)
            artifacts = engine.artifacts.apply_delta(new_graph, summary)
            staged = self._stage_entry(name, new_graph, artifacts, epoch)
            with self._lock:
                current = self._next_epoch(directory)
                if current != epoch:
                    # Another writer moved the entry while we staged:
                    # only the sidecar's epoch field changes.
                    staged = self._restage_meta(staged, current)
                self._commit_entry(directory, staged)
                self.counters["artifact_patches"] += 1
                self.counters["updates"] += 1
                self._install(
                    name,
                    GuPEngine(
                        new_graph,
                        self.config,
                        artifacts=artifacts,
                        invariants=engine.invariants,
                    ),
                )
        return self.info(name), summary

    def remove(self, name: str) -> None:
        """Delete an entry (its directory and any resident engine).

        Journaled like every other mutation: a remove-intent record is
        made durable first, so a crash mid-deletion is rolled *forward*
        on the next load — the entry is never resurrected half-deleted.
        """
        directory = self._entry_dir(name)
        with self._lock:
            self._recover(directory)
            if not (directory / GRAPH_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            self._resident.pop(name, None)
            self.faults.reach("catalog.remove.begin")
            journal = {"op": "remove", "name": directory.name}
            _write_durable(
                directory / JOURNAL_FILE,
                (json.dumps(journal) + "\n").encode("utf-8"),
            )
            _fsync_dir(directory)
            self.faults.reach("catalog.remove.journal")
            for filename in (GRAPH_FILE, ARTIFACTS_FILE, META_FILE):
                try:
                    (directory / filename).unlink()
                except FileNotFoundError:
                    pass
                self.faults.reach(f"catalog.remove.unlink.{filename}")
            shutil.rmtree(directory)
            _fsync_dir(self.root)
            self.counters["removes"] += 1
            self._epochs.pop(name, None)
            self.faults.reach("catalog.remove.commit")

    # -- engines -------------------------------------------------------

    def engine(self, name: str) -> GuPEngine:
        """The warm engine for ``name`` (LRU; loads from disk on miss)."""
        return self.engine_ex(name)[0]

    def engine_ex(self, name: str) -> Tuple[GuPEngine, str, int]:
        """Like :meth:`engine`, plus provenance for request logs:
        ``(engine, source, epoch)`` with ``source`` one of
        ``"resident"`` (LRU hit), ``"load"`` (clean disk load), or
        ``"rebuild"`` (corruption/staleness recovery)."""
        with self._lock:
            engine = self._resident.get(name)
            if engine is not None:
                self.counters["engine_hits"] += 1
                self._resident.move_to_end(name)
                return engine, "resident", self._epochs.get(name, 1)
            self.counters["engine_misses"] += 1
            graph, artifacts, rebuilt = self._load(name)
            engine = GuPEngine(graph, self.config, artifacts=artifacts)
            self._install(name, engine)
            source = "rebuild" if rebuilt else "load"
            return engine, source, self._epochs.get(name, 1)

    def warm(self, name: str) -> bool:
        """Ensure ``name``'s on-disk artifacts are valid and its engine
        resident.  Returns whether the artifacts had to be rebuilt."""
        with self._lock:
            before = self.counters["artifact_rebuilds"]
            if name in self._resident:
                # Residency says nothing about the disk copy: re-verify it
                # so ``warm`` always leaves a loadable store behind.
                graph, artifacts, rebuilt = self._load(name)
                self._install(name, GuPEngine(graph, self.config, artifacts=artifacts))
                return rebuilt
            self.engine(name)
            return self.counters["artifact_rebuilds"] > before

    # -- zero-downtime reload (DESIGN.md §13) --------------------------

    def reload(
        self, faults: Optional[FaultPlan] = None
    ) -> Dict[str, Dict[str, object]]:
        """Re-scan the store and atomically refresh resident engines.

        Built for the server's zero-downtime ``reload`` op: another
        process (or a ``repro catalog`` invocation) may have added,
        updated, rebuilt, or removed entries under this root since we
        opened it.  The scan and any loads happen **without replacing a
        single resident engine**; only then does one locked *swap phase*
        install every staged engine and epoch at once.  Engines handed
        out before the swap keep serving their admitted epoch — the
        epoch-handoff half of the proof obligation; the server's
        lifecycle layer owes the other half (subscription diff-replay).

        Per entry the returned report records ``action`` —

        * ``"kept"``: disk epoch and graph checksum match the resident
          engine; nothing moved.
        * ``"reloaded"``: the entry changed on disk; a new-epoch engine
          was staged and swapped in.
        * ``"removed"``: the directory is gone; the resident engine was
          evicted at swap.
        * ``"lazy"``: the entry is not resident; the next ``engine()``
          call loads whatever epoch disk then holds (nothing to swap).

        — plus ``old_epoch``/``epoch`` and whether the load had to
        rebuild artifacts.  ``faults`` (default: the catalog's own
        plan) fires the ``lifecycle.reload.{begin,scan,build,swap}``
        hooks; an injected crash before the swap point leaves every
        resident engine and remembered epoch untouched (old state), a
        crash at/after it leaves the new state — never a mix, which is
        exactly the journaled old-or-new invariant lifted from files to
        the resident set.
        """
        plan = self.faults if faults is None else faults
        plan.reach("lifecycle.reload.begin")
        with self._lock:
            resident = dict(self._resident)
            old_epochs = dict(self._epochs)
        disk_names = set(self.names())
        plan.reach("lifecycle.reload.scan")

        report: Dict[str, Dict[str, object]] = {}
        staged: Dict[str, Tuple[GuPEngine, int, bool]] = {}
        for name in sorted(resident):
            if name not in disk_names:
                report[name] = {
                    "action": "removed",
                    "old_epoch": old_epochs.get(name, 1),
                    "epoch": None,
                    "rebuilt": False,
                }
        for name in sorted(disk_names):
            old_epoch = old_epochs.get(name)
            engine = resident.get(name)
            if engine is None:
                report[name] = {
                    "action": "lazy",
                    "old_epoch": old_epoch,
                    "epoch": None,
                    "rebuilt": False,
                }
                continue
            with self._lock:
                directory = self._entry_dir(name)
                self._recover(directory)
                meta = self._read_meta(directory) or {}
            try:
                disk_epoch = max(1, int(meta.get("epoch") or 1))
            except (TypeError, ValueError):
                disk_epoch = 1
            if (
                disk_epoch == (old_epoch or 1)
                and meta.get("graph_checksum") == graph_checksum(engine.data)
            ):
                report[name] = {
                    "action": "kept",
                    "old_epoch": old_epoch or 1,
                    "epoch": old_epoch or 1,
                    "rebuilt": False,
                }
                continue
            # Changed on disk: load the new epoch WITHOUT touching the
            # resident map, and put the remembered epoch back until the
            # swap phase so concurrent requests keep logging the epoch
            # they are actually served from.
            with self._lock:
                graph, artifacts, rebuilt = self._load(name)
                new_epoch = self._epochs.get(name, disk_epoch)
                if old_epoch is not None:
                    self._epochs[name] = old_epoch
                else:
                    self._epochs.pop(name, None)
            staged[name] = (
                GuPEngine(graph, self.config, artifacts=artifacts),
                new_epoch,
                rebuilt,
            )
            report[name] = {
                "action": "reloaded",
                "old_epoch": old_epoch or 1,
                "epoch": new_epoch,
                "rebuilt": rebuilt,
            }
        plan.reach("lifecycle.reload.build")

        with self._lock:
            for name, info in report.items():
                if info["action"] == "removed":
                    self._resident.pop(name, None)
                    self._epochs.pop(name, None)
            for name, (engine, epoch, _rebuilt) in staged.items():
                self._install(name, engine)
                self._epochs[name] = epoch
            self.counters["reloads"] += 1
        plan.reach("lifecycle.reload.swap")
        return report

    # -- transactions (DESIGN.md §10) ----------------------------------

    def _txn_commit(
        self,
        directory: Path,
        files: Dict[str, bytes],
        digests: Dict[str, str],
        epoch: int,
    ) -> None:
        """Replace ``files`` in ``directory`` all-or-nothing.

        ``digests`` holds the SHA-256 of every file in ``files``, taken
        by the caller (:meth:`_stage_entry`) before any lock.

        Write ordering is the whole proof: (1) stage every new version
        as an fsynced ``*.tmp``; (2) make the journal — target epoch +
        per-file SHA-256 — durable; (3) rename each file into place;
        (4) delete the journal.  The journal's existence therefore
        implies every staged byte is durable, so recovery can always
        roll forward once it finds a journal, and must always discard
        when it does not.  ``self.faults`` fires after each step — the
        points listed by :func:`txn_points`.
        """
        faults = self.faults
        faults.reach("catalog.txn.begin")
        for filename, blob in files.items():
            _write_durable(directory / (filename + TMP_SUFFIX), blob)
            faults.reach(f"catalog.txn.tmp.{filename}")
        journal = {
            "op": "write",
            "epoch": epoch,
            "files": {filename: digests[filename] for filename in files},
        }
        _write_durable(
            directory / JOURNAL_FILE,
            (json.dumps(journal, sort_keys=True) + "\n").encode("utf-8"),
        )
        _fsync_dir(directory)
        faults.reach("catalog.txn.journal")
        for filename in files:
            os.replace(
                directory / (filename + TMP_SUFFIX), directory / filename
            )
            faults.reach(f"catalog.txn.rename.{filename}")
        _fsync_dir(directory)
        (directory / JOURNAL_FILE).unlink()
        _fsync_dir(directory)
        faults.reach("catalog.txn.commit")

    def _recover(self, directory: Path) -> Optional[int]:
        """Finish or discard an interrupted transaction in ``directory``.

        Returns an epoch hint for the caller's rebuild path: when a
        *forged* torn state left the new graph renamed into place but
        the journal unable to roll forward (impossible under our own
        write ordering, but the tests forge it), the graph content
        belongs to the journal's target epoch and the rebuilt sidecar
        should say so.  ``None`` otherwise.  Call with ``self._lock``
        held.
        """
        journal_path = directory / JOURNAL_FILE
        try:
            raw = journal_path.read_text(encoding="utf-8")
        except OSError:
            # No journal: any leftover tmps predate the commit record
            # and are garbage from a pre-journal crash.
            self._discard_tmps(directory)
            return None
        try:
            journal = json.loads(raw)
        except ValueError:
            journal = None
        if not isinstance(journal, dict):
            logger.warning("catalog %s: corrupt journal, discarding", directory)
            self._discard_tmps(directory)
            journal_path.unlink(missing_ok=True)
            self.counters["txn_rollbacks"] += 1
            return None

        if journal.get("op") == "remove":
            # The remove intent was durable: the entry is logically
            # gone — complete the deletion.
            logger.info("catalog %s: rolling forward remove", directory)
            shutil.rmtree(directory, ignore_errors=True)
            _fsync_dir(self.root)
            self.counters["txn_rollforwards"] += 1
            return None

        files = journal.get("files")
        if not isinstance(files, dict):
            self._discard_tmps(directory)
            journal_path.unlink(missing_ok=True)
            self.counters["txn_rollbacks"] += 1
            return None

        # A file is recoverable at its new version if either the rename
        # already happened (final bytes match the journal) or the staged
        # tmp is intact.
        state: Dict[str, Optional[str]] = {}
        for filename, sha in files.items():
            if _file_sha256(directory / filename) == sha:
                state[filename] = "done"
            elif _file_sha256(directory / (filename + TMP_SUFFIX)) == sha:
                state[filename] = "staged"
            else:
                state[filename] = None

        if all(state.values()):
            logger.info(
                "catalog %s: rolling forward to epoch %s",
                directory, journal.get("epoch"),
            )
            for filename, how in state.items():
                if how == "staged":
                    os.replace(
                        directory / (filename + TMP_SUFFIX),
                        directory / filename,
                    )
            self._discard_tmps(directory)
            _fsync_dir(directory)
            journal_path.unlink(missing_ok=True)
            _fsync_dir(directory)
            self.counters["txn_rollforwards"] += 1
            return None

        # Roll back: some staged version is torn or missing.  Under our
        # own write ordering this only happens *before* the journal was
        # written, i.e. before any rename — the final files are still
        # wholly the old epoch.  Forged states (renames done, tmps torn)
        # degrade gracefully: the graph file is the source of truth and
        # the ordinary load path rebuilds everything derived from it.
        logger.info("catalog %s: discarding unrecoverable txn", directory)
        self._discard_tmps(directory)
        journal_path.unlink(missing_ok=True)
        _fsync_dir(directory)
        self.counters["txn_rollbacks"] += 1
        graph_sha = files.get(GRAPH_FILE)
        if (
            graph_sha is not None
            and _file_sha256(directory / GRAPH_FILE) == graph_sha
        ):
            try:
                return max(1, int(journal.get("epoch") or 1))
            except (TypeError, ValueError):
                return None
        return None

    @staticmethod
    def _discard_tmps(directory: Path) -> None:
        for tmp in directory.glob("*" + TMP_SUFFIX):
            tmp.unlink(missing_ok=True)

    @staticmethod
    def _pending_remove(directory: Path) -> bool:
        """Whether ``directory`` holds a durable remove intent."""
        try:
            journal = json.loads(
                (directory / JOURNAL_FILE).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return False
        return isinstance(journal, dict) and journal.get("op") == "remove"

    # -- analyze sidecar (EXPLAIN ANALYZE feature corpus) --------------

    def store_analysis(
        self, name: str, record: Dict[str, object]
    ) -> Dict[str, object]:
        """Append one EXPLAIN ANALYZE record to the entry's sidecar."""
        return self.store_analyses(name, [record])

    def store_analyses(
        self, name: str, new_records: List[Dict[str, object]]
    ) -> Dict[str, object]:
        """Append EXPLAIN ANALYZE records in one sidecar rewrite.

        The rewrite is O(full sidecar), so the server's background
        writer batches a burst of analyzed queries into a single call
        per entry rather than paying one rewrite per query.

        ``analyze.json`` is *derived observational data* and deliberately
        lives outside the journaled three-file transaction — losing it
        in a crash loses telemetry, not truth.  The write is atomic
        (tmp + rename) so readers never observe a torn file, but skips
        the fsyncs the graph artifacts pay: this runs on the serving
        hot path for every analyzed query, and an fsync costs more than
        the analyze itself — a power cut may lose the newest records,
        never corrupt the file.  Keeps the newest
        :data:`~repro.obs.explain.ANALYZE_SIDECAR_MAX_RECORDS` records,
        oldest dropped first.  Returns the sidecar as written.
        """
        directory = self._entry_dir(name)
        with self._lock:
            if not (directory / META_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            sidecar = self._read_analysis(directory)
            records = sidecar["records"]
            records.extend(new_records)
            del records[:-ANALYZE_SIDECAR_MAX_RECORDS]
            blob = (json.dumps(sidecar, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            tmp = directory / (ANALYZE_FILE + TMP_SUFFIX)
            tmp.write_bytes(blob)
            os.replace(tmp, directory / ANALYZE_FILE)
            return sidecar

    def load_analysis(self, name: str) -> Dict[str, object]:
        """The entry's ``analyze.json`` sidecar.

        Missing, unreadable, or wrong-schema-version sidecars all yield
        a fresh empty shell — the sidecar is best-effort by design and
        a version bump invalidates old records wholesale.
        """
        directory = self._entry_dir(name)
        with self._lock:
            if not (directory / META_FILE).exists():
                raise CatalogError(f"unknown catalog entry {name!r}")
            return self._read_analysis(directory)

    @staticmethod
    def _read_analysis(directory: Path) -> Dict[str, object]:
        try:
            sidecar = json.loads(
                (directory / ANALYZE_FILE).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            sidecar = None
        if (
            not isinstance(sidecar, dict)
            or sidecar.get("version") != ANALYZE_SIDECAR_VERSION
            or not isinstance(sidecar.get("records"), list)
        ):
            return {"version": ANALYZE_SIDECAR_VERSION, "records": []}
        return sidecar

    # -- internals -----------------------------------------------------

    def _entry_dir(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise CatalogError(
                f"invalid catalog name {name!r} (allowed: letters, digits, "
                "'.', '_', '-'; must not start with a separator)"
            )
        return self.root / name

    def _read_meta(self, directory: Path) -> Optional[Dict[str, object]]:
        try:
            meta = json.loads((directory / META_FILE).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return meta if isinstance(meta, dict) else None

    def _next_epoch(self, directory: Path) -> int:
        """The epoch an update of the entry in ``directory`` writes."""
        meta = self._read_meta(directory) or {}
        return int(meta.get("epoch") or 1) + 1

    def _stage_entry(
        self,
        name: str,
        graph: Graph,
        artifacts: DataArtifacts,
        epoch: int,
        encoded: Optional[Tuple[bytes, str]] = None,
        disk_graph_sha256: Optional[str] = None,
    ) -> _StagedEntry:
        """Render one entry state to bytes, hashing each file once.

        Pure computation (no I/O, no lock).  The graph file is the
        canonical text — ``encoded`` when the caller already holds
        :func:`encode_graph`'s result — whose SHA-256 is also the graph
        checksum.  Passing ``disk_graph_sha256`` instead is the
        rebuild-on-load path: the graph file on disk *is* the source
        being recovered from, is not rewritten, and may differ from the
        canonical text.
        """
        files: Dict[str, bytes] = {}
        digests: Dict[str, str] = {}
        if disk_graph_sha256 is None:
            graph_blob, checksum = encoded or encode_graph(graph)
            files[GRAPH_FILE] = graph_blob
            digests[GRAPH_FILE] = graph_file_sha256 = checksum
        else:
            checksum = graph_checksum(graph)
            graph_file_sha256 = disk_graph_sha256
        blob = dumps_artifacts(artifacts)
        files[ARTIFACTS_FILE] = blob
        digests[ARTIFACTS_FILE] = _sha256(blob)
        meta = {
            "format_version": CATALOG_FORMAT_VERSION,
            "artifacts_format_version": ARTIFACTS_FORMAT_VERSION,
            "name": name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "epoch": epoch,
            "graph_checksum": checksum,
            "graph_file_sha256": graph_file_sha256,
            "artifacts_sha256": digests[ARTIFACTS_FILE],
        }
        return self._restage_meta(_StagedEntry(files, digests, meta), epoch)

    @staticmethod
    def _restage_meta(staged: _StagedEntry, epoch: int) -> _StagedEntry:
        """``staged`` with its sidecar (re-)rendered at ``epoch``."""
        meta = dict(staged.meta, epoch=epoch)
        blob = (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        return _StagedEntry(
            {**staged.files, META_FILE: blob},
            {**staged.digests, META_FILE: _sha256(blob)},
            meta,
        )

    def _commit_entry(self, directory: Path, staged: _StagedEntry) -> None:
        """Persist a staged entry state as one journaled transaction.
        Call with ``self._lock`` held."""
        epoch = int(staged.meta["epoch"])
        self._txn_commit(directory, staged.files, staged.digests, epoch)
        self._epochs[directory.name] = epoch

    def _load(self, name: str) -> Tuple[Graph, DataArtifacts, bool]:
        """Load an entry from disk, recovering any interrupted
        transaction first and rebuilding artifacts when needed."""
        directory = self._entry_dir(name)
        epoch_hint: Optional[int] = None
        if directory.exists():
            epoch_hint = self._recover(directory)
        try:
            graph_text = (directory / GRAPH_FILE).read_text(encoding="utf-8")
        except OSError:
            raise CatalogError(f"unknown catalog entry {name!r}")
        try:
            graph = loads_graph(graph_text)
        except ValueError as exc:
            raise CatalogError(f"catalog entry {name!r} graph is corrupt: {exc}")

        meta = self._read_meta(directory)
        graph_file_sha256 = _sha256(graph_text.encode("utf-8"))
        blob: Optional[bytes] = None
        if (
            meta is not None
            and meta.get("format_version") == CATALOG_FORMAT_VERSION
            # A sidecar from before an artifact-format bump is *stale*,
            # not corrupt: skip the blob entirely and rebuild cleanly
            # (loads_artifacts would reject its version anyway).
            and meta.get("artifacts_format_version") == ARTIFACTS_FORMAT_VERSION
            and meta.get("graph_file_sha256") == graph_file_sha256
        ):
            try:
                candidate = (directory / ARTIFACTS_FILE).read_bytes()
            except OSError:
                candidate = None
            if (
                candidate is not None
                and meta.get("artifacts_sha256") == _sha256(candidate)
            ):
                blob = candidate
        if blob is not None:
            try:
                artifacts = loads_artifacts(blob, graph)
                self.counters["artifact_loads"] += 1
                try:
                    self._epochs[name] = max(1, int(meta.get("epoch") or 1))
                except (TypeError, ValueError):
                    self._epochs[name] = 1
                return graph, artifacts, False
            except ArtifactsFormatError:
                pass  # fall through to rebuild
        artifacts = DataArtifacts(graph)
        self.counters["artifact_rebuilds"] += 1
        # A rebuild recovers the artifacts, not the entry's history:
        # keep whatever epoch the (possibly corrupt) sidecar still had,
        # unless recovery determined the graph content already belongs
        # to an aborted transaction's target epoch.
        epoch = epoch_hint or 1
        if epoch_hint is None and meta is not None:
            try:
                epoch = max(1, int(meta.get("epoch") or 1))
            except (TypeError, ValueError):
                epoch = 1
        self._commit_entry(
            directory,
            self._stage_entry(
                name, graph, artifacts, epoch,
                disk_graph_sha256=graph_file_sha256,
            ),
        )
        return graph, artifacts, True

    def _install(self, name: str, engine: GuPEngine) -> None:
        self._resident[name] = engine
        self._resident.move_to_end(name)
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
            self.counters["engine_evictions"] += 1

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus residency, for the service ``stats`` op."""
        with self._lock:
            out: Dict[str, object] = dict(self.counters)
            out["resident"] = list(self._resident)
            out["entries"] = self.names()
            return out
