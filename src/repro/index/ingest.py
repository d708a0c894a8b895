"""The index writer: streaming multiprocess ingest with checkpointed resume.

Every index write goes through :func:`ingest_corpus`:
:meth:`~repro.api.facade.Corpus.build` is a ``fresh=True`` ingest,
:meth:`~repro.api.facade.Corpus.add` an append-mode ingest, and the CLI's
``index build``/``index add``/``index ingest`` call those.  The shape
suits a handful of designs and a registry of 10⁵–10⁶ alike:

- a **work queue** of design sources feeds N worker processes (or the
  parent itself when ``jobs=1``), each running the full extract → chunk
  → embed pipeline (the model is shipped to the workers once, at pool
  start) and returning only the unit-normalized float32 rows plus a
  small metadata record — graphs never accumulate in the parent, so
  peak memory stays flat regardless of corpus size;
- results stream back **in input order** (deterministic layout: two
  runs over the same corpus produce identical indexes) and are flushed
  to the append-only v4 shard files in bounded-size batches;
- a failing design is **recorded and skipped**, never fatal: its error
  entry lands in the checkpoint and the final index like any other;
- when ``root`` already holds an index built with the same model,
  extraction options and chunk config, a design whose content key is
  stored there is **reused**: its rows, regions, entry fields and WL
  colors are copied instead of extracted and embedded again (a warm
  rebuild or an append of known content costs a read and a hash);
- every flush durably lands (``fsync``) one shard, one WL-signature
  sidecar line, and one atomically-replaced **checkpoint**, in that
  order — a kill at any instant leaves a checkpoint that refers only to
  bytes already on disk, and ``ingest_corpus`` resumes exactly where it
  stopped, producing an index byte-equivalent to an uninterrupted run;
- finalize merges the sidecar into ``signatures.json``, compacts the
  per-flush mini-shards into one, fits (or grows) the IVF quantizer —
  re-fitting from scratch in a background thread when the rows added
  since the last k-means fit cross :data:`REFIT_GROWTH` — and writes
  ``meta.json`` last, so the index is never observable half-built.

Crash-ordering contract (what resume relies on)::

    shard-NNNNN.f32   (fsync, atomic rename)     <- rows land first
    ingest.sigs.jsonl (append + fsync)           <- signature sidecar
    ingest.json       (fsync, atomic rename)     <- checkpoint LAST

A checkpoint therefore never references a shard that is missing or
short; an orphan shard from a crash between steps is re-done on resume
and cleaned at finalize.  Neither a rebuild nor an append touches the
files of the index already at ``root`` — its ``meta.json`` stays valid
(and servable) until the new one atomically replaces it.
"""

import hashlib
import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.persist import load_model, save_model
from repro.errors import IndexStoreError, ModelError
from repro.index.ann import IVFIndex, MIN_ROWS as IVF_MIN_ROWS, REFIT_GROWTH
from repro.index.cache import DFGCache
from repro.index.chunks import ChunkConfig, extract_chunks
from repro.index.service import EmbeddingService
from repro.index.shards import (
    SHARD_DTYPE,
    ShardStore,
    next_shard_ordinal,
    unit_rows_f32,
    write_shard,
)
from repro.index.store import (
    CACHE_DIR,
    FORMAT_VERSION,
    META_NAME,
    MODEL_NAME,
    FingerprintIndex,
    _clean_stale_files,
    _next_ivf_name,
    _read_meta,
    _write_meta,
)
from repro.index.wlsig import (
    SIG_NAME,
    SIG_RADIUS,
    load_signatures,
    wl_colors,
    write_signatures,
)
from repro.ir.frontends import get_frontend

#: Durable ingest checkpoint (atomically replaced per flush); its
#: presence marks an ingest in progress — ``resume=True`` picks it up.
CHECKPOINT_NAME = "ingest.json"
#: Append-only WL-signature sidecar (one JSON line per flush).  Merged
#: into ``signatures.json`` at finalize and removed with the checkpoint.
SIG_SIDECAR_NAME = "ingest.sigs.jsonl"
#: Bump when the checkpoint schema changes shape: an old checkpoint is
#: refused (restart with ``fresh=True``) rather than misread.
CHECKPOINT_VERSION = 1
#: Finalize compacts this ingest's per-flush mini-shards into a single
#: shard when it wrote at least this many — hundreds of 2k-row blocks
#: would otherwise tax every future query's block loop.
COMPACT_MIN_SHARDS = 8


def walk_sources(sources):
    """Expand files and directory trees into a sorted ``.v`` file list.

    Directories are walked recursively (this is how an **external**
    Verilog tree is ingested — point it at the root).  Duplicates are
    dropped; order is deterministic (sorted within each directory,
    sources in argument order).
    """
    paths = []
    for source in sources:
        path = Path(source)
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.v")))
        else:
            paths.append(path)
    seen = set()
    unique = []
    for path in paths:
        if str(path) not in seen:
            seen.add(str(path))
            unique.append(path)
    return unique


@dataclass
class IngestConfig:
    """Tunables for :func:`ingest_corpus`, and so for every index write
    (exported as :class:`repro.api.IndexConfig` too).

    Attributes:
        jobs: worker processes (``None`` auto-sizes to the machine,
            ``1`` forces the serial in-process path).
        flush_rows: embedding rows buffered in the parent before a
            shard flush + checkpoint; bounds peak parent memory
            (``flush_rows`` × hidden × 4 bytes of row data).
        batch_size: graphs per packed embedding forward pass inside
            each worker.
        level: extraction level for a fresh index (defaults to the
            model's level); appends always use the index's own level.
        top: top-module override applied to every file.
        use_cache: probe/populate the content-addressed graph cache and
            reuse designs the index at ``root`` already stores;
            ``False`` extracts and embeds everything.
        chunks: also store one row per subgraph chunk (fresh indexes
            only; appends follow the index's stored chunk config).
        chunk_config: :class:`~repro.index.chunks.ChunkConfig` override.
        progress: callable invoked with a stats dict (``done``,
            ``total``, ``failed``, ``rows``, ``rows_per_sec``,
            ``designs_per_sec``, ``eta_seconds``, ``elapsed_seconds``)
            every ``progress_every`` seconds and once at the end.
        progress_every: minimum seconds between progress callbacks.
        stop_after: checkpoint and pause after this many designs are
            processed *in this session* (``ingest_corpus`` then returns
            ``(None, report)`` with ``state: "paused"``); ``None`` runs
            to completion.  The pause/resume seam for bounded ingest
            windows — and for tests that prove resume correctness.
    """

    jobs: int = None
    flush_rows: int = 2048
    batch_size: int = 64
    level: str = None
    top: str = None
    use_cache: bool = True
    chunks: bool = True
    chunk_config: object = None
    progress: object = field(default=None, repr=False)
    progress_every: float = 2.0
    stop_after: int = None


def default_jobs(task_count=None):
    """Worker count: one per core, capped at 8 and at the task count."""
    jobs = min(os.cpu_count() or 1, 8)
    if task_count is not None:
        jobs = min(jobs, max(task_count, 1))
    return jobs


# -- worker side --------------------------------------------------------------
#: Per-worker-process state, built once by the pool initializer so the
#: model is unpickled and the frontend constructed once per worker, not
#: once per file.
_WORKER = {}


class _StoredDesigns:
    """What an existing index stores per content key: the rows (design
    row first, then its chunk rows), chunk regions, entry fields and WL
    colors a rebuild or append copies instead of recomputing."""

    def __init__(self, index, colors):
        self.shards = index.shards
        self.colors = colors
        self.entries = {}
        for entry in index.entries:
            if entry["status"] == "ok":
                self.entries.setdefault(entry["key"], entry)
        self.rows = {}
        for row, spec in enumerate(index.rows):
            owner = (spec["parent"] if spec.get("kind") == "chunk"
                     else spec["name"])
            self.rows.setdefault(owner, []).append((row,
                                                    spec.get("region")))

    @classmethod
    def open(cls, root, model_hash, options, chunk_spec):
        """The designs stored at ``root``, or ``None`` unless that index
        was built with this model, these extraction options and this
        chunk config (anything else would copy incomparable rows)."""
        if not (Path(root) / META_NAME).is_file():
            return None
        try:
            index = FingerprintIndex.load(root)
            signatures = load_signatures(root)
        except IndexStoreError:
            return None
        stored = index.meta["options"]
        if (index.model_hash != model_hash
                or index.meta.get("chunks") != chunk_spec
                or any(stored.get(name) != options.get(name)
                       for name in ("level", "do_trim", "schema", "top"))):
            return None
        colors = ({} if signatures is None or signatures[1] != SIG_RADIUS
                  else signatures[0])
        return cls(index, colors)

    def payload(self, key):
        """Payload fields for a stored content key (``colors`` only when
        the index signed it), or ``None`` when the key is not stored."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        rows = self.rows[entry["name"]]
        unit = np.stack([self.shards.row(row) for row, _ in rows])
        fields = {"design": entry["design"], "nodes": entry["nodes"],
                  "edges": entry["edges"], "cached": None, "reused": True,
                  "rows": unit.tobytes(), "n_rows": len(rows),
                  "regions": [region for _, region in rows[1:]]}
        if entry["name"] in self.colors:
            fields["colors"] = _hex_colors(self.colors[entry["name"]])
        return fields


def _hex_colors(colors):
    return {format(color, "x"): int(count)
            for color, count in sorted(colors.items())}


def _init_ingest_worker(model, model_hash, options, chunk_spec, root,
                        batch_size):
    use_cache = options.get("use_cache", True)
    _WORKER["frontend"] = get_frontend(options["level"],
                                       do_trim=options.get("do_trim", True))
    _WORKER["service"] = EmbeddingService(model, batch_size=batch_size)
    _WORKER["top"] = options["top"]
    _WORKER["chunks"] = (ChunkConfig.from_dict(chunk_spec)
                         if chunk_spec else None)
    _WORKER["cache"] = (DFGCache(Path(root) / CACHE_DIR) if use_cache
                        else None)
    _WORKER["stored"] = (_StoredDesigns.open(root, model_hash, options,
                                             chunk_spec)
                         if use_cache else None)
    _WORKER["want_colors"] = chunk_spec is not None


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _ingest_task(task):
    """Worker: full extract → chunk → embed pipeline for one file.

    Returns ``(seq, payload)`` where the payload is a small picklable
    dict — embedding rows as raw float32 bytes, never graphs — so the
    parent's memory footprint per in-flight result is a few kilobytes.
    A content key the index at the root already stores is copied from
    there instead (its graph is only taken for WL colors the stored
    index never signed).  ``cached`` records where the graph came from:
    the cache (``True``), extraction (``False``) or nowhere (``None``).
    Any exception is captured as an error payload: one bad design can
    never take down the run.
    """
    seq, path = task
    payload = {"path": str(path),
               "stem": os.path.splitext(os.path.basename(str(path)))[0],
               "key": None}
    frontend = _WORKER["frontend"]
    want_colors = _WORKER["want_colors"]
    try:
        with open(path) as handle:
            text = handle.read()
        cleaned = frontend.preprocess_text(text)
        payload["key"] = frontend.content_key(cleaned, top=_WORKER["top"])
        stored = _WORKER["stored"]
        reused = None if stored is None else stored.payload(payload["key"])
        if reused is not None:
            payload.update(reused)
            if "colors" in payload or not want_colors:
                return seq, payload
        cache = _WORKER["cache"]
        graph = cache.load(payload["key"]) if cache is not None else None
        payload["cached"] = graph is not None
        if graph is None:
            graph = frontend.extract_preprocessed(cleaned,
                                                  top=_WORKER["top"])
            if cache is not None:
                cache.store(payload["key"], graph)
        if reused is None:
            chunk_opts = _WORKER["chunks"]
            subs = extract_chunks(graph, chunk_opts) if chunk_opts else []
            unit = unit_rows_f32(_WORKER["service"].embed_graphs(
                [graph] + [sub for sub, _ in subs]))
            payload.update({
                "design": graph.name,
                "nodes": len(graph),
                "edges": graph.num_edges,
                "rows": unit.tobytes(),
                "n_rows": int(unit.shape[0]),
                "regions": [region for _, region in subs],
            })
        if want_colors:
            payload["colors"] = _hex_colors(wl_colors(graph))
        return seq, payload
    except Exception as exc:  # noqa: BLE001 - per-item isolation is the point
        payload["error"] = _describe(exc)
        return seq, payload


# -- durable writes -----------------------------------------------------------
def _fsync_dir(path):
    """Best-effort directory fsync (required for rename durability on
    POSIX; silently skipped where directories cannot be opened)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_json_durable(path, payload):
    """fsync'd write + atomic rename: the file is either the old
    version or the complete new one, never a prefix."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    _fsync_dir(path.parent)


def _append_sidecar(path, colors_by_name):
    """Append one durable JSONL line of ``{name: {hex: count}}``."""
    with open(path, "a") as handle:
        handle.write(json.dumps(colors_by_name, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _read_sidecar(path):
    """Merged ``{name: Counter-dict}`` from the sidecar (later lines
    win — a re-done flush after a crash simply overwrites its names)."""
    from collections import Counter

    colors = {}
    if not Path(path).is_file():
        return colors
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                batch = json.loads(line)
            except json.JSONDecodeError:
                # A torn final line (crash mid-append): every complete
                # line before it is valid, and the items it described
                # are not in the checkpoint, so they will be re-done.
                continue
            colors.update(batch)
    return {name: Counter({int(color, 16): int(count)
                           for color, count in mapping.items()})
            for name, mapping in colors.items()}


def _input_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path).encode("utf-8") + b"\n")
    return digest.hexdigest()


# -- the ingest driver --------------------------------------------------------
class _IngestState:
    """Mutable run state: checkpointed fields plus session counters."""

    def __init__(self, root, paths, checkpoint):
        self.root = Path(root)
        self.paths = paths
        self.mode = checkpoint["mode"]
        self.options = checkpoint["options"]
        self.chunk_spec = checkpoint["chunks"]
        self.hidden = checkpoint["hidden"]
        self.model_hash = checkpoint["model_hash"]
        self.input_digest = checkpoint["input_digest"]
        self.base = checkpoint["base"]
        self.completed = checkpoint["completed"]
        self.entries = checkpoint["entries"]
        self.rows = checkpoint["rows"]
        self.shards = checkpoint["shards"]
        self.taken = set(checkpoint["taken_base_names"])
        self.taken.update(e["name"] for e in self.entries)
        self.flushes = 0

    @property
    def new_rows(self):
        return sum(int(spec["rows"]) for spec in self.shards)

    def checkpoint_payload(self):
        return {
            "version": CHECKPOINT_VERSION,
            "mode": self.mode,
            "model_hash": self.model_hash,
            "options": self.options,
            "chunks": self.chunk_spec,
            "hidden": self.hidden,
            "input_digest": self.input_digest,
            "base": self.base,
            "total": len(self.paths),
            "completed": self.completed,
            "entries": self.entries,
            "rows": self.rows,
            "shards": self.shards,
            "taken_base_names": sorted(
                self.taken - {e["name"] for e in self.entries}),
        }

    def write_checkpoint(self):
        _write_json_durable(self.root / CHECKPOINT_NAME,
                            self.checkpoint_payload())
        self.flushes += 1

    def unique_name(self, stem):
        candidate, suffix = stem, 1
        while candidate in self.taken:
            suffix += 1
            candidate = f"{stem}#{suffix}"
        self.taken.add(candidate)
        return candidate


def _resume_error(root, why):
    return IndexStoreError(
        f"cannot resume the ingest checkpoint at {root}: {why}; "
        f"restart from scratch with fresh=True "
        f"('gnn4ip index ingest --fresh')")


def _load_checkpoint(root, paths, model_hash):
    """Validated checkpoint dict for a resume, or None when absent."""
    path = Path(root) / CHECKPOINT_NAME
    if not path.is_file():
        return None
    try:
        checkpoint = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _resume_error(root, f"checkpoint file is corrupt ({exc})")
    if checkpoint.get("version") != CHECKPOINT_VERSION:
        raise _resume_error(
            root, f"checkpoint version {checkpoint.get('version')!r} is "
                  f"not supported (expected {CHECKPOINT_VERSION})")
    if checkpoint["input_digest"] != _input_digest(paths):
        raise _resume_error(
            root, "the input file list changed since the checkpoint was "
                  "written (resume requires the identical source list)")
    if model_hash is not None and checkpoint["model_hash"] != model_hash:
        raise _resume_error(
            root, "the model changed since the checkpoint was written")
    # Every checkpointed shard must hold exactly the bytes the
    # checkpoint says it does — a short file here means external
    # truncation (the flush protocol itself never checkpoints a shard
    # before it is fully on disk).
    for spec in checkpoint["shards"]:
        shard = Path(root) / "shards" / spec["file"]
        expected = (int(spec["rows"]) * int(checkpoint["hidden"])
                    * SHARD_DTYPE.itemsize)
        actual = shard.stat().st_size if shard.is_file() else -1
        if actual != expected:
            raise _resume_error(
                root, f"checkpointed shard {spec['file']} is "
                      f"{'missing' if actual < 0 else f'{actual} bytes'}, "
                      f"expected {expected} ({spec['rows']} rows x "
                      f"{checkpoint['hidden']}): truncated or deleted "
                      f"outside the ingest protocol")
    return checkpoint


def _fresh_checkpoint(root, paths, model, service, config):
    """Checkpoint skeleton for a brand-new index (mode ``fresh``)."""
    model_level = getattr(model.encoder, "featurizer", None)
    model_level = model_level.level if model_level is not None else "rtl"
    frontend = get_frontend(config.level if config.level is not None
                            else model_level)
    if frontend.level != model_level:
        raise ModelError(
            f"cannot build a {frontend.level}-level index with a "
            f"{model_level}-level model (train with --level "
            f"{frontend.level} or change --level)")
    chunk_opts = ((config.chunk_config or ChunkConfig())
                  if config.chunks else None)
    return {
        "version": CHECKPOINT_VERSION,
        "mode": "fresh",
        "model_hash": service.fingerprint,
        "options": {
            "top": config.top,
            "level": frontend.level,
            "do_trim": getattr(frontend, "do_trim", True),
            "schema": frontend.schema_fingerprint(),
            "use_cache": config.use_cache,
        },
        "chunks": chunk_opts.as_dict() if chunk_opts else None,
        "hidden": int(model.encoder.hidden),
        "input_digest": _input_digest(paths),
        "base": None,
        "total": len(paths),
        "completed": 0,
        "entries": [],
        "rows": [],
        "shards": [],
        "taken_base_names": [],
    }


def _append_checkpoint(root, paths, index, service, config):
    """Checkpoint skeleton for growing an existing index (``append``)."""
    if service.fingerprint != index.model_hash:
        raise IndexStoreError(
            "model fingerprint does not match the index (ingest with "
            "the index's own model, or rebuild with fresh=True)")
    meta = index.meta
    return {
        "version": CHECKPOINT_VERSION,
        "mode": "append",
        "model_hash": index.model_hash,
        "options": dict(meta["options"]),
        "chunks": meta.get("chunks"),
        "hidden": int(meta["store"]["hidden"]),
        "input_digest": _input_digest(paths),
        "base": {
            "entries": len(meta["entries"]),
            "rows": len(meta.get("rows") or []),
            "shards": len(meta["store"]["shards"]),
        },
        "total": len(paths),
        "completed": 0,
        "entries": [],
        "rows": [],
        "shards": [],
        "taken_base_names": [e["name"] for e in meta["entries"]],
    }


def _entry_from_payload(state, payload):
    """Index entry dict (plus row specs) for one worker payload."""
    name = state.unique_name(payload["stem"])
    entry = {"name": name, "path": payload["path"], "key": payload["key"],
             "status": "error" if "error" in payload else "ok"}
    if "error" in payload:
        entry["error"] = payload["error"]
        return entry, []
    entry.update(design=payload["design"], nodes=payload["nodes"],
                 edges=payload["edges"], cached=payload["cached"],
                 reused=payload.get("reused", False))
    specs = [{"kind": "design", "name": name}]
    specs.extend({"kind": "chunk", "parent": name, "region": region}
                 for region in payload["regions"])
    return entry, specs


class _FlushBuffer:
    """Bounded accumulator of embedding rows between shard flushes."""

    def __init__(self, hidden):
        self.hidden = hidden
        self.blobs = []
        self.rows = 0
        self.colors = {}

    def add(self, payload, name):
        if "error" in payload:
            return
        self.blobs.append(payload["rows"])
        self.rows += payload["n_rows"]
        if "colors" in payload:
            self.colors[name] = payload["colors"]

    def matrix(self):
        if not self.rows:
            return np.empty((0, self.hidden), dtype=SHARD_DTYPE)
        return np.frombuffer(b"".join(self.blobs),
                             dtype=SHARD_DTYPE).reshape(-1, self.hidden)

    def clear(self):
        self.blobs, self.rows, self.colors = [], 0, {}


def _flush(state, buffer):
    """Land one flush durably: shard, sidecar line, checkpoint — in
    that order, so the checkpoint only ever references durable bytes."""
    if buffer.rows:
        # next_shard_ordinal scans the shards directory, so base-index
        # shards and crash orphans are cleared automatically.
        ordinal = next_shard_ordinal(state.root, state.shards)
        state.shards.append(write_shard(state.root, ordinal,
                                        buffer.matrix(), fsync=True))
    if buffer.colors:
        _append_sidecar(state.root / SIG_SIDECAR_NAME, buffer.colors)
    buffer.clear()
    state.write_checkpoint()


def _progress_stats(state, session_done, session_rows, failed, started):
    elapsed = max(time.monotonic() - started, 1e-9)
    remaining = len(state.paths) - state.completed
    designs_per_sec = session_done / elapsed
    return {
        "done": state.completed,
        "total": len(state.paths),
        "failed": failed,
        "rows": state.new_rows,
        "rows_per_sec": session_rows / elapsed,
        "designs_per_sec": designs_per_sec,
        "eta_seconds": (remaining / designs_per_sec
                        if designs_per_sec > 0 else None),
        "elapsed_seconds": elapsed,
    }


def _compact_shards(state):
    """Merge this ingest's per-flush mini-shards into one shard.

    Pure byte concatenation of already-unit rows (no re-normalization,
    no re-embedding): the merged shard is bit-identical to the parts it
    replaces, so query results cannot change.  Old mini-shards become
    stale files, removed only after the new ``meta.json`` lands.
    """
    if len(state.shards) < COMPACT_MIN_SHARDS:
        return False
    store = ShardStore(state.root, state.hidden, state.shards)
    merged = store.matrix()
    ordinal = next_shard_ordinal(state.root, state.shards)
    state.shards = [write_shard(state.root, ordinal, merged, fsync=True)]
    return True


def _finalize(state, model, service, config, report):
    """Assemble and atomically publish the completed index."""
    root = state.root
    if state.mode == "append":
        meta = _read_meta(root)
        base = state.base
        if (meta.get("version") != FORMAT_VERSION
                or meta["model_hash"] != state.model_hash
                or len(meta["entries"]) < base["entries"]):
            raise _resume_error(
                root, "the base index changed while the ingest was "
                      "suspended (model or entry count mismatch)")
        # Idempotent re-finalize: a crash after meta landed but before
        # the checkpoint was removed re-runs this merge over the *base
        # prefix* of the already-merged meta, producing the same result.
        meta["entries"] = meta["entries"][:base["entries"]] + state.entries
        meta["rows"] = (meta.get("rows") or [])[:base["rows"]] + state.rows
        meta["store"]["shards"] = (meta["store"]["shards"][:base["shards"]]
                                   + state.shards)
    else:
        meta = {
            "version": FORMAT_VERSION,
            "model_hash": state.model_hash,
            "options": state.options,
            "store": {
                "dtype": "float32",
                "hidden": state.hidden,
                "shards": state.shards,
            },
            "entries": state.entries,
            "rows": state.rows,
            "chunks": state.chunk_spec,
        }

    # IVF: re-fit from everything when the rows added since the last
    # k-means fit cross the growth threshold (assign-only growth slowly
    # degrades recall as the corpus drifts from the fitted centroids);
    # otherwise grow the existing quantizer in place.  The fit runs in a
    # background thread, overlapped with signature compaction below.
    all_specs = meta["store"]["shards"]
    store = ShardStore(root, state.hidden, all_specs)
    total_rows = store.rows
    ivf_box = {}

    def _fit_ivf():
        old_spec = meta.get("ivf") if state.mode == "append" else None
        old_ivf = None
        if old_spec:
            try:
                old_ivf = IVFIndex.load(root / old_spec.get("file", ""))
            except IndexStoreError:
                old_ivf = None
        fitted = (old_spec or {}).get("fitted_rows", 0)
        grown = total_rows - fitted
        if (old_ivf is not None and old_ivf.rows == total_rows
                - state.new_rows
                and grown <= max(IVF_MIN_ROWS, int(REFIT_GROWTH * fitted))):
            new_store = ShardStore(root, state.hidden, state.shards)
            old_ivf.add(new_store.matrix())
            ivf_box["ivf"] = old_ivf
            ivf_box["fitted_rows"] = fitted
        elif total_rows >= IVF_MIN_ROWS:
            ivf_box["ivf"] = IVFIndex.fit(store.matrix())
            ivf_box["fitted_rows"] = total_rows
        else:
            ivf_box["ivf"] = None

    fitter = threading.Thread(target=_fit_ivf, name="ingest-ivf-fit")
    fitter.start()

    # Signatures: merge the sidecar into signatures.json.  Fresh chunked
    # ingests sign everything; appends extend an existing signature file
    # (an unsigned base index stays unsigned — a partially-signed corpus
    # could never serve the structural channel).
    sidecar = _read_sidecar(root / SIG_SIDECAR_NAME)
    has_chunk_rows = any(spec.get("kind") == "chunk"
                         for spec in meta.get("rows") or [])
    if state.mode == "append":
        stored = load_signatures(root)
        if stored is not None:
            colors, radius = stored
            colors.update(sidecar)
            write_signatures(root, colors, radius=radius)
    elif has_chunk_rows:
        write_signatures(root, sidecar, radius=SIG_RADIUS)
    else:
        (root / SIG_NAME).unlink(missing_ok=True)

    fitter.join()
    if ivf_box.get("ivf") is not None:
        name = _next_ivf_name(root)
        ivf_box["ivf"].save(root / name)
        meta["ivf"] = {"clusters": ivf_box["ivf"].n_clusters, "file": name,
                       "fitted_rows": int(ivf_box["fitted_rows"])}
    else:
        meta["ivf"] = None

    meta["build"] = report
    if state.mode == "fresh":
        save_model(model, root / MODEL_NAME)
    _write_meta(root, meta)
    # Only after the new meta is live may the ingest scaffolding and any
    # superseded files disappear.
    (root / CHECKPOINT_NAME).unlink(missing_ok=True)
    (root / SIG_SIDECAR_NAME).unlink(missing_ok=True)
    _clean_stale_files(root, meta)
    return FingerprintIndex.load(root)


def ingest_corpus(root, paths, model=None, config=None, resume=True,
                  fresh=False):
    """Streaming, resumable, multiprocess corpus ingest: the one way an
    index is written (see the module docstring).

    Modes (selected automatically):

    - **resume** — a checkpoint exists at ``root`` and ``resume`` is
      true: continue exactly where the previous run stopped (the input
      list and model must be unchanged).
    - **append** — no checkpoint, but a loadable index exists: stream
      the new designs in without touching existing files (the index
      keeps serving its old meta until the new one atomically lands).
    - **fresh** — otherwise (or whenever ``fresh=True``): build a new
      index from scratch, discarding any checkpoint or existing index
      (whose stored designs are still reused where they match).

    Args:
        root: index directory.
        paths: Verilog files to ingest (see :func:`walk_sources` for
            expanding a directory tree).
        model: a :class:`~repro.core.gnn4ip.GNN4IP`; required for fresh
            ingests, optional for append/resume (defaults to the
            index's own persisted model).
        config: an :class:`IngestConfig`.
        resume: pick up an existing checkpoint (refused loudly when its
            input list, model, or shard bytes do not match).
        fresh: ignore any checkpoint and existing index and start over.

    Returns:
        ``(index, report)``.  ``index`` is the loaded
        :class:`~repro.index.store.FingerprintIndex`, or ``None`` when
        the run paused at ``config.stop_after`` (the report then has
        ``ingest.state == "paused"``).  The report counts this run's
        files (``files``, ``embedded``, ``failures``, ``chunk_rows``;
        ``embedded_fresh`` vs ``embeddings_reused``), its graph-cache
        ``hits``/``misses`` (``None`` without the cache), the worker
        count ``jobs``, and the run itself under ``ingest``.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    config = config if config is not None else IngestConfig()
    paths = [str(p) for p in paths]
    if not paths:
        raise IndexStoreError("no input files to ingest")

    if fresh:
        (root / CHECKPOINT_NAME).unlink(missing_ok=True)
        (root / SIG_SIDECAR_NAME).unlink(missing_ok=True)

    # -- mode selection + model resolution ------------------------------------
    checkpoint = None
    if resume and not fresh:
        checkpoint = _load_checkpoint(root, paths, None)
    base_index = None
    if checkpoint is None:
        if not fresh and (root / META_NAME).is_file():
            base_index = FingerprintIndex.load(root)
        if model is None:
            if base_index is not None:
                model = base_index.model()
            else:
                raise ModelError("a fresh ingest needs a model "
                                 "(pass model=... or --model)")
        service = EmbeddingService(model, batch_size=config.batch_size)
        if base_index is not None:
            checkpoint = _append_checkpoint(root, paths, base_index,
                                            service, config)
        else:
            checkpoint = _fresh_checkpoint(root, paths, model, service,
                                           config)
        resumed = False
    else:
        if model is None:
            model_path = root / MODEL_NAME
            if not model_path.is_file():
                raise _resume_error(root, "model.npz is missing")
            model = load_model(model_path)
        service = EmbeddingService(model, batch_size=config.batch_size)
        if service.fingerprint != checkpoint["model_hash"]:
            raise _resume_error(
                root, "the model changed since the checkpoint was written")
        resumed = True

    state = _IngestState(root, paths, checkpoint)
    # The running code's feature schema must match the one the rows
    # already on disk were extracted under, or old and new rows would be
    # silently incomparable.
    check_frontend = get_frontend(
        state.options["level"],
        do_trim=state.options.get("do_trim", True))
    if state.options.get("schema") not in (None,
                                           check_frontend
                                           .schema_fingerprint()):
        raise _resume_error(
            root, "the feature schema changed since the checkpoint was "
                  "written (stored rows would not be comparable)")
    # The model must be durable before the first checkpoint: a resumed
    # fresh ingest reloads it from the index root.
    if state.mode == "fresh" and not resumed:
        save_model(model, root / MODEL_NAME)

    remaining = paths[state.completed:]
    init_args = (model, state.model_hash, state.options, state.chunk_spec,
                 str(root), config.batch_size)
    jobs = (config.jobs if config.jobs is not None
            else default_jobs(len(remaining)))
    buffer = _FlushBuffer(state.hidden)
    started = time.monotonic()
    session_done = session_rows = failed_this_run = 0
    last_progress = started
    paused = False

    def _emit_progress(force=False):
        nonlocal last_progress
        if config.progress is None:
            return
        now = time.monotonic()
        if force or now - last_progress >= config.progress_every:
            last_progress = now
            config.progress(_progress_stats(state, session_done,
                                            session_rows,
                                            failed_this_run, started))

    def _consume(payload):
        nonlocal session_done, session_rows, failed_this_run
        entry, row_specs = _entry_from_payload(state, payload)
        state.entries.append(entry)
        state.rows.extend(row_specs)
        buffer.add(payload, entry["name"])
        state.completed += 1
        session_done += 1
        session_rows += payload.get("n_rows", 0)
        if entry["status"] == "error":
            failed_this_run += 1
        if buffer.rows >= config.flush_rows:
            _flush(state, buffer)
        _emit_progress()

    tasks = [(state.completed + i, path)
             for i, path in enumerate(remaining)]
    if config.stop_after is not None:
        tasks = tasks[:config.stop_after]
        paused = len(tasks) < len(remaining)

    pool = None
    try:
        if jobs > 1 and len(tasks) > 1:
            chunksize = max(1, min(16, len(tasks) // (jobs * 4) or 1))
            pool = multiprocessing.Pool(processes=jobs,
                                        initializer=_init_ingest_worker,
                                        initargs=init_args)
            for _seq, payload in pool.imap(_ingest_task, tasks,
                                           chunksize=chunksize):
                _consume(payload)
        else:
            jobs = 1
            _init_ingest_worker(*init_args)
            for task in tasks:
                _consume(_ingest_task(task)[1])
    except KeyboardInterrupt:
        # Land what is already complete before propagating: the next
        # run resumes from this flush instead of from the last one.
        _flush(state, buffer)
        raise
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
        # Release the in-process worker's maps of the stored shards
        # before finalize cleans superseded files.
        _WORKER.clear()

    _flush(state, buffer)
    elapsed = time.monotonic() - started
    compacted = False
    if not paused:
        compacted = _compact_shards(state)

    ok_entries = [e for e in state.entries if e["status"] == "ok"]
    chunk_rows = sum(1 for spec in state.rows
                     if spec.get("kind") == "chunk")
    cached = sum(1 for e in ok_entries if e.get("cached"))
    extracted = sum(1 for e in ok_entries if e.get("cached") is False)
    reused = sum(1 for e in ok_entries if e.get("reused"))
    report = {
        "files": len(state.entries),
        "embedded": len(ok_entries),
        "embedded_fresh": len(ok_entries) - reused,
        "embeddings_reused": reused,
        "failures": len(state.entries) - len(ok_entries),
        "chunk_rows": chunk_rows,
        "cache": ({"hits": cached, "misses": extracted}
                  if state.options.get("use_cache", True) else None),
        "jobs": jobs,
        "ingest": {
            "state": "paused" if paused else "complete",
            "resumed": resumed,
            "ingest_mode": state.mode,
            "completed": state.completed,
            "total": len(paths),
            "session_designs": session_done,
            "session_rows": session_rows,
            "flushes": state.flushes,
            "flush_rows": config.flush_rows,
            "shards_written": len(state.shards),
            "compacted": compacted,
            "wall_seconds": elapsed,
            "designs_per_sec": session_done / max(elapsed, 1e-9),
            "rows_per_sec": session_rows / max(elapsed, 1e-9),
        },
    }
    _emit_progress(force=True)
    if paused:
        return None, report
    index = _finalize(state, model, service, config, report)
    return index, report
