"""Corpus-scale fingerprint index.

Treats graph extraction as a cacheable, parallelizable build step and
embedding as a batched query service.  :func:`ingest_corpus` is the one
index writer — a fresh build, an in-place append and a resumed run are
its three modes: a worker pool extracts (through a content-addressed
graph cache), chunks and embeds each design, copies designs the index
already stores, and streams unit float32 rows into memory-mapped shards
that open without decompressing or copying.  The
:class:`~repro.index.engine.QueryEngine` answers whole batches of top-k
nearest-design queries per BLAS pass, optionally pre-filtered by an IVF
coarse quantizer (:mod:`repro.index.ann`) that probes only the nearest
clusters and re-ranks candidates exactly.
"""

from repro.index.ann import IVFIndex
from repro.index.cache import CacheStats, DFGCache, content_key
from repro.index.chunks import ChunkConfig, extract_chunks
from repro.index.engine import QueryEngine, QueryHit
from repro.index.ingest import (
    IngestConfig,
    default_jobs,
    ingest_corpus,
    walk_sources,
)
from repro.index.service import EmbeddingService, model_fingerprint
from repro.index.shards import ShardStore
from repro.index.store import FingerprintIndex, migrate_index
from repro.index.wlsig import SignatureScorer, wl_colors

__all__ = [
    "CacheStats", "DFGCache", "content_key",
    "ChunkConfig", "extract_chunks", "default_jobs",
    "EmbeddingService", "model_fingerprint",
    "FingerprintIndex", "IngestConfig", "QueryEngine", "QueryHit",
    "IVFIndex", "ShardStore", "SignatureScorer",
    "ingest_corpus", "migrate_index", "walk_sources", "wl_colors",
]
