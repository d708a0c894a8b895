"""The per-layer metric table: which public functions the traced run
wraps, and how their spans and counters become per-layer metrics.

Layers are the repository's own modules (``designs``, ``core``, ``nn``,
``verilog``, ``dataflow``, ``synth``, ``netlist``, ``index``, ``calib``,
``api``, ``server``, ``client``).  A ``*_s`` metric is the busy time of
that layer's spans (their summed durations); a ``*_self_s`` metric
subtracts the time its child spans cover.  Both are summed over every
traced unit of the run, set-up included.
"""

import os
import threading
import time


def _calls(key):
    return lambda args, kwargs, result: {key: 1}


def _pack_counts(args, kwargs, result):
    return {"nn.pack_calls": 1, "nn.pack_nodes": int(result.offsets[-1])}


def _parse_counts(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"verilog.parse_bytes": len(text.encode("utf-8"))}


def _cell_counts(args, kwargs, result):
    return {"synth.cells": len(result.gates)}


def _ir_counts(args, kwargs, result):
    return {"netlist.ir_nodes": len(result)}


def _chunk_counts(args, kwargs, result):
    return {"index.chunks_count": len(result)}


def _embed_counts(args, kwargs, result):
    return {"index.embed_graphs": int(result.shape[0])}


def _cache_load_counts(args, kwargs, result):
    cache, key = args[0], args[1]
    if result is None:
        return {}
    return {"index.cache_bytes": os.path.getsize(cache.blob_path(key))}


def _cache_store_counts(args, kwargs, result):
    cache, key = args[0], args[1]
    path = cache.blob_path(key)
    return ({"index.cache_bytes": os.path.getsize(path)}
            if os.path.exists(path) else {})


def _shard_counts(args, kwargs, result):
    matrix = args[2] if len(args) > 2 else kwargs["unit_matrix"]
    return {"index.shard_write_bytes": int(matrix.nbytes)}


def _group_counts(args, kwargs, result):
    return {"index.engine_queries": len(result)}


#: (module, qualname, span name, counter) — one row per wrapped call.
TARGETS = (
    ("repro.designs.corpus", "netlist_ir_records", "designs.records", None),
    ("repro.core.hw2vec", "HW2VEC.prepare", "core.prepare",
     _calls("core.prepare_calls")),
    ("repro.core.trainer", "Trainer.train_epoch", "core.train_epoch", None),
    ("repro.nn.batch", "pack_prepared", "nn.pack", _pack_counts),
    ("repro.nn.batch", "batched_forward_tensor", "nn.forward", None),
    ("repro.nn.batch", "batched_forward", "nn.forward", None),
    ("repro.nn.batch", "batched_pair_loss", "nn.loss", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optim", None),
    ("repro.nn.optim", "Optimizer.zero_grad", "nn.optim", None),
    ("repro.verilog.preprocess", "preprocess", "verilog.preprocess", None),
    ("repro.verilog.parser", "parse", "verilog.parse", _parse_counts),
    ("repro.dataflow.elaborate", "elaborate", "dataflow.elaborate", None),
    ("repro.synth.synthesize", "synthesize", "synth.synthesize",
     _cell_counts),
    ("repro.netlist.to_ir", "netlist_to_ir", "netlist.to_ir", _ir_counts),
    ("repro.index.chunks", "extract_chunks", "index.chunks", _chunk_counts),
    ("repro.index.wlsig", "wl_colors", "index.wl_colors", None),
    ("repro.index.service", "EmbeddingService.embed_graphs", "index.embed",
     _embed_counts),
    ("repro.index.wlsig", "SignatureScorer.scores", "index.wl_score", None),
    ("repro.index.cache", "DFGCache.load", "index.cache",
     _cache_load_counts),
    ("repro.index.cache", "DFGCache.store", "index.cache",
     _cache_store_counts),
    ("repro.index.shards", "write_shard", "index.shard_write",
     _shard_counts),
    ("repro.index.ingest", "ingest_corpus", "index.ingest", None),
    ("repro.index.ann", "IVFIndex.fit", "index.ivf_fit", None),
    ("repro.index.engine", "QueryEngine.query_groups", "index.engine",
     _group_counts),
    ("repro.index.engine", "QueryEngine.query_many", "index.engine",
     _group_counts),
    ("repro.eval.runner", "fit_session_calibration", "calib.fit", None),
    ("repro.calib.calibration", "Calibration.annotate_matches",
     "calib.annotate", None),
    ("repro.api.facade", "Session.query", "api.query", None),
    ("repro.api.types", "QueryResult.as_dict", "api.as_dict", None),
    ("repro.server.http", "response_bytes", "server.response_bytes", None),
    ("repro.client", "AsyncClient.request", "client.request", None),
)

#: (metric, unit, source) in report order.  ``source`` is ``("busy",
#: span)``, ``("self", span)`` or ``("count", key)``; the serve-only
#: figures that come from ``/v1/stats`` or the load generator are filled
#: in by the serve workload and listed with source ``None``.
METRICS = (
    ("designs.records_s", "s", ("busy", "designs.records")),
    ("core.prepare_s", "s", ("busy", "core.prepare")),
    ("core.prepare_calls", "count", ("count", "core.prepare_calls")),
    ("core.train_epoch_self_s", "s", ("self", "core.train_epoch")),
    ("nn.pack_s", "s", ("busy", "nn.pack")),
    ("nn.pack_calls", "count", ("count", "nn.pack_calls")),
    ("nn.pack_nodes", "count", ("count", "nn.pack_nodes")),
    ("nn.forward_s", "s", ("busy", "nn.forward")),
    ("nn.loss_s", "s", ("busy", "nn.loss")),
    ("nn.backward_s", "s", ("busy", "nn.backward")),
    ("nn.optim_s", "s", ("busy", "nn.optim")),
    ("verilog.preprocess_s", "s", ("busy", "verilog.preprocess")),
    ("verilog.parse_s", "s", ("busy", "verilog.parse")),
    ("verilog.parse_bytes", "B", ("count", "verilog.parse_bytes")),
    ("dataflow.elaborate_s", "s", ("busy", "dataflow.elaborate")),
    ("synth.synthesize_s", "s", ("busy", "synth.synthesize")),
    ("synth.cells", "count", ("count", "synth.cells")),
    ("netlist.to_ir_s", "s", ("busy", "netlist.to_ir")),
    ("netlist.ir_nodes", "count", ("count", "netlist.ir_nodes")),
    ("index.chunks_s", "s", ("busy", "index.chunks")),
    ("index.chunks_count", "count", ("count", "index.chunks_count")),
    ("index.wl_colors_s", "s", ("busy", "index.wl_colors")),
    ("index.embed_s", "s", ("busy", "index.embed")),
    ("index.embed_graphs", "count", ("count", "index.embed_graphs")),
    ("index.wl_score_s", "s", ("busy", "index.wl_score")),
    ("index.cache_s", "s", ("busy", "index.cache")),
    ("index.cache_bytes", "B", ("count", "index.cache_bytes")),
    ("index.shard_write_s", "s", ("busy", "index.shard_write")),
    ("index.shard_write_bytes", "B", ("count", "index.shard_write_bytes")),
    ("index.ingest_self_s", "s", ("self", "index.ingest")),
    ("index.ivf_fit_s", "s", ("busy", "index.ivf_fit")),
    ("index.engine_s", "s", ("busy", "index.engine")),
    ("index.engine_queries", "count", ("count", "index.engine_queries")),
    ("calib.fit_s", "s", ("busy", "calib.fit")),
    ("calib.annotate_s", "s", ("busy", "calib.annotate")),
    ("api.query_self_s", "s", ("self", "api.query")),
    ("api.as_dict_s", "s", ("busy", "api.as_dict")),
    ("server.read_request_s", "s", ("busy", "server.read_request")),
    ("server.response_bytes_s", "s", ("busy", "server.response_bytes")),
    ("server.batch_wait_s", "s", ("count", "server.batch_wait_s")),
    ("server.batch_jobs_mean", "count", None),
    ("server.request_s_p99", "s", None),
    ("client.request_s", "s", ("busy", "client.request")),
    ("client.late_ms_p99", "ms", None),
    ("trace.unattributed_pct", "%", None),
    ("trace.overhead_pct", "%", None),
)


def install(tracer):
    """Wrap every target in :data:`TARGETS` (server hooks included)."""
    for module, qualname, name, counter in TARGETS:
        tracer.patch(module, qualname, name, counter)
    _install_server_hooks(tracer)


def _install_server_hooks(tracer):
    """Spans that need more than a wrapper around one call.

    - ``server.read_request`` starts when the request head has arrived,
      not when the handler began waiting on an idle keep-alive socket:
      ``StreamReader.readuntil`` stamps its return time per task.
    - ``server.batch_wait_s`` is the time from ``MicroBatcher.submit``
      to the start of the batch that processes the job.
    """
    import asyncio

    head_at = {}
    submitted = {}
    lock = threading.Lock()

    def stamp_readuntil(fn):
        async def readuntil(self, *args, **kwargs):
            data = await fn(self, *args, **kwargs)
            task = asyncio.current_task()
            if task is not None:
                head_at[task] = time.perf_counter()
            return data
        return readuntil

    def time_read_request(fn):
        async def read_request(reader):
            request = await fn(reader)
            started = head_at.pop(asyncio.current_task(), None)
            if tracer.enabled and request is not None and started:
                tracer.add("server.read_request", started, time.perf_counter())
            return request
        return read_request

    def stamp_submit(fn):
        async def submit(self, job):
            with lock:
                submitted[id(job)] = time.perf_counter()
            return await fn(self, job)
        return submit

    def time_batch_wait(fn):
        def process(self, jobs):
            now = time.perf_counter()
            with lock:
                waits = [now - submitted.pop(id(job), now) for job in jobs]
            tracer.count("server.batch_wait_s", sum(waits))
            return fn(self, jobs)
        return process

    tracer.patch("asyncio.streams", "StreamReader.readuntil", None,
                 wrapper=stamp_readuntil)
    tracer.patch("repro.server.http", "read_request", None,
                 wrapper=time_read_request)
    tracer.patch("repro.server.batcher", "MicroBatcher.submit", None,
                 wrapper=stamp_submit)
    tracer.patch("repro.server.app", "ReproServer._process_query_jobs",
                 None, wrapper=time_batch_wait)


def layer_metrics(tracer, extra=None):
    """Every per-layer metric as ``{name: {"value", "unit"}}``.

    Layers that do not run on a workload report 0.  ``extra`` carries
    the figures with no span source (see :data:`METRICS`).
    """
    busy = tracer.busy()
    own = tracer.self_times()
    extra = extra or {}
    out = {}
    for metric, unit, source in METRICS:
        if source is None:
            value = extra.get(metric, 0.0)
        else:
            kind, key = source
            value = {"busy": busy, "self": own,
                     "count": tracer.counts}[kind].get(key, 0.0)
        out[metric] = {"value": float(value), "unit": unit}
    return out
