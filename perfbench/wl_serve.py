"""``serve``: open-loop HTTP load on the in-process server.

The input is a synthetic clustered 50k-row v4 index (16-wide unit rows,
the ``benchmarks/bench_serve.py`` recipe).  Set-up fits its IVF
quantizer and starts ``serve_entry.py`` (``workers=0``) in its own
process, until the server announces its port.  One asyncio generator
then sends single-vector ``/v1/query`` requests with ``k=10`` over at
most two keep-alive connections, on a fixed schedule per rung of a rate
ladder from 25% to 150% of ``CAPACITY``.  Each request is timed from
when it was due, so a stall also delays the requests queued behind it.

Two figures are gated: the median latency at the reference rung (40% of
capacity) and the throughput completed on the overload rung (150%),
where both connections stay busy, so it measures the server's sustained
capacity.  (A rung at 125% does not always saturate: capacity on a
shared machine moves by a fifth from run to run.)  The highest rung up
to which every rung meets the latency limit (``serve_max_rps``) is
recorded but not gated: it moves in whole rungs and flips between
neighbours from run to run.
"""

import asyncio
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from common import (
    clock,
    end_to_end,
    layer_outcome,
    peak_rss_mb,
    percentile,
    tail_percentile,
)

ROWS = 50000
HIDDEN = 16
SHARDS = 4
K = 10
CONNECTIONS = 2
#: Closed-loop requests per second over two connections when the
#: benchmark was written (2 cores); the ladder rates are fixed fractions.
CAPACITY = 400.0
#: (fraction of CAPACITY, share of --seconds).
LADDER = ((0.25, 0.075), (0.4, 0.4), (0.55, 0.075), (0.7, 0.075),
          (0.85, 0.075), (1.0, 0.075), (1.25, 0.075), (1.5, 0.3))
REFERENCE = 0.4
OVERLOAD = 1.5
#: Latency limit on the rung's tail: p99, or the highest percentile with
#: at least ten samples beyond it when a rung has fewer than 1000.
LIMIT_TAIL_S = 0.020
TIMEOUT_S = 5.0
CHECK_SAMPLE = 16
#: Throughput is the median rate over runs of this many consecutive
#: completions, which a few seconds of a faster or slower machine do not
#: move.
RUN = 20
READY_TIMEOUT_S = 120.0

#: What the workload imports; set-up times a fresh import of these.
MODULES = ("repro.api", "repro.client", "repro.index.ann")


def _write_index(root, seed):
    """A clustered synthetic index on disk, without its IVF file; returns
    (rows, meta, suspect vectors)."""
    import numpy as np

    from repro.index.shards import unit_rows_f32, write_shard
    from repro.index.store import FORMAT_VERSION

    rng = np.random.default_rng(seed)
    families = ROWS // 100
    centers = rng.standard_normal((families, HIDDEN))
    labels = rng.integers(0, families, size=ROWS)
    rows = unit_rows_f32(centers[labels]
                         + 0.15 * rng.standard_normal((ROWS, HIDDEN)))
    root.mkdir(parents=True)
    per = ROWS // SHARDS
    specs = [write_shard(root, i, rows[i * per:ROWS if i == SHARDS - 1
                                       else (i + 1) * per])
             for i in range(SHARDS)]
    meta = {"version": FORMAT_VERSION, "model_hash": "bench",
            "options": {"top": None, "level": "rtl", "use_cache": False},
            "store": {"dtype": "float32", "hidden": HIDDEN,
                      "shards": specs},
            "entries": [{"name": f"d{i:06d}", "path": f"d{i:06d}.v",
                         "key": f"{i:064d}", "design": f"fam{labels[i]}",
                         "status": "ok"} for i in range(ROWS)],
            "rows": [{"kind": "design", "name": f"d{i:06d}"}
                     for i in range(ROWS)]}
    picks = rng.choice(ROWS, size=4096, replace=False)
    suspects = unit_rows_f32(rows[picks]
                             + 0.05 * rng.standard_normal((len(picks),
                                                           HIDDEN)))
    return rows, meta, [[float(v) for v in s] for s in suspects]


def _fit_ivf(root, rows, meta, seed):
    from repro.index.ann import IVFIndex, ivf_filename

    clusters = max(16, min(1024, int(round(4 * ROWS ** 0.5))))
    IVFIndex.fit(rows, n_clusters=clusters, seed=seed).save(
        root / ivf_filename(0))
    meta = dict(meta, ivf={"file": ivf_filename(0), "clusters": clusters})
    (root / "meta.json").write_text(json.dumps(meta))


def _launch(root, trace_path=None):
    """Start a server process; returns (process, port) once it serves."""
    command = [sys.executable, str(Path(__file__).with_name(
        "serve_entry.py")), str(root)]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE)
    deadline = clock() + READY_TIMEOUT_S
    seen = b""
    while clock() < deadline:
        ready, _, _ = select.select([process.stdout], [], [],
                                    max(0.0, deadline - clock()))
        chunk = os.read(process.stdout.fileno(), 4096) if ready else b""
        seen += chunk
        for line in seen.decode().splitlines():
            if line.startswith("serving on http://"):
                return process, int(line.rsplit(":", 1)[1])
        if not chunk and process.poll() is not None:
            break
    _stop(process)
    raise RuntimeError(f"the server did not come up: {seen.decode()!r}")


def _stop(process):
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


async def _rung(client, rate, seconds, vectors, first):
    """Send ``rate * seconds`` requests on schedule; per-request latency
    from the due time, generator lateness, failures and backlog."""
    from repro.client import ServerError

    count = max(1, int(round(rate * seconds)))
    queue = asyncio.Queue()
    latencies, late, failures, done_at = [], [], [], []

    async def sender():
        while True:
            item = await queue.get()
            if item is None:
                return
            due, vector = item
            try:
                await asyncio.wait_for(client.query(vectors=[vector], k=K),
                                       TIMEOUT_S)
            except (ServerError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                failures.append(repr(exc))
                continue
            done_at.append(clock())
            latencies.append(done_at[-1] - due)

    senders = [asyncio.create_task(sender()) for _ in range(CONNECTIONS)]
    start = clock() + 0.01
    backlog_mid = 0
    for i in range(count):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(clock() - due)
        queue.put_nowait((due, vectors[(first + i) % len(vectors)]))
        if i == count // 2:
            backlog_mid = queue.qsize()
    backlog_end = queue.qsize()
    for _ in senders:
        queue.put_nowait(None)
    await asyncio.gather(*senders)
    end = clock()
    done_at.sort()
    gaps = [done_at[i + RUN] - done_at[i]
            for i in range(0, len(done_at) - RUN, RUN)]
    tail_q = tail_percentile(len(latencies))
    tail = percentile(latencies, tail_q) if latencies else float("inf")
    return {
        "rate": rate, "requests": count, "completed": len(latencies),
        "failures": len(failures), "errors": sorted(set(failures))[:3],
        "throughput": len(latencies) / (end - start),
        "sustained_rps": (RUN / statistics.median(gaps) if gaps
                          else float("nan")),
        "p50_ms": 1000.0 * percentile(latencies, 50),
        "p99_ms": 1000.0 * percentile(latencies, 99),
        "tail_q": tail_q,
        "tail_ms": 1000.0 * tail,
        "late_s": late, "latencies_s": latencies,
        "backlog_mid": backlog_mid, "backlog_end": backlog_end,
        "passed": (not failures and tail <= LIMIT_TAIL_S
                   and backlog_end <= backlog_mid + CONNECTIONS),
        "window": (start, end),
    }


async def _check(port, vectors, session):
    """Top-10 names from the server equal the in-process query's."""
    from repro.client import AsyncClient

    async with AsyncClient(port=port) as client:
        served = [await client.query(vectors=[v], k=K)
                  for v in vectors[:CHECK_SAMPLE]]
    local = session.query(vectors[:CHECK_SAMPLE], k=K)
    return all([m["name"] for m in answer["results"][0]["matches"]]
               == [m.name for m in result]
               for answer, result in zip(served, local))


async def _ladder(port, vectors, seconds, only_reference=False):
    from repro.client import AsyncClient

    rungs = []
    first = 0
    async with AsyncClient(port=port) as client:
        for fraction, share in LADDER:
            if only_reference and fraction != REFERENCE:
                continue
            rung = await _rung(client, fraction * CAPACITY, share * seconds,
                               vectors, first)
            rung["fraction"] = fraction
            first += rung["requests"]
            rungs.append(rung)
        stats = await client.stats()
    return rungs, stats


def run(ctx):
    import resource

    from repro.api import Corpus, Session

    ctx.imported()
    # Client and server share one CPU (the server inherits the mask), so
    # handing a request between them never waits for an idle virtual CPU
    # to wake, a delay that on a shared machine follows the host's load.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    ctx.notes["pinned_cpu"] = cpu
    root = ctx.work / "index"
    rows, meta, vectors = _write_index(root, ctx.seed)
    servers = {}
    trace_path = ctx.work / "server-spans.json"
    tracing = ctx.tracer is not None

    def build(rep):
        # A traced run keeps one untraced server (rep 0) for the
        # overhead reference and traces the last one.
        _fit_ivf(root, rows, meta, ctx.seed)
        traced = tracing and rep == 2
        process, port = _launch(root, trace_path if traced else None)
        if rep == 2 or (tracing and rep == 0):
            servers[rep] = (process, port)
        else:
            _stop(process)
        return port

    try:
        port, setup_s = ctx.setup(build, MODULES)
        session = Session(corpus=Corpus.open(root))
        identical = asyncio.run(_check(port, vectors, session))
        untraced_rungs = []
        if tracing:
            untraced_rungs, _ = asyncio.run(_ladder(
                servers[0][1], vectors, ctx.seconds, only_reference=True))
            _stop(servers.pop(0)[0])
        with ctx.tracing():
            rungs, stats = asyncio.run(_ladder(port, vectors, ctx.seconds))
    finally:
        for process, _ in servers.values():
            _stop(process)

    reference = next(r for r in rungs if r["fraction"] == REFERENCE)
    overload = next(r for r in rungs if r["fraction"] == OVERLOAD)
    best = None
    for rung in rungs:
        if not rung["passed"]:
            break
        best = rung
    attempted = sum(r["requests"] for r in rungs + untraced_rungs)
    failed = sum(r["failures"] for r in rungs + untraced_rungs)
    checks = {"all_responses_200": failed == 0,
              "served_equals_in_process": identical}
    if tracing:
        from spans import Tracer

        served = Tracer.load(trace_path)
        offset = max((s.id for s in ctx.tracer.spans), default=0)
        for span in served.spans:
            span.id += offset
            span.parent = None if span.parent is None \
                else span.parent + offset
        ctx.tracer.spans.extend(served.spans)
        for key, value in served.counts.items():
            ctx.tracer.counts[key] += value
        late = [s for r in rungs for s in r["late_s"]]
        metrics = layer_outcome(
            ctx, [r["window"] for r in rungs],
            [statistics.median(untraced_rungs[0]["latencies_s"])],
            [statistics.median(reference["latencies_s"])],
            extra={"server.batch_jobs_mean": stats["batch_jobs"]["mean"],
                   "server.request_s_p99": stats["request_seconds"]["p99"],
                   "client.late_ms_p99": 1000.0 * percentile(late, 99)})
    else:
        metrics = end_to_end(
            setup_s, peak_rss_mb(resource.RUSAGE_CHILDREN),
            overload["sustained_rps"], reference["p50_ms"])
    table = [{key: value for key, value in r.items()
              if key not in ("late_s", "latencies_s", "window")}
             | {"late_ms_p99": 1000.0 * percentile(r["late_s"], 99)}
             for r in rungs]
    return {
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": {},
        "details": {"rungs": table,
                    "serve_p50_ms": reference["p50_ms"],
                    "serve_p99_ms": reference["p99_ms"],
                    "serve_tail": {"percentile": reference["tail_q"],
                                   "ms": reference["tail_ms"],
                                   "samples": reference["completed"]},
                    "serve_max_rps": best["rate"] if best else None,
                    "serve_overload_rps": overload["sustained_rps"],
                    "batch_jobs_mean": stats["batch_jobs"]["mean"]},
    }
