"""``ingest``: fresh streaming ingests of a netlist corpus, the write path.

Each unit is one ``Corpus.ingest`` with ``jobs=1`` of the same corpus
(the 12 default eval families x ``INSTANCES`` netlist instances at the
eval's data seed) into an empty index root: extraction, chunking, WL
signatures and embedding per design, then durable shard, sidecar and
checkpoint writes and the IVF fit at finalize.  ``jobs=1`` keeps every
layer call in this process, where the wrappers can time it.  Units
repeat to fill about ``--seconds``, each timed between two probes of the
host's pace (:class:`common.Pace`) and scaled to the reference speed;
every unit must write the same index bytes.  ``--seed`` initialises the
model.
"""

import statistics

from common import (
    Pace,
    clock,
    end_to_end,
    layer_outcome,
    peak_rss_mb,
    sha256_files,
    units,
)

#: 24 designs, about 310 rows: enough for the IVF fit at finalize.
INSTANCES = 2
#: Nominal seconds per unit: 10 s of ``--seconds`` make 14 units, each
#: about 1 s on 2 cores, with the host's pace probed between them.
NOMINAL_UNIT_S = 0.7
SELF_QUERIES = 8
SELF_K = 5

#: What the workload imports; set-up times a fresh import of these.
MODULES = ("repro.api", "repro.core", "repro.index.ingest")


def _write_corpus(ctx):
    from repro.designs import materialize_netlist_corpus
    from repro.eval.runner import EvalConfig

    data = EvalConfig()
    return materialize_netlist_corpus(
        ctx.work / "corpus", families=list(data.families),
        instances_per_design=INSTANCES, seed=data.seed)


def _ranks_itself_first(name, result):
    """The file comes back at the best fused rank.

    Fused ranking gives each design the better of its embedding-channel
    and structural-channel ranks, and breaks ties toward the earlier
    entry.  A file queried against its own index wins the structural
    channel, so it holds the best fused rank, but may be listed after
    the embedding channel's winner (a design with an identical chunk
    scores cosine 1 there) and after exact duplicates of itself stored
    earlier.  Anything else ranked above it is a failure.
    """
    names = [match.name for match in result]
    if name not in names:
        return False
    rank = names.index(name)
    own = result[rank]
    above = result[:rank]
    others = [match for match in above
              if not (match.design == own.design
                      and match.score >= 1.0 - 1e-5
                      and match.struct == own.struct)]
    return not others or (len(others) == 1 and own.struct is not None
                          and all(match.struct <= own.struct
                                  for match in above))


def _check(corpus, report, paths, model, self_rank):
    """Entries == files, all ok, rows == designs + chunk rows, and, with
    ``self_rank``, a sample of corpus files each ranks itself first."""
    from repro.api import Detector, Session

    stats = corpus.stats()
    entries = corpus.entries
    bad = sum(1 for entry in entries if entry["status"] != "ok")
    rows = len(corpus.index.engine)
    checks = {
        "entries_equal_files": (report["files"] == len(paths)
                                == len(entries)),
        "all_ok": bad == 0,
        "rows_equal_designs_plus_chunks": (
            rows == stats["design_rows"] + stats["chunk_rows"]
            and stats["design_rows"] == len(paths)),
    }
    misses = 0
    if self_rank:
        session = Session(detector=Detector.from_model(model), corpus=corpus)
        sample = paths[::max(1, len(paths) // SELF_QUERIES)][:SELF_QUERIES]
        results = session.query([str(p) for p in sample], k=SELF_K)
        misses = sum(1 for path, result in zip(sample, results)
                     if not _ranks_itself_first(path.stem, result))
        checks["self_rank1"] = misses == 0
    return checks, bad + misses


def run(ctx):
    from repro.api import Corpus
    from repro.core import GNN4IP
    from repro.index.ingest import IngestConfig

    ctx.imported()

    def build(_rep):
        return (GNN4IP(seed=ctx.seed, featurizer="netlist"),
                IngestConfig(jobs=1))

    (model, config), setup_s = ctx.setup(build, MODULES)

    rates, windows, traced_s, untraced_s = [], [], [], []
    checks, attempted, failed, digests = {}, 0, 0, []
    rows = designs = 0
    paths = _write_corpus(ctx)
    count = units(ctx.seconds, NOMINAL_UNIT_S, 3)
    ingested = []
    pace = Pace()
    pace.probe()
    for unit in range(count):
        for traced in ctx.passes():
            root = ctx.work / f"index{unit}-{int(traced)}"
            with ctx.tracing(traced):
                start = clock()
                corpus, report = Corpus.ingest(root, paths, detector=model,
                                               config=config, fresh=True)
                end = clock()
            if traced:
                traced_s.append(end - start)
                windows.append((start, end))
            else:
                untraced_s.append(end - start)
                rates.append(len(paths) / (end - start))
            ingested.append((root, corpus, report))
        pace.probe()

    # Checked after the timed loop, so that the probes bracket each
    # ingest tightly.  Every ingest must write the same index bytes
    # (checked below), so the self-rank queries run on the first only.
    for unit, (root, corpus, report) in enumerate(ingested):
        unit_checks, unit_failed = _check(corpus, report, paths, model,
                                          self_rank=unit == 0)
        for name, ok in unit_checks.items():
            checks[name] = checks.get(name, True) and ok
        attempted += len(paths)
        failed += unit_failed
        designs += len(paths)
        rows += len(corpus.index.engine)
        digests.append(sha256_files(
            sorted((root / "shards").glob("*"))
            + sorted(root.glob("ivf*")) + [root / "signatures.json"]))
    checks["repeat_ingests_identical"] = len(set(digests)) == 1
    if ctx.tracer is not None:
        metrics = layer_outcome(ctx, windows, untraced_s, traced_s)
    else:
        design_s = statistics.median(pace.scaled(untraced_s)) / len(paths)
        metrics = end_to_end(setup_s, peak_rss_mb(), 1.0 / design_s,
                             1000.0 * design_s)
    return {
        "correct": all(checks.values()) and failed == 0,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": {"index_bytes": digests[0]},
        "details": {"units": count, "designs": designs, "rows": rows,
                    "unit_s": untraced_s, "pace_s": pace.samples,
                    "unit_designs_per_s": rates},
    }
