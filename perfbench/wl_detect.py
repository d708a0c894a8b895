"""``detect``: the eval query phase as a batched read.

Set-up indexes the 48-design eval corpus (the 12 default eval families x
4 netlist instances, as ``gnn4ip eval`` builds it) under an untrained
netlist detector initialised from ``--seed`` and fits calibration on a
reduced scenario suite drawn with another data seed.  The timed unit is
the full default scenario suite (308 suspects in 12 scenarios, 56 of
them negatives, no suspect repeated) through ``Session.query(k=10)`` in
``BATCHES`` batched calls; units repeat on fresh suites to fill about
``--seconds``.  Corpus and suites come from the eval's data seed, so
every ``--seed`` does the same work.  The work is extraction-bound:
lexing, parsing, synthesis and lowering of every suspect, then chunking,
WL scoring, the grouped engine and calibration annotation.  There is no
training and no HTTP.
"""

import dataclasses
import hashlib
import statistics

from common import (
    Pace,
    clock,
    end_to_end,
    layer_outcome,
    peak_rss_mb,
    units,
)

K = 10
RECALL_FLOOR = 0.9
#: Calibration fit set: one suspect per family and scenario over half
#: the families, one theft fraction, two negatives per impostor family.
CALIBRATION = {"suspects_per_design": 1, "negatives_per_design": 2,
               "theft_fractions": (0.4,)}
CALIBRATION_FAMILIES = 6
#: Bootstrap refits for the confidence bands (the eval uses 32); fewer
#: keep the three set-ups of a run short.
CALIBRATION_BOOTSTRAP = 8
#: Seconds one unit took when the benchmark was written (2 cores).
NOMINAL_UNIT_S = 10.0
#: Each suite is queried in this many batches of about equal source
#: bytes; each batch, about half a second on 2 cores, is timed between
#: two probes of the host's pace (:class:`common.Pace`) and scaled to
#: the reference speed.
BATCHES = 16

#: What the workload imports; set-up times a fresh import of these.
MODULES = ("repro.api", "repro.core", "repro.designs", "repro.eval.runner")


def _batches(suite):
    """Split ``suite`` into :data:`BATCHES` batches of about equal
    source bytes, largest suspect first into the lightest batch.

    A batch's time follows its source bytes (correlation 0.97 over the
    default suite), so equal batches take equal times and the median
    batch is a steady measure of the whole suite, which one batch slowed
    by the host does not move.
    """
    batches = [[] for _ in range(BATCHES)]
    loads = [0] * BATCHES
    for suspect in sorted(suite, key=lambda s: -len(s.source)):
        lightest = loads.index(min(loads))
        batches[lightest].append(suspect)
        loads[lightest] += len(suspect.source)
    return batches


def _ranked(results):
    return [[result.label, [(m.name, round(float(m.score), 9))
                            for m in result]] for result in results]


def run(ctx):
    from repro.api import Corpus, Detector, IndexConfig, Session
    from repro.core import GNN4IP
    from repro.designs import materialize_netlist_corpus
    from repro.eval.runner import (
        EvalConfig,
        fit_session_calibration,
        scenario_suite,
    )

    ctx.imported()
    config = EvalConfig(calibration_seed=ctx.seed)
    calibration_config = dataclasses.replace(
        config, seed=config.seed + 1,
        families=config.families[:CALIBRATION_FAMILIES], **CALIBRATION)
    paths = materialize_netlist_corpus(
        ctx.work / "corpus", families=list(config.families),
        instances_per_design=config.corpus_instances, seed=config.seed)
    calibration_suspects = scenario_suite(calibration_config)

    def build(rep):
        detector = Detector.from_model(GNN4IP(seed=ctx.seed,
                                              featurizer="netlist"))
        corpus, _ = Corpus.build(ctx.work / f"index{rep}", paths, detector,
                                 IndexConfig(level="netlist"))
        session = Session(detector=detector, corpus=corpus)
        results = session.query([s.source for s in calibration_suspects],
                                k=K,
                                labels=[s.name for s in calibration_suspects])
        artifact = fit_session_calibration(
            session, calibration_config, suspects=calibration_suspects,
            results=results, bootstrap=CALIBRATION_BOOTSTRAP)
        artifact.save(corpus.root)
        corpus.set_calibration(artifact)
        return session

    session, setup_s = ctx.setup(build, MODULES)

    windows, traced_s, untraced_s = [], [], []
    attempted = failed = hits = pirated = queried = 0
    calibrated = complete = True
    ranked = []
    count = units(ctx.seconds, NOMINAL_UNIT_S, 1)
    suites = [scenario_suite(dataclasses.replace(config,
                                                 seed=config.seed + 2 * unit))
              for unit in range(count)]
    pace = Pace()
    pace.probe()
    for suite in suites:
        for batch in _batches(suite):
            for traced in ctx.passes():
                with ctx.tracing(traced):
                    start = clock()
                    results = session.query([s.source for s in batch], k=K,
                                            labels=[s.name for s in batch])
                    end = clock()
                if traced:
                    traced_s.append(end - start)
                    windows.append((start, end))
                else:
                    untraced_s.append(end - start)
                    queried += len(batch)
                attempted += len(batch)
                complete &= len(results) == len(batch)
                for suspect, result in zip(batch, results):
                    matches = list(result)
                    ok = bool(matches) and all(m.probability is not None
                                               for m in matches)
                    calibrated &= ok
                    failed += not ok
                    if suspect.pirated:
                        pirated += 1
                        hits += any(m.design == suspect.true_design
                                    for m in matches[:K])
                ranked.append(hashlib.sha256(
                    repr(_ranked(results)).encode()).hexdigest())
            pace.probe()

    recall = hits / pirated if pirated else 0.0
    checks = {"recall_at_10": recall >= RECALL_FLOOR,
              "calibrated_probability": calibrated,
              "one_result_per_suspect": complete}
    if ctx.tracer is not None:
        metrics = layer_outcome(ctx, windows, untraced_s, traced_s)
    else:
        # Suspect time from the median batch and the mean batch size.
        suspect_s = (statistics.median(pace.scaled(untraced_s))
                     * len(untraced_s) / queried)
        metrics = end_to_end(setup_s, peak_rss_mb(), 1.0 / suspect_s,
                             1000.0 * suspect_s)
    return {
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digests": {"ranked": hashlib.sha256(
            "".join(ranked[::len(ctx.passes())]).encode()).hexdigest()},
        "details": {"units": count, "unit_s": untraced_s,
                    "pace_s": pace.samples,
                    "recall_at_10": recall,
                    "pirated": pirated,
                    "calibration_suspects": len(calibration_suspects)},
    }
